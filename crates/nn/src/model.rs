//! The [`Sequential`] model container and the parameter vector it owns.

use crate::conv::Conv2d;
use crate::layer::{BoxedLayer, FusionPart};
use crate::norm::BatchNorm;
use crate::preact;
use std::ops::Range;
use vc_tensor::shape::MAX_RANK;
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A model as an ordered pipeline of layers, and the one parameter vector
/// they run on: the `W` of the paper's Eq. (1), in the wire order the
/// distributed layer exchanges. The gradient vector has the same offsets
/// and is sized on the first backward pass, so a replica that only scores
/// never holds one. Layers hold only their layout; the traversal hands
/// each its slices. Every pass runs on the replica's own buffer pool, which
/// stays warm from one pass, workunit or scoring to the next.
///
/// As a [`Residual`](crate::Residual) block's body, its parameter vector
/// holds the body's starting values until the block joins a pipeline,
/// which takes them over.
#[derive(Default)]
pub struct Sequential {
    pub(crate) pipe: Pipeline,
    pub(crate) params: Vec<f32>,
    grads: Vec<f32>,
    /// The buffer pool the passes draw activations and scratch from.
    ws: Workspace,
}

/// The layers of a [`Sequential`] and where their parameters sit, apart
/// from the vectors they sit in, so a traversal can borrow both.
#[derive(Default)]
pub(crate) struct Pipeline {
    layers: Vec<BoxedLayer>,
    /// Where each layer's slice of the parameter vector ends.
    ends: Vec<usize>,
    /// The slices of the parameter vector that are buffers, not trained:
    /// every BatchNorm's running statistics, nested ones included.
    buffers: Vec<Range<usize>>,
    /// Whether the fusion peepholes have run over this pipeline.
    fused: bool,
    /// Index of the `BatchNorm` heading each pre-activation unit
    /// (`BatchNorm → Relu → Conv2d`, three consecutive layers) the
    /// traversal runs as one [`preact`] step; ascending.
    preact_units: Vec<usize>,
}

impl Sequential {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a boxed layer, which writes its starting values into its
    /// slice of the parameter vector (grown unless a builder sized it).
    pub fn push_boxed(&mut self, mut layer: BoxedLayer) {
        let start = self.pipe.arena_len();
        let end = start + layer.arena_len();
        self.params
            .reserve_exact(end.saturating_sub(self.params.len()));
        self.params.resize(end.max(self.params.len()), 0.0);
        layer.init_params(&mut self.params[start..end], None);
        self.pipe.push(layer);
    }

    /// Number of layers.
    pub(crate) fn len(&self) -> usize {
        self.pipe.layers.len()
    }

    /// Total number of scalar parameters (the paper's model has 4,972,746).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The parameter vector, in wire order.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Copies the parameter vector out.
    pub fn params_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Installs a flat parameter vector. Panics when the length disagrees
    /// with `param_count()` — a corrupted blob must never half-load.
    pub fn set_params_flat(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.params.len(),
            "parameter vector does not match model"
        );
        self.params.copy_from_slice(params);
    }

    /// Clears the gradient vector.
    pub fn zero_grads_all(&mut self) {
        self.grads.fill(0.0);
    }

    /// The parameter vector, the gradient vector (sized if no backward pass
    /// has yet) and the buffer ranges: BatchNorm running statistics, which
    /// travel with the weights but are not trained (gradient `+0.0`).
    pub fn arena(&mut self) -> (&mut [f32], &mut [f32], &[Range<usize>]) {
        self.size_grads();
        (&mut self.params, &mut self.grads, &self.pipe.buffers)
    }

    fn size_grads(&mut self) {
        if self.grads.len() != self.params.len() {
            self.grads = vec![0.0; self.params.len()];
        }
    }

    /// Elements per sample of the widest activation a layer of this
    /// pipeline hands the next one, for samples of shape `sample_dims`.
    /// The model's input and its output are not hidden; a layer that keeps
    /// its input's width (activation, normalization, flatten, a residual
    /// block) adds nothing, since its output is no wider than what it
    /// reads — the input itself or an activation counted already. Top-level
    /// layers only: a residual block's body runs at its block's width.
    pub(crate) fn widest_hidden(&self, sample_dims: &[usize]) -> usize {
        let layers = &self.pipe.layers;
        let mut dims = [&[1], sample_dims].concat();
        let mut widest = 0;
        for l in layers.iter().take(layers.len().saturating_sub(1)) {
            let out = l.out_dims(&dims);
            let (read, wrote) = (dims.iter().product(), out.iter().product::<usize>());
            if wrote != read {
                widest = widest.max(wrote);
            }
            dims = out;
        }
        widest
    }

    /// Output shape for a given input shape.
    pub(crate) fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        let mut dims = in_dims.to_vec();
        for l in &self.pipe.layers {
            dims = l.out_dims(&dims);
        }
        dims
    }

    /// Runs the fusion peepholes, here and in every nested pipeline
    /// (residual bodies). Each is bit-exact and saves whole passes over an
    /// activation:
    ///
    /// * a ReLU that directly follows a fusion-capable layer (dense, conv)
    ///   moves into that layer's GEMM epilogue — the downstream values and
    ///   masks are unchanged (`relu(x) > 0 ⇔ x > 0`);
    /// * a `BatchNorm(ch) → Relu → Conv2d(ch → ·, 3×3, stride 1)`
    ///   pre-activation unit becomes one `preact` step of the traversal.
    ///
    /// Idempotent; called automatically by the trainer and by
    /// [`crate::metrics::evaluate`].
    pub fn fuse_relu(&mut self) {
        let pipe = &mut self.pipe;
        if pipe.fused {
            return;
        }
        pipe.fused = true;
        for l in &mut pipe.layers {
            if let FusionPart::Body(body) = l.fusion_part() {
                body.fuse_relu();
            }
        }
        let mut i = 0;
        while i + 2 < pipe.layers.len() {
            if pipe.preact_parts(i).is_some() {
                pipe.preact_units.push(i);
                i += 3;
            } else {
                i += 1;
            }
        }
        // A unit's ReLU follows a BatchNorm, which has no epilogue to offer,
        // so the two peepholes never compete for one.
        for i in 1..pipe.layers.len() {
            let (head, tail) = pipe.layers.split_at_mut(i);
            let epilogue = match head[i - 1].fusion_part() {
                FusionPart::Dense(dense) => &mut dense.fused_relu,
                FusionPart::Conv(conv) => &mut conv.fused_relu,
                _ => continue,
            };
            if let FusionPart::Relu(relu) = tail[0].fusion_part() {
                *epilogue = true;
                relu.fused_upstream = true;
            }
        }
    }

    /// Forward over the whole pipeline: tensors move by value, buffers
    /// recycle through the replica's pool.
    fn forward_pipeline(&mut self, x: Tensor, train: bool) -> Tensor {
        self.pipe
            .forward(&mut self.params, x, train, false, &mut self.ws)
    }

    /// Forward over rows `rows` of `x` (`[n, …]`), gathered into a pooled
    /// batch in that order: a trainer's shuffled mini-batch, a scorer's
    /// contiguous pass.
    pub fn forward_rows(
        &mut self,
        x: &Tensor,
        rows: impl ExactSizeIterator<Item = usize>,
        train: bool,
    ) -> Tensor {
        let rank = x.dims().len();
        let sample_len: usize = x.dims()[1..].iter().product();
        let mut dims = [0usize; MAX_RANK];
        dims[0] = rows.len();
        dims[1..rank].copy_from_slice(&x.dims()[1..]);
        let mut batch = self.ws.take(dims[0] * sample_len);
        for (bi, i) in rows.enumerate() {
            batch[bi * sample_len..(bi + 1) * sample_len]
                .copy_from_slice(&x.data()[i * sample_len..(i + 1) * sample_len]);
        }
        self.forward_pipeline(Tensor::from_vec(batch, &dims[..rank]), train)
    }

    /// Returns a tensor a pass handed out, such as logits already read, to
    /// the replica's pool.
    pub(crate) fn recycle(&mut self, t: Tensor) {
        self.ws.recycle(t.into_vec());
    }

    /// Forward on the caller's pool `ws`, which the frozen
    /// `benchmark/src/probes.rs` times.
    #[doc(hidden)]
    pub fn forward_pipeline_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.pipe.forward(&mut self.params, x, train, false, ws)
    }

    /// Backward over the whole pipeline on the caller's pool `ws`, which
    /// also holds the returned input gradient's buffer. The name is the one
    /// the frozen `benchmark/src/probes.rs` calls.
    pub fn backward_pipeline_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        self.size_grads();
        let end = self.len();
        self.pipe
            .backward_span(&self.params, &mut self.grads, dy, 0, end, ws)
    }

    /// Backward for a training step, on the replica's pool: parameter
    /// gradients accumulate exactly as in
    /// [`backward_pipeline_ws`](Self::backward_pipeline_ws), but the
    /// gradient with respect to the pipeline's input — which has no reader
    /// — is never formed. The pass stops at the first parameterised layer,
    /// which runs
    /// [`Layer::backward_params_ws`](crate::layer::Layer::backward_params_ws);
    /// the parameter-free layers before it are not run at all.
    pub fn backward_params(&mut self, dy: Tensor) {
        self.size_grads();
        self.pipe
            .backward_params(&self.params, &mut self.grads, dy, &mut self.ws);
    }
}

impl Pipeline {
    /// The slice of the parameter (and gradient) vector layers `i..j` own.
    fn spans(&self, i: usize, j: usize) -> Range<usize> {
        let at = |i: usize| i.checked_sub(1).map_or(0, |i| self.ends[i]);
        at(i)..at(j)
    }

    /// Floats of the parameter vector this pipeline's layers own.
    pub(crate) fn arena_len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Lays `layer` out after the last one, leaving every parameter vector
    /// alone: its slice is the next `arena_len()` floats of whichever
    /// vector the traversal is handed.
    pub(crate) fn push(&mut self, mut layer: BoxedLayer) {
        let start = self.arena_len();
        let end = start + layer.arena_len();
        let shift = |r: &Range<usize>| r.start + start..r.end + start;
        match layer.fusion_part() {
            FusionPart::Norm(bn) => self.buffers.push(shift(&bn.buffer_range())),
            FusionPart::Body(body) => self.buffers.extend(body.pipe.buffers.iter().map(shift)),
            _ => {}
        }
        self.ends.push(end);
        self.layers.push(layer);
    }

    /// [`Layer::init_params`](crate::layer::Layer::init_params) for every
    /// layer, on its slice of `p`.
    pub(crate) fn init_params(&mut self, p: &mut [f32], mut sampler: Option<&mut NormalSampler>) {
        let mut start = 0;
        for (l, &end) in self.layers.iter_mut().zip(&self.ends) {
            l.init_params(&mut p[start..end], sampler.as_deref_mut());
            start = end;
        }
    }

    /// The normalization and convolution of the pre-activation unit that
    /// starts at layer `i`, if layers `i..i + 3` form one.
    fn preact_parts(&mut self, i: usize) -> Option<(&mut BatchNorm, &mut Conv2d)> {
        let [bn, relu, conv] = self.layers.get_mut(i..i + 3)? else {
            return None;
        };
        match (bn.fusion_part(), relu.fusion_part(), conv.fusion_part()) {
            (FusionPart::Norm(bn), FusionPart::Relu(_), FusionPart::Conv(conv))
                if conv.takes_prologue(bn.channels()) =>
            {
                Some((bn, conv))
            }
            _ => None,
        }
    }

    /// The forward traversal over parameters `p`. With `keep_head_input`,
    /// a pre-activation unit at layer 0 keeps its input after an inference
    /// forward as well as a training one, for a residual block to read
    /// through [`head_conv`](Self::head_conv).
    pub(crate) fn forward(
        &mut self,
        p: &mut [f32],
        x: Tensor,
        train: bool,
        keep_head_input: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut cur = x;
        let mut i = 0;
        while i < self.layers.len() {
            if self.preact_units.binary_search(&i).is_ok() {
                let p = &mut p[self.spans(i, i + 3)];
                let (bn, conv) = self.preact_parts(i).expect("recorded by fuse_relu");
                cur = preact::forward(bn, conv, p, cur, train, keep_head_input && i == 0, ws);
                i += 3;
            } else {
                let span = self.spans(i, i + 1);
                cur = self.layers[i].forward_ws(&mut p[span], cur, train, ws);
                i += 1;
            }
        }
        cur
    }

    /// Backward over layers `start..end`, last step first, accumulating
    /// into the gradient vector `g`.
    pub(crate) fn backward_span(
        &mut self,
        p: &[f32],
        g: &mut [f32],
        dy: Tensor,
        start: usize,
        mut end: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut cur = dy;
        while end > start {
            if end >= start + 3 && self.preact_units.binary_search(&(end - 3)).is_ok() {
                let span = self.spans(end - 3, end);
                let (bn, conv) = self.preact_parts(end - 3).expect("recorded by fuse_relu");
                let dx = preact::backward(bn, conv, &p[span.clone()], &mut g[span], &cur, None, ws);
                ws.recycle(cur.into_vec());
                cur = dx;
                end -= 3;
            } else {
                let span = self.spans(end - 1, end);
                cur = self.layers[end - 1].backward_ws(&p[span.clone()], &mut g[span], cur, ws);
                end -= 1;
            }
        }
        cur
    }

    /// The convolution of the fused pre-activation unit heading this
    /// pipeline, if one does: the one that keeps the pipeline's own input —
    /// which a [`Residual`](crate::Residual) body's skip path reads.
    pub(crate) fn head_conv(&mut self) -> Option<&mut Conv2d> {
        if self.preact_units.first() != Some(&0) {
            return None;
        }
        self.preact_parts(0).map(|(_, conv)| conv)
    }

    /// `F'(dy) + dy` for a residual body `F` that a unit both heads and
    /// closes, with no copy of `dy`: the closing unit only reads `dy`, and
    /// the heading unit's batch-norm backward adds it where it writes
    /// `dx`. `None` for any other body; `dy` stays the caller's.
    pub(crate) fn backward_residual(
        &mut self,
        p: &[f32],
        g: &mut [f32],
        dy: &Tensor,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let n = self.layers.len();
        if self.preact_units.first() != Some(&0) || self.preact_units.last() != Some(&(n - 3)) {
            return None;
        }
        let (head, tail) = (self.spans(0, 3), self.spans(n - 3, n));
        let (bn, conv) = self.preact_parts(n - 3).expect("recorded by fuse_relu");
        if n == 3 {
            return Some(preact::backward(bn, conv, p, g, dy, Some(dy), ws));
        }
        let d = preact::backward(bn, conv, &p[tail.clone()], &mut g[tail], dy, None, ws);
        let d = self.backward_span(p, g, d, 3, n - 3, ws);
        let (bn, conv) = self.preact_parts(0).expect("recorded by fuse_relu");
        let dx = preact::backward(bn, conv, &p[head.clone()], &mut g[head], &d, Some(dy), ws);
        ws.recycle(d.into_vec());
        Some(dx)
    }

    /// [`Sequential::backward_params`] over parameters `p`, into `g`.
    fn backward_params(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) {
        let Some(first) = (0..self.layers.len()).find(|&i| !self.spans(i, i + 1).is_empty()) else {
            return ws.recycle(dy.into_vec());
        };
        let end = self.layers.len();
        if self.preact_units.binary_search(&first).is_ok() {
            // A unit's normalization is the first parameterised layer: the
            // unit runs whole, and its input gradient goes back unread.
            let dx = self.backward_span(p, g, dy, first, end, ws);
            ws.recycle(dx.into_vec());
        } else {
            let d = self.backward_span(p, g, dy, first + 1, end, ws);
            let span = self.spans(first, first + 1);
            self.layers[first].backward_params_ws(&p[span.clone()], &mut g[span], d, ws);
        }
    }
}

#[cfg(test)]
impl Sequential {
    /// Appends a layer (builder style).
    pub(crate) fn push(mut self, layer: impl crate::layer::Layer + 'static) -> Self {
        self.push_boxed(Box::new(layer));
        self
    }

    /// Where the fused pre-activation units start: this pipeline's first,
    /// then each nested body's, in layer order.
    pub(crate) fn preact_unit_map(&mut self) -> Vec<Vec<usize>> {
        let mut map = vec![self.pipe.preact_units.clone()];
        for l in &mut self.pipe.layers {
            if let FusionPart::Body(body) = l.fusion_part() {
                map.extend(body.preact_unit_map());
            }
        }
        map
    }

    /// A forward against a throwaway workspace, leaving `x` intact.
    pub(crate) fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_pipeline_ws(x.clone(), train, &mut Workspace::new())
    }

    /// A backward against a throwaway workspace, leaving `dy` intact.
    pub(crate) fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_pipeline_ws(dy.clone(), &mut Workspace::new())
    }

    /// The gradient vector (empty before the first backward pass).
    pub(crate) fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The replica's buffer pool.
    pub(crate) fn pool(&mut self) -> &mut Workspace {
        &mut self.ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::gradcheck::ones;
    use crate::loss::SoftmaxCrossEntropy;
    use vc_tensor::NormalSampler;

    fn tiny_model(seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        Sequential::new()
            .push(Dense::new(4, 8, &mut s))
            .push(Relu::new())
            .push(Dense::new(8, 3, &mut s))
    }

    #[test]
    fn forward_shapes_compose() {
        let mut m = tiny_model(1);
        let y = m.forward(&Tensor::zeros(&[5, 4]), false);
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(m.out_dims(&[5, 4]), vec![5, 3]);
    }

    #[test]
    fn widest_hidden_skips_input_output_and_width_keeping_layers() {
        use crate::spec::{mlp, resnet_lite, small_cnn};
        let img = [3, 32, 32];
        assert_eq!(tiny_model(1).widest_hidden(&[4]), 8);
        // The flatten that heads an MLP passes its input through.
        assert_eq!(mlp(&img, 512, 10).build(1).widest_hidden(&img), 512);
        // The first convolution: 16 channels at the input's side.
        for spec in [small_cnn(&img, 10), resnet_lite(&img, 2, 10)] {
            assert_eq!(spec.build(1).widest_hidden(&img), 16 * 32 * 32);
        }
        assert_eq!(Sequential::new().widest_hidden(&[4]), 0);
    }

    #[test]
    fn flat_params_roundtrip() {
        let m = tiny_model(2);
        let p = m.params_flat();
        assert_eq!(p.len(), m.param_count());
        assert_eq!(p.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut m2 = tiny_model(3);
        m2.set_params_flat(&p);
        assert_eq!(m2.params_flat(), p);
    }

    #[test]
    fn identical_params_give_identical_outputs() {
        let mut a = tiny_model(4);
        let mut b = tiny_model(5);
        b.set_params_flat(&a.params_flat());
        let mut s = NormalSampler::seed_from(6);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut s);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn rejects_wrong_length_vector() {
        tiny_model(7).set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        // The end-to-end sanity check: backprop through the whole pipeline
        // must reduce the training loss for a small step.
        let mut m = tiny_model(8);
        let mut s = NormalSampler::seed_from(9);
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut s);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();

        let logits = m.forward(&x, true);
        let (loss0, dlogits) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &labels);
        m.zero_grads_all();
        m.backward(&dlogits);
        let mut p = m.params_flat();
        let g = m.grads().to_vec();
        for (pi, gi) in p.iter_mut().zip(&g) {
            *pi -= 0.1 * gi;
        }
        m.set_params_flat(&p);
        let logits1 = m.forward(&x, true);
        let loss1 = SoftmaxCrossEntropy::loss(&logits1, &labels);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn grads_flat_matches_param_layout() {
        let mut m = tiny_model(10);
        let x = ones(&[2, 4]);
        let y = m.forward(&x, true);
        m.zero_grads_all();
        m.backward(&ones(y.dims()));
        assert_eq!(m.grads().len(), m.param_count());

        // Every builder: the gradient gather lines up with the parameters
        // after a training step, and the flat vector survives a load into
        // a blank replica bit for bit.
        use crate::spec::{mlp, resnet_lite, small_cnn};
        let img = [3, 8, 8];
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for spec in [
            mlp(&img, 16, 10),
            small_cnn(&img, 10),
            resnet_lite(&img, 2, 10),
        ] {
            let mut m = spec.build(10);
            let mut s = NormalSampler::seed_from(11);
            let y = m.forward(&Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut s), true);
            m.zero_grads_all();
            m.backward(&ones(y.dims()));
            assert_eq!(m.grads().len(), m.param_count(), "{}", spec.name);
            let p = m.params_flat();
            let mut blank = spec.build_blank();
            blank.set_params_flat(&p);
            assert_eq!(bits(blank.params_flat()), bits(p), "{}", spec.name);
        }
    }

    #[test]
    fn fused_training_step_is_bitwise_identical_to_unfused() {
        use crate::conv::Conv2d;
        use crate::pool::{Flatten, MaxPool2};

        let build = |seed| {
            let mut s = NormalSampler::seed_from(seed);
            Sequential::new()
                .push(Conv2d::new(1, 4, 3, 1, 1, &mut s))
                .push(Relu::new())
                .push(MaxPool2::new())
                .push(Flatten::new())
                .push(Dense::new(4 * 4 * 4, 8, &mut s))
                .push(Relu::new())
                .push(Dense::new(8, 3, &mut s))
        };
        let mut plain = build(40);
        let mut fused = build(41);
        fused.set_params_flat(&plain.params_flat());
        fused.fuse_relu();

        let mut s = NormalSampler::seed_from(42);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut s);
        let labels = [1usize, 2];
        let mut ws = Workspace::new();

        let logits_p = plain.forward(&x, true);
        let (loss_p, dy_p) = SoftmaxCrossEntropy::loss_and_grad_ws(logits_p.clone(), &labels);
        plain.zero_grads_all();
        plain.backward(&dy_p);

        let logits_f = fused.forward_pipeline_ws(x.clone(), true, &mut ws);
        assert_eq!(logits_p.data(), logits_f.data());
        let (loss_f, dy_f) = SoftmaxCrossEntropy::loss_and_grad_ws(logits_f, &labels);
        assert_eq!(loss_p.to_bits(), loss_f.to_bits());
        fused.zero_grads_all();
        let _ = fused.backward_pipeline_ws(dy_f, &mut ws);
        assert_eq!(plain.grads(), fused.grads());

        // Steady state: a second step must not miss the buffer pool.
        let (_, misses_warm) = ws.stats();
        let logits2 = fused.forward_pipeline_ws(x.clone(), true, &mut ws);
        let (_, dy2) = SoftmaxCrossEntropy::loss_and_grad_ws(logits2, &labels);
        let _ = fused.backward_pipeline_ws(dy2, &mut ws);
        let (_, misses_steady) = ws.stats();
        assert_eq!(misses_warm, misses_steady, "steady-state step allocated");
    }

    /// `backward_params` leaves the same parameter gradients as the full
    /// backward, whatever the first parameterised layer is: a `Dense`
    /// behind a `Flatten`, a 3×3 or a 1×1 `Conv2d`, a fused
    /// pre-activation unit, a nested body — and a model with no parameters
    /// at all only gives `dy` back to the pool.
    #[test]
    fn params_only_backward_leaves_the_full_backwards_gradients() {
        use crate::spec::{mlp, resnet_lite, small_cnn, LayerSpec, ModelSpec};

        let conv = |in_ch, out_ch, k, stride, pad| LayerSpec::Conv {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
        };
        let head = |ch: usize| {
            vec![
                LayerSpec::AvgPoolGlobal,
                LayerSpec::Dense {
                    input: ch,
                    output: 3,
                },
            ]
        };
        let custom = |name: &str, mut layers: Vec<LayerSpec>, ch: usize| {
            layers.extend(head(ch));
            ModelSpec {
                name: name.into(),
                input: vec![2, 8, 8],
                classes: 3,
                layers,
            }
        };
        let preact_unit = vec![
            LayerSpec::BatchNorm { ch: 2 },
            LayerSpec::Relu,
            conv(2, 2, 3, 1, 1),
        ];
        let specs = [
            mlp(&[2, 8, 8], 8, 3),
            small_cnn(&[2, 8, 8], 3),
            resnet_lite(&[2, 8, 8], 1, 3),
            custom("conv1x1-first", vec![conv(2, 4, 1, 1, 0)], 4),
            custom("unit-first", preact_unit.clone(), 2),
            custom(
                "body-first",
                vec![LayerSpec::Residual { body: preact_unit }],
                2,
            ),
            custom(
                "pool-then-conv",
                vec![LayerSpec::MaxPool2, conv(2, 4, 3, 1, 1)],
                4,
            ),
        ];
        for spec in specs {
            let (mut full, mut lean) = (spec.build(3), spec.build(3));
            full.fuse_relu();
            lean.fuse_relu();
            let mut ws_full = Workspace::new();
            let mut s = NormalSampler::seed_from(9);
            // A second step runs on the caches the first one left behind.
            for step in 0..2 {
                let x = Tensor::randn(&[4, 2, 8, 8], 0.0, 1.0, &mut s);
                let dy = Tensor::randn(&[4, 3], 0.0, 1.0, &mut s);
                let y_full = full.forward_pipeline_ws(x.clone(), true, &mut ws_full);
                let y_lean = lean.forward_pipeline(x, true);
                assert_eq!(y_full.data(), y_lean.data(), "{} step {step}", spec.name);
                full.zero_grads_all();
                lean.zero_grads_all();
                let _ = full.backward_pipeline_ws(dy.clone(), &mut ws_full);
                lean.backward_params(dy);
                let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(full.grads()),
                    bits(lean.grads()),
                    "{} step {step}",
                    spec.name
                );
            }
        }

        let mut bare = Sequential::new().push(Relu::new());
        let y = bare.forward_pipeline(ones(&[2, 3]), true);
        bare.backward_params(y);
        let ws = bare.pool();
        assert_eq!(ws.take(6).capacity(), 6, "dy went back to the pool");
        assert_eq!(ws.stats(), (1, 0));
    }

    #[test]
    fn fused_predict_matches_unfused_predict() {
        let mut plain = tiny_model(50);
        let mut fused = tiny_model(51);
        fused.set_params_flat(&plain.params_flat());
        fused.fuse_relu();
        let mut s = NormalSampler::seed_from(52);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut s);
        assert_eq!(
            plain.forward(&x, false).data(),
            fused.forward(&x, false).data()
        );
    }
}
