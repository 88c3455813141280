//! The [`Sequential`] model container.

use crate::conv::Conv2d;
use crate::layer::{self, BoxedLayer, FusionPart, Layer, ParamVisitor};
use crate::norm::BatchNorm;
use crate::preact;
use vc_tensor::{Tensor, Workspace};

/// A model as an ordered pipeline of layers.
///
/// `Sequential` itself implements [`Layer`], which lets [`crate::Residual`]
/// blocks nest arbitrary sub-pipelines. Its flat-parameter accessors are the
/// bridge to the distributed layer: [`Sequential::params_flat`] produces the
/// `W` vector of the paper's Eq. (1) and [`Sequential::set_params_flat`]
/// installs a server copy received over the (simulated) network.
pub struct Sequential {
    layers: Vec<BoxedLayer>,
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
        Sequential {
            layers: Vec::new(),
            fused: false,
            preact_units: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: BoxedLayer) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the pipeline has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of scalar parameters (the paper's model has 4,972,746).
    pub fn param_count(&mut self) -> usize {
        layer::param_len(self)
    }

    /// Copies all parameters into one flat vector.
    pub fn params_flat(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        layer::append_params(self, &mut out);
        out
    }

    /// Installs a flat parameter vector. Panics when the length disagrees
    /// with `param_count()` — a corrupted blob must never half-load.
    pub fn set_params_flat(&mut self, params: &[f32]) {
        let n = self.param_count();
        assert_eq!(
            params.len(),
            n,
            "parameter vector length {} does not match model ({n})",
            params.len(),
        );
        layer::install_params(self, params);
    }

    /// Copies all accumulated gradients into one flat vector (same layout as
    /// [`Self::params_flat`]; zeros where a buffer sits).
    pub fn grads_flat(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        layer::append_grads(self, &mut out);
        out
    }

    /// Clears gradients in every layer.
    pub fn zero_grads_all(&mut self) {
        layer::clear_grads(self);
    }

    /// Hands `f` each trained parameter tensor's values and gradient, with
    /// its offset in the flat vector: what clipping and the optimizer step
    /// visit. Buffers are skipped, and a gradient not sized yet is sized
    /// (zeros) first.
    pub fn visit_trained(&mut self, mut f: impl FnMut(usize, &mut [f32], &mut [f32])) {
        let mut off = 0;
        self.visit_params(&mut |p, g| {
            if let Some(g) = g {
                if g.numel() != p.numel() {
                    *g = Tensor::zeros(p.dims());
                }
                f(off, p.data_mut(), g.data_mut());
            }
            off += p.numel();
        });
    }

    /// Elements per sample of the widest activation a layer of this
    /// pipeline hands the next one, for samples of shape `sample_dims`.
    /// The model's input and its output are not hidden; a layer that keeps
    /// its input's width (activation, normalization, flatten, a residual
    /// block) adds nothing, since its output is no wider than what it
    /// reads — the input itself or an activation counted already. Top-level
    /// layers only: a residual block's body runs at its block's width.
    pub(crate) fn widest_hidden(&self, sample_dims: &[usize]) -> usize {
        let mut dims = [&[1], sample_dims].concat();
        let mut widest = 0;
        for l in self.layers.iter().take(self.layers.len().saturating_sub(1)) {
            let out = l.out_dims(&dims);
            let (read, wrote) = (dims.iter().product(), out.iter().product::<usize>());
            if wrote != read {
                widest = widest.max(wrote);
            }
            dims = out;
        }
        widest
    }

    /// Runs the pipeline in inference mode.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        Layer::forward(self, x, false)
    }

    /// Runs the fusion peepholes, here and in every nested pipeline
    /// (residual bodies). Each is bit-exact and saves whole passes over an
    /// activation:
    ///
    /// * a ReLU that directly follows a fusion-capable layer (dense, conv)
    ///   moves into that layer's GEMM epilogue — the downstream values and
    ///   masks are unchanged (`relu(x) > 0 ⇔ x > 0`);
    /// * a `BatchNorm(ch) → Relu → Conv2d(ch → ·, 3×3, stride 1)`
    ///   pre-activation unit becomes one [`preact`] step of the traversal.
    ///
    /// Idempotent; called automatically by the trainer and by
    /// [`crate::metrics::evaluate`].
    pub fn fuse_relu(&mut self) {
        if self.fused {
            return;
        }
        self.fused = true;
        for l in &mut self.layers {
            if let FusionPart::Body(body) = l.fusion_part() {
                body.fuse_relu();
            }
        }
        let mut i = 0;
        while i + 2 < self.layers.len() {
            if self.preact_parts(i).is_some() {
                self.preact_units.push(i);
                i += 3;
            } else {
                i += 1;
            }
        }
        // A unit's ReLU follows a BatchNorm, which has no epilogue to offer,
        // so the two peepholes never compete for one.
        for i in 1..self.layers.len() {
            let (head, tail) = self.layers.split_at_mut(i);
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

    /// Forward over the whole pipeline: tensors move by value, buffers
    /// recycle through `ws`.
    pub fn forward_pipeline(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_steps(x, train, false, ws)
    }

    /// The forward traversal. With `keep_head_input`, a pre-activation unit
    /// at layer 0 keeps its input after an inference forward as well as a
    /// training one, for a residual block to read through
    /// [`head_conv`](Self::head_conv).
    pub(crate) fn forward_steps(
        &mut self,
        x: Tensor,
        train: bool,
        keep_head_input: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut cur = x;
        let mut i = 0;
        while i < self.layers.len() {
            if self.preact_units.binary_search(&i).is_ok() {
                let (bn, conv) = self.preact_parts(i).expect("recorded by fuse_relu");
                cur = preact::forward(bn, conv, cur, train, keep_head_input && i == 0, ws);
                i += 3;
            } else {
                cur = self.layers[i].forward_ws(cur, train, ws);
                i += 1;
            }
        }
        cur
    }

    /// Backward over the whole pipeline; the returned input gradient's
    /// buffer also comes from `ws`.
    pub fn backward_pipeline(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        let end = self.layers.len();
        self.backward_span(dy, 0, end, ws)
    }

    /// [`forward_pipeline`](Self::forward_pipeline) under the old name,
    /// which the frozen `benchmark/src/probes.rs` calls.
    #[doc(hidden)]
    pub fn forward_pipeline_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_pipeline(x, train, ws)
    }

    /// [`backward_pipeline`](Self::backward_pipeline) under the old name,
    /// which the frozen `benchmark/src/probes.rs` calls.
    #[doc(hidden)]
    pub fn backward_pipeline_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_pipeline(dy, ws)
    }

    /// Backward over layers `start..end`, last step first.
    fn backward_span(
        &mut self,
        dy: Tensor,
        start: usize,
        mut end: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut cur = dy;
        while end > start {
            if end >= start + 3 && self.preact_units.binary_search(&(end - 3)).is_ok() {
                let (bn, conv) = self.preact_parts(end - 3).expect("recorded by fuse_relu");
                let dx = preact::backward(bn, conv, &cur, None, ws);
                ws.recycle(cur.into_vec());
                cur = dx;
                end -= 3;
            } else {
                cur = self.layers[end - 1].backward_ws(cur, ws);
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
    pub(crate) fn backward_residual(&mut self, dy: &Tensor, ws: &mut Workspace) -> Option<Tensor> {
        let n = self.layers.len();
        if self.preact_units.first() != Some(&0) || self.preact_units.last() != Some(&(n - 3)) {
            return None;
        }
        let (bn, conv) = self.preact_parts(n - 3).expect("recorded by fuse_relu");
        if n == 3 {
            return Some(preact::backward(bn, conv, dy, Some(dy), ws));
        }
        let d = preact::backward(bn, conv, dy, None, ws);
        let d = self.backward_span(d, 3, n - 3, ws);
        let (bn, conv) = self.preact_parts(0).expect("recorded by fuse_relu");
        let dx = preact::backward(bn, conv, &d, Some(dy), ws);
        ws.recycle(d.into_vec());
        Some(dx)
    }

    /// Backward for a training step: parameter gradients accumulate
    /// exactly as in [`backward_pipeline`](Self::backward_pipeline),
    /// but the gradient with respect to the pipeline's input — which has
    /// no reader — is never formed. The pass stops at the first
    /// parameterised layer, which runs
    /// [`Layer::backward_params_ws`]; the parameter-free layers before it
    /// are not run at all.
    pub fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        let Some(first) = self
            .layers
            .iter_mut()
            .position(|l| layer::param_len(l.as_mut()) > 0)
        else {
            return ws.recycle(dy.into_vec());
        };
        let end = self.layers.len();
        if self.preact_units.binary_search(&first).is_ok() {
            // A unit's normalization is the first parameterised layer: the
            // unit runs whole, and its input gradient goes back unread.
            let dx = self.backward_span(dy, first, end, ws);
            ws.recycle(dx.into_vec());
        } else {
            let d = self.backward_span(dy, first + 1, end, ws);
            self.layers[first].backward_params_ws(d, ws);
        }
    }

    /// One-line summary of the architecture, e.g. `conv2d→relu→…`.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join("→")
    }
}

#[cfg(test)]
impl Sequential {
    /// Where the fused pre-activation units start: this pipeline's first,
    /// then each nested body's, in layer order.
    pub(crate) fn preact_unit_map(&mut self) -> Vec<Vec<usize>> {
        let mut map = vec![self.preact_units.clone()];
        for l in &mut self.layers {
            if let FusionPart::Body(body) = l.fusion_part() {
                map.extend(body.preact_unit_map());
            }
        }
        map
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_pipeline(x, train, ws)
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_pipeline(dy, ws)
    }

    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        Sequential::backward_params_ws(self, dy, ws)
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Body(self)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        let mut dims = in_dims.to_vec();
        for l in &self.layers {
            dims = l.out_dims(&dims);
        }
        dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
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
        let y = m.predict(&Tensor::zeros(&[5, 4]));
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
        let mut m = tiny_model(2);
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
        assert_eq!(a.predict(&x).data(), b.predict(&x).data());
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
        let g = m.grads_flat();
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
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, true);
        m.zero_grads_all();
        m.backward(&Tensor::ones(y.dims()));
        assert_eq!(m.grads_flat().len(), m.param_count());

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
            m.backward(&Tensor::ones(y.dims()));
            assert_eq!(m.grads_flat().len(), m.param_count(), "{}", spec.name);
            let p = m.params_flat();
            let mut blank = spec.build_blank();
            blank.set_params_flat(&p);
            assert_eq!(bits(blank.params_flat()), bits(p), "{}", spec.name);
        }
    }

    #[test]
    fn summary_names_layers() {
        assert_eq!(tiny_model(11).summary(), "dense→relu→dense");
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

        let logits_f = fused.forward_pipeline(x.clone(), true, &mut ws);
        assert_eq!(logits_p.data(), logits_f.data());
        let (loss_f, dy_f) = SoftmaxCrossEntropy::loss_and_grad_ws(logits_f, &labels);
        assert_eq!(loss_p.to_bits(), loss_f.to_bits());
        fused.zero_grads_all();
        let _ = fused.backward_pipeline(dy_f, &mut ws);
        assert_eq!(plain.grads_flat(), fused.grads_flat());

        // Steady state: a second step must not miss the buffer pool.
        let (_, misses_warm) = ws.stats();
        let logits2 = fused.forward_pipeline(x.clone(), true, &mut ws);
        let (_, dy2) = SoftmaxCrossEntropy::loss_and_grad_ws(logits2, &labels);
        let _ = fused.backward_pipeline(dy2, &mut ws);
        let (_, misses_steady) = ws.stats();
        assert_eq!(misses_warm, misses_steady, "steady-state step allocated");
    }

    /// `backward_params_ws` leaves the same parameter gradients as the full
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
            let (mut ws_full, mut ws_lean) = (Workspace::new(), Workspace::new());
            let mut s = NormalSampler::seed_from(9);
            // A second step runs on the caches the first one left behind.
            for step in 0..2 {
                let x = Tensor::randn(&[4, 2, 8, 8], 0.0, 1.0, &mut s);
                let dy = Tensor::randn(&[4, 3], 0.0, 1.0, &mut s);
                let y_full = full.forward_pipeline(x.clone(), true, &mut ws_full);
                let y_lean = lean.forward_pipeline(x, true, &mut ws_lean);
                assert_eq!(y_full.data(), y_lean.data(), "{} step {step}", spec.name);
                full.zero_grads_all();
                lean.zero_grads_all();
                let _ = full.backward_pipeline(dy.clone(), &mut ws_full);
                lean.backward_params_ws(dy, &mut ws_lean);
                let bits = |g: Vec<f32>| g.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(full.grads_flat()),
                    bits(lean.grads_flat()),
                    "{} step {step}",
                    spec.name
                );
            }
        }

        let mut bare = Sequential::new().push(Relu::new());
        let mut ws = Workspace::new();
        let y = bare.forward_pipeline(Tensor::ones(&[2, 3]), true, &mut ws);
        bare.backward_params_ws(y, &mut ws);
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
        assert_eq!(plain.predict(&x).data(), fused.predict(&x).data());
    }
}
