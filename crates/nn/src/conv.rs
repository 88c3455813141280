//! 2-D convolution, one lowering-free route per geometry.
//!
//! A [`Conv2d`] is either 3×3 stride 1 (any padding) or 1×1 stride 1 with
//! no padding; [`Conv2d::new`] panics on anything else and names the
//! geometry. The dispatch is on that geometry alone:
//!
//! * **3×3** runs `vc_tensor::conv_direct`'s fused kernels, which read the
//!   image through a zero-padded staging copy (and can apply a
//!   pre-activation unit's BN→ReLU while staging — see `preact`);
//! * **1×1** runs `vc_tensor::ops`'s GEMMs on the `[batch, ch, h·w]`
//!   planes: for this geometry the im2col matrix would only be the
//!   transpose of the input.
//!
//! Both routes cache the input itself for backward. Each output element is
//! the same fused-multiply-add chain, in the same order, as the im2col +
//! GEMM lowering, which survives only as the test oracle: see
//! `conv_direct_props.rs` for the kernel-level check and
//! `tests/tests/conv_paths.rs` for a trajectory pinned while the lowering
//! was still the production route.

use crate::layer::{FusionPart, Layer};
use vc_tensor::conv_direct::{
    self, conv3x3_backward_dk_pre_into, conv3x3_dx_into, conv3x3_forward_pre_into, BnRelu,
};
use vc_tensor::ops::{
    conv1x1_backward_dk_into, conv1x1_backward_dx_into, conv1x1_forward_into, ConvGeom, Epilogue,
};
use vc_tensor::tensor::he_normal_into;
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A 2-D convolution over `[batch, in_ch, h, w]` inputs producing
/// `[batch, out_ch, oh, ow]`, 3×3 stride 1 or 1×1 stride 1 unpadded.
///
/// Its slice of the parameter vector is the kernel flattened as
/// `[out_ch, in_ch * k * k]` — the layout in which the forward pass is a
/// product against the (never materialized) im2col matrix — then the bias.
pub struct Conv2d {
    /// The parameters [`Conv2d::new`] drew, until the layer joins a model.
    drawn: Vec<f32>,
    in_ch: usize,
    out_ch: usize,
    /// Kernel side: 3 or 1.
    k: usize,
    pad: usize,
    /// The input of the last caching forward, kept for backward.
    cache: Option<Tensor>,
    /// When set (by [`Sequential::fuse_relu`](crate::Sequential::fuse_relu)),
    /// the forward epilogue also applies `max(0, ·)` so the following ReLU
    /// layer becomes mask-only.
    pub(crate) fused_relu: bool,
}

impl Conv2d {
    /// Builds a convolution with He-normal kernels (fan-in = `in_ch·k·k`).
    ///
    /// # Panics
    ///
    /// On any geometry but 3×3 stride 1 or 1×1 stride 1 pad 0. A model file
    /// comes from outside the program, so the message names the layer.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        sampler: &mut NormalSampler,
    ) -> Self {
        let mut conv = Self::blank(in_ch, out_ch, k, stride, pad);
        let mut drawn = vec![0.0; conv.arena_len()];
        conv.init_params(&mut drawn, Some(sampler));
        Conv2d { drawn, ..conv }
    }

    /// [`Conv2d::new`] with an all-zero kernel and no sampler draw, for a
    /// replica whose parameters are loaded before it runs. Same panics.
    pub(crate) fn blank(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Self {
        assert!(
            matches!((k, stride, pad), (3, 1, _) | (1, 1, 0)),
            "Conv2d runs 3×3 stride 1 (any pad) or 1×1 stride 1 pad 0, not \
             in_ch {in_ch}, out_ch {out_ch}, k {k}, stride {stride}, pad {pad}"
        );
        Conv2d {
            drawn: Vec::new(),
            in_ch,
            out_ch,
            k,
            pad,
            cache: None,
            fused_relu: false,
        }
    }

    /// Floats of the flattened kernel, the head of the layer's slice.
    fn kernel_len(&self) -> usize {
        self.out_ch * self.in_ch * self.k * self.k
    }

    fn geom_for(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            h,
            w,
            kh: self.k,
            kw: self.k,
            stride: 1,
            pad: self.pad,
        }
    }

    /// Batch size and geometry for input `x`, its shape checked.
    fn checked_geom(&self, x: &Tensor) -> (usize, ConvGeom) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "Conv2d expects [batch, ch, h, w]");
        assert_eq!(dims[1], self.in_ch, "Conv2d channel mismatch");
        (dims[0], self.geom_for(dims[2], dims[3]))
    }

    /// Gives the cache back to `ws`: last step's, before the forward takes
    /// anything (so one warm-up step is enough to make the pool
    /// self-sufficient); a fused unit's, as soon as its backward has read
    /// it; or an inference forward's, kept only for a residual skip to read.
    pub(crate) fn recycle_cache(&mut self, ws: &mut Workspace) {
        if let Some(prev) = self.cache.take() {
            ws.recycle(prev.into_vec());
        }
    }

    /// Whether this convolution can close a pre-activation unit over `ch`
    /// channels: a 3×3 one, whose staging pass is where the unit's prologue
    /// runs.
    pub(crate) fn takes_prologue(&self, ch: usize) -> bool {
        self.in_ch == ch && self.k == 3
    }

    /// Forward over parameters `p` on this geometry's route. With `cache`
    /// (every training forward) the input itself is kept for backward — the
    /// *raw* input when `pre` is given, since backward's staging pass
    /// re-applies the prologue; otherwise it goes back to `ws`. Only a 3×3
    /// convolution takes a `pre`.
    pub(crate) fn forward_direct(
        &mut self,
        p: &[f32],
        x: Tensor,
        pre: Option<BnRelu<'_>>,
        cache: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        let (batch, geom) = self.checked_geom(&x);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        self.recycle_cache(ws);
        let mut y = ws.take(batch * self.out_ch * oh * ow);
        let (kernel, bias) = p.split_at(self.kernel_len());
        let epi = Epilogue::bias(bias, self.fused_relu);
        if self.k == 1 {
            debug_assert!(pre.is_none(), "a 1×1 convolution takes no prologue");
            conv1x1_forward_into(&x, kernel, &mut y, epi);
        } else {
            let mut stage = ws.take(conv_direct::fwd_scratch_len(batch, self.in_ch, geom));
            conv3x3_forward_pre_into(&x, pre, kernel, geom, &mut y, epi, &mut stage);
            ws.recycle(stage);
        }
        if cache {
            self.cache = Some(x);
        } else {
            ws.recycle(x.into_vec());
        }
        Tensor::from_vec(y, &[batch, self.out_ch, oh, ow])
    }

    /// Backward of [`forward_direct`](Self::forward_direct), with the same
    /// `p` and `pre`, accumulating into `g`. The returned gradient is with
    /// respect to what the kernel convolved — the activated tensor when
    /// `pre` is given. `dy` is only read: it stays the caller's to recycle
    /// or to keep.
    pub(crate) fn backward_direct(
        &mut self,
        p: &[f32],
        g: &mut [f32],
        dy: &Tensor,
        pre: Option<BnRelu<'_>>,
        ws: &mut Workspace,
    ) -> Tensor {
        let geom = self.param_grads(g, dy, pre, ws);
        let batch = dy.dims()[0];
        let dx_len = batch * self.in_ch * geom.h * geom.w;
        let kernel = &p[..self.kernel_len()];
        let mut dx = ws.take(dx_len);
        if self.k == 1 {
            conv1x1_backward_dx_into(dy, kernel, &mut dx);
        } else {
            let mut scratch = ws.take(conv_direct::dx_scratch_len(batch, self.in_ch, self.out_ch));
            conv3x3_dx_into(dy, kernel, self.in_ch, geom, &mut dx, &mut scratch);
            ws.recycle(scratch);
        }
        Tensor::from_vec(dx, &[batch, self.in_ch, geom.h, geom.w])
    }

    /// The parameter half of [`backward_direct`](Self::backward_direct):
    /// the kernel and bias gradients into `g`, from the cached input.
    /// Returns the cached input's geometry.
    fn param_grads(
        &mut self,
        g: &mut [f32],
        dy: &Tensor,
        pre: Option<BnRelu<'_>>,
        ws: &mut Workspace,
    ) -> ConvGeom {
        let Some(x) = &self.cache else {
            panic!("Conv2d::backward called without a cached forward");
        };
        let dims = x.dims();
        let (batch, geom) = (dims[0], self.geom_for(dims[2], dims[3]));
        let (dkernel, dbias) = g.split_at_mut(self.kernel_len());
        if self.k == 1 {
            conv1x1_backward_dk_into(dy, x, dkernel);
        } else {
            let mut scratch = ws.take(conv_direct::dk_scratch_len(self.in_ch, self.out_ch, geom));
            conv3x3_backward_dk_pre_into(dy, x, pre, geom, dkernel, &mut scratch);
            ws.recycle(scratch);
        }
        // dbias += per-channel sums of dy. Each channel's chain runs over
        // (batch, pixel) ascending — row-ascending order over the lowered
        // route's `[rows, out_ch]` dy matrix, so this matches its
        // column-sum loop bit for bit.
        let mut colsum = ws.take(self.out_ch);
        let ohw = geom.out_h() * geom.out_w();
        let dyd = dy.data();
        for (oc, s) in colsum.iter_mut().enumerate() {
            for b in 0..batch {
                let plane = &dyd[(b * self.out_ch + oc) * ohw..][..ohw];
                for v in plane {
                    *s += v;
                }
            }
        }
        for (d, s) in dbias.iter_mut().zip(colsum.iter()) {
            *d += s;
        }
        ws.recycle(colsum);
        geom
    }

    /// The input the last caching [`forward_direct`](Self::forward_direct)
    /// kept.
    pub(crate) fn cached_input(&self) -> &Tensor {
        self.cache.as_ref().expect("Conv2d has no cached forward")
    }
}

impl Layer for Conv2d {
    fn forward_ws(&mut self, p: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_direct(p, x, None, train, ws)
    }

    fn backward_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        let dx = self.backward_direct(p, g, &dy, None, ws);
        ws.recycle(dy.into_vec());
        dx
    }

    fn backward_params_ws(&mut self, _: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) {
        self.param_grads(g, &dy, None, ws);
        ws.recycle(dy.into_vec());
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Conv(self)
    }

    fn arena_len(&self) -> usize {
        self.kernel_len() + self.out_ch
    }

    fn init_params(&mut self, p: &mut [f32], sampler: Option<&mut NormalSampler>) {
        if !self.drawn.is_empty() {
            p.copy_from_slice(&std::mem::take(&mut self.drawn));
        } else if let Some(s) = sampler {
            let fan_in = self.in_ch * self.k * self.k;
            he_normal_into(&mut p[..self.kernel_len()], fan_in, s);
        }
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 4);
        let geom = self.geom_for(in_dims[2], in_dims[3]);
        vec![in_dims[0], self.out_ch, geom.out_h(), geom.out_w()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::model::Sequential;
    use crate::pool::MaxPool2;

    fn conv(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Conv2d {
        let mut s = NormalSampler::seed_from(21);
        Conv2d::new(in_ch, out_ch, k, stride, pad, &mut s)
    }

    /// [`conv`] as a one-layer model.
    fn model(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Sequential {
        Sequential::new().push(conv(in_ch, out_ch, k, stride, pad))
    }

    #[test]
    fn forward_shape() {
        let mut c = model(3, 8, 3, 1, 1);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = c.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        assert_eq!(c.out_dims(&[2, 3, 16, 16]), vec![2, 8, 16, 16]);
    }

    /// Every geometry without a route panics at build time, naming the
    /// layer — before any input reaches it.
    #[test]
    fn unsupported_geometry_is_rejected_by_name() {
        for (k, stride, pad) in [
            (3, 2, 1),
            (5, 1, 2),
            (3, 0, 1),
            (1, 1, 1),
            (1, 2, 0),
            (2, 1, 0),
        ] {
            let err = std::panic::catch_unwind(|| conv(2, 4, k, stride, pad))
                .err()
                .unwrap_or_else(|| panic!("k {k} stride {stride} pad {pad} was accepted"));
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            let geometry = format!("in_ch 2, out_ch 4, k {k}, stride {stride}, pad {pad}");
            assert!(msg.contains(&geometry), "{msg}");
        }
    }

    /// `resnet_lite` downsamples with `MaxPool2` then the 1×1 widening
    /// conv, not with a strided conv: that pair gives the shape a 3×3
    /// stride-2 pad-1 conv would, and the strided conv itself is refused.
    #[test]
    fn strided_forward_shape() {
        let mut down = Sequential::new()
            .push(MaxPool2::new())
            .push(conv(1, 4, 1, 1, 0));
        let y = down.forward(&Tensor::zeros(&[1, 1, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        assert_eq!(down.out_dims(&[1, 1, 8, 8]), vec![1, 4, 4, 4]);
        assert!(std::panic::catch_unwind(|| conv(1, 4, 3, 2, 1)).is_err());
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 conv, single channel, kernel weight 1, bias 0 = identity.
        let mut c = model(1, 1, 1, 1, 0);
        c.set_params_flat(&[1.0, 0.0]);
        let mut s = NormalSampler::seed_from(3);
        let x = Tensor::randn(&[2, 1, 4, 4], 0.0, 1.0, &mut s);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let mut c = model(1, 2, 1, 1, 0);
        c.set_params_flat(&[0.0, 0.0, 1.5, -2.0]); // zero kernels, biases 1.5 / -2.0
        let y = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        let d = y.data();
        assert!(d[..4].iter().all(|&v| v == 1.5));
        assert!(d[4..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn gradcheck_inputs() {
        let mut s = NormalSampler::seed_from(31);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut model(2, 3, 3, 1, 1), &x, 2e-2);
        gradcheck::check_input_grad(&mut model(2, 3, 1, 1, 0), &x, 2e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut c = model(2, 3, 1, 1, 0);
        let mut s = NormalSampler::seed_from(32);
        let x = Tensor::randn(&[2, 2, 3, 3], 0.0, 1.0, &mut s);
        gradcheck::check_param_grad(&mut c, &x, 2e-2);
    }

    /// Input and parameter gradients through the stride-2 step of
    /// `resnet_lite`: the 1×1 conv's `dx` lands on the 2×2 window maxima.
    #[test]
    fn gradcheck_strided() {
        let mut down = Sequential::new()
            .push(MaxPool2::new())
            .push(conv(2, 3, 1, 1, 0));
        // A permutation of values 0.1 apart: no window holds a near-tie
        // that a finite-difference step could cross.
        let n = 2 * 2 * 4 * 4;
        let vals = (0..n).map(|i| ((i * 37) % n) as f32 * 0.1 - 1.5).collect();
        let x = Tensor::from_vec(vals, &[2, 2, 4, 4]);
        gradcheck::check_input_grad(&mut down, &x, 2e-2);
        gradcheck::check_param_grad(&mut down, &x, 2e-2);
    }

    #[test]
    fn param_roundtrip() {
        let c = model(2, 4, 3, 1, 1);
        let p = c.params_flat();
        assert_eq!(p.len(), c.param_count());
        assert_eq!(p.len(), 4 * 2 * 9 + 4);
        let mut blank = Sequential::new().push(Conv2d::blank(2, 4, 3, 1, 1));
        blank.set_params_flat(&p);
        assert_eq!(blank.params_flat(), p);
    }

    #[test]
    fn dispatch_is_on_geometry_alone() {
        let mut s = NormalSampler::seed_from(35);
        let x = Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut s);
        // 3×3 (either padding) runs the direct kernels, 1×1 the GEMMs on
        // the image layout; both keep the input itself for backward, and
        // both give every buffer back once warm.
        for (k, pad) in [(3, 1), (3, 0), (1, 0)] {
            let mut c = conv(2, 3, k, 1, pad);
            let mut p = vec![0.0; c.arena_len()];
            c.init_params(&mut p, None);
            let _ = c.forward_ws(&mut p, x.clone(), true, &mut Workspace::new());
            assert_eq!(c.cached_input().data(), x.data(), "k {k} pad {pad}");
            gradcheck::check_steady_state_pool(&mut model(2, 3, k, 1, pad), &x);
        }
    }
}
