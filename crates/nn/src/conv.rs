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

use crate::layer::{FusionPart, Layer, ParamVisitor};
use vc_tensor::conv_direct::{
    self, conv3x3_backward_dk_pre_into, conv3x3_backward_dx_into, conv3x3_forward_pre_into, BnRelu,
};
use vc_tensor::ops::{
    conv1x1_backward_dk_into, conv1x1_backward_dx_into, conv1x1_forward_into, ConvGeom, Epilogue,
};
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A 2-D convolution over `[batch, in_ch, h, w]` inputs producing
/// `[batch, out_ch, oh, ow]`, 3×3 stride 1 or 1×1 stride 1 unpadded.
///
/// The kernel is stored flattened as `[out_ch, in_ch * k * k]`, the layout
/// in which the forward pass is a product against the (never materialized)
/// im2col matrix.
pub struct Conv2d {
    kernel: Tensor,
    bias: Tensor,
    dkernel: Tensor,
    dbias: Tensor,
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
        Self::with_kernel(in_ch, out_ch, k, stride, pad, |dims, fan_in| {
            Tensor::he_normal(dims, fan_in, sampler)
        })
    }

    /// [`Conv2d::new`] with an all-zero kernel and no sampler draw, for a
    /// replica whose parameters are loaded before it runs. Same panics.
    pub fn blank(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Self {
        Self::with_kernel(in_ch, out_ch, k, stride, pad, |dims, _| Tensor::zeros(dims))
    }

    /// Checks the geometry, then builds the layer around
    /// `kernel([out_ch, fan_in], fan_in)`.
    fn with_kernel(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        kernel: impl FnOnce(&[usize], usize) -> Tensor,
    ) -> Self {
        assert!(
            matches!((k, stride, pad), (3, 1, _) | (1, 1, 0)),
            "Conv2d runs 3×3 stride 1 (any pad) or 1×1 stride 1 pad 0, not \
             in_ch {in_ch}, out_ch {out_ch}, k {k}, stride {stride}, pad {pad}"
        );
        let fan_in = in_ch * k * k;
        Conv2d {
            kernel: kernel(&[out_ch, fan_in], fan_in),
            bias: Tensor::zeros(&[out_ch]),
            dkernel: Tensor::zeros(&[out_ch, fan_in]),
            dbias: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            k,
            pad,
            cache: None,
            fused_relu: false,
        }
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

    /// Bias (or fused bias+ReLU) epilogue for the forward kernels.
    fn epilogue(&self) -> Epilogue<'_> {
        if self.fused_relu {
            Epilogue::BiasRelu(self.bias.data())
        } else {
            Epilogue::Bias(self.bias.data())
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

    /// Forward on this geometry's route. With `cache` (every training
    /// forward) the input itself is kept for backward — the *raw* input
    /// when `pre` is given, since backward's staging pass re-applies the
    /// prologue; otherwise it goes back to `ws`. Only a 3×3 convolution
    /// takes a `pre`.
    pub(crate) fn forward_direct(
        &mut self,
        x: Tensor,
        pre: Option<BnRelu<'_>>,
        cache: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        let (batch, geom) = self.checked_geom(&x);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        self.recycle_cache(ws);
        let mut y = ws.take(batch * self.out_ch * oh * ow);
        if self.k == 1 {
            debug_assert!(pre.is_none(), "a 1×1 convolution takes no prologue");
            conv1x1_forward_into(&x, &self.kernel, &mut y, self.epilogue());
        } else {
            let mut stage = ws.take(conv_direct::fwd_scratch_len(batch, self.in_ch, geom));
            conv3x3_forward_pre_into(
                &x,
                pre,
                &self.kernel,
                geom,
                &mut y,
                self.epilogue(),
                &mut stage,
            );
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
    /// `pre`. The returned gradient is with respect to what the kernel
    /// convolved — the activated tensor when `pre` is given. `dy` is only
    /// read: it stays the caller's to recycle or to keep.
    pub(crate) fn backward_direct(
        &mut self,
        dy: &Tensor,
        pre: Option<BnRelu<'_>>,
        ws: &mut Workspace,
    ) -> Tensor {
        let geom = self.param_grads(dy, pre, ws);
        let batch = dy.dims()[0];
        let dx_len = batch * self.in_ch * geom.h * geom.w;
        let dx = if self.k == 1 {
            let mut dx = ws.take(dx_len);
            conv1x1_backward_dx_into(dy, &self.kernel, &mut dx);
            dx
        } else {
            let mut scratch = ws.take(conv_direct::dx_scratch_len(batch, self.in_ch, self.out_ch));
            let mut dx = ws.take(dx_len);
            conv3x3_backward_dx_into(dy, &self.kernel, self.in_ch, geom, &mut dx, &mut scratch);
            ws.recycle(scratch);
            dx
        };
        Tensor::from_vec(dx, &[batch, self.in_ch, geom.h, geom.w])
    }

    /// The parameter half of [`backward_direct`](Self::backward_direct):
    /// `dkernel` and `dbias` from the cached input. Returns the cached
    /// input's geometry.
    fn param_grads(
        &mut self,
        dy: &Tensor,
        pre: Option<BnRelu<'_>>,
        ws: &mut Workspace,
    ) -> ConvGeom {
        let Some(x) = &self.cache else {
            panic!("Conv2d::backward called without a cached forward");
        };
        let dims = x.dims();
        let (batch, geom) = (dims[0], self.geom_for(dims[2], dims[3]));
        if self.k == 1 {
            conv1x1_backward_dk_into(dy, x, self.dkernel.data_mut());
        } else {
            let mut scratch = ws.take(conv_direct::dk_scratch_len(self.in_ch, self.out_ch, geom));
            conv3x3_backward_dk_pre_into(dy, x, pre, geom, self.dkernel.data_mut(), &mut scratch);
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
        for (d, s) in self.dbias.data_mut().iter_mut().zip(colsum.iter()) {
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
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_direct(x, None, train, ws)
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        let dx = self.backward_direct(&dy, None, ws);
        ws.recycle(dy.into_vec());
        dx
    }

    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        self.param_grads(&dy, None, ws);
        ws.recycle(dy.into_vec());
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Conv(self)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        f(&mut self.kernel, Some(&mut self.dkernel));
        f(&mut self.bias, Some(&mut self.dbias));
    }

    fn name(&self) -> &'static str {
        "conv2d"
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
    use crate::layer::{append_params, install_params, param_len};
    use crate::model::Sequential;
    use crate::pool::MaxPool2;

    fn conv(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Conv2d {
        let mut s = NormalSampler::seed_from(21);
        Conv2d::new(in_ch, out_ch, k, stride, pad, &mut s)
    }

    #[test]
    fn forward_shape() {
        let mut c = conv(3, 8, 3, 1, 1);
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
        let mut c = conv(1, 1, 1, 1, 0);
        install_params(&mut c, &[1.0, 0.0]);
        let mut s = NormalSampler::seed_from(3);
        let x = Tensor::randn(&[2, 1, 4, 4], 0.0, 1.0, &mut s);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let mut c = conv(1, 2, 1, 1, 0);
        install_params(&mut c, &[0.0, 0.0, 1.5, -2.0]); // zero kernels, biases 1.5 / -2.0
        let y = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        let d = y.data();
        assert!(d[..4].iter().all(|&v| v == 1.5));
        assert!(d[4..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn gradcheck_inputs() {
        let mut s = NormalSampler::seed_from(31);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut conv(2, 3, 3, 1, 1), &x, 2e-2);
        gradcheck::check_input_grad(&mut conv(2, 3, 1, 1, 0), &x, 2e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut c = conv(2, 3, 1, 1, 0);
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
        let mut c = conv(2, 4, 3, 1, 1);
        let mut p = Vec::new();
        append_params(&mut c, &mut p);
        assert_eq!(p.len(), param_len(&mut c));
        assert_eq!(p.len(), 4 * 2 * 9 + 4);
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
            let mut ws = Workspace::new();
            let _ = c.forward_ws(x.clone(), true, &mut ws);
            assert_eq!(c.cached_input().data(), x.data(), "k {k} pad {pad}");
            gradcheck::check_steady_state_pool(&mut c, &x);
        }
    }
}
