//! 2-D convolution via im2col lowering, with a direct (implicit-GEMM)
//! fast path for 3×3 stride-1 kernels.
//!
//! The dispatch is on geometry alone: when [`conv_direct::supports`] the
//! shape (3×3, stride 1), forward and backward run `vc_tensor::conv_direct`'s
//! fused kernels and never materialize the im2col column matrix; every
//! other geometry takes the lowered route. Both routes are bit-identical by
//! construction — see the `conv_direct` module docs for the FMA-chain
//! argument, `conv_direct_props.rs` for the kernel-level check against the
//! im2col oracle and `tests/tests/conv_paths.rs` for a trajectory pinned
//! before the direct kernels existed.

use crate::layer::{FusionPart, Layer, ParamVisitor};
use vc_tensor::conv_direct::{
    self, conv3x3_backward_dk_pre_into, conv3x3_backward_dx_into, conv3x3_forward_pre_into, BnRelu,
};
use vc_tensor::ops::{
    col2im_into, im2col_into, matmul_a_bt_epi_into, matmul_at_b_epi_into, matmul_epi_into,
    ConvGeom, Epilogue,
};
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A 2-D convolution over `[batch, in_ch, h, w]` inputs producing
/// `[batch, out_ch, oh, ow]`.
///
/// The kernel is stored flattened as `[out_ch, in_ch * kh * kw]` so both the
/// forward pass and the weight gradient are single matmuls against the
/// im2col matrix — the same lowering TensorFlow and cuDNN use for small
/// kernels.
pub struct Conv2d {
    kernel: Tensor,
    bias: Tensor,
    dkernel: Tensor,
    dbias: Tensor,
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    cache: Option<ConvCache>,
    /// When set (by [`Layer::enable_relu_fusion`]), the GEMM epilogue also
    /// applies `max(0, ·)` so the following ReLU layer becomes mask-only.
    fused_relu: bool,
}

/// What the training forward stashed for backward. The im2col path keeps
/// the materialized column matrix; the direct 3×3 path keeps the input
/// images themselves (its dK kernel re-materializes one L1-sized band of
/// patch rows at a time, so the `[rows, patch]` matrix never exists).
/// Backward dispatches on this variant.
enum ConvCache {
    Cols {
        cols: Tensor,
        geom: ConvGeom,
        batch: usize,
    },
    Input {
        x: Tensor,
        geom: ConvGeom,
        batch: usize,
    },
}

impl ConvCache {
    /// Consumes the cache, returning its backing buffer for recycling.
    fn into_vec(self) -> Vec<f32> {
        match self {
            ConvCache::Cols { cols, .. } => cols.into_vec(),
            ConvCache::Input { x, .. } => x.into_vec(),
        }
    }
}

impl Conv2d {
    /// Builds a convolution with He-normal kernels (fan-in = `in_ch·kh·kw`).
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        sampler: &mut NormalSampler,
    ) -> Self {
        let fan_in = in_ch * k * k;
        Conv2d {
            kernel: Tensor::he_normal(&[out_ch, fan_in], fan_in, sampler),
            bias: Tensor::zeros(&[out_ch]),
            dkernel: Tensor::zeros(&[out_ch, fan_in]),
            dbias: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            kh: k,
            kw: k,
            stride,
            pad,
            cache: None,
            fused_relu: false,
        }
    }

    fn geom_for(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            h,
            w,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Permutes `[batch*oh*ow, out_ch]` (im2col output order) into the image
    /// layout `[batch, out_ch, oh, ow]`, writing into `out`.
    fn rows_to_images_into(
        src: &[f32],
        batch: usize,
        out_ch: usize,
        oh: usize,
        ow: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), batch * out_ch * oh * ow);
        for b in 0..batch {
            for p in 0..oh * ow {
                let row = (b * oh * ow + p) * out_ch;
                for c in 0..out_ch {
                    out[((b * out_ch + c) * oh * ow) + p] = src[row + c];
                }
            }
        }
    }

    /// Inverse of [`Self::rows_to_images_into`].
    fn images_to_rows_into(img: &Tensor, out: &mut [f32]) {
        let dims = img.dims();
        let (batch, ch, oh, ow) = (dims[0], dims[1], dims[2], dims[3]);
        debug_assert_eq!(out.len(), batch * oh * ow * ch);
        let src = img.data();
        for b in 0..batch {
            for c in 0..ch {
                for p in 0..oh * ow {
                    out[(b * oh * ow + p) * ch + c] = src[(b * ch + c) * oh * ow + p];
                }
            }
        }
    }

    /// Bias (or fused bias+ReLU) epilogue for the forward GEMM.
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
    /// channels: the direct kernels' geometry (which does not depend on
    /// the image size), whose staging pass is where the unit's prologue
    /// runs.
    pub(crate) fn takes_prologue(&self, ch: usize) -> bool {
        self.in_ch == ch && conv_direct::supports(&self.geom_for(0, 0))
    }

    /// Forward on the direct 3×3 path: no column matrix at all. With
    /// `cache` (every training forward) the input itself is kept for
    /// backward — the *raw* input when `pre` is given, since backward's
    /// staging pass re-applies the prologue; otherwise it goes back to `ws`.
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
        if cache {
            self.cache = Some(ConvCache::Input { x, geom, batch });
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
        let (geom, batch) = self.direct_grads(dy, pre, ws);
        let mut dx_scratch = ws.take(conv_direct::dx_scratch_len(batch, self.in_ch, self.out_ch));
        let mut dx = ws.take(batch * self.in_ch * geom.h * geom.w);
        conv3x3_backward_dx_into(
            dy,
            &self.kernel,
            self.in_ch,
            geom,
            &mut dx,
            &mut dx_scratch,
        );
        ws.recycle(dx_scratch);
        Tensor::from_vec(dx, &[batch, self.in_ch, geom.h, geom.w])
    }

    /// The parameter half of [`backward_direct`](Self::backward_direct):
    /// `dkernel` and `dbias` from the cached input. Returns the cached
    /// geometry and batch size.
    fn direct_grads(
        &mut self,
        dy: &Tensor,
        pre: Option<BnRelu<'_>>,
        ws: &mut Workspace,
    ) -> (ConvGeom, usize) {
        let Some(ConvCache::Input { x, geom, batch }) = &self.cache else {
            panic!("Conv2d::backward called without a cached direct forward");
        };
        let (geom, batch) = (*geom, *batch);
        let mut dk_scratch = ws.take(conv_direct::dk_scratch_len(self.in_ch, self.out_ch, geom));
        let mut colsum = ws.take(self.out_ch);
        conv3x3_backward_dk_pre_into(dy, x, pre, geom, self.dkernel.data_mut(), &mut dk_scratch);
        // dbias += per-channel sums of dy. Each channel's chain runs
        // over (batch, pixel) ascending — exactly row-ascending order
        // over the `[rows, out_ch]` dy matrix, so this matches the
        // im2col route's column-sum loop bit for bit.
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
        ws.recycle(dk_scratch);
        ws.recycle(colsum);
        (geom, batch)
    }

    /// The parameter half of the im2col backward: `dkernel` and `dbias`
    /// from the cached column matrix. Returns `dy` as the `[rows, out_ch]`
    /// matrix the input gradient is computed from, with the cached
    /// geometry and batch size.
    fn cols_grads(&mut self, dy: Tensor, ws: &mut Workspace) -> (Tensor, ConvGeom, usize) {
        let Some(ConvCache::Cols { cols, geom, batch }) = &self.cache else {
            panic!("Conv2d::backward called without a cached forward");
        };
        let (geom, batch) = (*geom, *batch);
        let rows = batch * geom.out_h() * geom.out_w();
        let mut dy_rows_buf = ws.take(rows * self.out_ch);
        Self::images_to_rows_into(&dy, &mut dy_rows_buf);
        ws.recycle(dy.into_vec());
        let dy_rows = Tensor::from_vec(dy_rows_buf, &[rows, self.out_ch]);
        matmul_at_b_epi_into(
            &dy_rows,
            cols,
            self.dkernel.data_mut(),
            Epilogue::Accumulate,
        );
        // dbias += column sums of dy_rows, rows ascending from a
        // zero-initialized partial sum.
        let mut colsum = ws.take(self.out_ch);
        for r in 0..rows {
            let row = &dy_rows.data()[r * self.out_ch..(r + 1) * self.out_ch];
            for (o, v) in colsum.iter_mut().zip(row) {
                *o += v;
            }
        }
        for (d, s) in self.dbias.data_mut().iter_mut().zip(&colsum) {
            *d += s;
        }
        ws.recycle(colsum);
        (dy_rows, geom, batch)
    }

    /// The input the last caching [`forward_direct`](Self::forward_direct)
    /// kept.
    pub(crate) fn cached_input(&self) -> &Tensor {
        match &self.cache {
            Some(ConvCache::Input { x, .. }) => x,
            _ => panic!("Conv2d has no cached direct forward"),
        }
    }
}

impl Layer for Conv2d {
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (batch, geom) = self.checked_geom(&x);
        if conv_direct::supports(&geom) {
            return self.forward_direct(x, None, train, ws);
        }
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let rows = batch * oh * ow;
        let patch = self.in_ch * self.kh * self.kw;
        self.recycle_cache(ws);
        let mut cols_buf = ws.take(rows * patch);
        im2col_into(&x, self.in_ch, geom, &mut cols_buf);
        let cols = Tensor::from_vec(cols_buf, &[rows, patch]);
        ws.recycle(x.into_vec());
        let mut flat = ws.take(rows * self.out_ch);
        matmul_a_bt_epi_into(&cols, &self.kernel, &mut flat, self.epilogue());
        let mut y = ws.take(batch * self.out_ch * oh * ow);
        Self::rows_to_images_into(&flat, batch, self.out_ch, oh, ow, &mut y);
        ws.recycle(flat);
        if train {
            self.cache = Some(ConvCache::Cols { cols, geom, batch });
        } else {
            ws.recycle(cols.into_vec());
        }
        Tensor::from_vec(y, &[batch, self.out_ch, oh, ow])
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        if let Some(ConvCache::Input { .. }) = self.cache {
            let dx = self.backward_direct(&dy, None, ws);
            ws.recycle(dy.into_vec());
            return dx;
        }
        let (dy_rows, geom, batch) = self.cols_grads(dy, ws);
        let rows = dy_rows.dims()[0];
        let patch = self.in_ch * self.kh * self.kw;
        let mut dcols = ws.take(rows * patch);
        matmul_epi_into(&dy_rows, &self.kernel, &mut dcols, Epilogue::Store);
        ws.recycle(dy_rows.into_vec());
        let dcols = Tensor::from_vec(dcols, &[rows, patch]);
        let mut dx = ws.take(batch * self.in_ch * geom.h * geom.w);
        col2im_into(&dcols, batch, self.in_ch, geom, &mut dx);
        ws.recycle(dcols.into_vec());
        Tensor::from_vec(dx, &[batch, self.in_ch, geom.h, geom.w])
    }

    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        let spent = if let Some(ConvCache::Input { .. }) = self.cache {
            self.direct_grads(&dy, None, ws);
            dy
        } else {
            self.cols_grads(dy, ws).0
        };
        ws.recycle(spent.into_vec());
    }

    fn enable_relu_fusion(&mut self) -> bool {
        self.fused_relu = true;
        true
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Conv(self)
    }

    fn param_len(&self) -> usize {
        self.kernel.numel() + self.bias.numel()
    }

    fn collect_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.kernel.data());
        out.extend_from_slice(self.bias.data());
    }

    fn load_params(&mut self, src: &[f32]) -> usize {
        let nk = self.kernel.numel();
        let nb = self.bias.numel();
        self.kernel.data_mut().copy_from_slice(&src[..nk]);
        self.bias.data_mut().copy_from_slice(&src[nk..nk + nb]);
        nk + nb
    }

    fn visit_params(&mut self, offset: usize, f: &mut ParamVisitor<'_>) {
        f(offset, self.kernel.data_mut(), self.dkernel.data_mut());
        let nk = self.kernel.numel();
        f(offset + nk, self.bias.data_mut(), self.dbias.data_mut());
    }

    fn zero_grads(&mut self) {
        self.dkernel.map_inplace(|_| 0.0);
        self.dbias.map_inplace(|_| 0.0);
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

    #[test]
    fn strided_forward_shape() {
        let mut c = conv(1, 4, 3, 2, 1);
        let y = c.forward(&Tensor::zeros(&[1, 1, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 conv, single channel, kernel weight 1, bias 0 = identity.
        let mut c = conv(1, 1, 1, 1, 0);
        c.load_params(&[1.0, 0.0]);
        let mut s = NormalSampler::seed_from(3);
        let x = Tensor::randn(&[2, 1, 4, 4], 0.0, 1.0, &mut s);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let mut c = conv(1, 2, 1, 1, 0);
        c.load_params(&[0.0, 0.0, 1.5, -2.0]); // zero kernels, biases 1.5 / -2.0
        let y = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        let d = y.data();
        assert!(d[..4].iter().all(|&v| v == 1.5));
        assert!(d[4..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn gradcheck_inputs() {
        let mut c = conv(2, 3, 3, 1, 1);
        let mut s = NormalSampler::seed_from(31);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut c, &x, 2e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut c = conv(1, 2, 2, 1, 0);
        let mut s = NormalSampler::seed_from(32);
        let x = Tensor::randn(&[2, 1, 3, 3], 0.0, 1.0, &mut s);
        gradcheck::check_param_grad(&mut c, &x, 2e-2);
    }

    #[test]
    fn gradcheck_strided() {
        let mut c = conv(1, 1, 3, 2, 1);
        let mut s = NormalSampler::seed_from(33);
        let x = Tensor::randn(&[1, 1, 5, 5], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut c, &x, 2e-2);
    }

    #[test]
    fn row_image_permutations_are_inverse() {
        let mut s = NormalSampler::seed_from(34);
        let img = Tensor::randn(&[2, 3, 4, 5], 0.0, 1.0, &mut s);
        let mut rows = vec![0.0f32; img.numel()];
        Conv2d::images_to_rows_into(&img, &mut rows);
        let mut back = vec![0.0f32; img.numel()];
        Conv2d::rows_to_images_into(&rows, 2, 3, 4, 5, &mut back);
        assert_eq!(back, img.data());
    }

    #[test]
    fn param_roundtrip() {
        let c = conv(2, 4, 3, 1, 1);
        let mut p = Vec::new();
        c.collect_params(&mut p);
        assert_eq!(p.len(), c.param_len());
        assert_eq!(c.param_len(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn dispatch_is_on_geometry_alone() {
        let mut ws = Workspace::new();
        // 3×3 stride 1: the direct kernels, which cache the input itself.
        let mut direct = conv(2, 3, 3, 1, 1);
        let _ = direct.forward_ws(Tensor::zeros(&[1, 2, 6, 6]), true, &mut ws);
        assert!(matches!(direct.cache, Some(ConvCache::Input { .. })));
        // Anything else: the im2col lowering, which caches the columns.
        for (k, stride, pad) in [(3, 2, 1), (1, 1, 0), (5, 1, 2)] {
            let mut lowered = conv(2, 3, k, stride, pad);
            let _ = lowered.forward_ws(Tensor::zeros(&[1, 2, 6, 6]), true, &mut ws);
            assert!(matches!(lowered.cache, Some(ConvCache::Cols { .. })));
        }
    }
}
