//! Residual (skip-connection) blocks, the structural motif of the paper's
//! ResNetV2 model.
//!
//! The skip path costs no copy when a fused pre-activation unit heads the
//! body, as in every `resnet_lite` block (`crate::preact`):
//!
//! * **forward** — the unit keeps its raw input anyway (it is its training
//!   cache), and that input *is* `x`: the block adds it to `F(x)` from
//!   there. In inference the unit keeps it just as long, and the block
//!   gives it back to the pool after the add.
//! * **backward** — the block holds on to `dy` instead of copying it: the
//!   unit that closes the body only reads it, and batch-norm backward of
//!   the unit that heads the body adds it to `dx` as it writes each plane.
//!
//! Both adds are `f + s` per element, in the order the copying form used,
//! so the bits do not depend on which form ran. Any other body — one that
//! does not start with a unit, or (backward) does not end with one — keeps
//! a pooled copy of `x` / `dy`, as every body did before.

use crate::layer::{FusionPart, Layer};
use crate::model::Sequential;
use vc_tensor::{NormalSampler, Shape, Tensor, Workspace};

/// A residual block: `y = F(x) + x`, where `F` is an inner [`Sequential`]
/// whose output shape must equal its input shape.
///
/// The gradient splits across the two paths: `dx = F'(dy) + dy`.
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps a body pipeline. The shape constraint is checked at forward
    /// time (and by `out_dims` during model building).
    pub fn new(body: Sequential) -> Self {
        Residual { body }
    }
}

impl Layer for Residual {
    fn forward_ws(&mut self, p: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let in_shape = *x.shape();
        let body = &mut self.body.pipe;
        if body.head_conv().is_some() {
            // The heading unit keeps `x`; the skip reads it there.
            let mut fx = body.forward(p, x, train, true, ws);
            check_shape(&in_shape, &fx);
            let conv = body.head_conv().expect("a unit heads the body");
            add_skip(&mut fx, conv.cached_input().data());
            if !train {
                conv.recycle_cache(ws);
            }
            return fx;
        }
        // The body consumes `x`; the skip path keeps a pooled copy.
        let skip = ws.take_copy(x.data());
        let mut fx = body.forward(p, x, train, false, ws);
        check_shape(&in_shape, &fx);
        add_skip(&mut fx, &skip);
        ws.recycle(skip);
        fx
    }

    fn backward_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        let end = self.body.len();
        let body = &mut self.body.pipe;
        if let Some(dx) = body.backward_residual(p, g, &dy, ws) {
            ws.recycle(dy.into_vec());
            return dx;
        }
        let skip = ws.take_copy(dy.data());
        let mut dx = body.backward_span(p, g, dy, 0, end, ws);
        add_skip(&mut dx, &skip);
        ws.recycle(skip);
        dx
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Body(&mut self.body)
    }

    fn arena_len(&self) -> usize {
        self.body.pipe.arena_len()
    }

    fn init_params(&mut self, p: &mut [f32], sampler: Option<&mut NormalSampler>) {
        let held = std::mem::take(&mut self.body.params);
        if held.is_empty() {
            self.body.pipe.init_params(p, sampler);
        } else {
            p.copy_from_slice(&held);
        }
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        let out = self.body.out_dims(in_dims);
        assert_eq!(
            out, in_dims,
            "residual body must preserve shape ({in_dims:?} -> {out:?})"
        );
        out
    }
}

/// Panics unless the body's output `fx` has the block's input shape.
fn check_shape(in_shape: &Shape, fx: &Tensor) {
    assert_eq!(
        fx.dims(),
        in_shape.dims(),
        "residual body changed shape {:?} -> {:?}",
        in_shape.dims(),
        fx.dims()
    );
}

/// `f += s` element by element: the skip path's add, forward and backward.
fn add_skip(f: &mut Tensor, skip: &[f32]) {
    for (f, s) in f.data_mut().iter_mut().zip(skip) {
        *f += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv::Conv2d;
    use crate::gradcheck;
    use crate::gradcheck::ones;
    use crate::norm::BatchNorm;
    use vc_tensor::{NormalSampler, Tensor};

    fn body(seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        Sequential::new()
            .push(BatchNorm::new(2, 0.9))
            .push(Relu::new())
            .push(Conv2d::new(2, 2, 3, 1, 1, &mut s))
    }

    /// A model of one block around [`body`].
    fn block(seed: u64) -> Sequential {
        Sequential::new().push(Residual::new(body(seed)))
    }

    #[test]
    fn zero_body_is_identity() {
        let mut s = NormalSampler::seed_from(1);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut s);
        let mut r = Sequential::new().push(Residual::new(Sequential::new().push(conv)));
        let zeros = vec![0.0; r.param_count()];
        r.set_params_flat(&zeros);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut s);
        let y = r.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn skip_path_adds_input() {
        let mut r = block(2);
        let x = ones(&[2, 2, 4, 4]);
        let fx = body(2).forward(&x, false);
        let y = r.forward(&x, false);
        for ((yv, fv), xv) in y.data().iter().zip(fx.data()).zip(x.data()) {
            assert!((yv - (fv + xv)).abs() < 1e-6);
        }
    }

    #[test]
    fn gradcheck_inputs() {
        let mut s = NormalSampler::seed_from(4);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut block(3), &x, 5e-2);
    }

    #[test]
    fn params_delegate_to_body() {
        let (mut r, mut b) = (block(5), body(5));
        assert_eq!(r.param_count(), b.param_count());
        assert_eq!(r.params_flat(), b.params_flat());
        assert_eq!(r.arena().2, b.arena().2);
        assert_eq!(r.arena().2, std::slice::from_ref(&(4..8)));
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn rejects_shape_changing_body() {
        let mut s = NormalSampler::seed_from(6);
        let body = Sequential::new().push(Conv2d::new(1, 2, 3, 1, 1, &mut s));
        let mut r = Sequential::new().push(Residual::new(body));
        r.forward(&Tensor::zeros(&[1, 1, 4, 4]), false);
    }

    /// A body of `units` pre-activation units over 3 channels, closed by a
    /// bare `BatchNorm` when `open_end` (so no unit closes it).
    fn unit_body(units: usize, open_end: bool, seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        let mut body = Sequential::new();
        for _ in 0..units {
            body = body
                .push(BatchNorm::new(3, 0.9))
                .push(Relu::new())
                .push(Conv2d::new(3, 3, 3, 1, 1, &mut s));
        }
        if open_end {
            body = body.push(BatchNorm::new(3, 0.9));
        }
        body
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Training output, dx and gradients of one step, then the inference
    /// output, by `to_bits()`.
    fn step_bits(r: &mut Sequential, x: &Tensor, dy: &Tensor) -> [Vec<u32>; 4] {
        let mut ws = Workspace::new();
        let y = r.forward_pipeline_ws(x.clone(), true, &mut ws);
        r.zero_grads_all();
        let dx = r.backward_pipeline_ws(dy.clone(), &mut ws);
        let g = r.grads().to_vec();
        let y_eval = r.forward_pipeline_ws(x.clone(), false, &mut ws);
        [y.data(), dx.data(), &g, y_eval.data()].map(bits)
    }

    #[test]
    fn skip_free_block_is_bitwise_the_copying_block() {
        // One unit (it heads and closes the body), two units, and a body no
        // unit closes (skip-free forward, copying backward). The unfused
        // twin's body is plain layers, so its skip path copies.
        let mut s = NormalSampler::seed_from(11);
        let x = Tensor::randn(&[3, 3, 9, 9], 0.2, 1.5, &mut s);
        let dy = Tensor::randn(&[3, 3, 9, 9], 0.0, 1.0, &mut s);
        for (units, open_end) in [(1, false), (2, false), (1, true)] {
            let block = || Sequential::new().push(Residual::new(unit_body(units, open_end, 12)));
            let (mut copying, mut fused) = (block(), block());
            fused.fuse_relu();
            assert_eq!(fused.preact_unit_map()[1].first(), Some(&0));
            let what = format!("{units} unit(s), open end {open_end}");
            let (want, got) = (
                step_bits(&mut copying, &x, &dy),
                step_bits(&mut fused, &x, &dy),
            );
            for (i, part) in ["training output", "dx", "gradients", "inference output"]
                .iter()
                .enumerate()
            {
                assert_eq!(got[i], want[i], "{part}, {what}");
            }
        }
    }

    #[test]
    fn skip_path_takes_no_buffer_of_its_own() {
        // A block whose body a unit heads and closes takes exactly what its
        // body takes, forward (training and inference) and backward. (It
        // may allocate one buffer more: it holds `x` or `dy` where the bare
        // body would already have handed it back.) After an inference
        // forward it holds nothing the bare body does not.
        let mut s = NormalSampler::seed_from(13);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut s);
        let takes = |ws: &Workspace| ws.stats().0;
        let held = |ws: &Workspace| ws.stats().1 as i64 - ws.pooled() as i64;
        for units in [1, 2] {
            let mut block = Sequential::new().push(Residual::new(unit_body(units, false, 14)));
            block.fuse_relu();
            let mut body = unit_body(units, false, 14);
            body.fuse_relu();
            let (mut ws_block, mut ws_body) = (Workspace::new(), Workspace::new());
            let y = block.forward_pipeline_ws(x.clone(), true, &mut ws_block);
            let fy = body.forward_pipeline_ws(x.clone(), true, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "training forward");
            block.backward_pipeline_ws(y, &mut ws_block);
            body.backward_pipeline_ws(fy, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "backward");
            let (mut ws_block, mut ws_body) = (Workspace::new(), Workspace::new());
            block.forward_pipeline_ws(x.clone(), false, &mut ws_block);
            body.forward_pipeline_ws(x.clone(), false, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "inference forward");
            assert_eq!(held(&ws_block), held(&ws_body), "inference keeps nothing");
        }
    }

    #[test]
    fn steady_state_step_never_misses_the_pool() {
        let mut s = NormalSampler::seed_from(8);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_steady_state_pool(&mut block(7), &x);
    }
}
