//! Residual (skip-connection) blocks, the structural motif of the paper's
//! ResNetV2 model.
//!
//! The skip path costs no copy when a fused pre-activation unit heads the
//! body, as in every `resnet_lite` block ([`crate::preact`]):
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

use crate::layer::{FusionPart, Layer, ParamVisitor};
use crate::model::Sequential;
use vc_tensor::{Shape, Tensor, Workspace};

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
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let in_shape = *x.shape();
        if self.body.head_conv().is_some() {
            // The heading unit keeps `x`; the skip reads it there.
            let mut fx = self.body.forward_steps(x, train, true, ws);
            check_shape(&in_shape, &fx);
            let conv = self.body.head_conv().expect("a unit heads the body");
            add_skip(&mut fx, conv.cached_input().data());
            if !train {
                conv.recycle_cache(ws);
            }
            return fx;
        }
        // The body consumes `x`; the skip path keeps a pooled copy.
        let skip = ws.take_copy(x.data());
        let mut fx = self.body.forward_pipeline(x, train, ws);
        check_shape(&in_shape, &fx);
        add_skip(&mut fx, &skip);
        ws.recycle(skip);
        fx
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        if let Some(dx) = self.body.backward_residual(&dy, ws) {
            ws.recycle(dy.into_vec());
            return dx;
        }
        let skip = ws.take_copy(dy.data());
        let mut dx = self.body.backward_pipeline(dy, ws);
        add_skip(&mut dx, &skip);
        ws.recycle(skip);
        dx
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Body(&mut self.body)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        self.body.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "residual"
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
    use crate::layer::{append_grads, append_params, clear_grads, install_params, param_len};
    use crate::norm::BatchNorm;
    use vc_tensor::{NormalSampler, Tensor};

    fn block(seed: u64) -> Residual {
        let mut s = NormalSampler::seed_from(seed);
        Residual::new(
            Sequential::new()
                .push(BatchNorm::new(2, 0.9))
                .push(Relu::new())
                .push(Conv2d::new(2, 2, 3, 1, 1, &mut s)),
        )
    }

    #[test]
    fn zero_body_is_identity() {
        let mut s = NormalSampler::seed_from(1);
        let mut r = Residual::new(Sequential::new().push(Conv2d::new(1, 1, 3, 1, 1, &mut s)));
        let zeros = vec![0.0; param_len(&mut r)];
        install_params(&mut r, &zeros);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut s);
        let y = r.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn skip_path_adds_input() {
        let mut r = block(2);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let fx = {
            let mut body_only = block(2);
            // strip the skip by calling the body through params equality
            body_only.body.forward(&x, false)
        };
        let y = r.forward(&x, false);
        for ((yv, fv), xv) in y.data().iter().zip(fx.data()).zip(x.data()) {
            assert!((yv - (fv + xv)).abs() < 1e-6);
        }
    }

    #[test]
    fn gradcheck_inputs() {
        let mut r = block(3);
        let mut s = NormalSampler::seed_from(4);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut r, &x, 5e-2);
    }

    #[test]
    fn params_delegate_to_body() {
        let mut r = block(5);
        let mut p = Vec::new();
        append_params(&mut r, &mut p);
        assert_eq!(p.len(), param_len(&mut r));
        assert_eq!(p, r.body.params_flat());
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn rejects_shape_changing_body() {
        let mut s = NormalSampler::seed_from(6);
        let mut r = Residual::new(Sequential::new().push(Conv2d::new(1, 2, 3, 1, 1, &mut s)));
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
    fn step_bits(r: &mut Residual, x: &Tensor, dy: &Tensor) -> [Vec<u32>; 4] {
        let mut ws = Workspace::new();
        let y = r.forward_ws(x.clone(), true, &mut ws);
        clear_grads(r);
        let dx = r.backward_ws(dy.clone(), &mut ws);
        let mut g = Vec::new();
        append_grads(r, &mut g);
        let y_eval = r.forward_ws(x.clone(), false, &mut ws);
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
            let mut copying = Residual::new(unit_body(units, open_end, 12));
            let mut fused = Residual::new(unit_body(units, open_end, 12));
            fused.body.fuse_relu();
            assert!(fused.body.head_conv().is_some());
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
            let mut block = Residual::new(unit_body(units, false, 14));
            block.body.fuse_relu();
            let mut body = unit_body(units, false, 14);
            body.fuse_relu();
            let (mut ws_block, mut ws_body) = (Workspace::new(), Workspace::new());
            let y = block.forward_ws(x.clone(), true, &mut ws_block);
            let fy = body.forward_pipeline(x.clone(), true, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "training forward");
            block.backward_ws(y, &mut ws_block);
            body.backward_pipeline(fy, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "backward");
            let (mut ws_block, mut ws_body) = (Workspace::new(), Workspace::new());
            block.forward_ws(x.clone(), false, &mut ws_block);
            body.forward_pipeline(x.clone(), false, &mut ws_body);
            assert_eq!(takes(&ws_block), takes(&ws_body), "inference forward");
            assert_eq!(held(&ws_block), held(&ws_body), "inference keeps nothing");
        }
    }

    #[test]
    fn steady_state_step_never_misses_the_pool() {
        let mut r = block(7);
        let mut s = NormalSampler::seed_from(8);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_steady_state_pool(&mut r, &x);
    }
}
