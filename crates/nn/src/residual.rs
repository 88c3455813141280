//! Residual (skip-connection) blocks, the structural motif of the paper's
//! ResNetV2 model.

use crate::layer::{FusionPart, Layer, ParamVisitor};
use crate::model::Sequential;
use vc_tensor::{Tensor, Workspace};

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

    /// Access to the inner pipeline.
    pub fn body(&self) -> &Sequential {
        &self.body
    }
}

impl Layer for Residual {
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        // The body consumes `x`; the skip path keeps a pooled copy.
        let skip = ws.take_copy(x.data());
        let in_shape = *x.shape();
        let mut fx = self.body.forward_pipeline_ws(x, train, ws);
        assert_eq!(
            fx.dims(),
            in_shape.dims(),
            "residual body changed shape {:?} -> {:?}",
            in_shape.dims(),
            fx.dims()
        );
        for (f, s) in fx.data_mut().iter_mut().zip(&skip) {
            *f += s;
        }
        ws.recycle(skip);
        fx
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        let skip = ws.take_copy(dy.data());
        let mut dx = self.body.backward_pipeline_ws(dy, ws);
        for (d, s) in dx.data_mut().iter_mut().zip(&skip) {
            *d += s;
        }
        ws.recycle(skip);
        dx
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Body(&mut self.body)
    }

    fn param_len(&self) -> usize {
        self.body.param_len()
    }

    fn collect_params(&self, out: &mut Vec<f32>) {
        self.body.collect_params(out);
    }

    fn load_params(&mut self, src: &[f32]) -> usize {
        self.body.load_params(src)
    }

    fn visit_params(&mut self, offset: usize, f: &mut ParamVisitor<'_>) {
        self.body.visit_params(offset, f);
    }

    fn zero_grads(&mut self) {
        self.body.zero_grads();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv::Conv2d;
    use crate::gradcheck;
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
        let zeros = vec![0.0; r.param_len()];
        r.load_params(&zeros);
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
        let r = block(5);
        let mut p = Vec::new();
        r.collect_params(&mut p);
        assert_eq!(p.len(), r.param_len());
        assert_eq!(r.param_len(), r.body().param_count());
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn rejects_shape_changing_body() {
        let mut s = NormalSampler::seed_from(6);
        let mut r = Residual::new(Sequential::new().push(Conv2d::new(1, 2, 3, 1, 1, &mut s)));
        r.forward(&Tensor::zeros(&[1, 1, 4, 4]), false);
    }

    #[test]
    fn steady_state_step_never_misses_the_pool() {
        let mut r = block(7);
        let mut s = NormalSampler::seed_from(8);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut s);
        gradcheck::check_steady_state_pool(&mut r, &x);
    }
}
