//! Activation functions.

use crate::layer::{FusionPart, Layer};
use vc_tensor::{Tensor, Workspace};

/// Rectified linear unit: `y = max(0, x)`, applied elementwise to any shape.
///
/// When the preceding layer fuses the rectification into its GEMM epilogue
/// (see [`Sequential::fuse_relu`](crate::Sequential::fuse_relu)), this
/// layer degenerates into a mask-only pass-through: the incoming values are
/// already `max(0, ·)`, and because `relu(x) > 0 ⇔ x > 0` the backward mask
/// computed from them is bit-identical to the unfused one.
pub struct Relu {
    mask: Option<Vec<bool>>,
    pub(crate) fused_upstream: bool,
}

impl Relu {
    /// Builds a ReLU layer.
    pub fn new() -> Self {
        Relu {
            mask: None,
            fused_upstream: false,
        }
    }

    /// Records `x > 0` per element into the reused mask buffer.
    fn record_mask(&mut self, x: &Tensor) {
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.extend(x.data().iter().map(|&v| v > 0.0));
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward_ws(&mut self, _: &mut [f32], x: Tensor, train: bool, _: &mut Workspace) -> Tensor {
        let mut x = x;
        if train {
            self.record_mask(&x);
        }
        // When fused, the upstream epilogue already rectified: values pass
        // unchanged.
        if !self.fused_upstream {
            for v in x.data_mut() {
                *v = v.max(0.0);
            }
        }
        x
    }

    fn backward_ws(&mut self, _: &[f32], _: &mut [f32], dy: Tensor, _: &mut Workspace) -> Tensor {
        let mut dy = dy;
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called without a cached forward");
        assert_eq!(mask.len(), dy.numel(), "Relu mask/grad length mismatch");
        // A select, not a conditional store: the mask is data-dependent, so
        // a branch per element mispredicts half the time; this form
        // vectorizes to a blend and writes the same bits.
        for (g, &m) in dy.data_mut().iter_mut().zip(mask) {
            *g = if m { *g } else { 0.0 };
        }
        dy
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Relu(self)
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::ones;
    use crate::gradcheck::{self, Paramless};
    use crate::model::Sequential;
    use vc_tensor::NormalSampler;

    #[test]
    fn clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(r.forward(&x, false).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]);
        r.forward(&x, true);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 7.0], &[2]));
        assert_eq!(dx.data(), &[0.0, 7.0]);
    }

    #[test]
    fn gradcheck_off_kink() {
        // Keep inputs away from 0 where ReLU is non-differentiable.
        let r = Relu::new();
        let mut s = NormalSampler::seed_from(1);
        let mut x = Tensor::randn(&[2, 5], 0.0, 1.0, &mut s);
        for v in x.data_mut() {
            if v.abs() < 0.2 {
                *v = 0.5_f32.copysign(*v);
            }
        }
        gradcheck::check_input_grad(&mut Sequential::new().push(r), &x, 1e-2);
    }

    #[test]
    fn preserves_shape() {
        let mut r = Relu::new();
        let y = r.forward(&ones(&[2, 3, 4, 5]), false);
        assert_eq!(y.dims(), &[2, 3, 4, 5]);
        assert_eq!(r.out_dims(&[7, 9]), vec![7, 9]);
    }
}
