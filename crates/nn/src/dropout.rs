//! Dropout regularization.
//!
//! The paper deliberately trains *without* dropout ("to keep our model
//! simple", §IV-A); the layer exists so the ablation benches can quantify
//! what that choice costs, and because a general-purpose library needs it.

use crate::layer::Layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_tensor::{Tensor, Workspace};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so inference is a
/// pure identity.
pub struct Dropout {
    p: f32,
    seed: u64,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Builds a dropout layer with drop probability `p` in `[0, 1)` and a
    /// deterministic seed (volunteer replicas must be reproducible).
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability {p} outside [0, 1)"
        );
        Dropout {
            p,
            seed,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// The configured drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_ws(&mut self, mut x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        if let Some(prev) = self.mask.take() {
            ws.recycle(prev);
        }
        if !train || self.p == 0.0 {
            return x;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = ws.take(x.numel());
        for (m, v) in mask.iter_mut().zip(x.data_mut()) {
            *m = if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            };
            *v *= *m;
        }
        self.mask = Some(mask);
        x
    }

    fn backward_ws(&mut self, mut dy: Tensor, _ws: &mut Workspace) -> Tensor {
        if let Some(mask) = &self.mask {
            assert_eq!(mask.len(), dy.numel(), "Dropout mask/grad mismatch");
            for (g, &m) in dy.data_mut().iter_mut().zip(mask) {
                *g *= m;
            }
        }
        dy
    }

    fn reset_build_state(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(d.forward(&x, false).data(), x.data());
    }

    #[test]
    fn training_zeroes_about_p_fraction() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let rate = zeros as f32 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        // Survivors are scaled so the expectation is preserved.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_gates_with_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, true);
        let dy = Tensor::ones(&[64]);
        let dx = d.backward(&dy);
        // Gradient flows exactly where activations survived.
        for (o, g) in y.data().iter().zip(dx.data()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn p_zero_is_transparent_even_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_vec(vec![5.0, 6.0], &[2]);
        assert_eq!(d.forward(&x, true).data(), x.data());
        assert_eq!(d.backward(&x).data(), x.data());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn rejects_p_one() {
        Dropout::new(1.0, 5);
    }

    #[test]
    fn reset_replays_the_mask_stream_of_a_fresh_layer() {
        let x = Tensor::ones(&[64]);
        let mut used = Dropout::new(0.5, 7);
        let first = used.forward(&x, true);
        assert_ne!(used.forward(&x, true).data(), first.data());
        used.reset_build_state();
        assert_eq!(used.forward(&x, true).data(), first.data());
    }

    #[test]
    fn mask_buffer_cycles_through_the_pool() {
        let mut d = Dropout::new(0.5, 6);
        let mut ws = Workspace::new();
        let y = d.forward_ws(Tensor::ones(&[32]), true, &mut ws);
        let (_, warm) = ws.stats();
        ws.recycle(y.into_vec());
        // The next forward hands the old mask back before taking a new one.
        let y = d.forward_ws(Tensor::ones(&[32]), true, &mut ws);
        assert_eq!(ws.stats().1, warm, "second mask must reuse the first");
        // Inference drops the mask, so a stray backward passes through.
        ws.recycle(y.into_vec());
        let y = d.forward_ws(Tensor::ones(&[32]), false, &mut ws);
        assert_eq!(d.backward(&y).data(), y.data());
    }
}
