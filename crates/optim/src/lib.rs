//! # vc-optim
//!
//! The client optimizer of the `vc-dl` workspace.
//!
//! The paper trains client replicas with the Adam optimizer at a constant
//! learning rate of 0.001, no momentum-SGD, no regularization (§IV-A), and
//! every volunteer runs the same application, so Adam is the one update
//! rule here: every driver, the serial reference of Figure 6 and the tests
//! step with it.
//!
//! Optimizer state is indexed like the *flat* parameter vector — the same
//! representation the distributed layer ships across the simulated network,
//! and the one the model holds its parameters in — so a client's optimizer
//! never needs to understand the model: one `Optimizer::step` is one
//! elementwise pass over the parameter and gradient vectors.

pub mod clip;
pub mod trainer;

/// The old name, which the frozen `benchmark/src/probes.rs` imports.
#[doc(hidden)]
pub use trainer::train_minibatch as train_minibatch_ws;
pub use trainer::{train_minibatch, ResidentReplica, StepTimer, TrainBatchStats, TrainWorkspace};

use serde::{Deserialize, Serialize};

/// Configuration for an optimizer, serializable so experiment configs can
/// carry it (the paper ships training code + hyperparameters to clients).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Adam (Kingma & Ba). The paper's client optimizer with
    /// `lr = 0.001, beta1 = 0.9, beta2 = 0.999`.
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
    },
}

impl OptimizerSpec {
    /// The paper's client configuration: Adam, constant lr 0.001.
    pub fn paper_adam() -> Self {
        OptimizerSpec::Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Instantiates optimizer state for a parameter vector of length `n`.
    pub fn build(&self, n: usize) -> Optimizer {
        Optimizer::new(self.clone(), n)
    }
}

/// Optimizer state bound to a parameter vector length.
pub struct Optimizer {
    spec: OptimizerSpec,
    /// First-moment buffer (Adam m).
    m: Vec<f32>,
    /// Second-moment buffer (Adam v).
    v: Vec<f32>,
    /// Step counter for Adam bias correction.
    t: u64,
}

impl Optimizer {
    /// Creates fresh state: zero moments, no steps taken.
    pub(crate) fn new(spec: OptimizerSpec, n: usize) -> Self {
        Optimizer {
            spec,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// One optimizer step over the whole vector, `params -= update(grads)`,
    /// in place. Every operation is elementwise. A slot whose gradient is
    /// `+0.0` at every step (a buffer) keeps zero moments and takes the
    /// update `p - 0.0`, which leaves its bits as they were, `-0.0`
    /// included.
    pub(crate) fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "params/grads length mismatch: {} vs {}",
            params.len(),
            grads.len()
        );
        assert_eq!(
            params.len(),
            self.m.len(),
            "optimizer built for another model"
        );
        self.t += 1;
        let OptimizerSpec::Adam {
            lr,
            beta1,
            beta2,
            eps,
        } = self.spec;
        let t = self.t as f32;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = x^2 from x = 5 and returns the trajectory endpoint.
    fn descend(spec: OptimizerSpec, iters: usize) -> f32 {
        let mut opt = spec.build(1);
        let mut x = vec![5.0f32];
        for _ in 0..iters {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Adam's effective step is ~lr per iteration, so crossing from
        // x = 5 to the optimum needs >5000 steps at lr = 1e-3.
        let x = descend(OptimizerSpec::paper_adam(), 10_000);
        assert!(x.abs() < 0.05, "x = {x}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, Adam's very first step is ~lr regardless of
        // gradient magnitude.
        let mut opt = OptimizerSpec::paper_adam().build(1);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[1234.5]);
        assert!((x[0] + 1e-3).abs() < 1e-5, "step {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grads() {
        let mut opt = OptimizerSpec::paper_adam().build(2);
        let mut p = vec![0.0f32, 0.0];
        opt.step(&mut p, &[1.0]);
    }

    #[test]
    fn spec_serializes() {
        let spec = OptimizerSpec::paper_adam();
        let json = serde_json::to_string(&spec).unwrap();
        let back: OptimizerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
