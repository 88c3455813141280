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
//! representation the distributed layer ships across the simulated network —
//! so a client's optimizer never needs to understand the model: it steps
//! either the flat vectors whole ([`Optimizer::step`]) or, slice by slice at
//! their flat offsets, the layers' own buffers ([`Optimizer::begin_step`] +
//! [`Optimizer::update_at`], what the trainer does).

pub mod clip;
pub mod trainer;

pub use clip::clip_by_global_norm;
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
    pub fn new(spec: OptimizerSpec, n: usize) -> Self {
        Optimizer {
            spec,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one update in place: `params -= update(grads)`, using
    /// `lr_scale` as a multiplier on the base learning rate (for schedules).
    pub fn step_scaled(&mut self, params: &mut [f32], grads: &[f32], lr_scale: f32) {
        self.begin_step();
        self.update_at(0, params, grads, lr_scale);
    }

    /// Opens one optimizer step (advances Adam's bias-correction clock).
    /// Follow it with one [`Self::update_at`] per parameter slice.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies the open step's update to the slice at `offset` of the flat
    /// parameter vector. Every operation is elementwise, so slice-by-slice
    /// steps are bit-identical to one call over the whole vector.
    pub fn update_at(&mut self, offset: usize, params: &mut [f32], grads: &[f32], lr_scale: f32) {
        assert_eq!(
            params.len(),
            grads.len(),
            "params/grads length mismatch: {} vs {}",
            params.len(),
            grads.len()
        );
        let state = offset..offset + params.len();
        assert!(
            state.end <= self.m.len(),
            "optimizer built for another model"
        );
        let OptimizerSpec::Adam {
            lr,
            beta1,
            beta2,
            eps,
        } = self.spec;
        let t = self.t as f32;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        let step = lr * lr_scale;
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m[state.clone()])
            .zip(&mut self.v[state])
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= step * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// One update at the base learning rate.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_scaled(params, grads, 1.0);
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
    fn lr_scale_multiplies_step() {
        let mut a = OptimizerSpec::paper_adam().build(1);
        let mut b = OptimizerSpec::paper_adam().build(1);
        let mut pa = vec![0.0f32];
        let mut pb = vec![0.0f32];
        a.step_scaled(&mut pa, &[1.0], 1.0);
        b.step_scaled(&mut pb, &[1.0], 0.5);
        assert!(pa[0] < 0.0);
        assert_eq!(pa[0], 2.0 * pb[0]);
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
