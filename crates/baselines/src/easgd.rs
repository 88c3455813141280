//! Asynchronous Elastic Averaging SGD (Zhang, Choromanska & LeCun, 2015).

use crate::harness::{AsyncCurve, AsyncEnvConfig, AsyncPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vc_optim::{train_minibatch_ws, OptimizerSpec, TrainWorkspace};

/// EASGD parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EasgdConfig {
    /// Shared environment.
    pub env: AsyncEnvConfig,
    /// Local batches between elastic synchronizations (the paper's τ).
    pub tau: usize,
    /// Moving rate β: the elastic coupling strength. The VC-ASGD analogy
    /// in §IV-C maps β = 0.001 onto α = 0.999.
    pub beta: f32,
    /// Total elastic synchronizations (server updates) to run.
    pub updates: usize,
    /// Client-side optimizer.
    pub optimizer: OptimizerSpec,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl EasgdConfig {
    /// A small configuration for tests.
    pub fn small(seed: u64) -> Self {
        EasgdConfig {
            env: AsyncEnvConfig::small(seed),
            tau: 2,
            beta: 0.5,
            updates: 64,
            optimizer: OptimizerSpec::Adam {
                lr: 2e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            batch_size: 32,
        }
    }
}

/// Runs asynchronous EASGD. Each client keeps a *persistent* local replica
/// `x_i`; when sampled it trains `tau` batches, then performs the elastic
/// update with the center `W`:
///
/// ```text
/// diff = x_i − W;   x_i ← x_i − β·diff;   W ← W + β·diff
/// ```
///
/// Note the difference from VC-ASGD: the client replica persists across
/// rounds and is *pulled toward* the center rather than re-seeded from it —
/// which requires clients to stay alive, the fault-tolerance objection of
/// §III-C. A dropped synchronization here skips both sides of the update.
pub fn run_easgd(cfg: &EasgdConfig) -> AsyncCurve {
    let mut env = cfg.env.build();
    let n = cfg.env.clients;
    let mut center = env.init_params.clone();
    let mut local: Vec<Vec<f32>> = vec![center.clone(); n];
    let mut opts: Vec<_> = (0..n).map(|_| cfg.optimizer.build(center.len())).collect();
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|i| StdRng::seed_from_u64(cfg.env.seed.wrapping_add(500 + i as u64)))
        .collect();

    let mut tws = TrainWorkspace::new();
    let mut points = Vec::new();
    let mut dropped = 0usize;
    for update in 1..=cfg.updates {
        let c = env.sample_client();
        let mut model = env.model_with(&local[c]);
        let data = &env.client_data[c];
        let take = (cfg.tau * cfg.batch_size).min(data.len());
        let sub = data.select(&(0..take).collect::<Vec<_>>());
        train_minibatch_ws(
            &mut model,
            &mut opts[c],
            &sub.images,
            &sub.labels,
            cfg.batch_size,
            1,
            5.0,
            &mut rngs[c],
            &mut tws,
            None,
        );
        local[c] = model.params_flat();

        if env.drops(cfg.env.drop_prob) {
            dropped += 1;
        } else {
            for (x, w) in local[c].iter_mut().zip(center.iter_mut()) {
                let diff = *x - *w;
                *x -= cfg.beta * diff;
                *w += cfg.beta * diff;
            }
        }

        if update % cfg.env.eval_every == 0 || update == cfg.updates {
            let acc = env.score(&center);
            points.push(AsyncPoint {
                updates: update,
                val_acc: acc,
            });
        }
    }
    let final_val_acc = points.last().map(|p| p.val_acc).unwrap_or(0.0);
    AsyncCurve {
        label: format!("easgd(tau={},beta={})", cfg.tau, cfg.beta),
        points,
        final_val_acc,
        dropped_updates: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easgd_learns() {
        let curve = run_easgd(&EasgdConfig::small(1));
        assert!(
            curve.final_val_acc > 0.3,
            "final accuracy {}",
            curve.final_val_acc
        );
    }

    #[test]
    fn tiny_moving_rate_freezes_center() {
        // β = 0.001 (the α = 0.999 analog): the center barely moves — the
        // §IV-C observation that EASGD's settings fail in a VC setting.
        let mut cfg = EasgdConfig::small(2);
        cfg.beta = 0.001;
        let slow = run_easgd(&cfg);
        let mut cfg_fast = EasgdConfig::small(2);
        cfg_fast.beta = 0.5;
        let fast = run_easgd(&cfg_fast);
        assert!(
            slow.final_val_acc < fast.final_val_acc,
            "beta=0.001 {} should trail beta=0.5 {}",
            slow.final_val_acc,
            fast.final_val_acc
        );
    }

    #[test]
    fn elastic_update_is_symmetric() {
        // After one elastic exchange, x and W move toward each other by the
        // same amount.
        let x0 = 1.0f32;
        let w0 = 0.0f32;
        let beta = 0.3f32;
        let diff = x0 - w0;
        let x1 = x0 - beta * diff;
        let w1 = w0 + beta * diff;
        assert!((x1 - 0.7).abs() < 1e-6);
        assert!((w1 - 0.3).abs() < 1e-6);
        assert!(((x1 - w1) - (1.0 - 2.0 * beta) * diff).abs() < 1e-6);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_easgd(&EasgdConfig::small(3));
        let b = run_easgd(&EasgdConfig::small(3));
        assert_eq!(a, b);
    }
}
