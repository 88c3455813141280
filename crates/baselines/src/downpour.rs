//! Downpour SGD (Dean et al., NeurIPS 2012).

use crate::harness::{AsyncCurve, AsyncEnvConfig, AsyncPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vc_optim::{train_minibatch_ws, OptimizerSpec, TrainWorkspace};

/// Downpour parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DownpourConfig {
    /// Shared environment.
    pub env: AsyncEnvConfig,
    /// Batches a client trains before pushing its accumulated delta
    /// (the paper's `n_push`).
    pub n_push: usize,
    /// Pushes between parameter re-fetches (the paper's `n_fetch`).
    pub n_fetch: usize,
    /// Total server updates to run.
    pub updates: usize,
    /// Client-side optimizer.
    pub optimizer: OptimizerSpec,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl DownpourConfig {
    /// A small configuration for tests.
    pub fn small(seed: u64) -> Self {
        DownpourConfig {
            env: AsyncEnvConfig::small(seed),
            n_push: 2,
            n_fetch: 1,
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

/// Runs Downpour SGD. Each sampled client trains `n_push` batches locally
/// and pushes the resulting parameter delta, which the server adds to the
/// central copy (the lock-free Hogwild-style accumulation of the original
/// system). Every `n_fetch` pushes the client refreshes its replica from
/// the server; between fetches it keeps training on stale parameters.
pub fn run_downpour(cfg: &DownpourConfig) -> AsyncCurve {
    let mut env = cfg.env.build();
    let n = cfg.env.clients;
    let mut server = env.init_params.clone();

    // Per-client replica state.
    let mut local: Vec<Vec<f32>> = vec![server.clone(); n];
    let mut pushes_since_fetch = vec![0usize; n];
    let mut opts: Vec<_> = (0..n).map(|_| cfg.optimizer.build(server.len())).collect();
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|i| StdRng::seed_from_u64(cfg.env.seed.wrapping_add(100 + i as u64)))
        .collect();

    let mut tws = TrainWorkspace::new();
    let mut points = Vec::new();
    let mut dropped = 0usize;
    for update in 1..=cfg.updates {
        let c = env.sample_client();
        // Fetch policy: refresh the replica every n_fetch pushes.
        if pushes_since_fetch[c] == 0 {
            local[c].copy_from_slice(&server);
        }
        let before = local[c].clone();
        let mut model = env.model_with(&local[c]);
        let data = &env.client_data[c];
        // n_push local batches: approximated as one shuffled pass capped at
        // n_push * batch_size samples by training on a subset selection.
        let take = (cfg.n_push * cfg.batch_size).min(data.len());
        let idx: Vec<usize> = (0..take).collect();
        let sub = data.select(&idx);
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

        // Push the delta unless the network loses it.
        if env.drops(cfg.env.drop_prob) {
            dropped += 1;
        } else {
            for ((s, a), b) in server.iter_mut().zip(&local[c]).zip(&before) {
                *s += a - b;
            }
        }
        pushes_since_fetch[c] = (pushes_since_fetch[c] + 1) % cfg.n_fetch.max(1);

        if update % cfg.env.eval_every == 0 || update == cfg.updates {
            let acc = env.score(&server);
            points.push(AsyncPoint {
                updates: update,
                val_acc: acc,
            });
        }
    }
    let final_val_acc = points.last().map(|p| p.val_acc).unwrap_or(0.0);
    AsyncCurve {
        label: format!("downpour(push={},fetch={})", cfg.n_push, cfg.n_fetch),
        points,
        final_val_acc,
        dropped_updates: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downpour_learns() {
        let cfg = DownpourConfig::small(1);
        let curve = run_downpour(&cfg);
        assert!(!curve.points.is_empty());
        assert!(
            curve.final_val_acc > 0.3,
            "final accuracy {}",
            curve.final_val_acc
        );
        assert_eq!(curve.dropped_updates, 0);
    }

    #[test]
    fn drops_hurt_downpour() {
        // §III-C: "Downpour SGD as-is can lead to consistent loss of
        // updates from a slow or disconnected client leading to suboptimal
        // training."
        let clean = run_downpour(&DownpourConfig::small(2));
        let mut lossy_cfg = DownpourConfig::small(2);
        lossy_cfg.env.drop_prob = 0.6;
        let lossy = run_downpour(&lossy_cfg);
        assert!(lossy.dropped_updates > 0);
        assert!(
            lossy.final_val_acc <= clean.final_val_acc + 0.05,
            "dropping updates should not help: {} vs {}",
            lossy.final_val_acc,
            clean.final_val_acc
        );
    }

    #[test]
    fn curve_points_follow_eval_schedule() {
        let mut cfg = DownpourConfig::small(3);
        cfg.updates = 32;
        cfg.env.eval_every = 8;
        let curve = run_downpour(&cfg);
        let at: Vec<usize> = curve.points.iter().map(|p| p.updates).collect();
        assert_eq!(at, vec![8, 16, 24, 32]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_downpour(&DownpourConfig::small(4));
        let b = run_downpour(&DownpourConfig::small(4));
        assert_eq!(a, b);
    }
}
