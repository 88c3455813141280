//! The client-side compute step, shared by the three drivers in
//! `vc-runtime`: the discrete-event simulator, the deterministic simulation
//! and the real multi-threaded runtime.
//!
//! A BOINC client that receives a workunit does exactly one thing: load the
//! shipped parameter snapshot into a model replica, run `local_epochs`
//! passes of minibatch SGD over its shard, and upload the replica's
//! parameters. [`train_client_replica`] is that step and there is no
//! other: every driver calls it with a [`TrainWorkspace`] it owns, so a
//! simulated run and a real threaded run perform it *identically* — same
//! replica, same fresh optimizer state, same RNG stream per
//! `(seed, epoch, shard)`, same kernels — and differ only in scheduling,
//! never in the learning dynamics of an individual subtask. The workspace
//! keeps the replica it built for the job's model, and the replica its
//! buffer pool, like a BOINC client keeps its application between
//! workunits; neither is state: a warm workspace and a new one return the
//! same bits.

use crate::config::JobConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_data::Dataset;
use vc_optim::{train_minibatch, StepTimer, TrainWorkspace};

/// The RNG stream a client replica uses for `(epoch, shard)`. Deterministic
/// per `(seed, epoch, shard)` — a reassigned subtask reproduces the same
/// result, like re-running the same workunit payload.
fn client_rng(seed: u64, epoch: usize, shard: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x100_0193)
            .wrapping_add((epoch * 1_000_003 + shard) as u64),
    )
}

/// Trains one client replica: start from `snapshot`, run
/// `cfg.local_epochs` over the shard's `data`, return the replica's
/// parameters (the payload the client uploads). A long-lived worker passes
/// the same `tws` to every subtask, so the replica is built once and only
/// reloaded here, and steady-state steps reuse all buffers. `timer`, when
/// given, receives one observation per optimizer step.
pub fn train_client_replica(
    cfg: &JobConfig,
    snapshot: &[f32],
    data: &Dataset,
    epoch: usize,
    shard: usize,
    tws: &mut TrainWorkspace,
    timer: Option<&StepTimer<'_>>,
) -> Vec<f32> {
    let mut replica = tws.take_replica(&cfg.model);
    replica.model.set_params_flat(snapshot);
    let mut opt = cfg.optimizer.build(snapshot.len());
    let mut rng = client_rng(cfg.seed, epoch, shard);
    train_minibatch(
        &mut replica.model,
        &mut opt,
        &data.images,
        &data.labels,
        cfg.batch_size,
        cfg.local_epochs,
        5.0,
        &mut rng,
        tws,
        timer,
    );
    // The optimizer state goes before the upload vector comes: the
    // workunit peaks at five model-sized buffers, not six.
    drop(opt);
    let params = replica.model.params_flat();
    tws.put_replica(replica);
    params
}

/// Client-side result sanity check: a diverged replica (NaN/Inf anywhere in
/// the parameter vector) uploads anyway and the server-side validator
/// rejects it — this predicate is that validator's criterion.
pub fn result_is_valid(params: &[f32]) -> bool {
    params.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_data::ShardSet;

    #[test]
    fn replica_training_is_deterministic() {
        let cfg = JobConfig::test_small(11);
        let (train, _, _) = cfg.data.generate();
        let shards = ShardSet::split(&train, cfg.shards);
        let init = cfg.model.build(cfg.seed).params_flat();
        let data = &shards.shard(3).data;
        let mut tws = TrainWorkspace::new();
        let a = train_client_replica(&cfg, &init, data, 2, 3, &mut tws, None);
        // Neither a used workspace nor a fresh one changes the result.
        let b = train_client_replica(&cfg, &init, data, 2, 3, &mut tws, None);
        let c = train_client_replica(&cfg, &init, data, 2, 3, &mut TrainWorkspace::new(), None);
        assert_eq!(a, b, "same (seed, epoch, shard) must reproduce exactly");
        assert_eq!(a, c, "the workspace is a buffer pool, not state");
        // A different shard draws a different RNG stream.
        let d = train_client_replica(&cfg, &init, data, 2, 4, &mut tws, None);
        assert_ne!(a, d);
    }

    #[test]
    fn training_moves_parameters() {
        let cfg = JobConfig::test_small(12);
        let (train, _, _) = cfg.data.generate();
        let shards = ShardSet::split(&train, cfg.shards);
        let init = cfg.model.build(cfg.seed).params_flat();
        let mut tws = TrainWorkspace::new();
        let out = train_client_replica(&cfg, &init, &shards.shard(0).data, 1, 0, &mut tws, None);
        assert_eq!(out.len(), init.len());
        assert!(out != init, "SGD must move the replica off the snapshot");
        assert!(result_is_valid(&out));
    }

    #[test]
    fn validity_check_catches_divergence() {
        assert!(result_is_valid(&[0.0, -1.5, 3.0]));
        assert!(!result_is_valid(&[0.0, f32::NAN]));
        assert!(!result_is_valid(&[f32::INFINITY]));
    }
}
