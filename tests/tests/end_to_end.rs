//! End-to-end integration: the full pipeline (data → middleware → fleet →
//! VC-ASGD → report) across crates.

use vc_asgd::{AlphaSchedule, FleetKind, JobConfig};
use vc_kvstore::Consistency;
use vc_runtime::des::{run_job, DesConfig};
use vc_simnet::PreemptionModel;

fn quick_cfg(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::test_small(seed);
    cfg.epochs = 4;
    cfg
}

#[test]
fn pipeline_trains_and_reports_consistently() {
    let cfg = quick_cfg(1);
    let r = run_job(cfg.clone()).unwrap();
    assert_eq!(r.label, "P2C2T2");
    assert_eq!(r.epochs.len(), 4);
    // Every epoch assimilated exactly `shards` results.
    assert!(r.epochs.iter().all(|e| e.assimilated == cfg.shards));
    // The server accepted exactly epochs × shards results.
    assert_eq!(r.server_metrics.completed, (cfg.epochs * cfg.shards) as u64);
    // Accuracy fields are coherent probabilities.
    for e in &r.epochs {
        assert!(e.min_val_acc <= e.mean_val_acc && e.mean_val_acc <= e.max_val_acc);
        assert!((0.0..=1.0).contains(&e.mean_val_acc));
    }
    // Store writes: 1 seed + one per assimilation.
    assert_eq!(r.store_ops.writes, 1 + r.server_metrics.completed);
}

#[test]
fn mixed_fleet_heterogeneity_changes_timing_not_correctness() {
    let mut uniform = quick_cfg(2);
    uniform.cn = 4;
    let mut mixed = uniform.clone();
    mixed.fleet = FleetKind::Mixed;
    let ru = run_job(uniform).unwrap();
    let rm = run_job(mixed).unwrap();
    assert_eq!(ru.epochs.len(), rm.epochs.len());
    // Faster mixed clients (2.5/2.8 GHz vs all-2.2) change the clock.
    assert_ne!(ru.total_time_h, rm.total_time_h);
}

#[test]
fn alpha_var_schedule_is_recorded_per_epoch() {
    let mut cfg = quick_cfg(3);
    cfg.alpha = AlphaSchedule::VarEOverE1;
    let r = run_job(cfg).unwrap();
    let alphas: Vec<f32> = r.epochs.iter().map(|e| e.alpha).collect();
    assert!((alphas[0] - 0.5).abs() < 1e-6);
    assert!(alphas.windows(2).all(|w| w[1] > w[0]), "{alphas:?}");
}

#[test]
fn strong_consistency_serializes_under_contention() {
    let mut cfg = quick_cfg(4);
    cfg.pn = 4;
    cfg.consistency = Consistency::Strong;
    let r = run_job(cfg).unwrap();
    assert_eq!(
        r.store_ops.lost_updates, 0,
        "strong mode must not lose updates"
    );
    // Strong path counts transactions, not raw puts.
    assert!(r.store_ops.transactions >= r.server_metrics.completed);
}

#[test]
fn survives_sustained_preemption_storm() {
    // 40% per-subtask interruption: brutal, but the job must finish and
    // still learn (the §III-E fault-tolerance claim, stress-tested).
    let mut job = quick_cfg(5);
    job.epochs = 3;
    let cfg = DesConfig {
        preemption: PreemptionModel::BernoulliPerSubtask { p: 0.4 },
        ..DesConfig::new(job)
    };
    let r = run_job(cfg).unwrap();
    assert_eq!(r.epochs.len(), 3);
    assert!(r.preemptions > 0);
    assert!(r.server_metrics.timeouts > 0);
    assert!(r.server_metrics.reassignments > 0);
}

#[test]
fn timing_only_matches_real_run_clock() {
    // The fast path must reproduce the same simulated clock as the real
    // run (same seeds, same event sequence) — it only skips the learning.
    let real = run_job(quick_cfg(7)).unwrap();
    let fast = run_job(DesConfig {
        timing_only: true,
        ..DesConfig::new(quick_cfg(7))
    })
    .unwrap();
    assert_eq!(real.epochs.len(), fast.epochs.len());
    for (a, b) in real.epochs.iter().zip(&fast.epochs) {
        assert!(
            (a.end_time_h - b.end_time_h).abs() < 1e-9,
            "epoch {} clock diverged: {} vs {}",
            a.epoch,
            a.end_time_h,
            b.end_time_h
        );
    }
    assert_eq!(real.bytes_transferred, fast.bytes_transferred);
}

#[test]
fn vertical_scaling_reduces_wall_clock_up_to_capacity() {
    // More simultaneous subtasks per client (T1 -> T4) shortens the epoch
    // while the server keeps up — §IV-B's vertical-scaling observation.
    let time_for = |tn: usize| {
        let mut cfg = DesConfig::new(quick_cfg(8));
        cfg.job.tn = tn;
        cfg.timing_only = true;
        run_job(cfg).unwrap().total_time_h
    };
    let t1 = time_for(1);
    let t4 = time_for(4);
    assert!(t4 < t1, "T4 {t4} should beat T1 {t1}");
}

#[test]
fn reports_serialize_to_json() {
    let r = run_job(quick_cfg(9)).unwrap();
    let json = serde_json::to_string(&r).unwrap();
    let back: vc_asgd::JobReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
}

#[test]
fn replicated_workunits_run_redundantly_and_converge() {
    // BOINC's redundancy feature (§II-C): each subtask executes on two
    // hosts; the first valid result wins, the loser is cancelled.
    let mut cfg = quick_cfg(10);
    cfg.cn = 3;
    cfg.middleware.replication = 2;
    cfg.epochs = 2;
    let r = run_job(cfg.clone()).unwrap();
    assert_eq!(r.epochs.len(), 2);
    assert!(r.epochs.iter().all(|e| e.assimilated == cfg.shards));
    // Redundancy really happened: more assignments than completions, and
    // some replicas were cancelled or reported stale.
    assert!(r.server_metrics.assigned > r.server_metrics.completed);
    assert!(
        r.server_metrics.cancelled_replicas + r.server_metrics.stale_results > 0,
        "{:?}",
        r.server_metrics
    );
}

#[test]
fn replication_hedges_against_preemption() {
    // With instances dying, redundant execution reduces the timeout stalls
    // on the critical path (at the price of extra assignments).
    let mut single = DesConfig::new(quick_cfg(11));
    single.job.cn = 4;
    single.job.epochs = 3;
    single.timing_only = true;
    single.preemption = PreemptionModel::BernoulliPerSubtask { p: 0.35 };
    let mut redundant = single.clone();
    redundant.job.middleware.replication = 2;
    let r1 = run_job(single).unwrap();
    let r2 = run_job(redundant).unwrap();
    // Not asserting a strict win (stochastic); assert both finish and the
    // redundant run paid for it with more assignments.
    assert!(r2.server_metrics.assigned > r1.server_metrics.assigned);
    assert_eq!(r1.epochs.len(), 3);
    assert_eq!(r2.epochs.len(), 3);
}
