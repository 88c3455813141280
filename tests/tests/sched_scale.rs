//! Fleet-scale scheduler validation.
//!
//! Two claims, two sections:
//!
//! 1. **Golden-bit regression** — the O(1)-per-event scheduler rewrite
//!    (timer heap, dense host records, indexed work queue, counter-backed
//!    aggregates) is *bitwise* behavior-preserving. The constants (shared
//!    with `ops_trace.rs` via `common/`) were captured on the pre-rewrite
//!    scheduler for the exact small-fleet
//!    chaos scenarios pinned in `runtime_chaos.rs` and
//!    `scheduler_hardening.rs`: per-epoch accuracy bits, final accuracy
//!    bits, and FNV-1a hashes of the full report JSON and the
//!    flight-recorder JSONL trace. Any divergence — one event reordered,
//!    one EWMA fed twice, one metric off by one — flips a hash.
//!
//! 2. **Scale sweeps** — synthesized 10k-host volunteer fleets under
//!    kill-storms and byzantine minorities finish inside a bounded
//!    virtual-time budget and land in the clean accuracy band, across 32
//!    seeds. Before the rewrite a single such run drowned in O(fleet)
//!    deadline scans per event.

mod common;

use common::{events_jsonl, goldens, make};
use vc_runtime::{run_scenario, sweep, ByzantineMode, Scenario};
use vc_telemetry::fnv1a;

#[test]
fn rewrite_replays_pre_rewrite_trajectories_bitwise() {
    for (name, seed, epoch_bits, val_bits, test_bits, report_hash, trace_hash) in goldens() {
        let out = run_scenario(&make(name, seed)).expect("golden scenario runs");
        let got_epochs: Vec<u32> = out
            .report
            .epochs
            .iter()
            .map(|e| e.mean_val_acc.to_bits())
            .collect();
        assert_eq!(
            got_epochs, epoch_bits,
            "{name} seed {seed}: per-epoch accuracy bits drifted"
        );
        assert_eq!(
            out.report.final_val_acc.to_bits(),
            val_bits,
            "{name} seed {seed}: final val accuracy bits drifted"
        );
        assert_eq!(
            out.report.final_test_acc.to_bits(),
            test_bits,
            "{name} seed {seed}: final test accuracy bits drifted"
        );
        assert_eq!(
            fnv1a(out.report_json().as_bytes()),
            report_hash,
            "{name} seed {seed}: report JSON no longer byte-identical"
        );
        assert_eq!(
            fnv1a(events_jsonl(&out.telemetry).as_bytes()),
            trace_hash,
            "{name} seed {seed}: flight-recorder trace no longer byte-identical"
        );
    }
}

// ------------------------------------------------------------ scale sweeps

/// A synthesized 10k-host volunteer fleet under a 30 % kill-storm with a
/// 10 % byzantine minority, quorum 2. Coarse poll cadence — at this scale
/// idle polling is the event budget.
fn fleet_10k(seed: u64) -> Scenario {
    let cn = 10_000;
    let mut sc = Scenario::new(seed)
        .cn(cn)
        .tn(1)
        .epochs(3)
        .fleet_generated(seed ^ 0xf1ee7)
        .poll_interval(2.0)
        .replication(2)
        .quorum(2)
        .kill_fraction(0.3, 2)
        .byzantine((0..(cn as u32 / 10)).collect(), ByzantineMode::Poison);
    sc.cfg.job.shards = 32;
    sc.cfg.job.data.train_n = 1280;
    sc.cfg.job.val_eval_n = 60;
    // The test-scale α (0.6) lets each thin 40-sample update overwrite
    // most of the server state — fine at 8 chunky shards, far too twitchy
    // under storm-grade reordering. A conservative blend keeps the merged
    // model a running average.
    sc.cfg.job.alpha = vc_asgd::AlphaSchedule::Const(0.3);
    sc.tick_s = 1.0;
    sc
}

/// The virtual-time budget: across the 32 sweep seeds a clean 3-epoch run
/// at this scale closes by virtual t≈28 s; double that is the budget. An
/// O(fleet)-per-event regression shows up long before this as a real-time
/// hang, but a scheduling *quality* regression (lost work, starved queue,
/// misfired deadlines) shows up here as a blown budget.
const VIRTUAL_BUDGET_S: f64 = 60.0;

fn check_scale_run(seed: u64, out: &vc_runtime::SimOutcome) {
    assert!(
        !out.report.halted_early,
        "seed {seed}: 10k-host run did not finish"
    );
    assert!(
        out.report.wall_s < VIRTUAL_BUDGET_S,
        "seed {seed}: virtual time {} blew the {VIRTUAL_BUDGET_S}s budget",
        out.report.wall_s
    );
    // Calibrated over the 32 sweep seeds: final-epoch means span
    // 0.23–0.53; 0.2 cleanly separates a learning run from a collapsed or
    // poisoned one (chance is 0.1) without flaking on merge variance.
    let acc = out.report.final_mean_acc();
    assert!(
        acc > 0.2,
        "seed {seed}: accuracy {acc} outside the clean band"
    );
    assert!(
        out.report.server_metrics.timeouts > 0,
        "seed {seed}: a 30% kill-storm must blow deadlines"
    );
}

/// One 10k-host chaos run per tier-1 invocation — fast enough for the
/// default test pass, and enough to catch a scale regression immediately.
#[test]
fn fleet_scale_10k_single_seed() {
    let out = run_scenario(&fleet_10k(0)).expect("10k-host scenario runs");
    out.verify_consistency().expect("consistency contract");
    check_scale_run(0, &out);
}

/// The full 32-seed sweep (CI `sched` job; minutes, not unit-test time).
#[test]
#[ignore = "32-seed 10k-host sweep: run explicitly (CI sched job)"]
fn fleet_scale_10k_chaos_sweep_32_seeds() {
    for (seed, out) in sweep(0..32, fleet_10k) {
        check_scale_run(seed, &out);
    }
}
