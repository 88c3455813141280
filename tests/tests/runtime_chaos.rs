//! Chaos tests of the volunteer-fleet runtime, run two ways:
//!
//! - **Deterministic simulation (DST)**: the same coordinator/worker state
//!   machines under a virtual clock and seeded scheduler
//!   ([`vc_runtime::sim`]). Each scenario sweeps 32 seeds; every race,
//!   timeout and reordering replays bit-for-bit from the seed printed in
//!   any failure message.
//! - **Real threads**: one wall-clock chaos run and a runtime/simulator
//!   agreement check keep the OS-thread substrate honest.
//!
//! The paper's core fault-tolerance claim (§IV-E) — losing ~30% of the
//! fleet mid-epoch costs recovery time, never the job — is asserted on
//! every seed.

mod common;

use common::{delay_storm, events_jsonl, storm, strong_storm};
use vc_kvstore::Consistency;
use vc_runtime::{run_scenario, sweep, FaultPlan, Runtime, RuntimeConfig, Scenario};

/// DST sweep: 32 seeds of the 30% fleet-kill storm. Every seed must finish
/// every epoch, kill exactly the doomed workers, recover through virtual
/// timeouts, and still learn. (`sweep` additionally verifies the recorded
/// store history's lost-update recount against the store's counter per seed.)
#[test]
fn dst_fleet_survives_losing_a_third_of_its_workers() {
    for (seed, out) in sweep(0..32, storm) {
        let r = &out.report;
        assert!(!r.halted_early, "DST seed {seed}: halted early");
        assert_eq!(r.epochs.len(), 3, "DST seed {seed}: epochs missing");
        for e in &r.epochs {
            assert_eq!(
                e.assimilated, 8,
                "DST seed {seed} epoch {}: shard lost",
                e.epoch
            );
        }
        assert_eq!(r.kills, 3, "DST seed {seed}: not every doomed worker died");
        assert_eq!(r.respawns, 0, "DST seed {seed}");
        assert!(
            r.server_metrics.timeouts > 0,
            "DST seed {seed}: dead workers' assignments never expired"
        );
        assert!(
            r.server_metrics.reassignments > 0,
            "DST seed {seed}: expired assignments never re-issued"
        );
        assert!(
            r.final_mean_acc() > 0.15,
            "DST seed {seed}: accuracy {} below learnability",
            r.final_mean_acc()
        );
    }
}

/// DST sweep: 32 seeds under strong consistency with kills and respawns.
/// `sweep` asserts the linearizability condition per seed — the recorded
/// history must admit a sequential witness with zero lost updates; here we
/// re-state the metric-level claim and completion.
#[test]
fn dst_strong_histories_admit_a_sequential_witness_on_every_seed() {
    for (seed, out) in sweep(0..32, strong_storm) {
        let r = &out.report;
        assert!(!r.halted_early, "DST seed {seed}: halted early");
        assert_eq!(
            r.store_ops.lost_updates, 0,
            "DST seed {seed}: strong mode lost updates"
        );
        assert_eq!(r.kills, 2, "DST seed {seed}");
        assert_eq!(r.respawns, 2, "DST seed {seed}");
    }
}

/// DST sweep: 32 seeds of message chaos. Delayed, reordered traffic and
/// respawning workers must never wedge the job.
#[test]
fn dst_fleet_survives_message_chaos_with_respawns() {
    for (seed, out) in sweep(0..32, delay_storm) {
        let r = &out.report;
        assert!(!r.halted_early, "DST seed {seed}: halted early");
        assert_eq!(r.epochs.len(), 2, "DST seed {seed}");
        assert_eq!(r.kills, 3, "DST seed {seed}");
        assert_eq!(r.respawns, 3, "DST seed {seed}");
        assert!(
            r.delayed_msgs > 0,
            "DST seed {seed}: no traffic went through the delay line"
        );
    }
}

/// The acceptance criterion for the harness itself: the same `(Scenario,
/// seed)` replays to byte-identical reports and store histories, and a
/// different seed genuinely explores a different schedule.
#[test]
fn dst_chaos_replay_is_byte_identical() {
    let a = run_scenario(&storm(17)).unwrap();
    let b = run_scenario(&storm(17)).unwrap();
    assert_eq!(
        a.report_json(),
        b.report_json(),
        "same seed must replay bit-for-bit"
    );
    assert_eq!(a.history, b.history, "down to the store's operation log");
    // The flight recorder rides the virtual clock, so the full event trace
    // replays byte-for-byte too.
    assert_eq!(
        events_jsonl(&a.telemetry),
        events_jsonl(&b.telemetry),
        "same seed must dump an identical flight-recorder trace"
    );
    let c = run_scenario(&storm(18)).unwrap();
    assert_ne!(
        a.report_json(),
        c.report_json(),
        "different seeds must explore different runs"
    );
}

/// Acceptance criterion: the flight-recorder JSONL of a 30% fleet-kill
/// chaos run must agree *exactly* with the report's counters — every kill,
/// respawn and timeout the runtime counted appears as exactly one recorded
/// event, and nothing was dropped from the ring.
#[test]
fn dst_flight_recorder_counts_match_report_counters() {
    let sc = delay_storm(29);
    let out = run_scenario(&sc).unwrap();
    let r = &out.report;
    assert!(
        r.kills > 0 && r.respawns > 0,
        "scenario must exercise faults"
    );
    assert_eq!(out.telemetry.recorder().dropped(), 0, "ring must not wrap");

    let path = std::env::temp_dir().join("vc_chaos_flight_recorder.jsonl");
    std::fs::remove_file(&path).ok();
    out.telemetry.recorder().dump_to_file(&path).unwrap();
    let dump = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut counts = std::collections::HashMap::new();
    for line in dump.lines() {
        let ev: vc_telemetry::Event = serde_json::from_str(line).expect("every line parses");
        *counts.entry(ev.name.clone()).or_insert(0u64) += 1;
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    assert_eq!(count("worker_kill"), r.kills);
    assert_eq!(count("worker_respawn"), r.respawns);
    assert_eq!(count("wu_timeout"), r.server_metrics.timeouts);
    assert_eq!(count("wu_assigned"), r.server_metrics.assigned);
    assert_eq!(count("wu_completed"), r.server_metrics.completed);
    assert_eq!(
        count("wu_reassigned"),
        r.server_metrics.reassignments,
        "every reassignment (timeout or invalid) leaves one event"
    );
    assert_eq!(count("epoch_finished") as usize, r.epochs.len());
}

/// Nightly-scale sweep, ignored by default. CI's manual dispatch runs it
/// with `--ignored`; `DST_SEEDS` overrides the width (default 256).
#[test]
#[ignore = "nightly: 256-seed sweep, run with --ignored (DST_SEEDS overrides width)"]
fn dst_nightly_wide_sweep() {
    let n: u64 = std::env::var("DST_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    for (seed, out) in sweep(0..n, storm) {
        assert!(!out.report.halted_early, "DST seed {seed}: halted early");
        assert_eq!(out.report.kills, 3, "DST seed {seed}");
    }
    for (seed, out) in sweep(0..n, strong_storm) {
        assert!(!out.report.halted_early, "DST seed {seed}: halted early");
        assert_eq!(
            out.report.store_ops.lost_updates, 0,
            "DST seed {seed}: lost updates"
        );
    }
}

/// Real threads: the same storm as the DST sweeps, on OS threads and
/// wall-clock timeouts, keeps the threaded substrate honest end to end.
#[test]
fn threaded_fleet_survives_preemption_with_respawn_and_message_chaos() {
    let mut cfg = RuntimeConfig::test_small(22);
    cfg.job.cn = 6;
    cfg.job.tn = 2;
    cfg.job.epochs = 3;
    cfg.faults = FaultPlan {
        kill_hosts: FaultPlan::fraction_of(cfg.job.cn, 0.34),
        kill_on_nth_assignment: 1,
        respawn_after_s: Some(0.3),
        max_msg_delay_s: 0.01,
        ..FaultPlan::none()
    };
    cfg.faults.seed = 22;

    let fr_path = std::env::temp_dir().join("vc_threaded_chaos_flight.jsonl");
    std::fs::remove_file(&fr_path).ok();
    cfg.flight_recorder_path = Some(fr_path.to_string_lossy().into_owned());

    let doomed = cfg.faults.kill_hosts.len() as u64;
    let report = Runtime::new(cfg.clone()).unwrap().run().unwrap();

    // The coordinator dumps the flight recorder on finalize; its event
    // counts agree with the report's counters even on real threads.
    let dump = std::fs::read_to_string(&fr_path).expect("finalize dumps the flight recorder");
    std::fs::remove_file(&fr_path).ok();
    let count = |name: &str| {
        dump.lines()
            .map(|l| serde_json::from_str::<vc_telemetry::Event>(l).expect("line parses"))
            .filter(|ev| ev.name == name)
            .count() as u64
    };
    assert_eq!(count("worker_kill"), report.kills);
    assert_eq!(count("worker_respawn"), report.respawns);
    assert_eq!(count("wu_timeout"), report.server_metrics.timeouts);

    assert!(!report.halted_early);
    assert_eq!(report.epochs.len(), cfg.job.epochs);
    assert_eq!(report.kills, doomed);
    assert_eq!(report.respawns, doomed, "replacement instances came up");
    assert!(
        report.delayed_msgs > 0,
        "traffic went through the delay line"
    );
    assert!(
        report.server_metrics.reassignments > 0,
        "the dropped first assignments must be re-issued"
    );
    assert!(
        report.final_mean_acc() > 0.2,
        "learnability threshold despite chaos: {}",
        report.final_mean_acc()
    );
}

/// The threaded runtime, the deterministic simulation and the discrete-event
/// simulator all assimilate the same deterministic client results, so their
/// learning outcomes agree — three substrates, one algorithm.
#[test]
fn runtime_simulation_and_simulator_agree_on_learning_outcome() {
    let mut cfg = RuntimeConfig::test_small(23);
    cfg.job.cn = 4;
    cfg.job.epochs = 4;

    let rt = Runtime::new(cfg.clone()).unwrap().run().unwrap();
    let sim = vc_runtime::des::run_job(cfg.job).unwrap();
    let dst = run_scenario(&Scenario::new(23).cn(4).epochs(4)).unwrap();

    assert_eq!(rt.epochs.len(), sim.epochs.len());
    assert_eq!(rt.epochs.len(), dst.report.epochs.len());
    assert!(
        (rt.final_mean_acc() - sim.final_mean_acc()).abs() < 0.15,
        "runtime {} vs simulator {}",
        rt.final_mean_acc(),
        sim.final_mean_acc()
    );
    assert!(
        (rt.final_mean_acc() - dst.report.final_mean_acc()).abs() < 0.15,
        "runtime {} vs DST {}",
        rt.final_mean_acc(),
        dst.report.final_mean_acc()
    );
    assert!(rt.final_mean_acc() > 0.15 && sim.final_mean_acc() > 0.15);
    assert!(dst.report.final_mean_acc() > 0.15);
}

/// Threaded ↔ DST differential. One worker, one parameter server, strong
/// consistency, no faults: a single host leaves one assignment order, one
/// upload order and one blend order, and both substrates run the same
/// workunit, assimilation and scoring bodies — so they must agree on every
/// accuracy *bit*, under `Raw` and under `Int8` with the error-feedback
/// residual riding from upload to upload. A mismatch here means a body was
/// forked again, or the threaded substrate reordered something it may not.
#[test]
fn threaded_and_dst_agree_bitwise_with_one_worker_and_one_server() {
    for codec in [
        vc_ps::Codec::Raw,
        vc_ps::Codec::Int8 {
            error_feedback: true,
        },
    ] {
        let mut sc = Scenario::new(31)
            .cn(1)
            .pn(1)
            .epochs(3)
            .consistency(Consistency::Strong)
            .codec(codec);
        // Generous deadlines: a loaded box must not time an assignment out
        // (a re-issue would blend the same result, but later).
        sc.cfg.job.middleware.timeout_s = 60.0;
        sc.cfg.job.middleware.min_timeout_s = 60.0;
        sc.cfg.job.middleware.max_timeout_s = 120.0;

        let dst = run_scenario(&sc).unwrap().report;
        let rt = Runtime::new(sc.cfg.clone()).unwrap().run().unwrap();

        let bits = |r: &vc_runtime::RuntimeReport| -> Vec<u32> {
            r.epochs
                .iter()
                .flat_map(|e| [e.mean_val_acc, e.min_val_acc, e.max_val_acc])
                .chain([r.final_val_acc, r.final_test_acc])
                .map(f32::to_bits)
                .collect()
        };
        assert_eq!(rt.epochs.len(), 3, "{codec:?}: threaded run finished");
        assert_eq!(rt.server_metrics.timeouts, 0, "{codec:?}: no re-issues");
        assert_eq!(bits(&rt), bits(&dst), "{codec:?}: threaded vs DST");
    }
}
