//! Flight-recorder integration tests: a failing DST seed must leave behind
//! a replayable JSONL artifact whose timestamps ride the virtual clock.

use std::panic::AssertUnwindSafe;
use vc_runtime::{run_scenario, verify_seed, Scenario};

/// Satellite acceptance: when a seed fails its consistency verification,
/// `verify_seed` dumps the run's flight recorder to a per-seed JSONL file
/// and names it in the panic message. The dump parses line-by-line, its
/// timestamps are monotone virtual-clock readings, and a replay of the
/// same seed reproduces it byte-for-byte.
#[test]
fn failing_dst_seed_dumps_replayable_flight_recorder_jsonl() {
    let seed = 41u64;
    let sc = Scenario::new(seed)
        .cn(4)
        .epochs(2)
        .kill_fraction(0.3, 2)
        .respawn_after(0.8);
    let mut out = run_scenario(&sc).unwrap();
    out.verify_consistency().unwrap();
    // Tamper with the metric so verification fails the way a real
    // lost-update accounting bug would surface.
    out.report.store_ops.lost_updates += 1;

    let path = std::env::temp_dir().join(format!("vc-dst-seed-{seed}.jsonl"));
    std::fs::remove_file(&path).ok();
    let panic = std::panic::catch_unwind(AssertUnwindSafe(|| verify_seed(seed, &out)))
        .expect_err("tampered outcome must fail verification");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("flight recorder dumped to"), "{msg}");
    assert!(msg.contains(&format!("vc-dst-seed-{seed}.jsonl")), "{msg}");

    let dump = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!dump.is_empty(), "the trace must not be empty");
    let mut last = f64::NEG_INFINITY;
    let mut kills = 0u64;
    for line in dump.lines() {
        let ev: vc_telemetry::Event = serde_json::from_str(line).expect("replayable JSONL");
        assert!(
            ev.t_s >= last,
            "virtual-clock timestamps must be monotone ({} after {last})",
            ev.t_s
        );
        last = ev.t_s;
        if ev.name == "worker_kill" {
            kills += 1;
        }
    }
    assert!(last > 0.0, "virtual time must have advanced");
    assert_eq!(kills, out.report.kills, "the trace records every kill");

    // The same failing seed replays to a byte-identical trace — the dump
    // is a deterministic artifact, not a one-off.
    let again = run_scenario(&sc).unwrap();
    let replay_path = std::env::temp_dir().join(format!("vc-dst-seed-{seed}-replay.jsonl"));
    std::fs::remove_file(&replay_path).ok();
    let written = again
        .telemetry
        .recorder()
        .dump_to_file(&replay_path)
        .unwrap();
    let replay = std::fs::read_to_string(&written).unwrap();
    std::fs::remove_file(&written).ok();
    assert_eq!(
        replay, dump,
        "replay must reproduce the dumped trace byte-for-byte"
    );
}
