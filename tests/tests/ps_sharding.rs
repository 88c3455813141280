//! DST regression for the sharded parameter service (`vc-ps`).
//!
//! Three claims, each checked across seeds:
//!
//! 1. **Exact reproduction at one shard.** With `ps_shards = 1` the
//!    service stores the same key and performs the same operation sequence
//!    as the historical single-value assimilator, so the accuracy
//!    trajectory must match the pre-sharding runs *to the bit* — the
//!    golden values below were recorded before `vc-ps` existed.
//! 2. **Shard-count invariance.** The Eq. (1) blend is elementwise and
//!    every simulated commit is atomic within one event, so 4 or 16
//!    shards must produce bitwise-identical accuracy trajectories to 1.
//! 3. **Clean band under chaos.** 32-seed sweeps at every shard count
//!    stay above the learnability floor under a 30% fleet kill and under
//!    byzantine uploads filtered by replication+quorum, and every history
//!    still passes the consistency checker.

use vc_ps::service::PS_BYTES_SAVED;
use vc_ps::Codec;
use vc_runtime::{run_scenario, sweep, verify_seed, ByzantineMode, RuntimeConfig, Scenario};

/// The anchor scenario the golden bits were recorded on (pre-`vc-ps`).
fn tiny(seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed).cn(3).epochs(2);
    sc.cfg.job.val_eval_n = 60;
    sc
}

/// The accuracy bits of each epoch's `mean_val_acc`, then the final
/// val/test accuracies, as `f32::to_bits()`.
fn trajectory_bits(sc: &Scenario) -> (Vec<u32>, u32, u32) {
    let out = run_scenario(sc).expect("scenario runs");
    assert!(!out.report.halted_early);
    out.verify_consistency().expect("consistency contract");
    (
        out.report
            .epochs
            .iter()
            .map(|e| e.mean_val_acc.to_bits())
            .collect(),
        out.report.final_val_acc.to_bits(),
        out.report.final_test_acc.to_bits(),
    )
}

/// Claim 1: one shard reproduces the pre-sharding trajectories bitwise.
/// These constants were captured from the seed commit (before `vc-ps`);
/// any drift here means the refactor changed the math, not just the
/// plumbing.
#[test]
fn one_shard_reproduces_golden_trajectories() {
    let golden: [(u64, [u32; 2], u32, u32); 4] = [
        (0, [1043682646, 1049414860], 1050253722, 1050253722),
        (1, [1042424354, 1049904195], 1050812962, 1051931443),
        (2, [1045500177, 1052141160], 1051651823, 1051372203),
        (3, [1040886442, 1049974102], 1050533342, 1050812962),
    ];
    for (seed, epochs, val, test) in golden {
        let (e, v, t) = trajectory_bits(&tiny(seed));
        assert_eq!(
            (e.as_slice(), v, t),
            (epochs.as_slice(), val, test),
            "seed {seed}: ps_shards=1 must match the pre-sharding trajectory bitwise"
        );
    }
}

/// Claim 2: the accuracy trajectory is invariant in the shard count.
#[test]
fn shard_count_never_changes_the_math() {
    for seed in [7, 8] {
        let base = trajectory_bits(&tiny(seed));
        for p in [4, 16] {
            let sharded = trajectory_bits(&tiny(seed).ps_shards(p));
            assert_eq!(
                base, sharded,
                "seed {seed}: {p} shards diverged from the unsharded trajectory"
            );
        }
    }
}

/// Replays of a sharded run are byte-identical, report and store history.
#[test]
fn sharded_replay_is_byte_identical() {
    let sc = tiny(5).ps_shards(4);
    let a = run_scenario(&sc).unwrap();
    let b = run_scenario(&sc).unwrap();
    assert_eq!(a.report_json(), b.report_json(), "sharded replay drifted");
    assert_eq!(a.history, b.history, "store op history drifted");
}

/// Claim 3a: 30% fleet kill, every shard count, 32 seeds each.
#[test]
fn dst_sweep_kill_storm_across_shard_counts() {
    for p in [1usize, 4, 16] {
        let make = move |seed| tiny(seed).cn(4).tn(2).kill_fraction(0.3, 2).ps_shards(p);
        for (seed, out) in sweep(0..32, make) {
            let r = &out.report;
            assert!(!r.halted_early, "shards {p} seed {seed}: halted early");
            assert_eq!(r.kills, 2, "shards {p} seed {seed}: wrong kill count");
            assert!(
                r.final_mean_acc() > 0.15,
                "shards {p} seed {seed}: accuracy {} out of the clean band",
                r.final_mean_acc()
            );
        }
    }
}

/// Claim 3b: byzantine uploads, filtered by replication + quorum, every
/// shard count. The poisoned results never reach the merge path, so the
/// fleet stays in the clean accuracy band.
#[test]
fn dst_sweep_byzantine_across_shard_counts() {
    for p in [1usize, 4, 16] {
        let make = move |seed| {
            tiny(seed)
                .cn(6)
                .replication(2)
                .quorum(2)
                .byzantine(vec![0, 1], ByzantineMode::Poison)
                .ps_shards(p)
        };
        for (seed, out) in sweep(0..32, make) {
            let r = &out.report;
            assert!(!r.halted_early, "shards {p} seed {seed}: halted early");
            assert!(
                r.final_mean_acc() > 0.15,
                "shards {p} seed {seed}: byzantine uploads leaked into the merge (acc {})",
                r.final_mean_acc()
            );
            verify_seed(seed, &out);
        }
    }
}

/// Explicitly requesting `Codec::Raw` is the default path, to the byte:
/// the codec plumbing must be invisible until a lossy mode is asked for.
#[test]
fn explicit_raw_codec_is_the_default_bitwise() {
    for seed in [5, 9] {
        let sc = tiny(seed).ps_shards(4);
        let a = run_scenario(&sc).unwrap();
        let b = run_scenario(&sc.clone().codec(Codec::Raw)).unwrap();
        assert_eq!(
            a.report_json(),
            b.report_json(),
            "seed {seed}: explicit Raw diverged from the default report"
        );
        assert_eq!(a.history, b.history, "seed {seed}: store history diverged");
    }
}

/// Claim 3c: the lossy transfer codec (Int8 + delta + error feedback)
/// stays in the clean accuracy band under the same kill-storm chaos, at
/// every shard count, 32 seeds each. Quantized replicas pass quorum via
/// the tolerance comparator the codec installs.
#[test]
fn dst_sweep_kill_storm_under_lossy_codec() {
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    for p in [1usize, 4, 16] {
        let make = move |seed| {
            tiny(seed)
                .cn(4)
                .tn(2)
                .kill_fraction(0.3, 2)
                .ps_shards(p)
                .codec(codec)
        };
        for (seed, out) in sweep(0..32, make) {
            let r = &out.report;
            assert!(!r.halted_early, "shards {p} seed {seed}: halted early");
            assert!(
                r.final_mean_acc() > 0.15,
                "shards {p} seed {seed}: int8 codec fell out of the clean band (acc {})",
                r.final_mean_acc()
            );
        }
    }
}

/// Claim 3d: byzantine uploads are still filtered under the lossy codec —
/// the tolerance comparator accepts quantization error, not poison.
#[test]
fn dst_sweep_byzantine_under_lossy_codec() {
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    for p in [1usize, 4, 16] {
        let make = move |seed| {
            tiny(seed)
                .cn(6)
                .replication(2)
                .quorum(2)
                .byzantine(vec![0, 1], ByzantineMode::Poison)
                .ps_shards(p)
                .codec(codec)
        };
        for (seed, out) in sweep(0..32, make) {
            let r = &out.report;
            assert!(!r.halted_early, "shards {p} seed {seed}: halted early");
            assert!(
                r.final_mean_acc() > 0.15,
                "shards {p} seed {seed}: byzantine uploads leaked under int8 (acc {})",
                r.final_mean_acc()
            );
        }
    }
}

/// A lossy run actually saves wire bytes once warm fetches ride deltas,
/// and the replay stays deterministic (same seed → same report bytes).
#[test]
fn lossy_codec_saves_bytes_and_replays_identically() {
    let sc = tiny(13).ps_shards(4).epochs(3).codec(Codec::Int8 {
        error_feedback: true,
    });
    let a = run_scenario(&sc).unwrap();
    let b = run_scenario(&sc).unwrap();
    assert_eq!(a.report_json(), b.report_json(), "lossy replay drifted");
    let saved = a.telemetry.registry().counter(PS_BYTES_SAVED).get();
    assert!(
        saved > 0,
        "delta fetches must save bytes over raw blobs: {saved:?}"
    );
}

/// The ops surface reports the codec's work: under a lossy codec,
/// `/status` carries a compression ratio above 1 with cumulative bytes
/// saved, and `/metrics` exports the codec counter and kernel-time
/// histograms.
#[test]
fn lossy_codec_shows_up_on_the_ops_surface() {
    let sc = tiny(13)
        .ps_shards(4)
        .epochs(3)
        .codec(Codec::Int8 {
            error_feedback: true,
        })
        .ops(true);
    let out = run_scenario(&sc).unwrap();
    let hub = out.ops.as_ref().expect("scenario attached an ops hub");

    let status = hub.handle("/status");
    assert_eq!(status.status, 200);
    let body = String::from_utf8(status.body).unwrap();
    let s: vc_ops::StatusSnapshot = serde_json::from_str(&body).unwrap();
    assert!(
        s.ps.bytes_saved > 0,
        "/status must report bytes saved: {:?}",
        s.ps
    );
    assert!(
        s.ps.compression_ratio > 1.0,
        "/status compression ratio must exceed 1 under int8: {:?}",
        s.ps
    );

    let metrics = hub.handle("/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    for series in ["ps_bytes_saved", "ps_encode_s"] {
        assert!(
            text.contains(series),
            "/metrics missing {series} exposition"
        );
    }
}

/// The wire-byte counters are live, and the sticky cache pays off: a
/// worker only fetches when the manifest moved, so same-epoch
/// re-assignments cost no wire traffic at all.
#[test]
fn sharded_runs_report_partial_fetch_traffic() {
    let out = run_scenario(&tiny(11).ps_shards(4)).unwrap();
    let r = &out.report;
    let ops = r.ps_ops;
    assert!(ops.fetches > 0, "workers must fetch through the service");
    assert!(ops.shards_sent > 0, "stale fetches ship shard blobs");
    assert!(
        ops.fetches < r.server_metrics.assigned,
        "sticky caches must absorb same-epoch re-assignments \
         ({} fetches vs {} assignments)",
        ops.fetches,
        r.server_metrics.assigned
    );
    assert!(ops.bytes_tx > ops.bytes_rx, "responses outweigh requests");
    assert!(
        r.bytes_transferred >= ops.bytes_tx + ops.bytes_rx,
        "report folds the wire bytes in"
    );
}

/// The real-thread runtime over TCP loopback with 4 shards converges like
/// the in-process transport: same codec, real sockets.
#[test]
fn tcp_loopback_fleet_learns_above_chance() {
    let mut cfg = RuntimeConfig::test_small(2);
    cfg.job.cn = 4;
    cfg.job.tn = 2;
    cfg.job.epochs = 5;
    cfg.job.ps_shards = 4;
    cfg.ps_tcp = true;
    let max_syncs = (cfg.job.cn * cfg.job.epochs) as u64;
    let report = vc_runtime::Runtime::new(cfg).unwrap().run().unwrap();
    assert!(!report.halted_early, "TCP run must finish on its own");
    assert!(
        report.final_mean_acc() > 0.2,
        "TCP-loopback accuracy {}",
        report.final_mean_acc()
    );
    assert!(report.ps_ops.fetches > 0 && report.ps_ops.bytes_tx > 0);
    // One request per sync, and at most one sync per worker per epoch:
    // the closed form the benchmark's Raw wire check is built on.
    assert!(
        report.ps_ops.fetches <= max_syncs,
        "{} fetch requests exceed Cn x epochs = {max_syncs}",
        report.ps_ops.fetches
    );
}
