//! Shared fixtures for the golden-bit suites: the pinned chaos scenarios,
//! the pre-rewrite trajectory fingerprints captured on them, and the
//! flight-recorder bytes those fingerprints hash.
//!
//! Used by `sched_scale.rs` (the scheduler-rewrite regression),
//! `ops_trace.rs` (the observability-is-perturbation-free regression) and
//! `runtime_chaos.rs` (the chaos sweeps): all replay the *same*
//! trajectories, so the scenarios and the golden bits live in exactly one
//! place.

#![allow(dead_code)] // each test binary uses the subset it needs

use vc_runtime::{ByzantineMode, Scenario};
use vc_telemetry::Telemetry;

/// The flight recorder's retained events as JSONL, oldest first: the
/// bytes `FlightRecorder::dump_to_file` writes.
pub fn events_jsonl(tel: &Telemetry) -> String {
    let mut out = String::new();
    for ev in tel.recorder().events() {
        out.push_str(&serde_json::to_string(&ev).expect("event serialization is infallible"));
        out.push('\n');
    }
    out
}

// --- the pinned scenarios ---------------------------------------------------

/// 30% of a 7-worker fleet dies on its second assignment, no replacements.
pub fn storm(seed: u64) -> Scenario {
    Scenario::new(seed)
        .cn(7)
        .tn(2)
        .epochs(3)
        .kill_fraction(0.3, 2)
}

/// Strong-consistency variant: the parameter store must serialize every
/// assimilation even while the fleet churns and respawns.
pub fn strong_storm(seed: u64) -> Scenario {
    Scenario::new(seed)
        .cn(5)
        .epochs(2)
        .consistency(vc_kvstore::Consistency::Strong)
        .kill_fraction(0.3, 2)
        .respawn_after(1.0)
}

/// Message-chaos variant: first assignments dropped, replacements after a
/// delay, every worker→server message randomly delayed (and reordered).
pub fn delay_storm(seed: u64) -> Scenario {
    Scenario::new(seed)
        .cn(6)
        .epochs(2)
        .kill_fraction(0.34, 1)
        .respawn_after(0.5)
        .delays(0.1)
}

pub fn byz_poison(seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed)
        .cn(6)
        .epochs(2)
        .replication(2)
        .quorum(2)
        .byzantine(vec![0, 1], ByzantineMode::Poison);
    sc.cfg.job.val_eval_n = 60;
    sc
}

/// One golden record: scenario name, seed, per-epoch `mean_val_acc` bits,
/// final val/test accuracy bits, FNV-1a of the report JSON, FNV-1a of the
/// flight-recorder JSONL.
pub type Golden = (&'static str, u64, Vec<u32>, u32, u32, u64, u64);

/// Captured on the pre-rewrite (full-scan) scheduler at the pinned seeds.
/// The report hashes, which serialise `PsOps` and `bytes_transferred`,
/// were recaptured once fresh-run workers drew the seeded model instead
/// of fetching it: fewer fetches and bytes, every other bit the same.
pub fn goldens() -> Vec<Golden> {
    vec![
        (
            "storm",
            0,
            vec![1044591412, 1049449813, 1052980020],
            1053609165,
            1052490684,
            0xc808e7ae81807ec0,
            0x8c3fcddd4eaec676,
        ),
        (
            "storm",
            1,
            vec![1044171982, 1049729433, 1054482978],
            1055007266,
            1055566507,
            0xf9188b39ecea7c7a,
            0x75d2db82a0547151,
        ),
        (
            "storm",
            2,
            vec![1044032171, 1050638199, 1054203358],
            1054168405,
            1053049924,
            0x8c7da5a3e4410e10,
            0x1f92623cfd992885,
        ),
        (
            "storm",
            3,
            vec![1040047582, 1049379908, 1055496600],
            1056684988,
            1056405367,
            0x9883c835c0d2b532,
            0x8fcb7ba0e4445c3a,
        ),
        (
            "storm",
            17,
            vec![1042074828, 1050812962, 1053714023],
            1054727646,
            1054727646,
            0xbda1136066e80c26,
            0xa9b7e65b7010a613,
        ),
        (
            "strong_storm",
            0,
            vec![1044451602, 1050148864],
            1050812962,
            1050253722,
            0x9fb18b24ccc97aef,
            0x37aa510cacdc4fd9,
        ),
        (
            "strong_storm",
            1,
            vec![1045150653, 1050393531],
            1051372203,
            1052770304,
            0xe3a9d5e8a8c96d32,
            0x8b39d01bc2626273,
        ),
        (
            "delay_storm",
            0,
            vec![1044381697, 1049589623],
            1049974101,
            1049974101,
            0xc7cd211eec47184e,
            0x55d4cf0ecc2bcb50,
        ),
        (
            "delay_storm",
            1,
            vec![1044171982, 1049729433],
            1050253722,
            1051931443,
            0x4b3f92e478f992b6,
            0x86167fa0f4459d96,
        ),
        (
            "byz_poison",
            0,
            vec![1043962266, 1049135240],
            1051372203,
            1050253722,
            0xf1733dc249fda653,
            0x80ca28d1c019c15f,
        ),
        (
            "byz_poison",
            1,
            vec![1042843786, 1050533341],
            1051372203,
            1052211063,
            0x5abf8c36ac3aeaa4,
            0x284331b3f994dfb0,
        ),
    ]
}

pub fn make(name: &str, seed: u64) -> Scenario {
    match name {
        "storm" => storm(seed),
        "strong_storm" => strong_storm(seed),
        "delay_storm" => delay_storm(seed),
        "byz_poison" => byz_poison(seed),
        other => panic!("unknown golden scenario {other}"),
    }
}
