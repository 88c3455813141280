//! §IV-D — impact of the eventual-consistency database.
//!
//! Reproduces three results:
//! 1. per-update latency: Redis-mode 0.87 s vs MySQL-mode 1.29 s (1.5×) at
//!    the paper's 21.2 MB blob, from the calibrated latency model, plus a
//!    real wall-clock micro-measurement of the in-memory store engine;
//! 2. the training-time overhead: +14 min over ~2 000 updates (CIFAR10,
//!    40 epochs), +187 h at ImageNet scale (~1.6 M updates);
//! 3. the semantic difference: a timing-only P3C3T4 run under each mode —
//!    strong consistency never loses updates but stretches the clock;
//!    eventual consistency is faster and loses a measurable number.
//!
//! Run: `cargo run -p vc-bench --bin sec4d --release`

use bytes::Bytes;
use std::time::Instant;
use vc_asgd::JobConfig;
use vc_cost::DbOverhead;
use vc_kvstore::{Consistency, LatencyModel, VersionedStore};
use vc_runtime::des::run_job;

fn main() {
    // 1. Per-update latency model at the paper's blob size.
    let blob = (21.2 * 1024.0 * 1024.0) as usize;
    let redis = LatencyModel::for_mode(Consistency::Eventual).update_s(blob);
    let mysql = LatencyModel::for_mode(Consistency::Strong).update_s(blob);
    println!("Per-update latency (21.2 MB parameter blob):");
    println!("  eventual (Redis analog): {redis:.2} s   (paper: 0.87 s)");
    println!("  strong   (MySQL analog): {mysql:.2} s   (paper: 1.29 s)");
    println!("  ratio: {:.2}x              (paper: 1.5x)", mysql / redis);

    // Real engine micro-measurement (both paths on this machine's store;
    // absolute numbers are hardware-dependent, the ordering is the point).
    let store = VersionedStore::new();
    let payload = Bytes::from(vec![0u8; 1 << 20]);
    store.put("w", payload.clone());
    let n = 2000;
    let t0 = Instant::now();
    for _ in 0..n {
        let (_, v) = store.get("w");
        store.put_versioned("w", v, payload.clone());
    }
    let eventual_us = t0.elapsed().as_micros() as f64 / n as f64;
    let t0 = Instant::now();
    for _ in 0..n {
        store.transact("w", |cur, _| (cur.clone(), ()));
    }
    let strong_us = t0.elapsed().as_micros() as f64 / n as f64;
    println!(
        "\nIn-memory engine (1 MiB value, this machine): eventual path {eventual_us:.1} us/op, \
         transactional path {strong_us:.1} us/op"
    );

    // 2. Overhead extrapolation.
    let d = DbOverhead::paper_measured();
    println!("\nStrong-consistency overhead:");
    println!(
        "  CIFAR10, 40 epochs (~{} updates): +{:.1} min   (paper: ~14 min)",
        DbOverhead::cifar10_updates(40),
        d.extra_s(DbOverhead::cifar10_updates(40)) / 60.0
    );
    println!(
        "  ImageNet, 40 epochs (~{} updates): +{:.0} h   (paper: ~187 h)",
        DbOverhead::imagenet_updates(40),
        d.extra_s(DbOverhead::imagenet_updates(40)) / 3600.0
    );

    // 3. End-to-end effect on a training run (timing-only, full 40 epochs).
    println!("\nEnd-to-end P3C3T4, 40 epochs (timing-only simulation):");
    println!(
        "{:<10} {:>12} {:>14} {:>13}",
        "mode", "total hours", "lost updates", "transactions"
    );
    for mode in [Consistency::Eventual, Consistency::Strong] {
        let mut cfg = JobConfig::paper_default(42).with_pct(3, 3, 4);
        cfg.epochs = 40;
        cfg.timing_only = true;
        cfg.consistency = mode;
        let r = run_job(cfg).expect("valid config");
        println!(
            "{:<10} {:>12.2} {:>14} {:>13}",
            mode.to_string(),
            r.total_time_h,
            r.store_ops.lost_updates,
            r.store_ops.transactions
        );
    }
}
