//! §IV-D — impact of the eventual-consistency database.
//!
//! Reproduces three results:
//! 1. per-update latency: Redis-mode 0.87 s vs MySQL-mode 1.29 s (1.5×) at
//!    the paper's 21.2 MB blob, from the calibrated latency model, plus (on
//!    stderr: it is a reading of this machine, not of the code) a
//!    wall-clock micro-measurement of the in-memory store engine;
//! 2. the training-time overhead: +14 min over ~2 000 updates (CIFAR10,
//!    40 epochs), +187 h at ImageNet scale (~1.6 M updates);
//! 3. the semantic difference: a timing-only P3C3T4 run under each mode —
//!    strong consistency never loses updates but stretches the clock;
//!    eventual consistency is faster and loses a measurable number.
//!
//! Run: `cargo run -p vc-bench --bin sec4d --release`
//! (`-q … > results/sec4d.txt` regenerates the committed artefact).

use bytes::Bytes;
use std::time::Instant;
use vc_kvstore::VersionedStore;

fn main() {
    print!("{}", vc_bench::sec4d());

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
    eprintln!(
        "In-memory engine (1 MiB value, this machine): eventual path {eventual_us:.1} us/op, \
         transactional path {strong_us:.1} us/op"
    );
}
