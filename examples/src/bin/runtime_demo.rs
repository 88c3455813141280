//! Runtime demo: the same VC-ASGD job the simulator models, executed on a
//! real threaded volunteer fleet — worker threads training for real, a
//! fault injector preempting a third of them mid-subtask, wall-clock
//! timeouts recovering the lost work, and a checkpoint/resume cycle in the
//! middle of the run.
//!
//! All three runs share one telemetry hub: structured events echo to
//! stderr at the `VC_LOG` level (try `VC_LOG=debug`), latency histograms
//! and the store, parameter-service and fault counters accumulate across
//! runs (so the second and third reports' `store_ops`, `ps_ops`, kills,
//! respawns and delayed messages are cumulative), and the merged metrics
//! snapshot lands in `results/runtime_demo_metrics.json`.
//!
//! Run: `cargo run -p vc-examples --bin runtime_demo --release`
//!
//! Live ops surface: set `VC_OPS_ADDR=127.0.0.1:9090` to serve the
//! dashboard (`/`), `/metrics`, `/status`, `/events`, `/trace` and
//! `/healthz` across all three runs, with causal workunit tracing on.
//! `VC_OPS_LINGER_S=30` keeps the server (and the final state) up that
//! many seconds after the last run, for browsing or scripted scrapes.

use std::sync::Arc;
use vc_ops::{OpsHub, OpsServer};
use vc_runtime::{FaultPlan, Runtime, RuntimeConfig, RuntimeReport};
use vc_telemetry::{install_panic_dump, FieldValue, Telemetry};

fn print_report(tag: &str, r: &RuntimeReport, tel: &Telemetry) {
    println!(
        "{:>5} {:>7} {:>9} {:>9} {:>17}",
        "epoch", "alpha", "wall", "val acc", "min..max"
    );
    for e in &r.epochs {
        println!(
            "{:>5} {:>7.3} {:>8.2}s {:>9.3} {:>8.3}..{:.3}",
            e.epoch, e.alpha, e.end_wall_s, e.mean_val_acc, e.min_val_acc, e.max_val_acc
        );
    }
    println!(
        "{tag}: val {:.3}, test {:.3} in {:.2}s wall · {} assigned, {} timeouts, {} reassigned",
        r.final_val_acc,
        r.final_test_acc,
        r.wall_s,
        r.server_metrics.assigned,
        r.server_metrics.timeouts,
        r.server_metrics.reassignments,
    );
    println!(
        "faults: {} kills, {} respawns, {} delayed messages · {:.1} MB moved",
        r.kills,
        r.respawns,
        r.delayed_msgs,
        r.bytes_transferred as f64 / 1e6
    );
    let h = &r.telemetry.assim_latency_s;
    println!(
        "assimilation latency: p50 {:.4}s, p95 {:.4}s, p99 {:.4}s over {} results",
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99),
        h.count
    );
    // The run's last event of a name is its own: runs here are sequential.
    let last = |name| {
        tel.recorder()
            .events()
            .into_iter()
            .rev()
            .find(|e| e.name == name)
    };
    if let Some(e) = last("run_assembled") {
        if let (
            Some(FieldValue::F64(data)),
            Some(FieldValue::F64(init)),
            Some(FieldValue::F64(overlap)),
        ) = (e.field("data_s"), e.field("init_s"), e.field("overlap_s"))
        {
            println!(
                "set-up: data {:.2} ms beside build + seed + publish {:.2} ms ({:.2} ms at once)",
                data * 1e3,
                init * 1e3,
                overlap * 1e3
            );
        }
    }
    if let Some(e) = last("final_scored") {
        if let (Some(FieldValue::F64(s)), Some(images), Some(parts), Some(batch)) = (
            e.field("seconds"),
            e.field("images"),
            e.field("parts"),
            e.field("batch"),
        ) {
            println!(
                "final evaluation: {:.2} ms (val + test scoring, {images} images over {parts} replicas, largest pass {batch})",
                s * 1e3
            );
        }
    }
    println!();
}

fn main() {
    // One hub for the whole demo: events echo to stderr per `VC_LOG`, and
    // a panic anywhere dumps the flight recorder for post-mortem replay.
    let tel = Telemetry::from_env();
    install_panic_dump(
        &tel,
        std::env::temp_dir().join("vc_runtime_demo_crash.jsonl"),
    );

    // Optional live ops surface, shared across all three runs so the
    // dashboard sees one continuous story (the registry accumulates).
    let ops = std::env::var("VC_OPS_ADDR").ok().map(|addr| {
        let hub = Arc::new(OpsHub::new(tel.clone()));
        let srv = OpsServer::start(addr.as_str(), hub.clone()).expect("ops server binds");
        println!("ops server on http://{}/ (dashboard)", srv.local_addr());
        (hub, srv)
    });

    let mut cfg = RuntimeConfig::test_small(7);
    cfg.job.cn = 6; // six real worker threads
    cfg.job.pn = 2; // two parameter-server threads racing on the store
    cfg.job.epochs = 5;
    // With an ops surface up, trace the workunits too: /trace serves the
    // dispatch → … → assimilate waterfall for chrome://tracing.
    cfg.trace = ops.is_some();

    // Preempt a third of the fleet on its second assignment; replacements
    // come up after half a second. Worker messages are randomly delayed.
    cfg.faults = FaultPlan {
        kill_hosts: FaultPlan::fraction_of(cfg.job.cn, 0.34),
        kill_on_nth_assignment: 2,
        respawn_after_s: Some(0.5),
        max_msg_delay_s: 0.02,
        ..FaultPlan::none()
    };
    cfg.faults.seed = 7;

    println!(
        "fleet: {} workers ({:?} will be preempted), {} parameter servers, {} shards\n",
        cfg.job.cn, cfg.faults.kill_hosts, cfg.job.pn, cfg.job.shards
    );
    let mut rt = Runtime::new(cfg.clone())
        .expect("config is valid")
        .with_telemetry(tel.clone());
    if let Some((hub, _)) = &ops {
        rt = rt.with_ops_hub(hub.clone());
    }
    let clean = rt.run().expect("run completes");
    print_report("faulty fleet", &clean, &tel);

    // Same job again, now interrupted after 12 assimilations and resumed
    // from the checkpoint — the resumed run finishes the remaining epochs.
    let ck_path = std::env::temp_dir().join("vc_runtime_demo_ck.json");
    cfg.checkpoint_path = Some(ck_path.to_string_lossy().into_owned());
    cfg.halt_after_assims = Some(12);
    let mut rt = Runtime::new(cfg)
        .expect("config is valid")
        .with_telemetry(tel.clone());
    if let Some((hub, _)) = &ops {
        rt = rt.with_ops_hub(hub.clone());
    }
    let partial = rt.run().expect("run completes");
    println!(
        "interrupted after {} epochs ({} assimilations) — resuming from {}",
        partial.epochs.len(),
        12,
        ck_path.display()
    );
    let mut resumed = Runtime::resume(&ck_path).expect("checkpoint is readable");
    resumed.config_mut().halt_after_assims = None;
    let mut rt = resumed.with_telemetry(tel.clone());
    if let Some((hub, _)) = &ops {
        rt = rt.with_ops_hub(hub.clone());
    }
    let done = rt.run().expect("resume is valid");
    std::fs::remove_file(&ck_path).ok();
    print_report("resumed run", &done, &tel);

    // Dump the merged registry — all three runs' counters and histograms.
    let snapshot = tel.registry().snapshot();
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::create_dir_all("results").expect("results dir");
    let out = "results/runtime_demo_metrics.json";
    std::fs::write(out, json).expect("metrics snapshot writes");
    println!(
        "metrics snapshot ({} counters, {} histograms) written to {out}",
        snapshot.counters.len(),
        snapshot.histograms.len()
    );

    // Keep the ops surface (final state, full flight recorder, traces) up
    // for browsing/scraping before the server joins its threads on drop.
    if let Some((_, srv)) = ops {
        let linger_s: f64 = std::env::var("VC_OPS_LINGER_S")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        if linger_s > 0.0 {
            println!(
                "ops server lingering {linger_s}s on http://{}/",
                srv.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs_f64(linger_s));
        }
        drop(srv);
    }
}
