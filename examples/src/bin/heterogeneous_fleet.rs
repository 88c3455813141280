//! Heterogeneous fleet: the §III-B story. A mixed Table-I fleet (different
//! clocks, RAM and WAN bandwidths) plus an aggressive preemption storm —
//! watch the middleware keep the epoch moving via timeouts, reassignment
//! and reliability-aware scheduling.
//!
//! Run: `cargo run -p vc-examples --bin heterogeneous_fleet --release`

use vc_asgd::{FleetKind, JobConfig};
use vc_runtime::des::{run_job, DesConfig, REPLACEMENT_DELAY_S};
use vc_simnet::{table1, PreemptionModel};

fn main() {
    let mut job = JobConfig::paper_default(11).with_pct(3, 4, 2);
    job.fleet = FleetKind::Mixed;
    job.middleware.timeout_s = 240.0;
    // Keep the run quick: timing fidelity matters here, learning less so.
    job.data.train_n = 1_000;
    job.data.val_n = 200;
    job.data.test_n = 200;
    job.data.noise = 1.2;
    job.shards = 12;
    job.epochs = 5;
    job.val_eval_n = 200;
    let cfg = DesConfig {
        preemption: PreemptionModel::BernoulliPerSubtask { p: 0.15 },
        ..DesConfig::new(job)
    };

    println!("fleet:");
    for (i, spec) in FleetKind::Mixed.build(4).iter().enumerate() {
        println!(
            "  client {i}: {:<16} {} vCPU @ {:.1} GHz, {:.0} GB, {:.0} Gbps",
            spec.name, spec.vcpus, spec.clock_ghz, spec.ram_gb, spec.bandwidth_gbps
        );
    }
    println!(
        "preemption: 15% per subtask, replaced after {REPLACEMENT_DELAY_S:.0}s; timeout t_o = {:.0}s\n",
        cfg.job.middleware.timeout_s
    );

    let report = run_job(cfg).expect("config is valid");

    for e in &report.epochs {
        println!(
            "epoch {:>2}: {:>6.2}h  acc {:.3}  (cumulative timeouts {})",
            e.epoch, e.end_time_h, e.mean_val_acc, e.timeouts
        );
    }
    let m = report.server_metrics;
    println!();
    println!("middleware under churn:");
    println!(
        "  assigned {:>5}   completed {:>5}",
        m.assigned, m.completed
    );
    println!(
        "  timeouts {:>5}   reassigned {:>4}",
        m.timeouts, m.reassignments
    );
    println!(
        "  stale    {:>5}   cache hits {:>4}",
        m.stale_results, m.cache_hits
    );
    println!("  preemptions survived: {}", report.preemptions);
    assert_eq!(
        report.epochs.len(),
        5,
        "fault tolerance: every epoch completed despite the storm"
    );
    println!("\nall epochs completed despite the storm — the §III-B claim.");

    // Show the per-type speed difference the scheduler worked around.
    let m = vc_simnet::ComputeModel::default();
    let slow = m.subtask_s(&table1::client_8v_2_2(), 2);
    let fast = m.subtask_s(&table1::client_8v_2_8(), 2);
    println!(
        "subtask service time spread across the fleet: {:.0}s (2.8 GHz) .. {:.0}s (2.2 GHz)",
        fast, slow
    );
}
