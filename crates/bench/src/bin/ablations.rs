//! Ablations of the design choices DESIGN.md §6 calls out, all on the
//! timing-only fast path (40-epoch P3C3T4 unless noted):
//!
//! * sticky-file caching on vs off — bytes moved over the network;
//! * timeout `t_o` sensitivity under a preemption storm — too-short
//!   timeouts cause reassignment churn, too-long ones park work on dead
//!   instances;
//! * consistency mode × parameter-server count — the latency/lost-update
//!   trade-off as Pn scales;
//! * heterogeneous vs uniform fleet — what Table I's mixed instance types
//!   cost in wall-clock;
//! * workunit replication under preemption — redundancy as a hedge;
//! * asynchronous assimilation vs a serialized single parameter server.
//!
//! Run: `cargo run -p vc-bench --bin ablations --release`

use vc_asgd::{FleetKind, JobConfig};
use vc_kvstore::Consistency;
use vc_runtime::des::{run_job, DesConfig};
use vc_simnet::PreemptionModel;

fn base(pn: usize, cn: usize, tn: usize) -> DesConfig {
    let mut job = JobConfig::paper_default(42).with_pct(pn, cn, tn);
    job.epochs = 40;
    DesConfig {
        timing_only: true,
        ..DesConfig::new(job)
    }
}

fn main() {
    // --- Sticky files ---------------------------------------------------
    println!("Ablation 1: sticky-file caching (bytes over the network)");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "sticky", "GB moved", "cache hits", "hours"
    );
    for sticky in [true, false] {
        let mut cfg = base(3, 3, 4);
        cfg.job.middleware.sticky_files = sticky;
        let r = run_job(cfg).unwrap();
        println!(
            "{:<10} {:>12.2} {:>12} {:>10.2}",
            sticky,
            r.bytes_transferred as f64 / 1e9,
            r.server_metrics.cache_hits,
            r.total_time_h
        );
    }

    // --- Timeout sensitivity --------------------------------------------
    println!("\nAblation 2: timeout t_o under a 10% preemption storm");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>10}",
        "t_o (min)", "hours", "timeouts", "reassigned", "stale"
    );
    for to_min in [1.5, 5.0, 15.0, 45.0] {
        let mut cfg = base(3, 3, 4);
        cfg.preemption = PreemptionModel::BernoulliPerSubtask { p: 0.10 };
        cfg.job.middleware.timeout_s = to_min * 60.0;
        let r = run_job(cfg).unwrap();
        println!(
            "{:<12} {:>10.2} {:>10} {:>12} {:>10}",
            to_min,
            r.total_time_h,
            r.server_metrics.timeouts,
            r.server_metrics.reassignments,
            r.server_metrics.stale_results
        );
    }

    // --- Consistency × Pn -------------------------------------------------
    println!("\nAblation 3: consistency mode as parameter servers scale");
    println!(
        "{:<10} {:>4} {:>10} {:>14}",
        "mode", "Pn", "hours", "lost updates"
    );
    for pn in [1usize, 3, 5, 8] {
        for mode in [Consistency::Eventual, Consistency::Strong] {
            let mut cfg = base(pn, 3, 4);
            cfg.job.consistency = mode;
            let r = run_job(cfg).unwrap();
            println!(
                "{:<10} {:>4} {:>10.2} {:>14}",
                mode.to_string(),
                pn,
                r.total_time_h,
                r.store_ops.lost_updates
            );
        }
    }

    // --- Fleet heterogeneity ---------------------------------------------
    println!("\nAblation 4: uniform vs mixed (Table I) fleet, P5C5T2");
    println!("{:<10} {:>10} {:>10}", "fleet", "hours", "timeouts");
    for (name, fleet) in [("uniform", FleetKind::Uniform), ("mixed", FleetKind::Mixed)] {
        let mut cfg = base(5, 5, 2);
        cfg.job.fleet = fleet;
        let r = run_job(cfg).unwrap();
        println!(
            "{:<10} {:>10.2} {:>10}",
            name, r.total_time_h, r.server_metrics.timeouts
        );
    }

    // --- Replication under preemption --------------------------------------
    println!("\nAblation 5: workunit replication under a 20% preemption storm (P3C4T2)");
    println!(
        "{:<12} {:>10} {:>10} {:>12}",
        "replication", "hours", "timeouts", "assignments"
    );
    for replication in [1u32, 2, 3] {
        let mut cfg = base(3, 4, 2);
        cfg.preemption = PreemptionModel::BernoulliPerSubtask { p: 0.20 };
        cfg.job.middleware.replication = replication;
        let r = run_job(cfg).unwrap();
        println!(
            "{:<12} {:>10.2} {:>10} {:>12}",
            replication, r.total_time_h, r.server_metrics.timeouts, r.server_metrics.assigned
        );
    }

    // --- Assimilate-on-arrival vs epoch barrier ---------------------------
    // The barrier variant is approximated by strong consistency with a
    // single parameter server *plus* the epoch-synchronous work generator
    // both designs share; the arrival-order asynchrony is VC-ASGD's delta.
    println!("\nAblation 6: asynchronous assimilation vs serialized (P1, strong)");
    for (name, pn, mode) in [
        ("async-eventual", 5usize, Consistency::Eventual),
        ("serialized", 1, Consistency::Strong),
    ] {
        let mut cfg = base(pn, 5, 4);
        cfg.job.consistency = mode;
        let r = run_job(cfg).unwrap();
        println!("  {name:<16} {:.2} h", r.total_time_h);
    }
}
