//! Figure 2 — effect of distributed training at fixed α = 0.95: validation
//! accuracy vs cumulative training time for P1C3T2, P1C3T8, P3C3T8 and
//! P5C5T2.
//!
//! Expected shape (paper): all four configurations converge to roughly the
//! same accuracy plateau; the better-provisioned ones (more parameter
//! servers / more simultaneous subtasks, up to the balance point) get there
//! in less simulated time.
//!
//! Run: `cargo run -p vc-bench --bin fig2 --release`
//! (set `REPRO_FAST=1` or `REPRO_EPOCHS=n` to shrink the run)

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_bench::{print_run, repro_epochs, runs_to_csv, write_results};
use vc_runtime::des::run_job;

fn main() {
    let epochs = repro_epochs();
    let configs = [(1, 3, 2), (1, 3, 8), (3, 3, 8), (5, 5, 2)];
    let mut runs = Vec::new();
    for (pn, cn, tn) in configs {
        let mut cfg = JobConfig::paper_default(42).with_pct(pn, cn, tn);
        cfg.alpha = AlphaSchedule::Const(0.95);
        cfg.epochs = epochs;
        let label = cfg.pct_label();
        eprintln!("# running {label} ({epochs} epochs)...");
        let report = run_job(cfg).expect("valid config");
        print_run(&label, &report);
        runs.push((label, report));
    }

    println!("Figure 2 summary (alpha = 0.95, {epochs} epochs):");
    println!("{:<10} {:>10} {:>11}", "config", "final acc", "total hours");
    for (label, r) in &runs {
        println!(
            "{:<10} {:>10.3} {:>11.2}",
            label,
            r.final_mean_acc(),
            r.total_time_h
        );
    }
    write_results("fig2.csv", &runs_to_csv(&runs));
}
