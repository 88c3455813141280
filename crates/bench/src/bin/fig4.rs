//! Figure 4 — effect of the VC-ASGD hyperparameter α on validation
//! accuracy (mean and min–max spread) for the P3C3T4 setup: α ∈ {0.7,
//! 0.95, 0.999, Var} where Var is `α_e = e/(e+1)`.
//!
//! Expected shape (paper): α = 0.7 climbs fastest in early epochs but is
//! overtaken later; α = 0.95 wins mid-run; α = 0.999 (the EASGD analog)
//! barely trains at all; Var is fastest overall with the smallest spread.
//! Smaller α ⇒ larger accuracy spread across subtasks.
//!
//! Run: `cargo run -p vc-bench --bin fig4 --release`
//! (set `REPRO_FAST=1` or `REPRO_EPOCHS=n` to shrink the run)

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_bench::{print_run, repro_epochs, runs_to_csv, write_results};
use vc_runtime::des::run_job;

fn main() {
    let epochs = repro_epochs();
    let schedules = [
        AlphaSchedule::Const(0.7),
        AlphaSchedule::Const(0.95),
        AlphaSchedule::Const(0.999),
        AlphaSchedule::VarEOverE1,
    ];
    let mut runs = Vec::new();
    for sched in schedules {
        let mut cfg = JobConfig::paper_default(42).with_pct(3, 3, 4);
        cfg.alpha = sched;
        cfg.epochs = epochs;
        let label = sched.label();
        eprintln!("# running P3C3T4 {label} ({epochs} epochs)...");
        let report = run_job(cfg).expect("valid config");
        print_run(&label, &report);
        runs.push((label, report));
    }

    println!("Figure 4 summary (P3C3T4, {epochs} epochs):");
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "schedule", "final acc", "spread", "hours"
    );
    for (label, r) in &runs {
        let spread = r
            .epochs
            .last()
            .map(|e| e.max_val_acc - e.min_val_acc)
            .unwrap_or(0.0);
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>12.2}",
            label,
            r.final_mean_acc(),
            spread,
            r.total_time_h
        );
    }
    write_results("fig4.csv", &runs_to_csv(&runs));
}
