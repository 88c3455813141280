//! Quickstart: distributed VC-ASGD training on a simulated three-client
//! volunteer fleet, in under a minute of wall clock.
//!
//! This walks the full pipeline with a small configuration:
//! synthetic dataset → work-generator sharding → BOINC-like scheduling →
//! real client training → asynchronous Eq. (1) assimilation → per-epoch
//! validation statistics.
//!
//! Run: `cargo run -p vc-examples --bin quickstart --release`

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_runtime::des::run_job;

fn main() {
    // Start from the paper's defaults and shrink the workload so the whole
    // run takes seconds: fewer samples, fewer shards, fewer epochs.
    let mut cfg = JobConfig::paper_default(7).with_pct(2, 3, 2);
    cfg.data.train_n = 1_500;
    cfg.data.val_n = 300;
    cfg.data.test_n = 300;
    cfg.data.noise = 1.2; // easier than the benchmark dataset
    cfg.data.label_noise = 0.02;
    cfg.shards = 10;
    cfg.epochs = 6;
    cfg.val_eval_n = 200;
    cfg.local_epochs = 3;
    cfg.alpha = AlphaSchedule::VarEOverE1;

    println!(
        "model: {} ({} parameters)",
        cfg.model.name,
        cfg.model.build(0).param_count()
    );
    println!(
        "job:   {} · {} shards · alpha schedule {}",
        cfg.pct_label(),
        cfg.shards,
        cfg.alpha.label()
    );
    println!();

    let report = run_job(cfg).expect("config is valid");

    println!(
        "{:>5} {:>7} {:>9} {:>9} {:>17}",
        "epoch", "alpha", "sim time", "val acc", "min..max"
    );
    for e in &report.epochs {
        println!(
            "{:>5} {:>7.3} {:>8.2}h {:>9.3} {:>8.3}..{:.3}",
            e.epoch, e.alpha, e.end_time_h, e.mean_val_acc, e.min_val_acc, e.max_val_acc
        );
    }
    println!();
    println!(
        "final: val {:.3}, test {:.3} after {:.2} simulated hours",
        report.final_val_acc, report.final_test_acc, report.total_time_h
    );
    println!(
        "fleet: {} subtask assignments, {} completions, {} timeouts, {:.1} MB moved",
        report.server_metrics.assigned,
        report.server_metrics.completed,
        report.server_metrics.timeouts,
        report.bytes_transferred as f64 / 1e6
    );
}
