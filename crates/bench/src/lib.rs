//! # vc-bench
//!
//! The experiment harness: one runner binary per table/figure of the paper
//! (see DESIGN.md §4 for the index) plus criterion micro-benchmarks.
//!
//! Every runner prints a human-readable table to stdout and writes a CSV
//! under `results/` so `fig5` (the zoom of `fig4`) and EXPERIMENTS.md can
//! consume stable artifacts.
//!
//! ## Scale knobs
//!
//! Real-training experiments honour two environment variables:
//!
//! * `REPRO_EPOCHS` — epochs per run (default 40, the paper's count).
//! * `REPRO_FAST=1` — shortcut to 12 epochs for a quick smoke pass.
//!
//! Timing-shape experiments (fig3, sec4d, sec4e) always run the full 40
//! epochs — they skip real training, so they are cheap at any scale.

use std::io::Write;
use std::path::PathBuf;
use vc_asgd::JobReport;

/// Epochs for real-training experiment runs, honouring `REPRO_EPOCHS` /
/// `REPRO_FAST` (see crate docs).
pub fn repro_epochs() -> usize {
    if let Ok(v) = std::env::var("REPRO_EPOCHS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    if std::env::var("REPRO_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        12
    } else {
        40
    }
}

/// The directory figure CSVs land in (`results/` at the workspace root,
/// falling back to the current directory).
pub fn results_dir() -> PathBuf {
    let candidates = [PathBuf::from("results"), PathBuf::from("../../results")];
    for c in &candidates {
        if c.is_dir() {
            return c.clone();
        }
    }
    std::fs::create_dir_all("results").ok();
    PathBuf::from("results")
}

/// Writes `content` to `results/<name>` and reports the path on stdout.
pub fn write_results(name: &str, content: &str) {
    let path = results_dir().join(name);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

/// Renders a set of labelled runs as one long-format CSV:
/// `label,epoch,alpha,hours,mean_acc,min_acc,max_acc,test_acc`.
pub fn runs_to_csv(runs: &[(String, JobReport)]) -> String {
    let mut out = String::from("label,epoch,alpha,hours,mean_acc,min_acc,max_acc,test_acc\n");
    for (label, report) in runs {
        for e in &report.epochs {
            out.push_str(&format!(
                "{label},{},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
                e.epoch,
                e.alpha,
                e.end_time_h,
                e.mean_val_acc,
                e.min_val_acc,
                e.max_val_acc,
                e.test_acc.map(|t| format!("{t:.4}")).unwrap_or_default(),
            ));
        }
    }
    out
}

/// Prints an epoch table for one run, paper-style.
pub fn print_run(label: &str, report: &JobReport) {
    println!("## {label}");
    println!(
        "{:>5} {:>7} {:>8} {:>7} {:>7} {:>7}",
        "epoch", "alpha", "hours", "mean", "min", "max"
    );
    for e in &report.epochs {
        println!(
            "{:>5} {:>7.3} {:>8.3} {:>7.3} {:>7.3} {:>7.3}",
            e.epoch, e.alpha, e.end_time_h, e.mean_val_acc, e.min_val_acc, e.max_val_acc
        );
    }
    println!(
        "   => total {:.2} h, final val {:.3}, test {:.3}, lost updates {}, timeouts {}\n",
        report.total_time_h,
        report.final_val_acc,
        report.final_test_acc,
        report.store_ops.lost_updates,
        report.server_metrics.timeouts
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_epochs_defaults_sane() {
        // Cannot mutate the environment safely in parallel tests; just pin
        // the unset/preset behaviour.
        let n = repro_epochs();
        assert!(n >= 1);
    }

    #[test]
    fn csv_shape() {
        let runs: Vec<(String, JobReport)> = Vec::new();
        let csv = runs_to_csv(&runs);
        assert!(csv.starts_with("label,epoch"));
    }
}
