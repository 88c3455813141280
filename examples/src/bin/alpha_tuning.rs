//! α-schedule tuning: the §IV-C story as a workflow. Sweep constant and
//! varying α schedules on a fixed fleet and report time-to-target-accuracy,
//! the metric a practitioner tunes against.
//!
//! Run: `cargo run -p vc-examples --bin alpha_tuning --release`

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_runtime::des::run_job;

fn main() {
    // A scaled-down but learnable job so the sweep finishes quickly.
    let base = || {
        let mut cfg = JobConfig::paper_default(13).with_pct(3, 3, 4);
        cfg.data.train_n = 1_600;
        cfg.data.val_n = 300;
        cfg.data.test_n = 300;
        cfg.data.noise = 1.3;
        cfg.data.label_noise = 0.05;
        cfg.shards = 16;
        cfg.epochs = 8;
        cfg.val_eval_n = 256;
        cfg.local_epochs = 2;
        cfg
    };

    let schedules = [
        AlphaSchedule::Const(0.5),
        AlphaSchedule::Const(0.7),
        AlphaSchedule::Const(0.95),
        AlphaSchedule::VarEOverE1,
    ];
    let target = 0.5f32;

    println!(
        "{:<18} {:>10} {:>14} {:>12}",
        "schedule", "final acc", "t to 50% acc", "total hours"
    );
    for sched in schedules {
        let mut cfg = base();
        cfg.alpha = sched;
        let report = run_job(cfg).expect("valid config");
        let tta = report
            .time_to_accuracy(target)
            .map(|(e, h)| format!("{h:.2}h (ep {e})"))
            .unwrap_or_else(|| "not reached".into());
        println!(
            "{:<18} {:>10.3} {:>14} {:>12.2}",
            sched.label(),
            report.final_mean_acc(),
            tta,
            report.total_time_h
        );
    }
    println!("\nthe paper's Var schedule trades early aggressiveness (low alpha)");
    println!("for late stability (high alpha), like a learning-rate schedule.");
}
