//! Figure 6 — validation (left) and test (right) accuracy: distributed
//! P5C5T2 with the Var α schedule vs the same job trained serially and
//! synchronously on the server-class instance (`vc_bench::serial`).
//!
//! Expected shape (paper): the serial curve is higher at any matched time
//! (0.82 vs 0.73 at the 8.4 h mark), the gap narrows as training
//! continues, the distributed curve is smoother, and test accuracy tracks
//! validation accuracy for both.
//!
//! Run: `cargo run -p vc-bench --bin fig6 --release`

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_bench::serial::{epoch_duration_s, run_serial};
use vc_bench::{repro_epochs, write_results};
use vc_runtime::des::{run_job, DesConfig};

fn main() {
    let epochs = repro_epochs();

    let mut job = JobConfig::paper_default(42).with_pct(5, 5, 2);
    job.alpha = AlphaSchedule::VarEOverE1;
    job.epochs = epochs;
    let cfg = DesConfig {
        track_test_acc: true,
        ..DesConfig::new(job.clone())
    };
    eprintln!("# running distributed P5C5T2 Var ({epochs} epochs)...");
    let dist = run_job(cfg).expect("valid config");

    // Size the serial run to cover the same simulated horizon.
    let serial_epoch_h = epoch_duration_s(job.shards) / 3600.0;
    let serial_epochs = ((dist.total_time_h / serial_epoch_h).ceil() as usize).max(2);
    eprintln!("# running serial baseline ({serial_epochs} epochs)...");
    let serial = run_serial(&job, serial_epochs);

    println!("Figure 6: distributed (P5C5T2, Var) vs single-instance serial");
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "curve", "hours", "val acc", "test acc"
    );
    for e in &dist.epochs {
        println!(
            "{:<12} {:>8.2} {:>10.3} {:>10}",
            "distributed",
            e.end_time_h,
            e.mean_val_acc,
            e.test_acc.map(|t| format!("{t:.3}")).unwrap_or_default()
        );
    }
    for e in &serial.epochs {
        println!(
            "{:<12} {:>8.2} {:>10.3} {:>10.3}",
            "serial", e.end_time_h, e.val_acc, e.test_acc
        );
    }

    // Matched-time comparison at the distributed horizon (the paper's
    // "at the end of 8.4 hours" observation).
    let t = dist.total_time_h;
    let serial_at = serial.val_acc_at_hours(t).unwrap_or(0.0);
    let dist_final = dist.final_mean_acc();
    println!(
        "\nAt {t:.1} h: serial {serial_at:.3} vs distributed {dist_final:.3} (paper: 0.82 vs 0.73)"
    );

    // Smoothness: mean absolute epoch-to-epoch change of validation
    // accuracy (the paper's third observation — distributed is smoother).
    let rough = |vals: &[f32]| -> f32 {
        if vals.len() < 2 {
            return 0.0;
        }
        vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f32>() / (vals.len() - 1) as f32
    };
    let d_vals: Vec<f32> = dist.epochs.iter().map(|e| e.mean_val_acc).collect();
    let s_vals: Vec<f32> = serial.epochs.iter().map(|e| e.val_acc).collect();
    println!(
        "Curve roughness (mean |Δacc| per epoch): distributed {:.4}, serial {:.4}",
        rough(&d_vals),
        rough(&s_vals)
    );

    let mut csv = String::from("curve,epoch,hours,val_acc,test_acc\n");
    for e in &dist.epochs {
        csv.push_str(&format!(
            "distributed,{},{:.4},{:.4},{}\n",
            e.epoch,
            e.end_time_h,
            e.mean_val_acc,
            e.test_acc.map(|t| format!("{t:.4}")).unwrap_or_default()
        ));
    }
    for e in &serial.epochs {
        csv.push_str(&format!(
            "serial,{},{:.4},{:.4},{:.4}\n",
            e.epoch, e.end_time_h, e.val_acc, e.test_acc
        ));
    }
    write_results("fig6.csv", &csv);
}
