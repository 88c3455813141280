//! Figure 3 — total training time for {P1C3, P3C3, P5C5} × {T2, T4, T8}
//! at α = 0.95 over a fixed epoch budget.
//!
//! Expected shape (paper): with one parameter server (P1C3), time drops
//! from T2 to T4 but *rises* again at T8 — three clients at T8 outrun a
//! single assimilator. P3C3T8 recovers (about 3 hours faster than P1C3T8
//! over 40 epochs). With P5C5 the imbalance grows with Tn, so time rises
//! monotonically from T2.
//!
//! Timing is independent of the learned values, so this runner uses the
//! driver's `timing_only` mode and reproduces the full 40-epoch clock in
//! milliseconds.
//!
//! Run: `cargo run -p vc-bench --bin fig3 --release`

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_bench::write_results;
use vc_runtime::des::run_job;

fn main() {
    let epochs = 40;
    let groups = [(1usize, 3usize), (3, 3), (5, 5)];
    let tns = [2usize, 4, 8];

    let mut csv = String::from("config,tn,total_hours\n");
    println!("Figure 3: total training time (hours), {epochs} epochs, alpha = 0.95");
    println!("{:<8} {:>8} {:>8} {:>8}", "", "T2", "T4", "T8");
    for (pn, cn) in groups {
        let mut row = format!("{:<8}", format!("P{pn}C{cn}"));
        for tn in tns {
            let mut cfg = JobConfig::paper_default(42).with_pct(pn, cn, tn);
            cfg.alpha = AlphaSchedule::Const(0.95);
            cfg.epochs = epochs;
            cfg.timing_only = true;
            let report = run_job(cfg).expect("valid config");
            row.push_str(&format!(" {:>8.2}", report.total_time_h));
            csv.push_str(&format!("P{pn}C{cn},{tn},{:.4}\n", report.total_time_h));
        }
        println!("{row}");
    }
    write_results("fig3.csv", &csv);

    // The paper's two headline observations, checked programmatically so a
    // calibration regression is loud.
    let time = |pn: usize, cn: usize, tn: usize| -> f64 {
        let mut cfg = JobConfig::paper_default(42).with_pct(pn, cn, tn);
        cfg.alpha = AlphaSchedule::Const(0.95);
        cfg.epochs = epochs;
        cfg.timing_only = true;
        run_job(cfg).unwrap().total_time_h
    };
    let p1t4 = time(1, 3, 4);
    let p1t8 = time(1, 3, 8);
    let p3t8 = time(3, 3, 8);
    println!("\nShape checks:");
    println!(
        "  P1C3: T4 {:.2}h {} T8 {:.2}h (paper: T8 slower — server bound)",
        p1t4,
        if p1t8 > p1t4 { "<" } else { "!>" },
        p1t8
    );
    println!(
        "  P3C3T8 is {:.2}h faster than P1C3T8 (paper: ~3h faster)",
        p1t8 - p3t8
    );
}
