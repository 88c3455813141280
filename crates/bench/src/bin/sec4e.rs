//! §IV-E — impact of preemptible instances.
//!
//! Reproduces:
//! 1. the cost table: $1.67/h vs $0.50/h for the P5C5T2 fleet (70 %
//!    saving), $13.4 vs $4 over the 8-hour run;
//! 2. the binomial timeout model `E[extra] = n·p·t_o` (50 min at p = 0.05,
//!    200 min at p = 0.20), validated three ways: closed form, Monte-Carlo
//!    over the wave process, and the full discrete-event fleet simulation
//!    with per-subtask Bernoulli preemptions;
//! 3. the cost-with-delay comparison: preemptible stays far cheaper even
//!    after paying for the stretched runtime.
//!
//! Run: `cargo run -p vc-bench --bin sec4e --release`

use vc_asgd::JobConfig;
use vc_cost::{simulate_extra_time_s, FleetCost, TimeoutAnalysis};
use vc_runtime::des::run_job;
use vc_simnet::{table1, PreemptionModel};

fn main() {
    // 1. Cost table.
    let fleet = table1::uniform_fleet(5);
    let cost = FleetCost::of(&fleet, 8.0);
    println!("P5C5T2 fleet (5 x 8 vCPU / 32 GB):");
    println!(
        "  standard:    ${:.2}/h, ${:.2} per 8 h run (paper: $1.67/h, $13.4)",
        cost.standard_per_hour,
        cost.standard_total()
    );
    println!(
        "  preemptible: ${:.2}/h, ${:.2} per 8 h run (paper: $0.50/h, $4.0)",
        cost.preemptible_per_hour,
        cost.preemptible_total()
    );
    println!("  saving: {:.0}% (paper: 70%)", cost.saving() * 100.0);

    // 2. Binomial model vs Monte-Carlo vs full DES.
    let a = TimeoutAnalysis::paper_p5c5t2();
    println!(
        "\nTimeout model: n = {} waves, t_e = {:.1} min, t_o = {:.0} min",
        a.n_waves(),
        a.t_e / 60.0,
        a.t_o / 60.0
    );
    println!(
        "{:>6} {:>16} {:>16} {:>18}",
        "p", "analytic (min)", "monte-carlo", "DES fleet (min)"
    );

    // Baseline DES run without preemption, for the delta.
    let base_h = des_hours(PreemptionModel::None, 0);
    for &p in &[0.05, 0.10, 0.20] {
        let analytic = a.expected_extra_s(p) / 60.0;
        let mc = simulate_extra_time_s(&a, p, 500, 42) / 60.0;
        // Average the DES over a few seeds: a single 40-epoch run has only
        // ~200 waves, so per-run variance is visible.
        let mut des = 0.0;
        let seeds = 3;
        for s in 0..seeds {
            des += des_hours(PreemptionModel::BernoulliPerSubtask { p }, s);
        }
        let des_extra_min = (des / seeds as f64 - base_h) * 60.0;
        println!("{p:>6.2} {analytic:>16.1} {mc:>16.1} {des_extra_min:>18.1}");
    }
    println!("(paper: 50 min expected at p = 0.05, 200 min at p = 0.20)");

    // 3. Cost with delay.
    println!("\nPreemptible cost including expected delay:");
    for &p in &[0.05, 0.20] {
        let extra_h = a.expected_extra_s(p) / 3600.0;
        let total = cost.preemptible_total_with_delay(extra_h);
        println!(
            "  p = {p:.2}: ${total:.2} (vs ${:.2} standard) — still {:.0}% cheaper",
            cost.standard_total(),
            (1.0 - total / cost.standard_total()) * 100.0
        );
    }
}

/// Total simulated hours of a timing-only P5C5T2 run under `preemption`.
fn des_hours(preemption: PreemptionModel, seed_offset: u64) -> f64 {
    let mut cfg = JobConfig::paper_default(42 + seed_offset).with_pct(5, 5, 2);
    cfg.epochs = 40;
    cfg.timing_only = true;
    cfg.preemption = preemption;
    run_job(cfg).expect("valid config").total_time_h
}
