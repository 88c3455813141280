//! The paper's quantitative claims, encoded as tests against the
//! reproduction. Each test cites the section it pins down. These use the
//! timing-only fast path where learning is irrelevant, so they are cheap
//! enough for CI.

use vc_asgd::{AlphaSchedule, JobConfig};
use vc_cost::{DbOverhead, FleetCost, TimeoutAnalysis};
use vc_kvstore::{Consistency, LatencyModel};
use vc_runtime::des::{run_job, DesConfig};
use vc_simnet::{table1, PreemptionModel};

fn timing_cfg(pn: usize, cn: usize, tn: usize) -> DesConfig {
    let mut job = JobConfig::paper_default(42).with_pct(pn, cn, tn);
    job.epochs = 40;
    DesConfig {
        timing_only: true,
        ..DesConfig::new(job)
    }
}

#[test]
fn sec4a_p5c5t2_runs_about_eight_hours() {
    // §IV-E: "the total training time is slightly more than 8 hr" for
    // P5C5T2 over 40 epochs.
    let h = run_job(timing_cfg(5, 5, 2)).unwrap().total_time_h;
    assert!((7.5..10.5).contains(&h), "P5C5T2 took {h} h");
}

#[test]
fn fig3_p1c3_dips_at_t4_and_rises_at_t8() {
    // §IV-B / Fig. 3: "With P1C3, training time decreases from T2 to T4,
    // but increases from T4 to T8" — the single parameter server cannot
    // keep up with three clients at T8.
    let t2 = run_job(timing_cfg(1, 3, 2)).unwrap().total_time_h;
    let t4 = run_job(timing_cfg(1, 3, 4)).unwrap().total_time_h;
    let t8 = run_job(timing_cfg(1, 3, 8)).unwrap().total_time_h;
    assert!(t4 < t2, "T4 {t4} should beat T2 {t2}");
    assert!(
        t8 > t4,
        "T8 {t8} should be slower than T4 {t4} (server bound)"
    );
}

#[test]
fn fig3_more_parameter_servers_fix_the_t8_bottleneck() {
    // §IV-B: "In P3C3T8, we increase Pn from 1 to 3, and the training time
    // indeed decreases" (by ~3 h on the paper's testbed).
    let p1 = run_job(timing_cfg(1, 3, 8)).unwrap().total_time_h;
    let p3 = run_job(timing_cfg(3, 3, 8)).unwrap().total_time_h;
    assert!(
        p3 < p1 - 1.0,
        "P3C3T8 {p3} should be hours faster than P1C3T8 {p1}"
    );
}

#[test]
fn sec4d_latency_model_matches_measurements() {
    // §IV-D: 0.87 s vs 1.29 s per update (1.5×).
    let blob = (21.2 * 1024.0 * 1024.0) as usize;
    let e = LatencyModel::for_mode(Consistency::Eventual).update_s(blob);
    let s = LatencyModel::for_mode(Consistency::Strong).update_s(blob);
    assert!((e - 0.87).abs() < 1e-6);
    assert!((s - 1.29).abs() < 1e-6);
    assert!((s / e - 1.48).abs() < 0.05);
}

#[test]
fn sec4d_strong_consistency_stretches_training() {
    // §IV-D: over ~2000 updates the MySQL path adds ~14 minutes.
    let mut ev = timing_cfg(3, 3, 4);
    ev.job.consistency = Consistency::Eventual;
    let mut st = ev.clone();
    st.job.consistency = Consistency::Strong;
    let ev_h = run_job(ev).unwrap().total_time_h;
    let st_h = run_job(st).unwrap().total_time_h;
    assert!(
        st_h > ev_h,
        "strong {st_h} must be slower than eventual {ev_h}"
    );
    // The gap is bounded by update-count × latency-gap (the updates only
    // partially sit on the critical path).
    let max_gap_h = 2000.0 * (1.29 - 0.87) / 3600.0;
    assert!(st_h - ev_h <= max_gap_h + 0.1, "gap {} h", st_h - ev_h);
}

#[test]
fn sec4e_expected_delay_formula() {
    // §IV-E: E[extra] = n·p·t_o = 50 min at p = 0.05, 200 min at p = 0.20.
    let a = TimeoutAnalysis::paper_p5c5t2();
    assert!((a.expected_extra_s(0.05) / 60.0 - 50.0).abs() < 1e-6);
    assert!((a.expected_extra_s(0.20) / 60.0 - 200.0).abs() < 1e-6);
}

#[test]
fn sec4e_des_preemption_cost_is_same_order_as_model() {
    // The full fleet simulation should inflate training time by the same
    // order of magnitude the binomial model predicts at p = 0.10. The
    // model assumes a fixed timeout `t_o`; the adaptive scheduler instead
    // grants 3 × EWMA(turnaround) (`DEADLINE_GRACE`), which stretches each
    // loss-discovery wait by roughly the grace factor (see
    // EXPERIMENTS.md), so the band is wider than a fixed-timeout run
    // would need.
    let base = run_job(timing_cfg(5, 5, 2)).unwrap().total_time_h;
    let mut stormy = timing_cfg(5, 5, 2);
    stormy.preemption = PreemptionModel::BernoulliPerSubtask { p: 0.10 };
    let hit = run_job(stormy).unwrap().total_time_h;
    let extra_min = (hit - base) * 60.0;
    let predicted_min = TimeoutAnalysis::paper_p5c5t2().expected_extra_s(0.10) / 60.0;
    assert!(extra_min > 0.0, "storm must cost time");
    assert!(
        extra_min < predicted_min * 8.0,
        "simulated {extra_min:.0} min vs predicted {predicted_min:.0} min"
    );
}

#[test]
fn sec4e_preemptible_cost_savings() {
    // §IV-E: $1.67/h vs $0.50/h; $13.4 vs $4 over 8 h; 70% saving.
    let cost = FleetCost::of(&table1::uniform_fleet(5), 8.0);
    assert!((cost.saving() - 0.70).abs() < 0.01);
    assert!((cost.standard_total() - 13.4).abs() < 0.1);
    assert!((cost.preemptible_total() - 4.0).abs() < 0.05);
}

#[test]
fn sec4d_imagenet_extrapolation() {
    // §IV-D: ~1.6 M updates ⇒ ~187 h of extra time on strong consistency.
    let d = DbOverhead::paper_measured();
    let h = d.extra_s(DbOverhead::imagenet_updates(40)) / 3600.0;
    assert!((h - 187.0).abs() < 2.0, "{h} h");
}

#[test]
fn sec3c_alpha_999_barely_learns() {
    // §IV-C: α = 0.999 (the EASGD β = 0.001 analog) trains far slower —
    // after a few epochs the server has barely moved from initialization.
    let mut cfg = JobConfig::test_small(21);
    cfg.epochs = 4;
    cfg.alpha = AlphaSchedule::Const(0.999);
    let frozen = run_job(cfg).unwrap();
    let mut cfg2 = JobConfig::test_small(21);
    cfg2.epochs = 4;
    cfg2.alpha = AlphaSchedule::Const(0.6);
    let learning = run_job(cfg2).unwrap();
    assert!(
        learning.final_mean_acc() > frozen.final_mean_acc() + 0.05,
        "alpha 0.6 {} vs alpha 0.999 {}",
        learning.final_mean_acc(),
        frozen.final_mean_acc()
    );
}
