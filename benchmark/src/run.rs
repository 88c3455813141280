//! One benchmark run: a workload measured for a fixed window.
//!
//! Every run first makes one unmeasured warm-up repetition. Untraced
//! (`--trace 0`): repetitions of the workload back to back until the
//! window is spent; the end-to-end metrics are medians over the
//! repetitions, turnaround and epoch percentiles pool every repetition's
//! samples. Traced (`--trace 1`): untraced and traced repetitions
//! alternate for half the window (their ratio is the tracing overhead),
//! the stage budget is read off the traced ones, the timings a user sees
//! (`runtime.wu_per_s` and the like) off the untraced ones, and the probe
//! pass spends the other half. End-to-end numbers and user-visible timings
//! never come from a traced repetition.

use crate::e2e::{run_rep, Rep};
use crate::probes;
use crate::stats::{closure_in_range, median, median_of, quantile, tail_percentile};
use crate::trace::{
    chrome_trace, self_time_s, stage_spans, wu_chains, Spans, StageSpan, TracedRun, WuChain,
    GAP_NAMES,
};
use crate::workloads::Workload;
use std::hint::black_box;
use std::time::Instant;
use vc_ops::OpsHub;
use vc_ps::{Codec, PsOps};
use vc_telemetry::{Event, TraceStage};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            n,
        }
    }
}

/// What a run reports.
#[derive(Default)]
pub struct RunOutput {
    /// The contract metrics: end-to-end for an untraced run, per-layer for
    /// a traced one.
    pub metrics: Vec<Metric>,
    /// Context printed beside them (tail percentiles, accuracy) but not
    /// part of the contract line.
    pub extra: Vec<Metric>,
    /// Raw timing samples by name, so a caller can pool several runs.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Workunits the run set out to assimilate / did not.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Chrome-trace JSON (traced runs only).
    pub trace_json: Option<String>,
}

/// Fewest repetitions an untraced run reports medians over, however short
/// the window (a smoke run makes do with one).
fn min_reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// The seed of repetition `i`: every repetition draws fresh data, model
/// and fault streams, so a run's medians are over inputs as well as over
/// scheduling noise — and the same `--seed` still gives the same inputs.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    (seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93))
        >> 16
}

/// Median plus the highest tail percentile the sample count supports.
pub fn with_tail(name: &str, samples: &[f64], out: &mut Vec<Metric>, extra: &mut Vec<Metric>) {
    out.push(Metric::new(
        format!("{name}_p50"),
        median(samples),
        "s",
        samples.len(),
    ));
    if let Some((label, q)) = tail_percentile(samples.len()) {
        extra.push(Metric::new(
            format!("{name}_{label}"),
            quantile(samples, q),
            "s",
            samples.len(),
        ));
    }
}

/// One sample vector pooled over repetitions.
fn pooled(reps: &[Rep], f: impl Fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// What a user of the system sees of a set of untraced repetitions.
///
/// `out.metrics` gets the bounded end-to-end metrics of `BENCHMARK.json`:
/// bytes, memory and set-up time, which repeat between runs of the same
/// code. The wall-clock and CPU timings go to `out.extra`: on a shared
/// host they follow the neighbours (the README has the measurements), so
/// they are reported beside the bounded metrics, and as `runtime.*`
/// per-layer metrics by the traced run, but carry no bound.
fn end_to_end(reps: &[Rep], warm: Option<&Rep>, out: &mut RunOutput) {
    let n = reps.len();
    let med = |f: &dyn Fn(&Rep) -> f64| median_of(reps, f);
    let (m, extra) = (&mut out.metrics, &mut out.extra);
    m.push(Metric::new(
        "wire_bytes_per_wu",
        med(&Rep::wire_bytes_per_wu),
        "B",
        n,
    ));
    // The high-water mark after the process's first repetition (the
    // warm-up, when there is one): what a fresh process needs. Later
    // repetitions only add allocator retention, and how many of them fit
    // the window varies from run to run.
    let first = warm.unwrap_or(&reps[0]);
    m.push(Metric::new("peak_rss_mb", first.peak_rss_mb, "MB", 1));
    m.push(Metric::new("setup_s", med(&|r| r.setup_s), "s", n));
    timings("", reps, extra, &mut out.samples);
    extra.push(Metric::new(
        "final_val_acc",
        med(&|r| f64::from(r.report.final_val_acc)),
        "frac",
        n,
    ));
    extra.push(Metric::new(
        "failed_frac",
        med(&Rep::failed_frac),
        "frac",
        n,
    ));
}

/// The four timings of a set of untraced repetitions, named
/// `<prefix>wu_per_s` and so on: rate and CPU cost are medians over the
/// repetitions, turnaround and epoch time pool every repetition's samples.
fn timings(
    prefix: &str,
    reps: &[Rep],
    out: &mut Vec<Metric>,
    samples: &mut Vec<(String, Vec<f64>)>,
) {
    let n = reps.len();
    let turnaround = pooled(reps, |r| &r.turnaround_s);
    let epochs = pooled(reps, |r| &r.epoch_s);
    let mut tails = Vec::new();
    out.push(Metric::new(
        format!("{prefix}wu_per_s"),
        median_of(reps, Rep::wu_per_s),
        "1/s",
        n,
    ));
    with_tail(&format!("{prefix}wu_turnaround_s"), &turnaround, out, &mut tails);
    out.push(Metric::new(
        format!("{prefix}cpu_s_per_wu"),
        median_of(reps, Rep::cpu_s_per_wu),
        "s",
        n,
    ));
    with_tail(&format!("{prefix}epoch_s"), &epochs, out, &mut tails);
    // Tail percentiles are context everywhere: the per-layer list keeps
    // the medians only.
    if prefix.is_empty() {
        out.append(&mut tails);
    }
    samples.push((format!("{prefix}wu_turnaround_s"), turnaround));
    samples.push((format!("{prefix}epoch_s"), epochs));
}

fn tally<'a>(w: Workload, smoke: bool, reps: impl Iterator<Item = &'a Rep>, out: &mut RunOutput) {
    let cfg = w.config(0, smoke, false);
    let per_rep = (cfg.job.epochs * cfg.job.shards) as u64;
    for (i, r) in reps.enumerate() {
        out.attempted += per_rep;
        out.failed += per_rep.saturating_sub(r.workunits);
        for p in &r.problems {
            out.problems.push(format!("rep {i}: {p}"));
        }
    }
}

/// What one full Raw snapshot sync of `w`'s model costs on the wire;
/// `None` under a lossy codec, where syncs ship data-dependent deltas.
fn raw_sync_ops(w: Workload, smoke: bool) -> Option<PsOps> {
    let cfg = w.config(0, smoke, false);
    (cfg.codec == Codec::Raw).then(|| {
        let params = cfg.job.model.build(0).params_flat();
        probes::raw_sync_ops(&cfg.job, &params)
    })
}

/// One unmeasured repetition before the window opens: the process faults
/// in its heap, the allocator's pools grow and the caches fill, so the
/// first measured repetition is like the rest (cold, it ran a quarter
/// slower). A smoke run, which only shows that the path runs, skips it.
fn warm_up(
    w: Workload,
    seed: u64,
    smoke: bool,
    raw_sync: Option<PsOps>,
    spans: &mut Spans,
) -> Result<Option<Rep>, String> {
    if smoke {
        return Ok(None);
    }
    run_rep(w, rep_seed(seed, 0), smoke, false, raw_sync, spans, "warm-up").map(Some)
}

pub fn run_untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<RunOutput, String> {
    let raw_sync = raw_sync_ops(w, smoke);
    let mut spans = Spans::new();
    let warm = warm_up(w, seed, smoke, raw_sync, &mut spans)?;
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_s = Vec::new();
    // Another repetition starts while at least half a typical one is left
    // in the window, so the expected overshoot is zero.
    while reps.len() < min_reps(smoke)
        || t0.elapsed().as_secs_f64() + 0.5 * median(&rep_s) < seconds
    {
        let r0 = Instant::now();
        let i = reps.len();
        reps.push(run_rep(
            w,
            rep_seed(seed, i),
            smoke,
            false,
            raw_sync,
            &mut spans,
            &format!("rep{i}"),
        )?);
        rep_s.push(r0.elapsed().as_secs_f64());
    }
    let mut out = RunOutput::default();
    end_to_end(&reps, warm.as_ref(), &mut out);
    tally(w, smoke, reps.iter(), &mut out);
    Ok(out)
}

/// Medians of the per-workunit stage budget over the traced repetitions.
fn stage_budget(chains: &[WuChain], out: &mut RunOutput) {
    let n = chains.len();
    if n == 0 {
        out.problems
            .push("traced repetitions produced no complete workunit chain".into());
        return;
    }
    let med = |f: &dyn Fn(&WuChain) -> f64| median_of(chains, f);
    for (i, st) in TraceStage::ALL.iter().enumerate() {
        out.metrics.push(Metric::new(
            format!("runtime.stage_s.{}", st.as_str()),
            med(&|c| c.chain.stages[i]),
            "s",
            n,
        ));
    }
    let mut gaps = Vec::new();
    for (i, name) in GAP_NAMES.iter().enumerate() {
        let v = med(&|c| c.gaps[i]);
        gaps.push((*name, v));
        out.metrics
            .push(Metric::new(format!("runtime.gap_s.{name}"), v, "s", n));
    }
    let closure = med(&|c| c.chain.closure());
    out.metrics
        .push(Metric::new("runtime.stage_closure", closure, "ratio", n));
    out.metrics.push(Metric::new(
        "runtime.queue_wait_s",
        med(&|c| c.chain.unaccounted_s()),
        "s",
        n,
    ));
    // Shares of the in-flight budget (everything after the hand-off).
    let in_flight = |c: &WuChain| c.chain.stages[1..].iter().sum::<f64>();
    out.metrics.push(Metric::new(
        "runtime.train_share",
        med(&|c| c.chain.stages[2] / in_flight(c)),
        "ratio",
        n,
    ));
    out.metrics.push(Metric::new(
        "runtime.ps_share",
        med(&|c| (c.chain.stages[1] + c.chain.stages[4] + c.chain.stages[5]) / in_flight(c)),
        "ratio",
        n,
    ));
    if !closure_in_range(closure) {
        // The budget does not close: name where the time went instead.
        let (gap, v) = gaps
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three named gaps");
        out.extra
            .push(Metric::new(format!("stage_gap.{gap}"), v, "s", n));
        eprintln!(
            "stage_closure {closure:.3} is outside [0.85, 1.10]: the largest interval no stage span covers is {gap}, {v:.6} s median per workunit"
        );
    }
}

/// Seconds from the last `assimilated` of an epoch to the first
/// `wu_assigned` of the next: what the epoch barrier (snapshot publish,
/// workunit generation, the idle workers' next poll) costs. Epochs are
/// told apart by the `epoch_finished` event between them.
fn epoch_barriers(events: &[Event]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut last_assim = None;
    let mut waiting = false;
    for ev in events {
        match ev.name.as_str() {
            "assimilated" => last_assim = Some(ev.t_s),
            "epoch_finished" => waiting = true,
            "wu_assigned" if waiting => {
                if let Some(t0) = last_assim {
                    out.push((ev.t_s - t0).max(0.0));
                }
                waiting = false;
            }
            _ => {}
        }
    }
    out
}

/// `core.replica_s` × workunits per second / workers: the share of the
/// fleet's time that is the plain single-worker training step.
pub fn efficiency(replica_s: f64, wu_per_s: f64, workers: usize) -> f64 {
    replica_s * wu_per_s / workers as f64
}

/// Everything the traced repetitions say about the runtime, telemetry and
/// ops layers.
fn runtime_layer(w: Workload, traced: &[Rep], untraced: &[Rep], out: &mut RunOutput) {
    // Each traced repetition's stage spans, decoded once.
    let spans: Vec<Vec<StageSpan>> = traced.iter().map(|r| stage_spans(&r.events)).collect();
    let chains: Vec<WuChain> = spans.iter().flat_map(|s| wu_chains(s)).collect();
    stage_budget(&chains, out);
    // Host 0 lies about every result: none of its uploads may win.
    if w.injects_faults() && chains.iter().any(|c| c.winner == 0) {
        out.problems
            .push("a poisoned result was assimilated".into());
    }

    let n = traced.len();
    let med = |f: &dyn Fn(&Rep) -> f64| median_of(traced, f);
    let m = &mut out.metrics;
    let turnaround = pooled(traced, |r| &r.turnaround_s);
    m.push(Metric::new(
        "runtime.turnaround_s_p90",
        quantile(&turnaround, 0.90),
        "s",
        turnaround.len(),
    ));
    // Worker busy time: every fetch, train and upload span any host
    // recorded, winners or not.
    let idle: Vec<f64> = traced
        .iter()
        .zip(&spans)
        .map(|(r, sps)| {
            let busy: f64 = sps
                .iter()
                .filter(|sp| (1..=3).contains(&sp.stage))
                .map(|sp| sp.dur_s)
                .sum();
            1.0 - busy / (r.report.workers as f64 * r.report.wall_s)
        })
        .collect();
    m.push(Metric::new(
        "runtime.worker_idle_frac",
        median(&idle),
        "frac",
        n,
    ));
    let barriers: Vec<f64> = traced
        .iter()
        .flat_map(|r| epoch_barriers(&r.events))
        .collect();
    // A one-epoch (smoke) repetition has no barrier to time.
    m.push(Metric::new(
        "runtime.epoch_barrier_s",
        if barriers.is_empty() {
            0.0
        } else {
            median(&barriers)
        },
        "s",
        barriers.len(),
    ));
    m.push(Metric::new(
        "runtime.poll_s_p50",
        med(&|r| r.poll_s_p50),
        "s",
        n,
    ));
    m.push(Metric::new(
        "runtime.assignments_per_wu",
        med(&Rep::assignments_per_wu),
        "ratio",
        n,
    ));
    m.push(Metric::new(
        "runtime.failed_frac",
        med(&Rep::failed_frac),
        "frac",
        n,
    ));
    m.push(Metric::new(
        "runtime.final_val_acc",
        med(&|r| f64::from(r.report.final_val_acc)),
        "frac",
        n,
    ));
    m.push(Metric::new(
        "runtime.kills",
        med(&|r| r.report.kills as f64),
        "count",
        n,
    ));
    m.push(Metric::new(
        "runtime.respawns",
        med(&|r| r.report.respawns as f64),
        "count",
        n,
    ));
    m.push(Metric::new(
        "runtime.lost_updates",
        med(&|r| {
            r.report
                .epochs
                .last()
                .map_or(0.0, |e| e.lost_updates as f64)
        }),
        "count",
        n,
    ));
    m.push(Metric::new(
        "runtime.staleness_versions_p50",
        med(&|r| r.report.telemetry.staleness_versions.quantile(0.5)),
        "count",
        n,
    ));

    // The timings a user sees, from the untraced repetitions only.
    timings("runtime.", untraced, m, &mut out.samples);
    let untraced_rate = median_of(untraced, Rep::wu_per_s);
    m.push(Metric::new(
        "telemetry.trace_overhead_frac",
        1.0 - median_of(traced, Rep::wu_per_s) / untraced_rate,
        "frac",
        traced.len() + untraced.len(),
    ));
    m.push(Metric::new(
        "telemetry.events_per_wu",
        med(&|r| r.events.len() as f64 / r.workunits as f64),
        "count",
        n,
    ));

    // What a scrape of the live ops surface costs against a registry and
    // recorder filled by a real run.
    let hub = OpsHub::new(traced[n - 1].telemetry.clone());
    for (name, path) in [
        ("ops.metrics_scrape_s", "/metrics"),
        ("ops.status_s", "/status"),
    ] {
        let mut s = Vec::new();
        for _ in 0..20 {
            let t0 = Instant::now();
            black_box(hub.handle(path));
            s.push(t0.elapsed().as_secs_f64());
        }
        m.push(Metric::new(name, median(&s), "s", s.len()));
    }
}

/// The traced run. With `with_probes` the probe pass runs in the same
/// process (the contract's `--trace 1`); without, only the runtime,
/// telemetry and ops layers are reported.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    with_probes: bool,
) -> Result<RunOutput, String> {
    let raw_sync = raw_sync_ops(w, smoke);
    let mut spans = Spans::new();
    warm_up(w, seed, smoke, raw_sync, &mut spans)?;
    let t0 = Instant::now();
    let runtime_window = if with_probes { 0.5 * seconds } else { seconds };
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut rep_s = Vec::new();
    // Pairs on the same inputs, alternating which side goes first so that
    // warm-up and drift do not favour one.
    while traced.is_empty() || t0.elapsed().as_secs_f64() + median(&rep_s) < runtime_window {
        let first_traced = traced.len() % 2 == 1;
        for is_traced in [first_traced, !first_traced] {
            let i = untraced.len() + traced.len();
            let r0 = Instant::now();
            let rep = run_rep(
                w,
                rep_seed(seed, i / 2),
                smoke,
                is_traced,
                raw_sync,
                &mut spans,
                &format!("rep{i}"),
            )?;
            rep_s.push(r0.elapsed().as_secs_f64());
            if is_traced {
                &mut traced
            } else {
                &mut untraced
            }
            .push(rep);
        }
    }

    let mut out = RunOutput::default();
    if with_probes {
        let budget_s = (seconds - t0.elapsed().as_secs_f64()).max(0.25 * seconds);
        let probed = probes::run_all(seed, budget_s, smoke, &mut spans);
        let replica_s = probed.replica_s(w);
        out.metrics = probed.metrics;
        out.problems = probed.problems;
        let rate = median_of(&untraced, Rep::wu_per_s);
        out.metrics.push(Metric::new(
            "runtime.efficiency",
            efficiency(replica_s, rate, untraced[0].report.workers),
            "ratio",
            untraced.len(),
        ));
    }
    runtime_layer(w, &traced, &untraced, &mut out);
    tally(w, smoke, untraced.iter().chain(&traced), &mut out);
    let runs: Vec<TracedRun<'_>> = traced
        .iter()
        .map(|r| TracedRun {
            events: &r.events,
            offset_s: r.clock_offset_s,
        })
        .collect();
    // A span's self time is its duration minus its children: for a
    // repetition, what the harness itself added around the program.
    let rep_self: Vec<f64> = spans
        .all()
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp.parent.is_none() && sp.name.starts_with("rep"))
        .map(|(id, _)| self_time_s(spans.all(), id))
        .collect();
    out.extra.push(Metric::new(
        "harness.rep_self_s",
        median(&rep_self),
        "s",
        rep_self.len(),
    ));
    out.trace_json = Some(chrome_trace(spans.all(), &runs));
    Ok(out)
}

/// The probe pass on its own (the suite runs it once, not per workload).
pub fn run_probes(seed: u64, seconds: f64, smoke: bool) -> RunOutput {
    let mut spans = Spans::new();
    let probed = probes::run_all(seed, seconds, smoke, &mut spans);
    RunOutput {
        metrics: probed.metrics,
        problems: probed.problems,
        attempted: 1,
        trace_json: Some(chrome_trace(spans.all(), &[])),
        ..RunOutput::default()
    }
}
