//! One repetition of a workload through the real threaded runtime, and
//! what the harness reads off it.

use crate::host::{peak_rss_mb, process_cpu_s};
use crate::stats::{epoch_gaps, turnarounds, WuMark};
use crate::trace::{field_u64, Spans};
use crate::workloads::Workload;
use std::time::Instant;
use vc_ps::PsOps;
use vc_runtime::{Runtime, RuntimeReport, WORKER_POLL_S};
use vc_telemetry::{Event, Histogram, Telemetry};

/// Flight-recorder capacity: a traced `churn_quorum` repetition records
/// about 25 events per workunit; the largest repetition is a few hundred
/// workunits. [`Rep::dropped_events`] must stay 0 or turnaround pairs go
/// missing.
const RECORDER_CAPACITY: usize = 1 << 16;

/// What one repetition produced.
pub struct Rep {
    pub report: RuntimeReport,
    /// Harness config build + `Runtime::new` + the part of `Runtime::run`
    /// outside the epoch loop (data generation, sharding, model init, PS
    /// bind, thread spawn/join, final evaluation).
    pub setup_s: f64,
    /// Process CPU seconds (user + sys, all threads) across the repetition.
    pub cpu_s: f64,
    /// `VmHWM` of the process when the repetition ended.
    pub peak_rss_mb: f64,
    /// Workunits assimilated.
    pub workunits: u64,
    /// Per-workunit seconds from first hand-off to assimilation.
    pub turnaround_s: Vec<f64>,
    /// Gaps between consecutive epoch ends.
    pub epoch_s: Vec<f64>,
    /// `worker_fetch_failed` events (a fetch the worker gave up on).
    pub fetch_failures: u64,
    /// Median scheduler round-trip a worker saw (request sent to reply in
    /// hand), from the run's own histogram.
    pub poll_s_p50: f64,
    /// Harness time of the run clock's zero, for placing the program's
    /// events on the harness axis.
    pub clock_offset_s: f64,
    /// The run's telemetry hub (registry and recorder stay readable).
    pub telemetry: Telemetry,
    /// The recorded events (kept only for traced repetitions).
    pub events: Vec<Event>,
    /// Why the repetition is not a correct run; empty when it is.
    pub problems: Vec<String>,
}

impl Rep {
    pub fn wu_per_s(&self) -> f64 {
        self.workunits as f64 / self.report.wall_s
    }

    pub fn cpu_s_per_wu(&self) -> f64 {
        self.cpu_s / self.workunits as f64
    }

    pub fn wire_bytes_per_wu(&self) -> f64 {
        (self.report.ps_ops.bytes_tx + self.report.ps_ops.bytes_rx) as f64 / self.workunits as f64
    }

    /// (timeouts + invalid results + worker fetch failures) / assigned.
    pub fn failed_frac(&self) -> f64 {
        let m = &self.report.server_metrics;
        (m.timeouts + m.invalid_results + self.fetch_failures) as f64 / m.assigned.max(1) as f64
    }

    pub fn assignments_per_wu(&self) -> f64 {
        self.report.server_metrics.assigned as f64 / self.workunits as f64
    }
}

/// Reduces the recorder stream to hand-off / assimilation marks.
pub fn wu_marks(events: &[Event]) -> Vec<WuMark> {
    events
        .iter()
        .filter_map(|ev| {
            let assimilated = match ev.name.as_str() {
                "wu_assigned" => false,
                "assimilated" => true,
                _ => return None,
            };
            Some(WuMark {
                wu: field_u64(ev, "wu")?,
                t_s: ev.t_s,
                assimilated,
            })
        })
        .collect()
}

/// Runs one repetition. `rep_seed` feeds every generated stream; `spans`
/// receives the harness-side spans around the calls into the runtime,
/// under a root span named `label`; `raw_sync` (Raw-codec workloads) is
/// what one full snapshot sync costs on the wire, for the closed-form
/// wire-bytes check.
pub fn run_rep(
    w: Workload,
    rep_seed: u64,
    smoke: bool,
    traced: bool,
    raw_sync: Option<PsOps>,
    spans: &mut Spans,
    label: &str,
) -> Result<Rep, String> {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let rep_span = spans.open(label, None);

    let cfg_span = spans.open("config_build", Some(rep_span));
    let cfg = w.config(rep_seed, smoke, traced);
    let epochs = cfg.job.epochs;
    let shards = cfg.job.shards;
    let max_syncs = (cfg.job.cn * epochs) as u64;
    let tel = Telemetry::with_echo(RECORDER_CAPACITY, None);
    let runtime = Runtime::new(cfg)?.with_telemetry(tel.clone());
    spans.close(cfg_span);

    let run_span = spans.open("Runtime::run", Some(rep_span));
    let report = runtime.run()?;
    // The run installed its own clock as the hub's time source.
    let clock_offset_s = spans.now_s() - tel.now_s();
    spans.close(run_span);
    spans.close(rep_span);
    let total_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let events = tel.recorder().events();
    let dropped_events = tel.recorder().dropped();
    let turnaround_s = turnarounds(&wu_marks(&events));
    let fetch_failures = events
        .iter()
        .filter(|e| e.name == "worker_fetch_failed")
        .count() as u64;
    let workunits: u64 = report.epochs.iter().map(|e| e.assimilated as u64).sum();
    let ends: Vec<f64> = report.epochs.iter().map(|e| e.end_wall_s).collect();

    let mut problems = Vec::new();
    if report.halted_early {
        problems.push("halted_early".to_string());
    }
    if report.epochs.len() != epochs {
        problems.push(format!("{} of {epochs} epochs", report.epochs.len()));
    }
    for e in &report.epochs {
        if e.assimilated != shards {
            problems.push(format!(
                "epoch {} assimilated {} of {shards}",
                e.epoch, e.assimilated
            ));
        }
    }
    if dropped_events > 0 {
        problems.push(format!("flight recorder dropped {dropped_events} events"));
    }
    if turnaround_s.len() as u64 != workunits {
        problems.push(format!(
            "{} turnaround pairs for {workunits} workunits",
            turnaround_s.len()
        ));
    }
    if let Some(one) = raw_sync {
        // Raw closed form: every sync ships the whole snapshot, and a
        // worker syncs at most once per epoch (its cache is sticky), so
        // bytes = syncs × snapshot bytes with syncs ≤ Cn × epochs.
        let ops = report.ps_ops;
        let syncs = ops.shards_sent / one.shards_sent;
        let expected = (syncs * (one.bytes_rx + one.bytes_tx)) as f64;
        let actual = (ops.bytes_rx + ops.bytes_tx) as f64;
        if ops.shards_sent != syncs * one.shards_sent || ops.fetches != syncs * one.fetches {
            problems.push(format!(
                "{} shards in {} requests is not a whole number of full syncs",
                ops.shards_sent, ops.fetches
            ));
        }
        if (actual - expected).abs() > 0.01 * expected {
            problems.push(format!(
                "wire bytes {actual} not within 1% of {syncs} syncs x {} B",
                one.bytes_rx + one.bytes_tx
            ));
        }
        if syncs > max_syncs {
            problems.push(format!("{syncs} syncs exceed Cn x epochs = {max_syncs}"));
        }
    }
    if !report.final_val_acc.is_finite() {
        problems.push("final_val_acc not finite".to_string());
    }
    if let Some(floor) = w.acc_floor(smoke) {
        if report.final_val_acc < floor {
            problems.push(format!(
                "final_val_acc {} below floor {floor}",
                report.final_val_acc
            ));
        }
    }

    let mut rep = Rep {
        setup_s: total_s - report.wall_s,
        cpu_s,
        peak_rss_mb: peak_rss_mb(),
        workunits,
        turnaround_s,
        epoch_s: epoch_gaps(&ends),
        fetch_failures,
        poll_s_p50: tel
            .registry()
            .histogram_with(WORKER_POLL_S, Histogram::latency_bounds)
            .snapshot()
            .quantile(0.5),
        clock_offset_s,
        telemetry: tel,
        events: if traced { events } else { Vec::new() },
        problems,
        report,
    };
    let m = rep.report.server_metrics;
    if w.injects_faults() {
        if rep.report.kills < 1 || rep.report.respawns < 1 {
            rep.problems.push(format!(
                "expected a kill and a respawn, saw {}/{}",
                rep.report.kills, rep.report.respawns
            ));
        }
        if m.quorum_disagreements < 1 {
            rep.problems.push("no quorum disagreement".to_string());
        }
    } else if rep.failed_frac() != 0.0 {
        rep.problems.push(format!(
            "clean workload saw failures: {} timeouts, {} invalid, {} fetch failures",
            m.timeouts, m.invalid_results, rep.fetch_failures
        ));
    }
    eprintln!(
        "  {label}{}: {:.3} wu/s, wall {:.3} s, setup {:.3} s, cpu {:.2} s, acc {:.3}",
        if traced { " (traced)" } else { "" },
        rep.wu_per_s(),
        rep.report.wall_s,
        rep.setup_s,
        rep.cpu_s,
        rep.report.final_val_acc,
    );
    Ok(rep)
}
