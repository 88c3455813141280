//! Run reports, mirroring `vc-asgd`'s [`vc_asgd::EpochStats`] /
//! [`vc_asgd::JobReport`] with wall-clock seconds in place of simulated
//! hours, plus the fault-injection counters.
//!
//! The report's operation counts (`store_ops`, `ps_ops`, `kills`,
//! `respawns`, `delayed_msgs`, and the wire share of `bytes_transferred`)
//! are read from the run's telemetry registry, the same counters
//! `/metrics` exports. Like the [`RuntimeTelemetry`] histograms, they
//! count per telemetry handle: a caller that shares one handle across
//! runs gets cumulative counts in every report after the first.

use serde::{Deserialize, Serialize};
use vc_kvstore::{
    StoreOps, STORE_READ_S, STORE_STALENESS_VERSIONS, STORE_TRANSACT_S, STORE_WRITE_S,
};
use vc_middleware::{HostSummary, ServerMetrics, HOST_TURNAROUND_S, WU_DEADLINE_S};
use vc_ps::{PsOps, PS_MERGE_S, PS_SHARD_SKEW_VERSIONS};
use vc_telemetry::{Histogram, HistogramSnapshot, Registry};

/// Registry name of the assimilation-latency histogram (seconds from the
/// coordinator accepting a result to the blended parameters evaluated).
pub const ASSIM_LATENCY_S: &str = "assim_latency_s";
/// Registry name of the worker scheduler-poll round-trip histogram.
pub const WORKER_POLL_S: &str = "worker_poll_s";
/// Registry name of the worker subtask-training duration histogram.
pub const WORKER_TRAIN_S: &str = "worker_train_s";
/// Registry name of the worker per-optimizer-step duration histogram
/// (observed by the workspace trainer; the interval `bench_scale` and the
/// `optim.step_s_p50.*` probes time).
pub const WORKER_TRAIN_STEP_S: &str = "worker_train_step_s";
/// Registry name of the worker result-upload (channel send) histogram.
pub const WORKER_UPLOAD_S: &str = "worker_upload_s";
/// Registry name of the delay-line drawn-delay histogram: one observation
/// per delayed message, so its count is the report's `delayed_msgs`.
pub const DELAY_LINE_DELAY_S: &str = "delay_line_delay_s";
/// Registry name of the counter of workers the fault injector preempted.
pub const WORKER_KILLS: &str = "worker_kills";
/// Registry name of the counter of replacement workers that came up.
pub const WORKER_RESPAWNS: &str = "worker_respawns";
/// Registry name of the worker shard-fetch (cache sync) histogram.
pub const WORKER_FETCH_S: &str = "worker_fetch_s";

/// Per-epoch statistics of a real threaded run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimeEpoch {
    /// Epoch number (1-based).
    pub epoch: usize,
    /// The α this epoch's assimilations used.
    pub alpha: f32,
    /// Wall-clock seconds from job start (cumulative across resumes) when
    /// the epoch's last shard assimilated.
    pub end_wall_s: f64,
    /// Mean validation accuracy over the epoch's assimilations.
    pub mean_val_acc: f32,
    /// Minimum over the epoch's assimilations.
    pub min_val_acc: f32,
    /// Maximum over the epoch's assimilations.
    pub max_val_acc: f32,
    /// Results assimilated this epoch (always equals the shard count).
    pub assimilated: usize,
    /// Cumulative lost updates in the parameter store.
    pub lost_updates: u64,
    /// Cumulative assignment timeouts.
    pub timeouts: u64,
    /// Cumulative reassignments.
    pub reassignments: u64,
}

/// The full report of a [`crate::Runtime`] run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Experiment label (`P{pn}C{cn}T{tn}`).
    pub label: String,
    /// Per-epoch series.
    pub epochs: Vec<RuntimeEpoch>,
    /// Validation accuracy of the final server parameters (full split).
    pub final_val_acc: f32,
    /// Test accuracy of the final server parameters.
    pub final_test_acc: f32,
    /// Total wall-clock seconds (cumulative across resumes).
    pub wall_s: f64,
    /// Worker threads the run started with.
    pub workers: usize,
    /// Middleware counters.
    pub server_metrics: ServerMetrics,
    /// Per-host scheduler accounting (reputation, turnaround, backoffs).
    #[serde(default)]
    pub hosts: Vec<HostSummary>,
    /// Store operation counts (the registry's `store_*` counters).
    pub store_ops: StoreOps,
    /// Latency/staleness histograms collected by the telemetry registry.
    pub telemetry: RuntimeTelemetry,
    /// Parameter-service operation counts (fetches, cache hits, wire
    /// bytes; the registry's `ps_*` counters).
    #[serde(default)]
    pub ps_ops: PsOps,
    /// Parameter payload bytes that crossed worker channels plus wire
    /// bytes the parameter service moved.
    pub bytes_transferred: u64,
    /// Workers the fault injector preempted ([`WORKER_KILLS`]).
    pub kills: u64,
    /// Replacement workers that came up ([`WORKER_RESPAWNS`]).
    pub respawns: u64,
    /// Worker messages sent with a drawn delay, each held in the
    /// coordinator's queue until its due reading: the count of the
    /// [`DELAY_LINE_DELAY_S`] histogram.
    pub delayed_msgs: u64,
    /// True when the run stopped before completing (halt hook or the
    /// `max_wall_s` safety net) — final accuracies are still measured on
    /// whatever the server held.
    pub halted_early: bool,
}

/// The histogram family a run's telemetry registry collected, embedded in
/// the report so latency percentiles survive alongside the counters.
///
/// Every field is always present — [`RuntimeTelemetry::from_registry`]
/// get-or-creates each histogram, so a run that never exercised a path
/// reports an empty histogram rather than a missing field.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeTelemetry {
    /// Seconds from result acceptance to blended-and-evaluated parameters.
    pub assim_latency_s: HistogramSnapshot,
    /// Staleness of eventual-mode writes, in `server_version − read_version`.
    pub staleness_versions: HistogramSnapshot,
    /// Parameter-store read latency, seconds.
    pub store_read_s: HistogramSnapshot,
    /// Parameter-store write latency, seconds.
    pub store_write_s: HistogramSnapshot,
    /// Parameter-store transaction latency, seconds.
    pub store_transact_s: HistogramSnapshot,
    /// Worker subtask-training duration, seconds.
    pub worker_train_s: HistogramSnapshot,
    /// Worker per-optimizer-step duration, seconds.
    pub worker_train_step_s: HistogramSnapshot,
    /// Observed host turnaround (issue → valid upload), seconds.
    #[serde(default)]
    pub host_turnaround_s: HistogramSnapshot,
    /// Deadlines the adaptive scheduler granted, seconds.
    #[serde(default)]
    pub wu_deadline_s: HistogramSnapshot,
    /// Per-shard merge latency in the parameter service, seconds.
    #[serde(default)]
    pub ps_merge_s: HistogramSnapshot,
    /// Version skew (max − min) across shard manifests at snapshot reads.
    #[serde(default)]
    pub ps_shard_skew_versions: HistogramSnapshot,
    /// Worker shard-fetch (cache sync) latency, seconds.
    #[serde(default)]
    pub worker_fetch_s: HistogramSnapshot,
}

impl RuntimeTelemetry {
    /// Snapshots the run's histograms out of `registry`, creating any the
    /// run never touched so the report shape is stable.
    pub fn from_registry(registry: &Registry) -> Self {
        let grab = |name: &str| {
            registry
                .histogram_with(name, Histogram::latency_bounds)
                .snapshot()
        };
        RuntimeTelemetry {
            assim_latency_s: grab(ASSIM_LATENCY_S),
            staleness_versions: registry
                .histogram_with(STORE_STALENESS_VERSIONS, Histogram::version_bounds)
                .snapshot(),
            store_read_s: grab(STORE_READ_S),
            store_write_s: grab(STORE_WRITE_S),
            store_transact_s: grab(STORE_TRANSACT_S),
            worker_train_s: grab(WORKER_TRAIN_S),
            worker_train_step_s: grab(WORKER_TRAIN_STEP_S),
            host_turnaround_s: grab(HOST_TURNAROUND_S),
            wu_deadline_s: grab(WU_DEADLINE_S),
            ps_merge_s: grab(PS_MERGE_S),
            ps_shard_skew_versions: registry
                .histogram_with(PS_SHARD_SKEW_VERSIONS, Histogram::version_bounds)
                .snapshot(),
            worker_fetch_s: grab(WORKER_FETCH_S),
        }
    }
}

impl RuntimeReport {
    /// Mean validation accuracy of the last completed epoch (0 when none).
    pub fn final_mean_acc(&self) -> f32 {
        self.epochs.last().map(|e| e.mean_val_acc).unwrap_or(0.0)
    }

    /// Wall-clock seconds until the epoch-mean validation accuracy first
    /// reached `target`, when it did.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.epochs
            .iter()
            .find(|e| e.mean_val_acc >= target)
            .map(|e| e.end_wall_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(n: usize, acc: f32, t: f64) -> RuntimeEpoch {
        RuntimeEpoch {
            epoch: n,
            alpha: 0.6,
            end_wall_s: t,
            mean_val_acc: acc,
            min_val_acc: acc - 0.05,
            max_val_acc: acc + 0.05,
            assimilated: 8,
            lost_updates: 0,
            timeouts: 0,
            reassignments: 0,
        }
    }

    #[test]
    fn accessors_walk_the_series() {
        let r = RuntimeReport {
            label: "P2C4T2".into(),
            epochs: vec![epoch(1, 0.2, 1.0), epoch(2, 0.45, 2.5)],
            final_val_acc: 0.45,
            final_test_acc: 0.44,
            wall_s: 2.6,
            workers: 4,
            server_metrics: ServerMetrics::default(),
            hosts: Vec::new(),
            store_ops: StoreOps::default(),
            telemetry: RuntimeTelemetry::from_registry(&Registry::default()),
            ps_ops: PsOps::default(),
            bytes_transferred: 0,
            kills: 0,
            respawns: 0,
            delayed_msgs: 0,
            halted_early: false,
        };
        assert_eq!(r.final_mean_acc(), 0.45);
        assert_eq!(r.time_to_accuracy(0.4), Some(2.5));
        assert_eq!(r.time_to_accuracy(0.9), None);
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<RuntimeReport>(&json).unwrap(), r);
    }

    #[test]
    fn from_registry_materializes_every_histogram() {
        let reg = Registry::default();
        reg.histogram_with(ASSIM_LATENCY_S, Histogram::latency_bounds)
            .observe(0.002);
        let t = RuntimeTelemetry::from_registry(&reg);
        assert_eq!(t.assim_latency_s.count, 1);
        // Untouched paths still appear, as empty histograms with real bounds.
        assert_eq!(t.worker_train_s.count, 0);
        assert!(!t.worker_train_s.bounds.is_empty());
        assert!(!t.staleness_versions.bounds.is_empty());
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<RuntimeTelemetry>(&json).unwrap(), t);
    }
}
