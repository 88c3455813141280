//! The `/status` payload: one JSON snapshot of everything an operator
//! watches — job progress, fleet health, queue backlog, and parameter-
//! service shard state.
//!
//! The snapshot is plain serde data: the coordinator (threaded runtime)
//! and the DST sim build it from live state and publish it into the
//! [`crate::OpsHub`]; the HTTP `/status` handler and the DST's in-memory
//! handler serialize the same struct, so snapshots are deterministic and
//! golden-testable under the virtual clock.

use serde::{Deserialize, Serialize};
use vc_middleware::{HostHot, ServerMetrics};
use vc_simnet::SimTime;

/// Aggregated fleet health, summarized from the scheduler's hot host
/// records ([`HostHot`]) at publish time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStatus {
    /// Registered hosts.
    pub hosts: usize,
    /// Hosts currently alive.
    pub alive: usize,
    /// Hosts sitting out a reputation backoff.
    pub in_backoff: usize,
    /// Assignments currently in flight across the fleet.
    pub in_flight: usize,
    /// Results completed, summed over hosts.
    pub completed: u64,
    /// Timeouts attributed, summed over hosts.
    pub timeouts: u64,
    /// Invalid results, summed over hosts.
    pub invalids: u64,
    /// Mean scheduler reliability estimate over registered hosts.
    pub mean_reliability: f64,
}

impl FleetStatus {
    /// Summarizes the scheduler's hot host records at time `now`.
    pub fn from_hosts(hosts: &[HostHot], now: SimTime) -> Self {
        let mut s = FleetStatus {
            hosts: hosts.len(),
            ..FleetStatus::default()
        };
        let mut rel_sum = 0.0;
        for h in hosts {
            if h.alive {
                s.alive += 1;
            }
            if h.in_backoff(now) {
                s.in_backoff += 1;
            }
            s.in_flight += h.in_flight;
            s.completed += h.completed;
            s.timeouts += h.timeouts;
            s.invalids += h.invalids;
            rel_sum += h.reliability;
        }
        if !hosts.is_empty() {
            s.mean_reliability = rel_sum / hosts.len() as f64;
        }
        s
    }
}

/// Parameter-service shard state: per-shard merge versions and traffic
/// counters, copied from `ShardedAssimilator::versions()` and
/// `PsService::ops()` at publish time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PsStatus {
    /// Per-shard merge version (index = shard id).
    pub shard_versions: Vec<u64>,
    /// `max(shard_versions) − min(shard_versions)`: how far the most- and
    /// least-merged shards have drifted apart.
    pub version_skew: u64,
    /// Fetch requests served.
    pub fetches: u64,
    /// Shard payloads sent (partial fetches send fewer than `P`).
    pub shards_sent: u64,
    /// Shards skipped because the worker's cache was current.
    pub cache_hits: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes sent.
    pub bytes_tx: u64,
    /// Bytes the transfer codec kept off the wire (quantized deltas
    /// instead of full `Raw` blobs). Zero under `Raw`.
    pub bytes_saved: u64,
    /// `(bytes_tx + bytes_saved) / bytes_tx`: how many raw bytes each
    /// transmitted byte stands for. `1.0` under `Raw` or before traffic.
    pub compression_ratio: f64,
}

impl PsStatus {
    /// Computes the skew from the shard versions and stores both.
    pub fn from_versions(shard_versions: Vec<u64>) -> Self {
        let skew = match (shard_versions.iter().max(), shard_versions.iter().min()) {
            (Some(hi), Some(lo)) => hi - lo,
            _ => 0,
        };
        PsStatus {
            shard_versions,
            version_skew: skew,
            ..PsStatus::default()
        }
    }
}

/// The `/status` document: job progress + fleet + queue + PS state at one
/// instant. Everything the dashboard sparklines poll for.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Publish time, seconds on the run's clock (virtual under DST).
    pub t_s: f64,
    /// Job label (e.g. `mnist-mlp p10`).
    pub label: String,
    /// Epochs fully assimilated so far.
    pub epochs_done: u32,
    /// Configured epoch count.
    pub epochs_total: u32,
    /// Workunits still open (queued or in flight) in the current epoch.
    pub open_workunits: usize,
    /// Workunits waiting in the server's work queue (not yet assigned).
    pub queue_depth: usize,
    /// Results assimilated into the model so far.
    pub assimilations: u64,
    /// Mean validation accuracy per finished epoch (the accuracy
    /// sparkline's data).
    pub epoch_acc: Vec<f64>,
    /// Aggregated fleet health.
    pub fleet: FleetStatus,
    /// Scheduler counters.
    pub server: ServerMetrics,
    /// Parameter-service shard state.
    pub ps: PsStatus,
    /// True once the run has finalized.
    pub done: bool,
}

impl StatusSnapshot {
    /// Serializes to the `/status` JSON document.
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string(self).expect("status serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_summary_aggregates_hot_records() {
        let mut a = HostHot::new(2);
        a.in_flight = 1;
        a.completed = 5;
        a.timeouts = 2;
        let mut b = HostHot::new(2);
        b.alive = false;
        b.invalids = 3;
        b.reliability = 0.5;
        b.consecutive_failures = 1;
        b.start_backoff(SimTime::from_secs(10.0), 1.0, 60.0);
        let f = FleetStatus::from_hosts(&[a, b], SimTime::from_secs(10.5));
        assert_eq!(f.hosts, 2);
        assert_eq!(f.alive, 1);
        assert_eq!(f.in_backoff, 1);
        assert_eq!(f.in_flight, 1);
        assert_eq!(f.completed, 5);
        assert_eq!(f.timeouts, 2);
        assert_eq!(f.invalids, 3);
        assert!((f.mean_reliability - 0.75).abs() < 1e-9);
    }

    #[test]
    fn ps_status_computes_skew() {
        let p = PsStatus::from_versions(vec![7, 3, 5]);
        assert_eq!(p.version_skew, 4);
        assert_eq!(PsStatus::from_versions(vec![]).version_skew, 0);
    }

    #[test]
    fn snapshot_roundtrips_json() {
        let snap = StatusSnapshot {
            t_s: 1.5,
            label: "test p10".to_string(),
            epochs_done: 1,
            epochs_total: 3,
            open_workunits: 4,
            queue_depth: 2,
            assimilations: 9,
            epoch_acc: vec![0.5],
            ..StatusSnapshot::default()
        };
        let back: StatusSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
