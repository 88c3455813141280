//! Workunits: BOINC's unit of distributable work.

use crate::host::HostId;
use serde::{Deserialize, Serialize};
use vc_simnet::SimTime;

/// Identifier of a workunit within one [`crate::BoincServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WuId(pub u64);

impl std::fmt::Display for WuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wu{}", self.0)
    }
}

/// Per-parameter-shard versions of the server snapshot a workunit trains
/// from. Workers use this as the cache key for partial fetches: a shard
/// whose manifest version they already hold is never re-transferred. With
/// an unsharded parameter service the manifest is a single entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest(pub Vec<u64>);

impl ShardManifest {
    /// The manifest of an unsharded (single-value) parameter store.
    pub fn single(version: u64) -> Self {
        ShardManifest(vec![version])
    }
}

/// A training subtask: one data shard trained for one epoch starting from
/// the server parameter snapshot taken at workunit creation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkUnit {
    /// Identifier.
    pub id: WuId,
    /// Epoch this subtask belongs to (1-based, matching the paper).
    pub epoch: usize,
    /// Index of the data subset this subtask trains on.
    pub shard_id: usize,
    /// Per-parameter-shard snapshot versions for partial fetches.
    pub param_versions: ShardManifest,
    /// Creation time.
    pub created_at: SimTime,
}

/// One live assignment of a workunit to a host. BOINC can replicate a
/// workunit onto several hosts for redundancy (§II-C); each replica is one
/// `ActiveAssignment`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActiveAssignment {
    /// Server-global issue sequence number: unique across all assignments
    /// of a run, monotone in issue order. Keys this assignment's entry in
    /// the expiry [`crate::TimerQueue`] (lazy invalidation) and breaks
    /// same-instant deadline ties deterministically.
    pub seq: u64,
    /// The executing host.
    pub host: HostId,
    /// The host incarnation the replica was issued to; when it lags the
    /// host's live count the instance died and a replacement registered,
    /// so expiry must not be blamed on the new incarnation.
    pub incarnation: u32,
    /// When the scheduler issued this replica (turnaround measurement).
    pub issued_at: SimTime,
    /// When the transitioner will declare this replica lost.
    pub deadline: SimTime,
    /// 1-based attempt number of this assignment.
    pub attempt: u32,
}

/// Lifecycle of a workunit.
#[derive(Clone, Debug, PartialEq)]
pub enum WuPhase {
    /// Waiting for (more) assignments.
    Unsent,
    /// One or more replicas are executing.
    InProgress {
        /// Live assignments (≥ 1; up to the replication factor).
        assignments: Vec<ActiveAssignment>,
    },
    /// A valid result was accepted.
    Done {
        /// The host whose result won.
        host: HostId,
        /// Acceptance time.
        at: SimTime,
    },
}

impl WuPhase {
    /// True when the workunit still needs a result.
    pub fn is_open(&self) -> bool {
        !matches!(self, WuPhase::Done { .. })
    }

    /// The hosts currently executing this workunit.
    pub(crate) fn running_on(&self) -> Vec<HostId> {
        match self {
            WuPhase::InProgress { assignments } => assignments.iter().map(|a| a.host).collect(),
            _ => Vec::new(),
        }
    }

    /// Number of live replicas.
    pub(crate) fn replica_count(&self) -> usize {
        match self {
            WuPhase::InProgress { assignments } => assignments.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_queries() {
        let unsent = WuPhase::Unsent;
        assert!(unsent.is_open());
        assert!(unsent.running_on().is_empty());
        assert_eq!(unsent.replica_count(), 0);

        let running = WuPhase::InProgress {
            assignments: vec![
                ActiveAssignment {
                    seq: 0,
                    host: HostId(3),
                    incarnation: 0,
                    issued_at: SimTime::from_secs(0.0),
                    deadline: SimTime::from_secs(10.0),
                    attempt: 1,
                },
                ActiveAssignment {
                    seq: 1,
                    host: HostId(5),
                    incarnation: 0,
                    issued_at: SimTime::from_secs(2.0),
                    deadline: SimTime::from_secs(12.0),
                    attempt: 2,
                },
            ],
        };
        assert!(running.is_open());
        assert_eq!(running.running_on(), vec![HostId(3), HostId(5)]);
        assert_eq!(running.replica_count(), 2);

        let done = WuPhase::Done {
            host: HostId(3),
            at: SimTime::from_secs(5.0),
        };
        assert!(!done.is_open());
        assert!(done.running_on().is_empty());
    }

    #[test]
    fn wu_id_displays() {
        assert_eq!(WuId(17).to_string(), "wu17");
    }
}
