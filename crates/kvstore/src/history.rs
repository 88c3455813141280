//! Operation histories and consistency checkers.
//!
//! A [`crate::VersionedStore`] built in recording mode logs every completed
//! operation — while still holding the per-key lock, so the log order *is*
//! the store's serialization order. The checkers here turn such a history
//! into a verdict:
//!
//! - [`check_sequential`] verifies the history admits a **sequential
//!   witness**: replayed in log order, every operation observed exactly the
//!   state the previous operation left behind. Strong-consistency runs must
//!   pass this — it is the linearizability condition for a single
//!   read-modify-write register whose operations are atomic at their
//!   log point.
//! - [`count_lost_updates`] independently recounts, from versions alone,
//!   how many concurrent updates eventual-mode writes clobbered. The result
//!   must match the store's `lost_updates` count ([`crate::StoreOps`]) *exactly* —
//!   the counter is an accounting claim, the history is the evidence.
//!
//! Histories are cheap (a few enum words per store call), so the
//! deterministic-simulation harness records them for every scenario and
//! asserts the matching checker on every seed it sweeps.

use serde::{Deserialize, Serialize};

/// One completed store operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// A [`crate::VersionedStore::get`]: returned `version`.
    Get {
        /// Version the read observed.
        version: u64,
    },
    /// An unconditional [`crate::VersionedStore::put`] (seeding).
    Put {
        /// Version assigned to the written value.
        new_version: u64,
    },
    /// An eventual-mode [`crate::VersionedStore::put_versioned`].
    PutVersioned {
        /// The version the writer had read before computing its value.
        read_version: u64,
        /// Version assigned to the written value.
        new_version: u64,
        /// Intervening versions the store reported clobbered.
        clobbered: u64,
    },
    /// A strong-mode [`crate::VersionedStore::transact`].
    Transact {
        /// The version the transaction's closure was shown.
        read_version: u64,
        /// Version assigned to the written value.
        new_version: u64,
    },
}

/// One history entry: a key, a store-wide sequence number (assigned under
/// the key lock, so per-key sequence order equals serialization order), and
/// the operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryEvent {
    /// Store-wide sequence number (log order).
    pub seq: u64,
    /// The key operated on.
    pub key: String,
    /// What happened.
    pub op: Op,
}

/// Verifies the history admits a sequential witness in log order: every
/// operation on a key observed exactly the version the previous write to
/// that key installed, versions are contiguous from 1, and nothing was
/// clobbered. This must hold for every strong-consistency run — a failure
/// means an update was applied against a stale snapshot, i.e. at least one
/// assimilation was lost.
pub fn check_sequential(events: &[HistoryEvent]) -> Result<(), String> {
    // Current version per key, replayed in log order.
    let mut current: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for e in events {
        let cur = current.entry(e.key.as_str()).or_insert(0);
        match &e.op {
            Op::Get { version } => {
                if *version != *cur {
                    return Err(format!(
                        "seq {}: get of {:?} observed version {} but the witness state is {}",
                        e.seq, e.key, version, cur
                    ));
                }
            }
            Op::Put { new_version } => {
                if *new_version != *cur + 1 {
                    return Err(format!(
                        "seq {}: put on {:?} installed version {} over witness state {}",
                        e.seq, e.key, new_version, cur
                    ));
                }
                *cur = *new_version;
            }
            Op::PutVersioned {
                read_version,
                new_version,
                clobbered,
            } => {
                if *clobbered > 0 {
                    return Err(format!(
                        "seq {}: write on {:?} clobbered {} concurrent update(s)",
                        e.seq, e.key, clobbered
                    ));
                }
                if *read_version != *cur {
                    return Err(format!(
                        "seq {}: write on {:?} was computed from version {} but the \
                         witness state is {}",
                        e.seq, e.key, read_version, cur
                    ));
                }
                if *new_version != *cur + 1 {
                    return Err(format!(
                        "seq {}: write on {:?} installed non-contiguous version {} after {}",
                        e.seq, e.key, new_version, cur
                    ));
                }
                *cur = *new_version;
            }
            Op::Transact {
                read_version,
                new_version,
            } => {
                if *read_version != *cur || *new_version != *cur + 1 {
                    return Err(format!(
                        "seq {}: transaction on {:?} read {} / wrote {} against witness state {}",
                        e.seq, e.key, read_version, new_version, cur
                    ));
                }
                *cur = *new_version;
            }
        }
    }
    Ok(())
}

/// Independently recounts lost updates from the recorded versions: a write
/// computed from `read_version` that lands when the key is already at
/// version `v > read_version` overwrote `v - read_version` updates it never
/// saw. Deliberately ignores the `clobbered` field the store reported — the
/// caller cross-checks this recount against [`crate::StoreOps::lost_updates`].
pub fn count_lost_updates(events: &[HistoryEvent]) -> u64 {
    let mut current: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    let mut lost = 0u64;
    for e in events {
        let cur = current.entry(e.key.as_str()).or_insert(0);
        match &e.op {
            Op::Get { .. } => {}
            Op::Put { new_version } => *cur = *new_version,
            Op::PutVersioned {
                read_version,
                new_version,
                ..
            } => {
                lost += cur.saturating_sub(*read_version);
                *cur = *new_version;
            }
            Op::Transact { new_version, .. } => *cur = *new_version,
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, op: Op) -> HistoryEvent {
        HistoryEvent {
            seq,
            key: "k".into(),
            op,
        }
    }

    #[test]
    fn clean_sequential_history_passes() {
        let h = vec![
            ev(0, Op::Put { new_version: 1 }),
            ev(1, Op::Get { version: 1 }),
            ev(
                2,
                Op::Transact {
                    read_version: 1,
                    new_version: 2,
                },
            ),
            ev(
                3,
                Op::PutVersioned {
                    read_version: 2,
                    new_version: 3,
                    clobbered: 0,
                },
            ),
        ];
        check_sequential(&h).unwrap();
        assert_eq!(count_lost_updates(&h), 0);
    }

    #[test]
    fn stale_write_fails_the_witness_and_is_counted() {
        // Two writers both read version 1; the second to land clobbers.
        let h = vec![
            ev(0, Op::Put { new_version: 1 }),
            ev(
                1,
                Op::PutVersioned {
                    read_version: 1,
                    new_version: 2,
                    clobbered: 0,
                },
            ),
            ev(
                2,
                Op::PutVersioned {
                    read_version: 1,
                    new_version: 3,
                    clobbered: 1,
                },
            ),
        ];
        let err = check_sequential(&h).unwrap_err();
        assert!(err.contains("clobbered"), "got: {err}");
        assert_eq!(count_lost_updates(&h), 1);
    }

    #[test]
    fn recount_is_independent_of_the_recorded_clobber_field() {
        // A store that under-reported (clobbered: 0 despite the stale read)
        // is caught because the recount works from versions alone.
        let h = vec![
            ev(0, Op::Put { new_version: 1 }),
            ev(
                1,
                Op::PutVersioned {
                    read_version: 1,
                    new_version: 2,
                    clobbered: 0,
                },
            ),
            ev(
                2,
                Op::PutVersioned {
                    read_version: 1,
                    new_version: 3,
                    clobbered: 0, // a lying store
                },
            ),
        ];
        assert_eq!(count_lost_updates(&h), 1);
    }

    #[test]
    fn stale_read_fails_the_witness() {
        let h = vec![
            ev(0, Op::Put { new_version: 1 }),
            ev(1, Op::Put { new_version: 2 }),
            ev(2, Op::Get { version: 1 }),
        ];
        let err = check_sequential(&h).unwrap_err();
        assert!(err.contains("observed version 1"), "got: {err}");
    }

    #[test]
    fn keys_are_checked_independently() {
        let h = vec![
            HistoryEvent {
                seq: 0,
                key: "a".into(),
                op: Op::Put { new_version: 1 },
            },
            HistoryEvent {
                seq: 1,
                key: "b".into(),
                op: Op::Put { new_version: 1 },
            },
            HistoryEvent {
                seq: 2,
                key: "a".into(),
                op: Op::Transact {
                    read_version: 1,
                    new_version: 2,
                },
            },
        ];
        check_sequential(&h).unwrap();
    }
}
