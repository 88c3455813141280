//! # vc-kvstore
//!
//! The parameter-store substrate of §III-D / §IV-D of the paper: multiple
//! parameter servers sharing one copy of the server parameters through a
//! key-value database.
//!
//! The paper compares two real systems:
//!
//! * **Redis** — a main-memory, *eventually consistent* store. Fast
//!   (0.87 s per parameter-update transaction at their scale) but concurrent
//!   read-modify-write cycles can overwrite each other: some client updates
//!   are silently lost. The paper accepts this, citing prior work that SGD
//!   tolerates lost updates.
//! * **MySQL** — a *strongly consistent* store holding the parameter blob in
//!   a LONGBLOB column. Updates serialize (1.29 s each, 1.5× slower), so it
//!   scales worse as parameter servers are added.
//!
//! This crate rebuilds both semantics over one in-memory engine:
//!
//! * [`VersionedStore`] — a thread-safe, versioned blob store. Strong mode
//!   is the [`VersionedStore::transact`] path (serialized read-modify-write
//!   under a per-key lock); eventual mode is the `get` → compute →
//!   [`VersionedStore::put_versioned`] path, which is last-write-wins and
//!   *counts the updates it clobbers* so experiments can report lost-update
//!   rates.
//! * [`LatencyModel`] — the per-operation costs charged against simulated
//!   time, calibrated to the paper's measurements and scaled by blob size.

pub mod history;
pub mod latency;
pub mod store;

pub use history::{check_sequential, count_lost_updates, HistoryEvent, Op};
pub use latency::LatencyModel;
pub use store::{
    Consistency, StoreOps, VersionedStore, WriteOutcome, STORE_LOST_UPDATES, STORE_READS,
    STORE_READ_S, STORE_STALENESS_VERSIONS, STORE_TRANSACTIONS, STORE_TRANSACT_S, STORE_WRITES,
    STORE_WRITE_S,
};
