//! # vc-asgd
//!
//! **The paper's primary contribution**: VC-ASGD, an asynchronous parameter-
//! update scheme for distributed deep-learning training on volunteer-
//! computing-like fleets — the scheme's own pieces, with no driver and no
//! parameter-server path of its own.
//!
//! ## The scheme (§III-C)
//!
//! The parameter server assimilates each arriving client result immediately,
//! in arrival order, with the recursive blend of Eq. (1):
//!
//! ```text
//! W_s ← α·W_s + (1 − α)·W_c,j
//! ```
//!
//! It never waits for stragglers, so the scheme is fault tolerant: a lost or
//! late subtask simply contributes nothing until the middleware re-issues
//! it. Unrolling Eq. (1) over the `n_t` subtasks of an epoch yields Eq. (2),
//! which [`alpha`] and the property tests verify against the implementation.
//! α may vary per epoch ([`alpha::AlphaSchedule`]); the paper's "Var"
//! schedule is `α_e = e/(e+1)`.
//!
//! ## What lives here
//!
//! [`alpha`] is the blend and its schedules, [`client`] the one client-side
//! compute step every driver runs, [`config`] the job description and
//! [`report`] the per-epoch series the paper's figures plot. Eq. (1) over
//! the versioned store is `vc_ps::ShardedAssimilator`; the three drivers of
//! the epoch protocol (discrete-event, deterministic simulation, threads)
//! are `vc_runtime::{des, sim, Runtime}`.

pub mod alpha;
pub mod client;
pub mod config;
pub mod report;

pub use alpha::AlphaSchedule;
/// The old name, which the frozen `benchmark/src/probes.rs` imports.
#[doc(hidden)]
pub use client::train_client_replica as train_client_replica_ws;
pub use client::{result_is_valid, train_client_replica};
pub use config::{FleetKind, JobConfig};
pub use report::{EpochStats, JobReport};
