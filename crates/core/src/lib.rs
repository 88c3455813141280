//! # vc-asgd
//!
//! **The paper's primary contribution**: VC-ASGD, an asynchronous parameter-
//! update scheme for distributed deep-learning training on volunteer-
//! computing-like fleets, together with the training-job driver that runs it
//! over the workspace's substrates.
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
//! ## The driver ([`job`])
//!
//! [`job::TrainingJob`] wires every substrate together: the synthetic
//! dataset is sharded by the work generator, the BOINC-like middleware
//! schedules subtasks onto a simulated heterogeneous fleet, clients train
//! *real* models (one per subtask, in parallel), results are validated and
//! assimilated through a strong- or eventually-consistent parameter store,
//! and a discrete-event clock advances through downloads, training,
//! uploads, timeouts, preemptions and assimilation queueing. The output is
//! the per-epoch `(simulated time, validation accuracy mean/min/max)`
//! series that the paper's Figures 2–6 plot.

pub mod alpha;
pub mod assimilator;
pub mod client;
pub mod config;
pub mod job;
pub mod report;

pub use alpha::AlphaSchedule;
pub use assimilator::VcAsgdAssimilator;
pub use client::{result_is_valid, train_client_replica_ws, warm_start_params};
pub use config::{FleetKind, JobConfig};
pub use job::TrainingJob;
pub use report::{EpochStats, JobReport};
