//! # vc-simnet
//!
//! Discrete-event simulation of a volunteer-computing-like fleet: the
//! substrate that stands in for the paper's AWS testbed.
//!
//! The paper's evaluation plots accuracy against *wall-clock training time*
//! on a fleet of heterogeneous cloud instances (Table I), with WAN latency
//! and preemptible-instance terminations. Reproducing those axes without
//! the testbed requires simulating time while computing accuracy for real:
//!
//! * [`SimTime`]/[`EventQueue`] — a deterministic discrete-event core, over
//!   [`DelayQueue`]: the workspace's one `(key, insertion order)` min-queue,
//!   which the middleware's deadline timers, the DST step scheduler and the
//!   threaded runtime's delay line key by their own notion of "when".
//! * [`InstanceSpec`]/[`table1`] — the paper's instance catalog with vCPU,
//!   clock, RAM, bandwidth and AWS-calibrated prices.
//! * [`ComputeModel`] — client subtask service times under concurrency
//!   (vertical scaling, §IV-B) and server assimilation times under multiple
//!   parameter servers, including the saturation effects the paper reports
//!   ("client throughput decreases after T8, server throughput after P5").
//! * [`NetworkModel`] — bandwidth-based transfer times for model/parameter/
//!   shard files plus lognormal WAN jitter (variable network latency,
//!   §III-B).
//! * [`PreemptionModel`] — Bernoulli-per-subtask and exponential-lifetime
//!   instance terminations (§IV-E).
//!
//! The middleware and the VC-ASGD driver schedule *real* training
//! computations at simulated completion times, so asynchrony, staleness and
//! assimilation order are faithful to the modelled fleet.

pub mod compute;
pub mod event;
pub mod network;
pub mod preempt;
pub mod queue;
pub mod specs;
pub mod time;

pub use compute::ComputeModel;
pub use event::EventQueue;
pub use network::NetworkModel;
pub use preempt::PreemptionModel;
pub use queue::DelayQueue;
pub use specs::{generated_fleet, table1, InstanceSpec};
pub use time::SimTime;
