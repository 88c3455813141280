//! # vc-middleware
//!
//! A BOINC-like volunteer-computing middleware, re-implemented in-process:
//! the substrate the paper builds its distributed trainer on (§II-C, §III).
//!
//! BOINC's server components map onto this crate as follows:
//!
//! | BOINC component | Here |
//! |---|---|
//! | work generator  | [`server::BoincServer::add_epoch_sharded`] (driven by the trainer's work generator) |
//! | scheduler       | [`server::BoincServer::request_work`] — slot-limited, reliability-aware, sticky-file-aware assignment |
//! | transitioner    | [`server::BoincServer::scan_timeouts`] — deadline tracking and reassignment |
//! | validator       | [`validate::Validator`] — result sanity checking before assimilation |
//! | assimilator     | downstream (the VC-ASGD parameter server in `vc-asgd`) |
//!
//! The middleware holds only control-plane state (who runs what, deadlines,
//! caches, reliability); payloads (parameter blobs, data shards) travel
//! through the driver, exactly as BOINC moves files through its web server
//! while the scheduler tracks workunit state.
//!
//! Time is the caller's: every entry point takes `now`, read from a
//! [`vc_telemetry::WallTime`] on threads or the [`VirtualClock`] under
//! simulation (the runtime reads either through its telemetry time
//! source). Assignment
//! deadlines wait in a [`TimerQueue`], which is the workspace's one
//! time-ordered queue ([`vc_simnet::DelayQueue`]) keyed by
//! `(deadline, assignment seq)`.

#[doc(hidden)]
mod bench_compat;
pub mod clock;
pub mod host;
pub mod server;
pub mod timer;
pub mod validate;
pub mod workunit;

#[doc(hidden)]
pub use bench_compat::WallClock;
pub use clock::VirtualClock;
pub use host::{HostCold, HostHot, HostId, HostSummary};
pub use server::{
    Assignment, BoincServer, MiddlewareConfig, ReportStatus, ServerMetrics, HOST_TURNAROUND_S,
    WU_DEADLINE_S,
};
pub use timer::{TimerEntry, TimerQueue};
pub use validate::{
    first_non_finite, BitwiseComparator, FiniteBlobValidator, ResultComparator,
    ToleranceComparator, ValidationVerdict, Validator,
};
pub use workunit::{ShardManifest, WorkUnit, WuId, WuPhase};
