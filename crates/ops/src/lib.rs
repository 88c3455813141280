//! # vc-ops
//!
//! The live operations surface for the vc-dl runtime: how a running
//! volunteer-computing job is *watched*, the way a production BOINC
//! project is. Std-only — no dependencies beyond the workspace's
//! vendored shims.
//!
//! Three layers:
//!
//! - [`OpsHub`] — the shared state behind every endpoint: the run's
//!   [`vc_telemetry::Telemetry`] handle plus the latest published
//!   [`StatusSnapshot`]. Its [`OpsHub::handle`] method is the single
//!   router; the DST calls it directly as a pure in-memory function, so
//!   every payload a live scrape would return is deterministic under the
//!   virtual clock.
//! - [`OpsServer`] — a tiny hostile-input-safe HTTP/1.1 server over
//!   `std::net` (one accept thread, a bounded connection queue, a fixed
//!   worker pool) that fronts the same router on a socket. The caller of
//!   a threaded run starts one on the hub it hands
//!   `vc_runtime::Runtime::with_ops_hub`; the runtime starts none.
//! - [`DASHBOARD_HTML`] — the self-contained single-file dashboard
//!   served at `/`, polling `/status` for fleet / queue / accuracy
//!   sparklines.
//!
//! Endpoints: `GET /` (dashboard), `/metrics` (Prometheus exposition),
//! `/status` (JSON snapshot), `/events` (flight-recorder JSONL),
//! `/trace` (Chrome `trace_event` JSON), `/healthz`.

pub mod dashboard;
pub mod http;
pub mod hub;
pub mod status;

pub use dashboard::DASHBOARD_HTML;
pub use http::OpsServer;
pub use hub::{OpsHub, Response};
pub use status::{FleetStatus, PsStatus, StatusSnapshot};
