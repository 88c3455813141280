//! The [`OpsHub`]: one shared handle behind every ops endpoint.
//!
//! The hub owns the run's [`Telemetry`] handle plus the most recently
//! published [`StatusSnapshot`], and answers every endpoint as a pure
//! in-memory call ([`OpsHub::handle`]). The HTTP server is a thin socket
//! front-end over exactly this router; the DST calls it directly, so the
//! bytes a live scrape would return are deterministic under the virtual
//! clock and golden-testable without ever opening a socket.

use parking_lot::Mutex;
use vc_telemetry::{chrome_trace_json, Telemetry};

use crate::status::StatusSnapshot;

/// One HTTP-shaped response: status code, content type, body. Produced by
/// the in-memory router and serialized onto sockets by the HTTP server.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// HTTP status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, msg: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{msg}\n").into_bytes(),
        }
    }

    /// The canonical reason phrase for this response's status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// The shared ops state: telemetry plus the last published status
/// snapshot. Cloned across the coordinator (publisher) and the HTTP
/// worker threads (readers); all methods are lock-cheap and never block
/// on training-path work.
pub struct OpsHub {
    tel: Telemetry,
    status: Mutex<StatusSnapshot>,
}

impl OpsHub {
    /// A hub over the run's telemetry handle, with an empty status until
    /// the first publish.
    pub fn new(tel: Telemetry) -> Self {
        OpsHub {
            tel,
            status: Mutex::new(StatusSnapshot::default()),
        }
    }

    /// The underlying telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Replaces the published status snapshot. The coordinator calls this
    /// once per event-loop beat (threaded) or per tick (DST).
    pub fn publish(&self, snap: StatusSnapshot) {
        *self.status.lock() = snap;
    }

    /// A copy of the last published status snapshot.
    pub fn status(&self) -> StatusSnapshot {
        self.status.lock().clone()
    }

    /// `GET /metrics`: the Prometheus text exposition.
    fn metrics_text(&self) -> String {
        self.tel.registry().render_prometheus()
    }

    /// `GET /status`: the last published snapshot as JSON.
    fn status_json(&self) -> String {
        self.status().to_json()
    }

    /// `GET /events`: the flight-recorder tail as JSONL, oldest first.
    /// Events are copied out under the recorder lock and serialized
    /// outside it, so a slow scrape never stalls recording threads.
    fn events_jsonl(&self) -> String {
        let events = self.tel.recorder().events();
        let mut out = String::with_capacity(events.len() * 96);
        for ev in &events {
            out.push_str(&serde_json::to_string(ev).expect("event serialization is infallible"));
            out.push('\n');
        }
        out
    }

    /// `GET /trace`: the flight recorder as Chrome `trace_event` JSON,
    /// loadable in `chrome://tracing` / Perfetto.
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.tel.recorder().events())
    }

    /// Routes one request path to its endpoint. This is the single
    /// routing function: the HTTP server calls it per request, and the
    /// DST calls it directly for deterministic in-memory snapshots. The
    /// query string (if any) is ignored.
    pub fn handle(&self, path: &str) -> Response {
        let path = path.split('?').next().unwrap_or(path);
        match path {
            "/" | "/index.html" => {
                Response::ok("text/html; charset=utf-8", crate::dashboard::DASHBOARD_HTML)
            }
            "/metrics" => Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics_text(),
            ),
            "/status" => Response::ok("application/json", self.status_json()),
            "/events" => Response::ok("application/x-ndjson", self.events_jsonl()),
            "/trace" => Response::ok("application/json", self.trace_json()),
            "/healthz" => Response::ok("text/plain; charset=utf-8", "ok\n"),
            _ => Response::error(404, "not found"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_telemetry::Level;

    fn hub() -> OpsHub {
        let tel = Telemetry::with_echo(64, None);
        tel.registry().counter("vc_test_total").add(2);
        tel.event_at(1.0, Level::Info, "boot", vec![("seed", 7_u64.into())]);
        OpsHub::new(tel)
    }

    #[test]
    fn routes_every_endpoint() {
        let h = hub();
        assert_eq!(h.handle("/healthz").status, 200);
        assert_eq!(h.handle("/healthz").body, b"ok\n");

        let dash = h.handle("/");
        assert_eq!(dash.status, 200);
        assert!(dash.content_type.starts_with("text/html"));
        let html = String::from_utf8(dash.body).unwrap();
        assert!(html.contains("/status"), "dashboard polls /status");

        let metrics = h.handle("/metrics");
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("vc_test_total 2"), "{text}");
        assert!(text.contains("# TYPE vc_test_total counter"), "{text}");

        let events = h.handle("/events");
        assert_eq!(events.status, 200);
        let jsonl = String::from_utf8(events.body).unwrap();
        let ev: vc_telemetry::Event = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(ev.name, "boot");

        let trace = h.handle("/trace");
        let tj = String::from_utf8(trace.body).unwrap();
        assert!(tj.starts_with("{\"displayTimeUnit\""), "{tj}");

        assert_eq!(h.handle("/nope").status, 404);
        assert_eq!(h.handle("/metrics/deeper").status, 404);
    }

    #[test]
    fn status_serves_last_published_snapshot_and_ignores_query() {
        let h = hub();
        let before = h.handle("/status");
        let snap: StatusSnapshot =
            serde_json::from_str(&String::from_utf8(before.body).unwrap()).unwrap();
        assert_eq!(snap, StatusSnapshot::default(), "empty until first publish");

        let published = StatusSnapshot {
            t_s: 4.0,
            label: "job p10".to_string(),
            epochs_done: 2,
            epochs_total: 3,
            queue_depth: 5,
            ..StatusSnapshot::default()
        };
        h.publish(published.clone());
        let after = h.handle("/status?poll=1");
        let snap: StatusSnapshot =
            serde_json::from_str(&String::from_utf8(after.body).unwrap()).unwrap();
        assert_eq!(snap, published);
    }

    #[test]
    fn repeated_handles_are_byte_identical_when_state_is_quiescent() {
        let h = hub();
        for path in ["/", "/metrics", "/status", "/events", "/trace", "/healthz"] {
            assert_eq!(h.handle(path), h.handle(path), "{path} must be pure");
        }
    }
}
