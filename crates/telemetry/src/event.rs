//! Structured events and the shared [`Telemetry`] handle.
//!
//! An [`Event`] is a timestamped, levelled name plus `key=value` fields.
//! Events flow into two sinks: an optional stderr echo (gated by the
//! `VC_LOG` level filter) and the per-run [`FlightRecorder`] ring. The
//! timestamp comes from a pluggable [`TimeSource`] so the same call sites
//! emit wall-clock times on OS threads and virtual-clock times under
//! deterministic simulation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::metrics::Registry;
use crate::recorder::FlightRecorder;

/// Severity of an [`Event`]. Ordered from most to least severe, so an
/// event passes a threshold filter when `event.level <= threshold`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Unrecoverable or data-losing condition.
    Error,
    /// Something went wrong but the run continues (default echo level).
    Warn,
    /// Run milestones: epoch rollover, checkpoints, kills, respawns.
    Info,
    /// Per-workunit traffic: assignments, results, assimilations.
    Debug,
    /// High-volume details (per-store-op and finer).
    Trace,
}

impl Level {
    /// Parses `"error" | "warn" | "info" | "debug" | "trace"` (any case).
    /// Returns `None` for anything else.
    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed field value. Constructed via `From` so the `event!` macro
/// accepts bare literals of the common types.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (durations, accuracies).
    F64(f64),
    /// Free-form text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event: a timestamp in seconds (wall or virtual), a
/// level, a name, and ordered `key=value` fields.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Seconds since the run's time origin.
    pub t_s: f64,
    /// Severity.
    pub level: Level,
    /// Event name (e.g. `worker_kill`, `checkpoint_written`).
    pub name: String,
    /// Ordered fields; the vendored serde maps `(String, FieldValue)`
    /// pairs natively, so no map type is needed.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12.6}] {:5} {}", self.t_s, self.level, self.name)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Where timestamps come from. Implemented by the runtime's wall clock
/// and by the DST virtual clock, so recorder output is deterministic in
/// simulation.
pub trait TimeSource: Send + Sync {
    /// Seconds since the run's time origin.
    fn now_s(&self) -> f64;
}

/// The default [`TimeSource`] and the threaded runtime's one clock:
/// monotonic wall time since construction, plus a resume offset.
#[derive(Clone, Copy, Debug)]
pub struct WallTime {
    start: Instant,
    /// Seconds already on the clock at construction (non-zero when a run
    /// resumes from a checkpoint, so reported times stay cumulative).
    offset_s: f64,
}

impl WallTime {
    /// A wall-time source anchored at "now".
    pub fn new() -> Self {
        Self::resumed_at(0.0)
    }

    /// A wall-time source that already shows `offset_s` seconds.
    pub fn resumed_at(offset_s: f64) -> Self {
        assert!(
            offset_s.is_finite() && offset_s >= 0.0,
            "invalid clock offset {offset_s}"
        );
        WallTime {
            start: Instant::now(),
            offset_s,
        }
    }
}

impl Default for WallTime {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallTime {
    fn now_s(&self) -> f64 {
        self.offset_s + self.start.elapsed().as_secs_f64()
    }
}

/// Default flight-recorder capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 8192;

/// Reads `VC_LOG`: a level name enables echo at that level, `off` /
/// `none` / `0` disables it, anything else (or unset) yields `default`.
fn env_echo(default: Option<Level>) -> Option<Level> {
    match std::env::var("VC_LOG") {
        Ok(s) => {
            let s = s.trim().to_ascii_lowercase();
            if matches!(s.as_str(), "off" | "none" | "0") {
                None
            } else {
                Level::parse(&s).or(default)
            }
        }
        Err(_) => default,
    }
}

struct Inner {
    registry: Registry,
    recorder: FlightRecorder,
    echo: Option<Level>,
    tracing: AtomicBool,
    time: RwLock<Arc<dyn TimeSource>>,
}

/// The shared telemetry handle: one per run, cloned freely across
/// threads. Bundles the metrics [`Registry`], the [`FlightRecorder`],
/// the stderr echo filter, and the [`TimeSource`].
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// A telemetry handle with an explicit recorder capacity and echo
    /// threshold (`None` = no stderr echo). Ignores `VC_LOG`.
    pub fn with_echo(capacity: usize, echo: Option<Level>) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                recorder: FlightRecorder::new(capacity),
                echo,
                tracing: AtomicBool::new(false),
                time: RwLock::new(Arc::new(WallTime::new())),
            }),
        }
    }

    /// The production default: echo at `VC_LOG` if set, else `warn`.
    pub fn from_env() -> Self {
        Self::with_echo(DEFAULT_CAPACITY, env_echo(Some(Level::Warn)))
    }

    /// The test/DST default: echo only if `VC_LOG` explicitly asks for
    /// it, otherwise silent.
    pub fn silent() -> Self {
        Self::with_echo(DEFAULT_CAPACITY, env_echo(None))
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Replaces the time source (the DST harness installs its
    /// `VirtualClock` here).
    pub fn set_time_source(&self, time: Arc<dyn TimeSource>) {
        *self.inner.time.write() = time;
    }

    /// Current time in seconds from the active [`TimeSource`].
    pub fn now_s(&self) -> f64 {
        self.inner.time.read().now_s()
    }

    /// True when causal workunit tracing is enabled (off by default, so
    /// uninstrumented runs record byte-identical flight-recorder output).
    pub fn tracing(&self) -> bool {
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Enables or disables causal workunit tracing. Call sites guard
    /// their `trace_span` emissions on [`Telemetry::tracing`], so default
    /// runs pay one relaxed load and allocate nothing.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// Records an event timestamped from the active time source.
    pub fn event(&self, level: Level, name: &str, fields: Vec<(&str, FieldValue)>) {
        self.event_at(self.now_s(), level, name, fields);
    }

    /// Records an event with an explicit timestamp (used where the caller
    /// already holds the authoritative clock reading, e.g. the middleware
    /// server's `now` parameter).
    pub fn event_at(&self, t_s: f64, level: Level, name: &str, fields: Vec<(&str, FieldValue)>) {
        self.emit(Event {
            t_s,
            level,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    /// Records a fully-built event: echoes to stderr when the level
    /// passes the filter, then appends to the flight recorder.
    pub(crate) fn emit(&self, event: Event) {
        if let Some(threshold) = self.inner.echo {
            if event.level <= threshold {
                eprintln!("{event}");
            }
        }
        self.inner.recorder.record(event);
    }
}

/// Records a structured event on a [`Telemetry`] handle:
/// `event!(tel, Info, "worker_kill", host = 3_u64, life = 1_u64)`.
#[macro_export]
macro_rules! event {
    ($tel:expr, $lvl:ident, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $tel.event(
            $crate::Level::$lvl,
            $name,
            vec![$((stringify!($k), $crate::FieldValue::from($v))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("chatty"), None);
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
    }

    #[test]
    fn events_carry_typed_fields_and_roundtrip_json() {
        let tel = Telemetry::with_echo(16, None);
        tel.event(
            Level::Info,
            "worker_kill",
            vec![("host", 3_u64.into()), ("graceful", false.into())],
        );
        let evs = tel.recorder().events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "worker_kill");
        assert_eq!(evs[0].field("host"), Some(&FieldValue::U64(3)));
        assert_eq!(evs[0].field("graceful"), Some(&FieldValue::Bool(false)));
        assert_eq!(evs[0].field("missing"), None);

        let json = serde_json::to_string(&evs[0]).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, evs[0]);
    }

    #[test]
    fn explicit_time_source_drives_timestamps() {
        struct Fixed(f64);
        impl TimeSource for Fixed {
            fn now_s(&self) -> f64 {
                self.0
            }
        }
        let tel = Telemetry::with_echo(16, None);
        tel.set_time_source(Arc::new(Fixed(42.5)));
        assert_eq!(tel.now_s(), 42.5);
        tel.event(Level::Debug, "tick", vec![]);
        assert_eq!(tel.recorder().events()[0].t_s, 42.5);
        tel.event_at(7.0, Level::Debug, "explicit", vec![]);
        assert_eq!(tel.recorder().events()[1].t_s, 7.0);
    }

    #[test]
    fn clock_is_monotonic_and_measures_sleep() {
        let c = WallTime::new();
        let a = c.now_s();
        std::thread::sleep(std::time::Duration::from_millis(15));
        let b = c.now_s();
        assert!(b > a);
        assert!(b - a >= 0.014, "slept 15ms but clock shows {}", b - a);
    }

    #[test]
    fn resume_offset_shifts_readings() {
        let now = WallTime::resumed_at(100.0).now_s();
        assert!(now >= 100.0);
        assert!(now < 101.0, "the offset is where the reading starts");
    }

    #[test]
    fn display_is_human_readable() {
        let ev = Event {
            t_s: 1.5,
            level: Level::Warn,
            name: "wu_invalid".to_string(),
            fields: vec![("wu".to_string(), FieldValue::U64(4))],
        };
        let line = format!("{ev}");
        assert!(line.contains("warn"), "{line}");
        assert!(line.contains("wu_invalid wu=4"), "{line}");
    }
}
