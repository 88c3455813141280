//! Causal workunit tracing: dispatch → fetch → train → upload →
//! validate → assimilate spans, plus a Chrome `trace_event` exporter.
//!
//! A *trace* is the life of one workunit; its `trace` id is the workunit
//! id, stable across every stage and every replication attempt. Each
//! stage emits one `trace_span` event into the flight recorder carrying
//! `trace`, a derived `span` id, the `stage` name, the `host` that did
//! the work, and the stage duration — and feeds a per-stage latency
//! histogram (`trace_<stage>_s`). Emission is gated by
//! [`Telemetry::tracing`], which defaults to off, so uninstrumented runs
//! record byte-identical flight-recorder output (the DST golden-bit
//! suites prove this).
//!
//! [`chrome_trace_json`] converts a recorded event stream into the
//! Chrome `trace_event` JSON format: `trace_span` events become complete
//! (`"ph":"X"`) slices on a per-workunit track, everything else becomes
//! a global instant, so any run — including a failing DST seed — opens
//! as a waterfall in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use crate::event::{Event, FieldValue, Level, Telemetry};
use crate::metrics::Histogram;

/// The event name every stage span is recorded under.
pub const TRACE_SPAN: &str = "trace_span";

/// One stage in a workunit's life, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceStage {
    /// Server hands the workunit to a host (`dur_s` = time spent queued).
    Dispatch,
    /// Worker syncs stale parameter shards from the PS.
    Fetch,
    /// Worker trains its replica on the shard.
    Train,
    /// Result travels worker → server (delay line / network).
    Upload,
    /// Server-side validation / quorum decision on a reported result.
    Validate,
    /// Accepted result merged into the global model.
    Assimilate,
}

impl TraceStage {
    /// All stages, causal order.
    pub const ALL: [TraceStage; 6] = [
        TraceStage::Dispatch,
        TraceStage::Fetch,
        TraceStage::Train,
        TraceStage::Upload,
        TraceStage::Validate,
        TraceStage::Assimilate,
    ];

    /// The canonical lowercase stage name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceStage::Dispatch => "dispatch",
            TraceStage::Fetch => "fetch",
            TraceStage::Train => "train",
            TraceStage::Upload => "upload",
            TraceStage::Validate => "validate",
            TraceStage::Assimilate => "assimilate",
        }
    }

    /// The per-stage latency histogram name (`trace_<stage>_s`).
    fn histogram_name(self) -> &'static str {
        match self {
            TraceStage::Dispatch => "trace_dispatch_s",
            TraceStage::Fetch => "trace_fetch_s",
            TraceStage::Train => "trace_train_s",
            TraceStage::Upload => "trace_upload_s",
            TraceStage::Validate => "trace_validate_s",
            TraceStage::Assimilate => "trace_assimilate_s",
        }
    }
}

/// FNV-1a 64-bit — the workspace's standing fingerprint hash: span ids
/// here, checkpoint digests in `vc-runtime`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derives the span id for one stage emission: a pure function of
/// (trace, stage, host, end-time bits), so replayed DST runs produce
/// identical ids.
fn span_id(trace: u64, stage: TraceStage, host: u64, t_end_s: f64) -> u64 {
    let mut buf = [0u8; 25];
    buf[..8].copy_from_slice(&trace.to_le_bytes());
    buf[8..16].copy_from_slice(&host.to_le_bytes());
    buf[16..24].copy_from_slice(&t_end_s.to_bits().to_le_bytes());
    buf[24] = stage as u8;
    fnv1a(&buf)
}

impl Telemetry {
    /// Records one stage span for workunit `trace`, ending at `t_end_s`
    /// with duration `dur_s`, executed by `host`. Extra fields (attempt,
    /// outcome, epoch, …) ride along. No-op unless tracing is enabled —
    /// callers on hot paths should additionally guard on
    /// [`Telemetry::tracing`] to skip building `extra`.
    pub fn trace_span(
        &self,
        t_end_s: f64,
        stage: TraceStage,
        trace: u64,
        host: u64,
        dur_s: f64,
        extra: Vec<(&str, FieldValue)>,
    ) {
        if !self.tracing() {
            return;
        }
        self.registry()
            .histogram_with(stage.histogram_name(), Histogram::latency_bounds)
            .observe(dur_s);
        let mut fields: Vec<(String, FieldValue)> = Vec::with_capacity(5 + extra.len());
        fields.push(("trace".to_string(), FieldValue::U64(trace)));
        fields.push((
            "span".to_string(),
            FieldValue::U64(span_id(trace, stage, host, t_end_s)),
        ));
        fields.push((
            "stage".to_string(),
            FieldValue::Str(stage.as_str().to_string()),
        ));
        fields.push(("host".to_string(), FieldValue::U64(host)));
        fields.push(("dur_s".to_string(), FieldValue::F64(dur_s)));
        for (k, v) in extra {
            fields.push((k.to_string(), v));
        }
        self.emit(Event {
            t_s: t_end_s,
            level: Level::Trace,
            name: TRACE_SPAN.to_string(),
            fields,
        });
    }
}

// ------------------------------------------------- Chrome trace exporter

/// Escapes a string for embedding in a JSON string literal. The vendored
/// serde_json shim has no `Value` type, so the exporter builds its JSON
/// by hand.
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number (non-finite values, which JSON
/// cannot represent, degrade to 0).
fn num(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` prints integral floats without a fraction; that is still
        // valid JSON, so leave it.
    } else {
        out.push('0');
    }
}

fn field_json(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(f) => num(*f, out),
        FieldValue::Str(s) => {
            out.push('"');
            esc(s, out);
            out.push('"');
        }
    }
}

fn args_json(ev: &Event, out: &mut String) {
    out.push('{');
    let mut first = true;
    for (k, v) in &ev.fields {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        esc(k, out);
        out.push_str("\":");
        field_json(v, out);
    }
    out.push('}');
}

fn field_u64(ev: &Event, key: &str) -> Option<u64> {
    match ev.field(key) {
        Some(FieldValue::U64(n)) => Some(*n),
        _ => None,
    }
}

fn field_f64(ev: &Event, key: &str) -> Option<f64> {
    match ev.field(key) {
        Some(FieldValue::F64(f)) => Some(*f),
        Some(FieldValue::U64(n)) => Some(*n as f64),
        _ => None,
    }
}

/// Converts a recorded event stream to Chrome `trace_event` JSON.
///
/// `trace_span` events become complete (`"ph":"X"`) slices: one track
/// (`tid`) per workunit, slice start `= t_s − dur_s`, duration from the
/// span — so a workunit's dispatch → fetch → train → upload → validate →
/// assimilate chain reads as a waterfall. Every other event becomes a
/// global instant (`"ph":"i"`) on track 0, preserving kills, respawns,
/// quorum decisions, and checkpoint markers as context lines.
///
/// The output loads directly in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        if ev.name == TRACE_SPAN {
            let dur_s = field_f64(ev, "dur_s").unwrap_or(0.0).max(0.0);
            let tid = field_u64(ev, "trace").unwrap_or(0);
            let stage = match ev.field("stage") {
                Some(FieldValue::Str(s)) => s.as_str(),
                _ => "span",
            };
            out.push_str("{\"name\":\"");
            esc(stage, &mut out);
            out.push_str("\",\"cat\":\"wu\",\"ph\":\"X\",\"ts\":");
            num((ev.t_s - dur_s) * 1e6, &mut out);
            out.push_str(",\"dur\":");
            num(dur_s * 1e6, &mut out);
            out.push_str(&format!(",\"pid\":1,\"tid\":{tid},\"args\":"));
            args_json(ev, &mut out);
            out.push('}');
        } else {
            out.push_str("{\"name\":\"");
            esc(&ev.name, &mut out);
            out.push_str("\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
            num(ev.t_s * 1e6, &mut out);
            out.push_str(",\"pid\":1,\"tid\":0,\"args\":");
            args_json(ev, &mut out);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_is_off_by_default_and_gates_emission() {
        let tel = Telemetry::with_echo(32, None);
        assert!(!tel.tracing());
        tel.trace_span(1.0, TraceStage::Train, 7, 3, 0.5, vec![]);
        assert!(
            tel.recorder().events().is_empty(),
            "disabled tracing emits nothing"
        );
        assert!(
            tel.registry().snapshot().histograms.is_empty(),
            "disabled tracing registers no histograms"
        );

        tel.set_tracing(true);
        tel.trace_span(
            1.0,
            TraceStage::Train,
            7,
            3,
            0.5,
            vec![("epoch", 2_u64.into())],
        );
        let evs = tel.recorder().events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, TRACE_SPAN);
        assert_eq!(evs[0].field("trace"), Some(&FieldValue::U64(7)));
        assert_eq!(
            evs[0].field("stage"),
            Some(&FieldValue::Str("train".to_string()))
        );
        assert_eq!(evs[0].field("host"), Some(&FieldValue::U64(3)));
        assert_eq!(evs[0].field("dur_s"), Some(&FieldValue::F64(0.5)));
        assert_eq!(evs[0].field("epoch"), Some(&FieldValue::U64(2)));
        assert_eq!(
            tel.registry().histogram("trace_train_s").snapshot().count,
            1
        );
    }

    #[test]
    fn span_ids_are_deterministic_and_distinguish_stages() {
        let a = span_id(7, TraceStage::Train, 3, 1.5);
        assert_eq!(a, span_id(7, TraceStage::Train, 3, 1.5));
        assert_ne!(a, span_id(7, TraceStage::Fetch, 3, 1.5));
        assert_ne!(a, span_id(8, TraceStage::Train, 3, 1.5));
        assert_ne!(a, span_id(7, TraceStage::Train, 4, 1.5));
        assert_ne!(a, span_id(7, TraceStage::Train, 3, 1.6));
    }

    #[test]
    fn chrome_export_renders_slices_and_instants() {
        let tel = Telemetry::with_echo(32, None);
        tel.set_tracing(true);
        tel.trace_span(2.0, TraceStage::Train, 9, 1, 0.5, vec![]);
        tel.event_at(
            2.5,
            Level::Info,
            "worker_kill",
            vec![("host", 1_u64.into())],
        );
        let json = chrome_trace_json(&tel.recorder().events());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // The span: a complete slice on the workunit's track, starting at
        // t_end − dur = 1.5 s = 1 500 000 µs, lasting 500 000 µs.
        assert!(json.contains("\"name\":\"train\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1500000"), "{json}");
        assert!(json.contains("\"dur\":500000"), "{json}");
        assert!(json.contains("\"tid\":9"), "{json}");
        // The kill: a global instant.
        assert!(json.contains("\"name\":\"worker_kill\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ts\":2500000"), "{json}");
    }

    #[test]
    fn chrome_export_escapes_hostile_strings() {
        let ev = Event {
            t_s: 1.0,
            level: Level::Info,
            name: "we\"ird\\name\n".to_string(),
            fields: vec![(
                "msg".to_string(),
                FieldValue::Str("quote\" slash\\ ctrl\u{1}".to_string()),
            )],
        };
        let json = chrome_trace_json(&[ev]);
        assert!(json.contains("we\\\"ird\\\\name\\n"), "{json}");
        assert!(json.contains("quote\\\" slash\\\\ ctrl\\u0001"), "{json}");
    }

    #[test]
    fn chrome_export_handles_non_finite_and_missing_fields() {
        let ev = Event {
            t_s: f64::NAN,
            level: Level::Trace,
            name: TRACE_SPAN.to_string(),
            fields: vec![("x".to_string(), FieldValue::F64(f64::INFINITY))],
        };
        let json = chrome_trace_json(&[ev]);
        assert!(!json.contains("NaN"), "{json}");
        assert!(!json.contains("inf"), "{json}");
    }
}
