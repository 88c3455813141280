//! Observability is perturbation-free, and its payloads are deterministic.
//!
//! Three claims:
//!
//! 1. **Golden-bit regression** — enabling causal workunit tracing *and*
//!    the in-memory ops hub leaves every pinned pre-rewrite chaos
//!    trajectory (`common::goldens`) bitwise unchanged: per-epoch accuracy
//!    bits, final accuracy bits, and the FNV-1a of the report JSON all
//!    match the untraced goldens. Observation must not steer the system.
//!    (The flight-recorder JSONL legitimately *gains* `trace_span` lines,
//!    so its hash is exempt — instead we assert the spans are there.)
//!
//! 2. **Deterministic ops payloads** — replaying a traced chaos seed
//!    produces byte-identical `/status`, `/events` and `/trace` bodies
//!    through the same `OpsHub::handle` router a live HTTP scrape hits.
//!
//! 3. **Chrome trace export** — a failing-grade DST chaos seed exports a
//!    `trace_event` JSON whose slices cover the dispatch → fetch → train →
//!    upload → validate → assimilate chain, loadable in `chrome://tracing`
//!    / Perfetto.
//!
//! 4. **One source per count** — a chaos seed's `/metrics` exposition
//!    carries exactly the store, parameter-service and fault counts its
//!    report serialises: both read the same registry counters.

mod common;

use common::{goldens, make};
use std::collections::HashMap;
use vc_kvstore::{STORE_LOST_UPDATES, STORE_WRITES};
use vc_ps::service::{PS_BYTES_TX, PS_FETCHES};
use vc_runtime::{run_scenario, DELAY_LINE_DELAY_S, WORKER_KILLS, WORKER_RESPAWNS};
use vc_telemetry::{fnv1a, Event, TraceStage, TRACE_SPAN};

/// All six causal stages, as they appear in the `stage` field of
/// `trace_span` events.
const STAGES: [&str; 6] = [
    "dispatch",
    "fetch",
    "train",
    "upload",
    "validate",
    "assimilate",
];

fn stage_of(ev: &Event) -> Option<String> {
    ev.fields.iter().find_map(|(k, v)| {
        (k == "stage").then(|| match v {
            vc_telemetry::FieldValue::Str(s) => s.clone(),
            other => panic!("stage field is a string, got {other:?}"),
        })
    })
}

/// Satellite: tracing + ops snapshots leave all eleven pre-rewrite chaos
/// trajectories bitwise unchanged.
#[test]
fn tracing_and_ops_leave_golden_trajectories_bitwise_unchanged() {
    for (name, seed, epoch_bits, val_bits, test_bits, report_hash, _trace_hash) in goldens() {
        let out = run_scenario(&make(name, seed).tracing(true).ops(true))
            .expect("golden scenario runs traced");
        let got_epochs: Vec<u32> = out
            .report
            .epochs
            .iter()
            .map(|e| e.mean_val_acc.to_bits())
            .collect();
        assert_eq!(
            got_epochs, epoch_bits,
            "{name} seed {seed}: tracing perturbed per-epoch accuracy bits"
        );
        assert_eq!(
            out.report.final_val_acc.to_bits(),
            val_bits,
            "{name} seed {seed}: tracing perturbed final val accuracy bits"
        );
        assert_eq!(
            out.report.final_test_acc.to_bits(),
            test_bits,
            "{name} seed {seed}: tracing perturbed final test accuracy bits"
        );
        assert_eq!(
            fnv1a(out.report_json().as_bytes()),
            report_hash,
            "{name} seed {seed}: tracing leaked into the report JSON"
        );
        // The observability itself must actually be on: spans recorded,
        // status published.
        let spans = out
            .telemetry
            .recorder()
            .events()
            .iter()
            .filter(|ev| ev.name == TRACE_SPAN)
            .count();
        assert!(spans > 0, "{name} seed {seed}: no trace spans recorded");
        let hub = out.ops.as_ref().expect("scenario attached an ops hub");
        let status = hub.status();
        assert!(status.done, "finalize publishes done=true");
        assert_eq!(
            status.epochs_done as usize,
            out.report.epochs.len(),
            "{name} seed {seed}: status disagrees with the report"
        );
        let assimilated: u64 = out.report.epochs.iter().map(|e| e.assimilated as u64).sum();
        assert!(
            status.assimilations >= assimilated,
            "{name} seed {seed}: status missed assimilations"
        );
    }
}

/// Untraced runs record zero trace spans — the gate actually gates.
#[test]
fn untraced_runs_record_no_spans() {
    let out = run_scenario(&make("storm", 0)).unwrap();
    assert!(
        out.telemetry
            .recorder()
            .events()
            .iter()
            .all(|ev| ev.name != TRACE_SPAN),
        "tracing is opt-in"
    );
    assert!(out.ops.is_none(), "no hub unless asked for");
}

/// Replaying a traced chaos seed serves byte-identical ops payloads
/// through the same router a live HTTP scrape would hit.
#[test]
fn ops_payloads_are_byte_identical_across_replays() {
    let sc = || make("delay_storm", 1).tracing(true).ops(true);
    let a = run_scenario(&sc()).unwrap();
    let b = run_scenario(&sc()).unwrap();
    let ha = a.ops.as_ref().unwrap();
    let hb = b.ops.as_ref().unwrap();
    for path in ["/status", "/events", "/trace", "/metrics", "/healthz"] {
        let ra = ha.handle(path);
        let rb = hb.handle(path);
        assert_eq!(ra.status, 200, "{path}");
        assert_eq!(
            ra.body, rb.body,
            "{path}: replayed payload is not byte-identical"
        );
    }
}

/// The Chrome `trace_event` export of a chaos seed covers the full causal
/// chain — the artifact a failing DST seed drops for Perfetto.
#[test]
fn chrome_trace_export_covers_the_causal_chain() {
    let out = run_scenario(&make("byz_poison", 1).tracing(true).ops(true)).unwrap();
    let events = out.telemetry.recorder().events();

    // Every stage appears among the recorded spans…
    let mut seen: Vec<String> = events
        .iter()
        .filter(|ev| ev.name == TRACE_SPAN)
        .filter_map(stage_of)
        .collect();
    seen.sort();
    seen.dedup();
    for stage in STAGES {
        assert!(
            seen.iter().any(|s| s == stage),
            "stage {stage} missing from the trace (saw {seen:?})"
        );
    }
    // …and per-stage latency histograms were fed.
    let reg = out.telemetry.registry().snapshot();
    for stage in TraceStage::ALL {
        let name = format!("trace_{}_s", stage.as_str());
        let hist = reg
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("histogram {name} missing"));
        assert!(hist.histogram.count > 0, "histogram {name} never observed");
    }

    // The export is well-formed trace_event JSON: complete ("X") slices
    // with microsecond timestamps, one thread lane per workunit.
    let tj = out.ops.as_ref().unwrap().handle("/trace");
    assert_eq!(tj.status, 200);
    let json = String::from_utf8(tj.body).unwrap();
    assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "no duration slices");
    assert!(
        json.contains("\"name\":\"assimilate\""),
        "no assimilate slice"
    );
    assert!(json.contains("\"name\":\"dispatch\""), "no dispatch slice");
    assert!(
        json.ends_with("]}\n") || json.ends_with("]}"),
        "{}",
        &json[json.len().saturating_sub(40)..]
    );
}

/// `/metrics` and the report count each event once, in one place: under
/// kills, respawns and a delay line, every exported counter equals its
/// report field, and `delayed_msgs` is the drawn-delay histogram's count.
#[test]
fn metrics_exposition_equals_the_report() {
    let out = run_scenario(&make("delay_storm", 1).ops(true)).unwrap();
    let r = &out.report;
    assert!(
        r.kills > 0 && r.respawns > 0 && r.delayed_msgs > 0,
        "chaos fired"
    );
    let body = out.ops.as_ref().unwrap().handle("/metrics").body;
    let text = String::from_utf8(body).unwrap();
    let series: HashMap<&str, u64> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, v)| Some((name, v.parse().ok()?)))
        .collect();
    let delay_count = format!("{DELAY_LINE_DELAY_S}_count");
    let expected = [
        (STORE_LOST_UPDATES, r.store_ops.lost_updates),
        (STORE_WRITES, r.store_ops.writes),
        (PS_FETCHES, r.ps_ops.fetches),
        (PS_BYTES_TX, r.ps_ops.bytes_tx),
        (WORKER_KILLS, r.kills),
        (WORKER_RESPAWNS, r.respawns),
        (delay_count.as_str(), r.delayed_msgs),
    ];
    for (name, value) in expected {
        assert_eq!(series.get(name), Some(&value), "/metrics {name}");
    }
}
