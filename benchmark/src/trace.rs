//! Harness-side spans and the Chrome-trace export.
//!
//! The harness wraps every call it makes into the program — each
//! repetition, `Runtime::run`, each probe — in a span (name, start, end,
//! parent), keeps them in memory, and writes them out at exit merged with
//! the program's own `trace_span` events. One track per workunit: a parent
//! slice from creation to assimilation with the six stage slices inside
//! it, so a stage's self time and the workunit's unaccounted wait read
//! straight off the picture.

use crate::json::{compact, obj, s};
use crate::stats::Chain;
use serde::Content;
use std::collections::BTreeMap;
use std::time::Instant;
use vc_telemetry::{Event, FieldValue, TraceStage, TRACE_SPAN};

/// One harness span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory span recorder; ids are indices.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder was created (the trace's time origin).
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now_s();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.now_s();
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part of it its direct children cover
/// (children may overlap each other; covered time counts once).
pub fn self_time_s(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_s.max(me.start_s), c.end_s.min(me.end_s)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut edge = me.start_s;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    (me.end_s - me.start_s) - covered
}

fn field_f64(ev: &Event, key: &str) -> Option<f64> {
    match ev.field(key) {
        Some(FieldValue::F64(v)) => Some(*v),
        Some(FieldValue::U64(v)) => Some(*v as f64),
        _ => None,
    }
}

pub fn field_u64(ev: &Event, key: &str) -> Option<u64> {
    match ev.field(key) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    }
}

fn field_str<'a>(ev: &'a Event, key: &str) -> Option<&'a str> {
    match ev.field(key) {
        Some(FieldValue::Str(v)) => Some(v),
        _ => None,
    }
}

/// One program stage span, decoded from a `trace_span` event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageSpan {
    pub wu: u64,
    pub stage: usize,
    pub host: u64,
    pub end_s: f64,
    pub dur_s: f64,
    /// `validate` spans only: the quorum accepted this upload.
    pub accepted: bool,
}

pub fn stage_index(name: &str) -> Option<usize> {
    TraceStage::ALL.iter().position(|st| st.as_str() == name)
}

pub fn stage_spans(events: &[Event]) -> Vec<StageSpan> {
    events
        .iter()
        .filter(|e| e.name == TRACE_SPAN)
        .filter_map(|e| {
            Some(StageSpan {
                wu: field_u64(e, "trace")?,
                stage: stage_index(field_str(e, "stage")?)?,
                host: field_u64(e, "host")?,
                end_s: e.t_s,
                dur_s: field_f64(e, "dur_s")?,
                accepted: field_str(e, "outcome") == Some("accepted"),
            })
        })
        .collect()
}

/// Named intervals of a workunit's life that no stage span covers.
pub const GAP_NAMES: [&str; 3] = ["assign_to_fetch", "train_to_upload", "upload_to_validate"];

/// The winning chain of one workunit: the stage spans of the host whose
/// upload the quorum accepted, the workunit's life from creation to
/// assimilation, and the named gaps between consecutive stages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WuChain {
    pub wu: u64,
    pub chain: Chain,
    /// Creation time (winning hand-off minus its dispatch wait).
    pub created_s: f64,
    pub gaps: [f64; 3],
    pub winner: u64,
}

/// Builds the winning chain of every workunit that has all six stages.
pub fn wu_chains(spans: &[StageSpan]) -> Vec<WuChain> {
    let mut by_wu: BTreeMap<u64, Vec<&StageSpan>> = BTreeMap::new();
    for sp in spans {
        by_wu.entry(sp.wu).or_default().push(sp);
    }
    let mut out = Vec::new();
    for (wu, sps) in by_wu {
        let Some(verdict) = sps.iter().find(|sp| sp.stage == 4 && sp.accepted) else {
            continue;
        };
        let winner = verdict.host;
        // The winner's last span of each stage begun before the verdict (a
        // host re-issued the same workunit after a timeout has earlier
        // ones). Begun, not ended: the worker stamps its upload span after
        // the send returns, by when the coordinator may already have ruled.
        let pick = |stage: usize| {
            sps.iter()
                .filter(|sp| {
                    sp.stage == stage && sp.host == winner && sp.end_s - sp.dur_s <= verdict.end_s
                })
                .max_by(|a, b| a.end_s.total_cmp(&b.end_s))
        };
        let (Some(dispatch), Some(fetch), Some(train), Some(upload)) =
            (pick(0), pick(1), pick(2), pick(3))
        else {
            continue;
        };
        let Some(assim) = sps.iter().find(|sp| sp.stage == 5) else {
            continue;
        };
        let created_s = dispatch.end_s - dispatch.dur_s;
        let start = |sp: &StageSpan| sp.end_s - sp.dur_s;
        out.push(WuChain {
            wu,
            chain: Chain {
                stages: [
                    dispatch.dur_s,
                    fetch.dur_s,
                    train.dur_s,
                    upload.dur_s,
                    verdict.dur_s,
                    assim.dur_s,
                ],
                life_s: assim.end_s - created_s,
            },
            created_s,
            gaps: [
                (start(fetch) - dispatch.end_s).max(0.0),
                (start(upload) - train.end_s).max(0.0),
                (verdict.end_s - upload.end_s).max(0.0),
            ],
            winner,
        });
    }
    out
}

fn slice(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    start_s: f64,
    dur_s: f64,
    args: Content,
) -> Content {
    obj([
        ("name", s(name)),
        ("cat", s(cat)),
        ("ph", s("X")),
        ("ts", Content::F64(start_s * 1e6)),
        ("dur", Content::F64(dur_s.max(0.0) * 1e6)),
        ("pid", Content::U64(pid)),
        ("tid", Content::U64(tid)),
        ("args", args),
    ])
}

/// The program's events of one traced repetition, placed on the harness
/// time axis: `offset_s` is the harness time of the run clock's zero.
pub struct TracedRun<'a> {
    pub events: &'a [Event],
    pub offset_s: f64,
}

/// Chrome `trace_event` JSON: harness spans on process 1 (nesting by
/// containment, parent named in `args`), the program's stage spans on
/// process 2 with one track per workunit under a creation→assimilated
/// parent slice, everything else the program recorded as instants.
pub fn chrome_trace(harness: &[Span], runs: &[TracedRun<'_>]) -> String {
    let mut evs = Vec::new();
    for (id, sp) in harness.iter().enumerate() {
        let parent = sp
            .parent
            .map(|p| s(harness[p].name.clone()))
            .unwrap_or(Content::Null);
        evs.push(slice(
            &sp.name,
            "harness",
            1,
            0,
            sp.start_s,
            sp.end_s - sp.start_s,
            obj([("id", Content::U64(id as u64)), ("parent", parent)]),
        ));
    }
    for run in runs {
        let spans = stage_spans(run.events);
        for c in wu_chains(&spans) {
            evs.push(slice(
                &format!("wu {}", c.wu),
                "workunit",
                2,
                c.wu + 1,
                run.offset_s + c.created_s,
                c.chain.life_s,
                obj([
                    ("winner", Content::U64(c.winner)),
                    ("unaccounted_s", Content::F64(c.chain.unaccounted_s())),
                ]),
            ));
        }
        for sp in &spans {
            evs.push(slice(
                TraceStage::ALL[sp.stage].as_str(),
                "stage",
                2,
                sp.wu + 1,
                run.offset_s + sp.end_s - sp.dur_s,
                sp.dur_s,
                obj([("host", Content::U64(sp.host)), ("wu", Content::U64(sp.wu))]),
            ));
        }
        for ev in run.events.iter().filter(|e| e.name != TRACE_SPAN) {
            evs.push(obj([
                ("name", s(ev.name.clone())),
                ("cat", s("event")),
                ("ph", s("i")),
                ("s", s("p")),
                ("ts", Content::F64((run.offset_s + ev.t_s) * 1e6)),
                ("pid", Content::U64(2)),
                ("tid", Content::U64(0)),
                (
                    "args",
                    obj(ev.fields.iter().map(|(k, v)| {
                        let c = match v {
                            FieldValue::Bool(b) => Content::Bool(*b),
                            FieldValue::U64(n) => Content::U64(*n),
                            FieldValue::I64(n) => Content::I64(*n),
                            FieldValue::F64(f) => Content::F64(*f),
                            FieldValue::Str(t) => s(t.clone()),
                        };
                        (k.clone(), c)
                    })),
                ),
            ]));
        }
    }
    compact(&obj([
        ("displayTimeUnit", s("ms")),
        ("traceEvents", Content::Seq(evs)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, a: f64, b: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_s: a,
            end_s: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("rep", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0), // overlaps a: union is [1, 6]
            span("grandchild", Some(1), 1.0, 2.0),
            span("c", Some(0), 8.0, 12.0), // clipped to the parent's end
        ];
        assert!((self_time_s(&spans, 0) - (10.0 - 5.0 - 2.0)).abs() < 1e-12);
        assert!((self_time_s(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time_s(&spans, 3) - 1.0).abs() < 1e-12);
    }

    fn sp(wu: u64, stage: usize, host: u64, end_s: f64, dur_s: f64, accepted: bool) -> StageSpan {
        StageSpan {
            wu,
            stage,
            host,
            end_s,
            dur_s,
            accepted,
        }
    }

    #[test]
    fn chain_follows_the_accepted_host_and_closes_against_creation() {
        // wu 5 replicated on hosts 1 and 2; host 2's upload completes the
        // quorum. Created at t=1.0.
        let spans = vec![
            sp(5, 0, 1, 1.5, 0.5, false),
            sp(5, 0, 2, 2.0, 1.0, false),
            sp(5, 1, 1, 1.6, 0.1, false),
            sp(5, 1, 2, 2.2, 0.1, false),
            sp(5, 2, 1, 2.6, 1.0, false),
            sp(5, 2, 2, 3.2, 1.0, false),
            sp(5, 3, 1, 2.6, 0.0, false),
            sp(5, 3, 2, 3.3, 0.0, false),
            sp(5, 4, 1, 2.7, 0.0, false),
            sp(5, 4, 2, 3.4, 0.0, true),
            sp(5, 5, 2, 3.9, 0.5, false),
            // wu 6 never decided: no chain.
            sp(6, 0, 1, 4.0, 0.1, false),
        ];
        let chains = wu_chains(&spans);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!((c.wu, c.winner), (5, 2));
        assert!((c.created_s - 1.0).abs() < 1e-12);
        assert!((c.chain.life_s - 2.9).abs() < 1e-12);
        assert_eq!(c.chain.stages, [1.0, 0.1, 1.0, 0.0, 0.0, 0.5]);
        assert!((c.gaps[0] - 0.1).abs() < 1e-12, "hand-off to fetch start");
        assert!((c.gaps[1] - 0.1).abs() < 1e-12, "train end to upload start");
        assert!((c.gaps[2] - 0.1).abs() < 1e-12, "upload end to verdict");
        assert!((c.chain.closure() - 2.6 / 2.9).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_tracks() {
        let harness = vec![span("rep0", None, 0.0, 2.0), span("run", Some(0), 0.1, 1.9)];
        let text = chrome_trace(&harness, &[]);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let evs = crate::json::get(&doc, "traceEvents")
            .and_then(|c| c.as_seq())
            .expect("traceEvents");
        assert_eq!(evs.len(), 2);
    }
}
