//! # vc-telemetry
//!
//! Observability substrate for the vc-dl workspace: a lock-cheap metrics
//! registry, a structured event layer, and a per-run flight
//! recorder — with zero external dependencies beyond the vendored shims.
//!
//! The three pieces share one [`Telemetry`] handle, cloned across
//! threads:
//!
//! - **Metrics** ([`Registry`]): counters and fixed-bucket histograms,
//!   Prometheus text exposition
//!   ([`Registry::render_prometheus`]) and a serde JSON snapshot
//!   ([`Registry::snapshot`]).
//! - **Events** ([`event!`]): levelled, timestamped,
//!   `key=value`-structured; a timed region is a `trace_span` event
//!   ([`Telemetry::trace_span`]). Timestamps come from a pluggable
//!   [`TimeSource`] — wall clock on OS threads, the `VirtualClock` under
//!   deterministic simulation — so DST recorder output replays
//!   byte-identically.
//! - **Flight recorder** ([`FlightRecorder`]): a bounded ring of recent
//!   events, dumped to JSONL on panic ([`install_panic_dump`]), on
//!   coordinator finalize, and on a failing DST seed.
//!
//! The stderr echo is gated by the `VC_LOG` env var (`error` … `trace`,
//! or `off`); recording into the ring is unconditional so post-mortem
//! dumps are complete regardless of verbosity.

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use event::{Event, FieldValue, Level, Telemetry, TimeSource, WallTime};
pub use metrics::{
    Counter, CounterSample, Histogram, HistogramSample, HistogramSnapshot, Registry,
    RegistrySnapshot,
};
pub use recorder::FlightRecorder;
pub use trace::{chrome_trace_json, fnv1a, TraceStage, TRACE_SPAN};

/// Installs a panic hook that dumps `tel`'s flight recorder to `path`
/// (JSONL) before delegating to the previous hook. Call once per
/// process, from the binary that owns the run.
pub fn install_panic_dump(tel: &Telemetry, path: impl Into<std::path::PathBuf>) {
    let tel = tel.clone();
    let path = path.into();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        match tel.recorder().dump_to_file(&path) {
            Ok(p) => eprintln!("vc-telemetry: flight recorder dumped to {}", p.display()),
            Err(e) => eprintln!("vc-telemetry: flight recorder dump failed: {e}"),
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_expand_with_and_without_fields() {
        let tel = Telemetry::with_echo(32, None);
        event!(tel, Info, "epoch_finished", epoch = 2_u64, acc = 0.5_f64);
        event!(tel, Warn, "bare");
        let evs = tel.recorder().events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "epoch_finished");
        assert_eq!(evs[0].field("epoch"), Some(&FieldValue::U64(2)));
        assert_eq!(evs[1].name, "bare");
        assert!(evs[1].fields.is_empty());
    }

    #[test]
    fn handle_is_shared_across_clones_and_threads() {
        let tel = Telemetry::with_echo(64, None);
        let mut joins = Vec::new();
        for t in 0..4_u64 {
            let tel = tel.clone();
            joins.push(std::thread::spawn(move || {
                tel.registry().counter("ops").add(t + 1);
                event!(tel, Info, "thread_done", t = t);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(tel.registry().counter("ops").get(), 10);
        assert_eq!(
            tel.recorder()
                .events()
                .iter()
                .filter(|e| e.name == "thread_done")
                .count(),
            4
        );
    }
}
