//! The flight recorder: a bounded ring of the most recent [`Event`]s.
//!
//! Every run keeps one. It costs a mutexed `VecDeque` push per event and
//! pays for itself the first time a chaos run fails: the ring dumps to a
//! JSONL artifact on panic (see `install_panic_dump`), on coordinator
//! finalize, and on a failing DST seed, giving a replayable record of the
//! last `capacity` events leading up to the failure.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::event::Event;

struct Ring {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// A bounded ring buffer of recent events. When full, the oldest event is
/// evicted and counted in [`FlightRecorder::dropped`].
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (`capacity >= 1`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "flight recorder needs capacity >= 1");
        FlightRecorder {
            cap: capacity,
            inner: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub(crate) fn record(&self, event: Event) {
        let mut g = self.inner.lock();
        if g.buf.len() == self.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(event);
    }

    /// Number of events evicted so far (0 means the dump is complete).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// The retained events as JSONL: one JSON-serialized [`Event`] per
    /// line, oldest first.
    fn dump_jsonl(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::new();
        for ev in &g.buf {
            let line = serde_json::to_string(ev).expect("event serialization is infallible");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL dump to `path`, creating missing parent
    /// directories. When `path` already exists (two failing DST seeds
    /// dumping to the same artifact name, or a crashed run's leftovers)
    /// the dump goes to a sibling with a process-unique suffix instead of
    /// silently overwriting. Returns the path actually written.
    pub fn dump_to_file(&self, path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let target = unique_sibling(path);
        std::fs::write(&target, self.dump_jsonl())?;
        Ok(target)
    }
}

/// `path` if it is free, else the first free sibling named
/// `<stem>.<pid>[-<n>][.<ext>]` — process-unique so concurrent test
/// processes never clobber each other, counter-suffixed so repeated dumps
/// within one process all survive.
fn unique_sibling(path: &Path) -> PathBuf {
    if !path.exists() {
        return path.to_path_buf();
    }
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dump".to_string());
    let ext = path.extension().map(|e| e.to_string_lossy().into_owned());
    let pid = std::process::id();
    let mut n = 0u64;
    loop {
        let mut name = if n == 0 {
            format!("{stem}.{pid}")
        } else {
            format!("{stem}.{pid}-{n}")
        };
        if let Some(e) = &ext {
            name.push('.');
            name.push_str(e);
        }
        let cand = path.with_file_name(name);
        if !cand.exists() {
            return cand;
        }
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FieldValue, Level};

    fn ev(i: u64) -> Event {
        Event {
            t_s: i as f64,
            level: Level::Info,
            name: format!("e{i}"),
            fields: vec![("i".to_string(), FieldValue::U64(i))],
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        assert!(rec.events().is_empty());
        for i in 0..5 {
            rec.record(ev(i));
        }
        assert_eq!(rec.dropped(), 2, "two oldest events evicted");
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"], "oldest-first, newest kept");
    }

    #[test]
    fn jsonl_dump_is_one_parseable_event_per_line() {
        let rec = FlightRecorder::new(8);
        rec.record(ev(0));
        rec.record(ev(1));
        let dump = rec.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let back: Event = serde_json::from_str(line).unwrap();
            assert_eq!(back, ev(i as u64));
        }
    }

    #[test]
    fn dump_to_file_writes_the_jsonl() {
        let rec = FlightRecorder::new(4);
        rec.record(ev(7));
        let dir = std::env::temp_dir().join(format!("vc-rec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("vc-telemetry-recorder-test.jsonl");
        let written = rec.dump_to_file(&path).unwrap();
        assert_eq!(written, path, "a free path is used verbatim");
        let content = std::fs::read_to_string(&written).unwrap();
        assert_eq!(content, rec.dump_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_to_file_creates_parents_and_never_overwrites() {
        let rec = FlightRecorder::new(4);
        rec.record(ev(1));
        let dir = std::env::temp_dir().join(format!("vc-rec-uniq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Parent `deep/nested` does not exist yet.
        let path = dir.join("deep/nested/seed-42.jsonl");
        let first = rec.dump_to_file(&path).unwrap();
        assert_eq!(first, path);

        // A second dump to the same path must land elsewhere, leaving the
        // first artifact intact.
        let rec2 = FlightRecorder::new(4);
        rec2.record(ev(2));
        let second = rec2.dump_to_file(&path).unwrap();
        assert_ne!(second, first, "existing dump not overwritten");
        assert_eq!(std::fs::read_to_string(&first).unwrap(), rec.dump_jsonl());
        assert_eq!(std::fs::read_to_string(&second).unwrap(), rec2.dump_jsonl());
        let name = second.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("seed-42.") && name.ends_with(".jsonl"),
            "suffix preserves stem and extension: {name}"
        );

        // And a third still lands on a fresh name.
        let third = rec2.dump_to_file(&path).unwrap();
        assert_ne!(third, second);
        assert_ne!(third, first);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
