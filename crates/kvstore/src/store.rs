//! The versioned blob store.

use crate::history::{HistoryEvent, Op};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use vc_telemetry::{Counter, Histogram, Level, Telemetry};

/// Histogram name: `get` latency in seconds.
pub const STORE_READ_S: &str = "store_read_s";
/// Histogram name: `put` / `put_versioned` latency in seconds.
pub const STORE_WRITE_S: &str = "store_write_s";
/// Histogram name: `transact` latency in seconds.
pub const STORE_TRANSACT_S: &str = "store_transact_s";
/// Histogram name: write staleness in versions
/// (`server_version − read_version`, observed on every `put_versioned`).
pub const STORE_STALENESS_VERSIONS: &str = "store_staleness_versions";
/// Counter name: completed reads.
pub const STORE_READS: &str = "store_reads";
/// Counter name: completed writes (both paths; transactions count too).
pub const STORE_WRITES: &str = "store_writes";
/// Counter name: serialized transactions executed.
pub const STORE_TRANSACTIONS: &str = "store_transactions";
/// Counter name: versions overwritten unseen by eventual-mode writes —
/// each one a concurrent update lost.
pub const STORE_LOST_UPDATES: &str = "store_lost_updates";

/// Consistency mode for parameter updates, selecting which access pattern
/// the parameter servers use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Consistency {
    /// Serialized read-modify-write transactions (the MySQL analog).
    Strong,
    /// Independent read then last-write-wins put (the Redis analog).
    Eventual,
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Strong => write!(f, "strong"),
            Consistency::Eventual => write!(f, "eventual"),
        }
    }
}

/// The store's operation counts, as [`VersionedStore::ops`] reads them;
/// the fields carry their names through reports and JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreOps {
    /// Completed reads.
    pub reads: u64,
    /// Completed writes (both paths; transactions count as writes too).
    pub writes: u64,
    /// Serialized transactions executed.
    pub transactions: u64,
    /// Updates overwritten unseen (eventual mode only).
    pub lost_updates: u64,
}

/// Outcome of an eventual-mode write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The version assigned to the written value.
    pub new_version: u64,
    /// Number of intervening versions this write clobbered (0 when the
    /// writer saw the latest value).
    pub clobbered: u64,
}

struct Entry {
    value: Bytes,
    version: u64,
}

#[derive(Default)]
struct HistoryLog {
    seq: u64,
    events: Vec<HistoryEvent>,
}

/// Cached telemetry handles: one registry lookup at construction, two
/// atomic adds per instrumented operation afterwards. Latencies are
/// measured through the telemetry `TimeSource`, so under the DST virtual
/// clock every span is zero-length and recorder output stays
/// deterministic.
struct Instruments {
    tel: Telemetry,
    read_s: Arc<Histogram>,
    write_s: Arc<Histogram>,
    transact_s: Arc<Histogram>,
    staleness: Arc<Histogram>,
}

impl Instruments {
    fn new(tel: &Telemetry) -> Self {
        let reg = tel.registry();
        Instruments {
            tel: tel.clone(),
            read_s: reg.histogram(STORE_READ_S),
            write_s: reg.histogram(STORE_WRITE_S),
            transact_s: reg.histogram(STORE_TRANSACT_S),
            staleness: reg.histogram_with(STORE_STALENESS_VERSIONS, Histogram::version_bounds),
        }
    }
}

/// A thread-safe, versioned, in-memory blob store.
///
/// One instance stands for the shared database backing all parameter
/// servers. Keys are model identifiers; values are encoded parameter blobs
/// (the paper stores "all the parameters of a model as a single value").
///
/// A store built with [`VersionedStore::recording`] additionally logs every
/// completed operation as a [`HistoryEvent`] — while still holding the
/// per-key lock, so per-key log order equals serialization order. The
/// checkers in [`crate::history`] consume these logs.
///
/// Its four operation counters are always on: private to the store until
/// [`VersionedStore::with_telemetry`] swaps in the registry's, so
/// `/metrics` exports the very counts [`VersionedStore::ops`] reports.
pub struct VersionedStore {
    map: RwLock<HashMap<String, Arc<Mutex<Entry>>>>,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    transactions: Arc<Counter>,
    lost_updates: Arc<Counter>,
    history: Option<Mutex<HistoryLog>>,
    instruments: Option<Instruments>,
}

impl VersionedStore {
    /// An empty store.
    pub fn new() -> Self {
        VersionedStore {
            map: RwLock::new(HashMap::new()),
            reads: Arc::default(),
            writes: Arc::default(),
            transactions: Arc::default(),
            lost_updates: Arc::default(),
            history: None,
            instruments: None,
        }
    }

    /// Attaches a telemetry handle before first use: the operation
    /// counters become the registry's `store_*` counters, operation
    /// latencies flow into the `store_*_s` histograms, write staleness into
    /// [`STORE_STALENESS_VERSIONS`], and every clobbering write emits a
    /// `lost_update` event.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        let reg = tel.registry();
        self.reads = reg.counter(STORE_READS);
        self.writes = reg.counter(STORE_WRITES);
        self.transactions = reg.counter(STORE_TRANSACTIONS);
        self.lost_updates = reg.counter(STORE_LOST_UPDATES);
        self.instruments = Some(Instruments::new(tel));
        self
    }

    /// An empty store that records an operation history for the
    /// [`crate::history`] checkers.
    pub fn recording() -> Self {
        VersionedStore {
            history: Some(Mutex::new(HistoryLog::default())),
            ..Self::new()
        }
    }

    /// An empty store behind an [`Arc`], ready to hand to many threads —
    /// the shape every multi-writer user (parameter-server pools, the
    /// `vc-runtime` assimilator threads) wants. The store is fully
    /// `Sync`: all interior state is lock-protected per key.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Drains and returns the recorded history (empty for non-recording
    /// stores). Log order is the store's serialization order per key.
    pub fn take_history(&self) -> Vec<HistoryEvent> {
        match &self.history {
            Some(h) => std::mem::take(&mut h.lock().events),
            None => Vec::new(),
        }
    }

    /// Appends one event to the history log (no-op when not recording).
    /// Callers invoke this while still holding the key's entry lock, which
    /// makes the log a serialization witness.
    fn record(&self, key: &str, op: Op) {
        if let Some(h) = &self.history {
            let mut g = h.lock();
            let seq = g.seq;
            g.seq += 1;
            g.events.push(HistoryEvent {
                seq,
                key: key.to_string(),
                op,
            });
        }
    }

    fn entry(&self, key: &str) -> Arc<Mutex<Entry>> {
        if let Some(e) = self.map.read().get(key) {
            return e.clone();
        }
        let mut w = self.map.write();
        w.entry(key.to_string())
            .or_insert_with(|| {
                Arc::new(Mutex::new(Entry {
                    value: Bytes::new(),
                    version: 0,
                }))
            })
            .clone()
    }

    /// Reads the current value and its version. Version 0 with an empty
    /// value means "never written".
    ///
    /// The returned [`Bytes`] shares the stored allocation — the hot fetch
    /// path hands out a reference-counted view, never a copy of the blob,
    /// no matter how large the parameter vector is. (Writers install fresh
    /// buffers, so a held read view is never mutated underneath.)
    pub fn get(&self, key: &str) -> (Bytes, u64) {
        let t0 = self.instruments.as_ref().map(|i| i.tel.now_s());
        self.reads.inc();
        let e = self.entry(key);
        let g = e.lock();
        self.record(key, Op::Get { version: g.version });
        let out = (g.value.clone(), g.version);
        drop(g);
        if let (Some(ins), Some(t0)) = (&self.instruments, t0) {
            ins.read_s.observe(ins.tel.now_s() - t0);
        }
        out
    }

    /// Unconditional write; returns the new version. Used for initial
    /// seeding of the parameter blob.
    pub fn put(&self, key: &str, value: Bytes) -> u64 {
        let t0 = self.instruments.as_ref().map(|i| i.tel.now_s());
        self.writes.inc();
        let e = self.entry(key);
        let mut g = e.lock();
        g.version += 1;
        g.value = value;
        self.record(
            key,
            Op::Put {
                new_version: g.version,
            },
        );
        let ver = g.version;
        drop(g);
        if let (Some(ins), Some(t0)) = (&self.instruments, t0) {
            ins.write_s.observe(ins.tel.now_s() - t0);
        }
        ver
    }

    /// Eventual-consistency write: last-write-wins, recording how many
    /// versions written after `read_version` are being overwritten. This is
    /// the Redis path — the store never blocks the writer, it just loses
    /// the concurrent updates.
    pub fn put_versioned(&self, key: &str, read_version: u64, value: Bytes) -> WriteOutcome {
        let t0 = self.instruments.as_ref().map(|i| i.tel.now_s());
        self.writes.inc();
        let e = self.entry(key);
        let mut g = e.lock();
        let clobbered = g.version.saturating_sub(read_version);
        self.lost_updates.add(clobbered);
        g.version += 1;
        g.value = value;
        self.record(
            key,
            Op::PutVersioned {
                read_version,
                new_version: g.version,
                clobbered,
            },
        );
        let out = WriteOutcome {
            new_version: g.version,
            clobbered,
        };
        drop(g);
        if let (Some(ins), Some(t0)) = (&self.instruments, t0) {
            ins.write_s.observe(ins.tel.now_s() - t0);
            ins.staleness.observe(clobbered as f64);
            if clobbered > 0 {
                ins.tel.event(
                    Level::Debug,
                    "lost_update",
                    vec![
                        ("key", key.into()),
                        ("clobbered", clobbered.into()),
                        ("new_version", out.new_version.into()),
                    ],
                );
            }
        }
        out
    }

    /// Strong-consistency transaction: runs `f` on the current value under
    /// the key lock and installs its result atomically. No concurrent
    /// transaction on the same key can interleave — the MySQL path.
    pub fn transact<T>(&self, key: &str, f: impl FnOnce(&Bytes, u64) -> (Bytes, T)) -> (u64, T) {
        let t0 = self.instruments.as_ref().map(|i| i.tel.now_s());
        self.transactions.inc();
        self.writes.inc();
        let e = self.entry(key);
        let mut g = e.lock();
        let read_version = g.version;
        let (new_value, out) = f(&g.value, g.version);
        g.version += 1;
        g.value = new_value;
        self.record(
            key,
            Op::Transact {
                read_version,
                new_version: g.version,
            },
        );
        let ver = g.version;
        drop(g);
        if let (Some(ins), Some(t0)) = (&self.instruments, t0) {
            ins.transact_s.observe(ins.tel.now_s() - t0);
        }
        (ver, out)
    }

    /// Current version of a key (0 when absent).
    pub fn version(&self, key: &str) -> u64 {
        if let Some(e) = self.map.read().get(key) {
            e.lock().version
        } else {
            0
        }
    }

    /// Operation counts so far.
    pub fn ops(&self) -> StoreOps {
        StoreOps {
            reads: self.reads.get(),
            writes: self.writes.get(),
            transactions: self.transactions.get(),
            lost_updates: self.lost_updates.get(),
        }
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_of_missing_key_is_empty_v0() {
        let s = VersionedStore::new();
        let (v, ver) = s.get("w");
        assert!(v.is_empty());
        assert_eq!(ver, 0);
    }

    #[test]
    fn put_bumps_version() {
        let s = VersionedStore::new();
        assert_eq!(s.put("w", Bytes::from_static(b"a")), 1);
        assert_eq!(s.put("w", Bytes::from_static(b"b")), 2);
        let (v, ver) = s.get("w");
        assert_eq!(&v[..], b"b");
        assert_eq!(ver, 2);
    }

    #[test]
    fn versioned_write_detects_clobber() {
        let s = VersionedStore::new();
        s.put("w", Bytes::from_static(b"base")); // v1
        let (_, v_seen) = s.get("w");
        // A concurrent writer lands first.
        s.put("w", Bytes::from_static(b"other")); // v2
        let out = s.put_versioned("w", v_seen, Bytes::from_static(b"mine"));
        assert_eq!(out.clobbered, 1);
        assert_eq!(out.new_version, 3);
        let (v, _) = s.get("w");
        assert_eq!(&v[..], b"mine"); // last write wins
        assert_eq!(s.ops().lost_updates, 1);
    }

    #[test]
    fn versioned_write_clean_when_current() {
        let s = VersionedStore::new();
        s.put("w", Bytes::from_static(b"base"));
        let (_, v) = s.get("w");
        let out = s.put_versioned("w", v, Bytes::from_static(b"next"));
        assert_eq!(out.clobbered, 0);
        assert_eq!(s.ops().lost_updates, 0);
    }

    #[test]
    fn transact_reads_latest_and_installs() {
        let s = VersionedStore::new();
        s.put("w", Bytes::from(vec![5u8]));
        let (ver, old_len) = s.transact("w", |cur, _v| {
            let mut next = cur.to_vec();
            next.push(6);
            (Bytes::from(next), cur.len())
        });
        assert_eq!(ver, 2);
        assert_eq!(old_len, 1);
        assert_eq!(&s.get("w").0[..], &[5, 6]);
    }

    #[test]
    fn strong_transactions_never_lose_updates() {
        // 8 threads × 100 increments on a counter blob must total 800.
        let s = Arc::new(VersionedStore::new());
        s.put("ctr", Bytes::from(0u64.to_le_bytes().to_vec()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.transact("ctr", |cur, _| {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(cur);
                        let n = u64::from_le_bytes(b) + 1;
                        (Bytes::from(n.to_le_bytes().to_vec()), ())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&s.get("ctr").0);
        assert_eq!(u64::from_le_bytes(b), 800);
        assert_eq!(s.ops().lost_updates, 0, "no lost updates");
    }

    #[test]
    fn eventual_rmw_loses_updates_under_contention() {
        // The same workload through the read-then-put path must lose
        // updates: the defining behaviour difference of §IV-D.
        let s = Arc::new(VersionedStore::new());
        s.put("ctr", Bytes::from(0u64.to_le_bytes().to_vec()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let (cur, ver) = s.get("ctr");
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&cur);
                    let n = u64::from_le_bytes(b) + 1;
                    // Widen the read→write window so interleaving is certain
                    // even on a single core.
                    std::thread::yield_now();
                    s.put_versioned("ctr", ver, Bytes::from(n.to_le_bytes().to_vec()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&s.get("ctr").0);
        let final_n = u64::from_le_bytes(b);
        let lost = s.ops().lost_updates;
        assert!(final_n <= 1600);
        // Every increment missing from the counter sat inside at least one
        // writer's read→write gap, so the clobber metric bounds the deficit.
        assert!(
            1600 - final_n <= lost,
            "deficit {} exceeds clobber metric {lost}",
            1600 - final_n
        );
        assert!(lost > 0, "contention produced no lost updates");
    }

    #[test]
    fn recorded_strong_history_admits_a_sequential_witness() {
        let s = Arc::new(VersionedStore::recording());
        s.put("w", Bytes::from(0u64.to_le_bytes().to_vec()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    s.transact("w", |cur, _| {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(cur);
                        (
                            Bytes::from((u64::from_le_bytes(b) + 1).to_le_bytes().to_vec()),
                            (),
                        )
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let history = s.take_history();
        assert_eq!(history.len(), 201, "put + 200 transactions");
        crate::history::check_sequential(&history).unwrap();
        assert_eq!(crate::history::count_lost_updates(&history), 0);
    }

    #[test]
    fn recorded_eventual_history_recounts_the_lost_update_metric() {
        let s = VersionedStore::recording();
        s.put("w", Bytes::from_static(b"base")); // v1
        let (_, v) = s.get("w");
        s.put("w", Bytes::from_static(b"other")); // v2: concurrent writer
        s.put_versioned("w", v, Bytes::from_static(b"mine")); // clobbers 1
        let history = s.take_history();
        assert_eq!(
            crate::history::count_lost_updates(&history),
            s.ops().lost_updates,
            "history recount must equal the metric"
        );
        assert!(crate::history::check_sequential(&history).is_err());
    }

    #[test]
    fn non_recording_store_has_no_history() {
        let s = VersionedStore::new();
        s.put("w", Bytes::from_static(b"x"));
        assert!(s.take_history().is_empty());
    }

    #[test]
    fn get_returns_shared_bytes_not_a_copy() {
        // The fetch path must be zero-copy: every `get` of the same value
        // returns a view over the *same* allocation as the stored blob —
        // reference-counted sharing, not a per-read clone. Pointer equality
        // of the backing buffers is the whole claim.
        let s = VersionedStore::new();
        let blob = Bytes::from(vec![7u8; 1 << 20]); // 1 MiB parameter blob
        let stored_ptr = blob.as_ptr();
        s.put("w", blob);
        let (a, _) = s.get("w");
        let (b, _) = s.get("w");
        assert_eq!(a.as_ptr(), stored_ptr, "get must alias the stored buffer");
        assert_eq!(b.as_ptr(), stored_ptr, "every read shares one allocation");
        // A subsequent write installs a new buffer without disturbing the
        // view a reader still holds.
        s.put("w", Bytes::from(vec![9u8; 4]));
        assert_eq!(a[0], 7, "held views are immutable snapshots");
        assert_ne!(s.get("w").0.as_ptr(), stored_ptr);
    }

    #[test]
    fn keys_are_independent() {
        let s = VersionedStore::new();
        s.put("a", Bytes::from_static(b"1"));
        s.put("b", Bytes::from_static(b"2"));
        assert_eq!(s.version("a"), 1);
        assert_eq!(s.version("b"), 1);
        assert_eq!(s.map.read().len(), 2);
    }

    #[test]
    fn metrics_count_operations() {
        let s = VersionedStore::new();
        s.put("k", Bytes::new());
        s.get("k");
        s.get("k");
        s.transact("k", |c, _| (c.clone(), ()));
        let ops = s.ops();
        assert_eq!(
            ops,
            StoreOps {
                reads: 2,
                writes: 2, // put + transact
                transactions: 1,
                lost_updates: 0,
            }
        );
        // The named struct serializes with its field names.
        let json = serde_json::to_string(&ops).unwrap();
        assert!(json.contains("\"lost_updates\""), "{json}");
    }

    #[test]
    fn instrumented_store_feeds_latency_and_staleness_histograms() {
        let tel = Telemetry::with_echo(64, None);
        let s = VersionedStore::new().with_telemetry(&tel);
        s.put("w", Bytes::from_static(b"base")); // v1
        let (_, seen) = s.get("w");
        s.put("w", Bytes::from_static(b"other")); // v2: concurrent writer
        s.put_versioned("w", seen, Bytes::from_static(b"mine")); // clobbers 1
        s.transact("w", |c, _| (c.clone(), ()));

        let reg = tel.registry();
        assert_eq!(reg.histogram(STORE_READ_S).snapshot().count, 1);
        assert_eq!(reg.histogram(STORE_WRITE_S).snapshot().count, 3);
        assert_eq!(reg.histogram(STORE_TRANSACT_S).snapshot().count, 1);
        let staleness = reg.histogram(STORE_STALENESS_VERSIONS).snapshot();
        assert_eq!(staleness.count, 1, "observed once per put_versioned");
        assert_eq!(staleness.sum, 1.0, "one version clobbered");
        assert_eq!(
            tel.recorder()
                .events()
                .iter()
                .filter(|e| e.name == "lost_update")
                .count(),
            1
        );
        // The operation counters are the registry's.
        let ops = s.ops();
        assert_eq!(
            ops,
            StoreOps {
                reads: 1,
                writes: 4,
                transactions: 1,
                lost_updates: 1,
            }
        );
        let counts = [
            (STORE_READS, ops.reads),
            (STORE_WRITES, ops.writes),
            (STORE_TRANSACTIONS, ops.transactions),
            (STORE_LOST_UPDATES, ops.lost_updates),
        ];
        for (name, value) in counts {
            assert_eq!(reg.counter(name).get(), value, "{name}");
        }
    }
}
