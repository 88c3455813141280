//! The BOINC-like server: scheduler + transitioner in one state machine.
//!
//! Hot paths are built for fleet scale (10k–100k hosts):
//!
//! - host state is a flat `Vec<HostHot>` indexed by the dense [`HostId`]
//!   (cold allocations live in a parallel `Vec<HostCold>`);
//! - deadlines live in an indexed [`TimerQueue`] (binary heap, lazy
//!   invalidation via per-assignment sequence numbers), so a timeout scan
//!   is O(1) when nothing is due and O(due · log n) when timers fire —
//!   never O(workunits);
//! - the work queue is a `BTreeMap` keyed by a monotone enqueue sequence
//!   (FIFO order preserved) with a per-shard secondary index for O(log n)
//!   sticky-file picks and removals;
//! - `open_count`/`all_done` are maintained counters, not scans.

use crate::host::{HostCold, HostHot, HostId, HostSummary};
use crate::timer::{TimerEntry, TimerQueue};
use crate::validate::{BitwiseComparator, ResultComparator};
use crate::workunit::{ActiveAssignment, ShardManifest, WorkUnit, WuId, WuPhase};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use vc_simnet::{InstanceSpec, SimTime};
use vc_telemetry::{FieldValue, Histogram, Level, Telemetry, TraceStage};

/// Registry name of the per-host observed-turnaround histogram (seconds
/// from assignment to upload).
pub const HOST_TURNAROUND_S: &str = "host_turnaround_s";
/// Registry name of the issued-deadline-length histogram (seconds granted
/// per assignment by the adaptive-deadline policy).
pub const WU_DEADLINE_S: &str = "wu_deadline_s";

/// When a deadline blows, the host's turnaround EWMA is fed the blown
/// deadline length scaled by this factor, so repeat offenders earn longer
/// (not tighter) deadlines — BOINC's "exponential deadline growth".
const TIMEOUT_TURNAROUND_GROWTH: f64 = 1.5;

/// The adaptive deadline is this many times the host's turnaround EWMA,
/// clamped to `[min_timeout_s, max_timeout_s]`.
const DEADLINE_GRACE: f64 = 3.0;

/// Smoothing factor of the per-host turnaround EWMA.
const DEADLINE_ALPHA: f64 = 0.25;

/// The replica count a quorum disagreement may grow a workunit to (or the
/// replication factor, if larger).
const MAX_ATTEMPTS: u32 = 8;

/// Server-side policy knobs (BOINC project configuration).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MiddlewareConfig {
    /// Baseline result timeout `t_o`: the deadline before any turnaround
    /// has been observed for a host, after which the per-host EWMA takes
    /// over. Paper: 5 min, fixed; here it is only the seed.
    pub timeout_s: f64,
    /// Enable sticky-file locality-aware assignment (§III-B).
    pub sticky_files: bool,
    /// Replication factor: how many hosts may execute the same workunit
    /// concurrently for redundancy (§II-C). 1 disables replication.
    pub replication: u32,
    /// Floor of the adaptive deadline (widened down to `timeout_s` when
    /// `timeout_s` is configured lower).
    #[serde(default = "default_min_timeout_s")]
    pub min_timeout_s: f64,
    /// Ceiling of the adaptive deadline (widened up to `timeout_s` when
    /// `timeout_s` is configured higher).
    #[serde(default = "default_max_timeout_s")]
    pub max_timeout_s: f64,
    /// Matching uploads required before a result is handed to the
    /// assimilator (BOINC's `min_quorum`). Must be ≤ `replication`.
    #[serde(default = "default_quorum")]
    pub quorum: u32,
    /// First backoff interval imposed on a host after a failure; doubles
    /// per consecutive failure. 0 disables fetch backoff.
    #[serde(default = "default_backoff_base_s")]
    pub backoff_base_s: f64,
    /// Backoff ceiling.
    #[serde(default = "default_backoff_max_s")]
    pub backoff_max_s: f64,
}

fn default_min_timeout_s() -> f64 {
    30.0
}
fn default_max_timeout_s() -> f64 {
    3600.0
}
fn default_quorum() -> u32 {
    1
}
fn default_backoff_base_s() -> f64 {
    15.0
}
fn default_backoff_max_s() -> f64 {
    900.0
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            timeout_s: 300.0,
            sticky_files: true,
            replication: 1,
            min_timeout_s: default_min_timeout_s(),
            max_timeout_s: default_max_timeout_s(),
            quorum: default_quorum(),
            backoff_base_s: default_backoff_base_s(),
            backoff_max_s: default_backoff_max_s(),
        }
    }
}

impl MiddlewareConfig {
    /// Rejects configurations the scheduler cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("timeout_s", self.timeout_s),
            ("min_timeout_s", self.min_timeout_s),
            ("max_timeout_s", self.max_timeout_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("middleware.{name} must be finite and positive"));
            }
        }
        if self.min_timeout_s > self.max_timeout_s {
            return Err("middleware.min_timeout_s exceeds max_timeout_s".into());
        }
        if self.replication == 0 {
            return Err("middleware.replication must be >= 1".into());
        }
        if self.quorum == 0 || self.quorum > self.replication {
            return Err("middleware.quorum must be in 1..=replication".into());
        }
        if !self.backoff_base_s.is_finite() || self.backoff_base_s < 0.0 {
            return Err("middleware.backoff_base_s must be finite and >= 0".into());
        }
        if !self.backoff_max_s.is_finite() || self.backoff_max_s < self.backoff_base_s {
            return Err("middleware.backoff_max_s must be >= backoff_base_s".into());
        }
        Ok(())
    }
}

/// Counters the server maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Workunit assignments handed to clients (replicas included).
    pub assigned: u64,
    /// Accepted results.
    pub completed: u64,
    /// Timeout events (one per expired assignment).
    pub timeouts: u64,
    /// Workunits put back in the queue after timeout or invalid result.
    pub reassignments: u64,
    /// Results arriving for workunits no longer open to the reporter.
    pub stale_results: u64,
    /// Results rejected by the validator.
    pub invalid_results: u64,
    /// Assignments of a *data* shard the host already holds (sticky-file
    /// scheduling; the download is avoided). Not `vc_ps::PsOps::cache_hits`,
    /// which counts *parameter* shards a worker's cache already held.
    pub cache_hits: u64,
    /// Redundant replicas cancelled because another host finished first.
    pub cancelled_replicas: u64,
    /// Quorum rounds where candidates disagreed and extra replicas were
    /// issued.
    #[serde(default)]
    pub quorum_disagreements: u64,
    /// Backoff intervals imposed on flaky hosts.
    #[serde(default)]
    pub backoffs: u64,
    /// Assignments orphaned by a replacement instance registering: their
    /// later expiry is still a timeout, but is not blamed on the new
    /// incarnation.
    #[serde(default)]
    pub revive_orphaned: u64,
}

/// What a client receives from [`BoincServer::request_work`].
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// The workunit to execute.
    pub wu: WorkUnit,
    /// 1-based attempt number.
    pub attempt: u32,
    /// True when the host already holds the shard (no data download).
    pub shard_cached: bool,
    /// Completion deadline the transitioner will enforce.
    pub deadline: SimTime,
}

/// Outcome of reporting a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportStatus {
    /// The upload completed a quorum: assimilate this payload.
    Accepted,
    /// The upload joined a quorum that is not yet decided; the server keeps
    /// a copy, the caller must not assimilate.
    Pending,
    /// The workunit was already completed (or the host double-voted);
    /// discard the payload.
    Stale,
}

struct WuRecord {
    wu: WorkUnit,
    phase: WuPhase,
    attempts: u32,
    /// The workunit's enqueue sequence while it sits in the work queue.
    queued: Option<u64>,
    /// Valid uploads awaiting quorum: (reporter, payload). One vote per
    /// host.
    candidates: Vec<(HostId, Vec<f32>)>,
    /// Results the scheduler wants for this workunit: starts at the
    /// replication factor, extended when candidates disagree.
    target_results: u32,
}

/// FIFO work queue with a per-shard secondary index. Entries are keyed by
/// a monotone enqueue sequence, so `BTreeMap` iteration order *is* queue
/// order; the shard index turns the sticky-file pick from a head-to-tail
/// scan into a merge over the host's cached shards' entries.
#[derive(Default)]
struct WorkQueue {
    items: BTreeMap<u64, WuId>,
    by_shard: HashMap<usize, BTreeSet<u64>>,
    next: u64,
}

impl WorkQueue {
    fn push(&mut self, id: WuId, shard: usize) -> u64 {
        let q = self.next;
        self.next += 1;
        self.items.insert(q, id);
        self.by_shard.entry(shard).or_default().insert(q);
        q
    }

    fn remove(&mut self, qseq: u64, shard: usize) {
        self.items.remove(&qseq);
        if let Some(set) = self.by_shard.get_mut(&shard) {
            set.remove(&qseq);
            if set.is_empty() {
                self.by_shard.remove(&shard);
            }
        }
    }
}

/// The in-process BOINC server.
pub struct BoincServer {
    cfg: MiddlewareConfig,
    /// Scheduler-hot host state, flat and dense (index = `HostId.0`).
    hosts: Vec<HostHot>,
    /// Cold per-host allocations, parallel to `hosts`.
    cold: Vec<HostCold>,
    wus: Vec<WuRecord>,
    queue: WorkQueue,
    /// Indexed expiry timers, one armed per issued assignment.
    timers: TimerQueue,
    /// Global assignment issue counter (feeds `ActiveAssignment::seq`).
    next_seq: u64,
    /// Maintained count of workunits still needing a result.
    open: usize,
    metrics: ServerMetrics,
    telemetry: Option<Telemetry>,
    comparator: Box<dyn ResultComparator>,
}

impl BoincServer {
    /// Builds a server over a fleet; `slots[i]` is host `i`'s simultaneous-
    /// subtask limit (the paper's `Tn`).
    pub fn new(cfg: MiddlewareConfig, fleet: Vec<(InstanceSpec, usize)>) -> Self {
        assert!(!fleet.is_empty(), "a server needs at least one host");
        if let Err(e) = cfg.validate() {
            panic!("invalid middleware config: {e}");
        }
        let mut hosts = Vec::with_capacity(fleet.len());
        let mut cold = Vec::with_capacity(fleet.len());
        for (spec, slots) in fleet {
            hosts.push(HostHot::new(slots));
            cold.push(HostCold {
                spec,
                cached_shards: HashSet::new(),
            });
        }
        BoincServer {
            cfg,
            hosts,
            cold,
            wus: Vec::new(),
            queue: WorkQueue::default(),
            timers: TimerQueue::new(),
            next_seq: 0,
            open: 0,
            metrics: ServerMetrics::default(),
            telemetry: None,
            comparator: Box::new(BitwiseComparator),
        }
    }

    /// Swaps the quorum comparator (bitwise by default; use
    /// [`crate::ToleranceComparator`] for clients with benign numeric
    /// divergence).
    pub fn set_comparator(&mut self, cmp: Box<dyn ResultComparator>) {
        self.comparator = cmp;
    }

    /// Attaches a telemetry handle: workunit lifecycle transitions
    /// (assign, complete, stale, invalid, timeout, reassign) become
    /// structured events timestamped with the caller's `now`.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = Some(tel);
    }

    /// Emits one lifecycle event at `now` (no-op without telemetry).
    fn emit(&self, now: SimTime, level: Level, name: &str, fields: Vec<(&str, FieldValue)>) {
        if let Some(tel) = &self.telemetry {
            tel.event_at(now.as_secs(), level, name, fields);
        }
    }

    /// True when causal workunit tracing is on. Call sites guard their
    /// span emission on this so untraced runs allocate nothing.
    fn tracing(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|t| t.tracing())
    }

    /// Records one causal trace span ending at `now`.
    fn trace(
        &self,
        now: SimTime,
        stage: TraceStage,
        wu: WuId,
        host: HostId,
        dur_s: f64,
        extra: Vec<(&str, FieldValue)>,
    ) {
        if let Some(tel) = &self.telemetry {
            tel.trace_span(now.as_secs(), stage, wu.0, u64::from(host.0), dur_s, extra);
        }
    }

    /// Server configuration.
    pub fn config(&self) -> &MiddlewareConfig {
        &self.cfg
    }

    /// Registered hosts' hot state, indexed by `HostId.0`.
    pub fn hosts(&self) -> &[HostHot] {
        &self.hosts
    }

    /// A host's instance spec (cold state).
    pub fn spec(&self, id: HostId) -> &InstanceSpec {
        &self.cold[id.0 as usize].spec
    }

    /// A host's sticky-file shard cache (cold state).
    pub fn cached_shards(&self, id: HostId) -> &HashSet<usize> {
        &self.cold[id.0 as usize].cached_shards
    }

    /// Materializes the serializable per-host summaries (API edge).
    pub fn host_summaries(&self) -> Vec<HostSummary> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostSummary::from_hot(HostId(i as u32), h))
            .collect()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> ServerMetrics {
        self.metrics
    }

    /// Work generator entry point: enqueues one subtask that trains from
    /// the snapshot `manifest` fingerprints, one version per parameter
    /// shard ([`ShardManifest::single`] for an unsharded store).
    pub fn add_workunit_sharded(
        &mut self,
        epoch: usize,
        shard_id: usize,
        manifest: ShardManifest,
        now: SimTime,
    ) -> WuId {
        let id = WuId(self.wus.len() as u64);
        let qseq = self.queue.push(id, shard_id);
        self.wus.push(WuRecord {
            wu: WorkUnit {
                id,
                epoch,
                shard_id,
                param_version: manifest.max_version(),
                param_versions: manifest,
                created_at: now,
            },
            phase: WuPhase::Unsent,
            attempts: 0,
            queued: Some(qseq),
            candidates: Vec::new(),
            target_results: self.cfg.replication,
        });
        self.open += 1;
        id
    }

    /// Enqueues one epoch's worth of subtasks (one per data shard), all
    /// sharing one per-parameter-shard version manifest.
    pub fn add_epoch_sharded(
        &mut self,
        epoch: usize,
        shards: usize,
        manifest: &ShardManifest,
        now: SimTime,
    ) {
        for s in 0..shards {
            self.add_workunit_sharded(epoch, s, manifest.clone(), now);
        }
    }

    /// True when `host` may take a replica of `wu_id`: the workunit is
    /// open, still wants more results (live replicas + banked candidate
    /// votes below its target), is not already running on this host, and
    /// the host has not voted on it.
    fn assignable_to(&self, wu_id: WuId, host: HostId) -> bool {
        let rec = &self.wus[wu_id.0 as usize];
        if !rec.phase.is_open() {
            return false;
        }
        if rec.candidates.iter().any(|(h, _)| *h == host) {
            return false;
        }
        if rec.phase.replica_count() + rec.candidates.len() >= rec.target_results as usize {
            return false;
        }
        match &rec.phase {
            WuPhase::InProgress { assignments } => assignments.iter().all(|a| a.host != host),
            _ => true,
        }
    }

    /// The adaptive completion deadline for `host`: [`DEADLINE_GRACE`] × its
    /// turnaround EWMA, clamped to `[min_timeout_s, max_timeout_s]` (both
    /// widened to admit the configured `timeout_s`, which is also the
    /// unseeded default).
    fn deadline_for(&self, host: HostId) -> f64 {
        match self.hosts[host.0 as usize].turnaround_ewma_s {
            Some(ewma) => {
                let lo = self.cfg.min_timeout_s.min(self.cfg.timeout_s);
                let hi = self.cfg.max_timeout_s.max(self.cfg.timeout_s);
                (DEADLINE_GRACE * ewma).clamp(lo, hi)
            }
            None => self.cfg.timeout_s,
        }
    }

    /// Observes one sample into a named registry histogram (no-op without
    /// telemetry).
    fn observe(&self, name: &'static str, value: f64) {
        if let Some(tel) = &self.telemetry {
            tel.registry()
                .histogram_with(name, Histogram::latency_bounds)
                .observe(value);
        }
    }

    /// Puts `host` in exponential fetch backoff after a failure (no-op when
    /// disabled or the host has no failure streak).
    fn apply_backoff(&mut self, host: HostId, now: SimTime) {
        let dur = self.hosts[host.0 as usize].start_backoff(
            now,
            self.cfg.backoff_base_s,
            self.cfg.backoff_max_s,
        );
        if dur > 0.0 {
            self.metrics.backoffs += 1;
            let streak = self.hosts[host.0 as usize].consecutive_failures;
            self.emit(
                now,
                Level::Info,
                "host_backoff",
                vec![
                    ("host", host.0.into()),
                    ("secs", dur.into()),
                    ("failures", streak.into()),
                ],
            );
        }
    }

    /// The earliest queue entry this host may take whose shard it already
    /// caches: a merge over the cached shards' index entries, each scanned
    /// in enqueue order. Equivalent to the historical head-to-tail scan
    /// (minimum enqueue sequence wins), but costs O(cached · log n) plus
    /// skips instead of O(queue).
    fn sticky_pick(&self, host: HostId) -> Option<u64> {
        let mut best: Option<u64> = None;
        for shard in &self.cold[host.0 as usize].cached_shards {
            if let Some(set) = self.queue.by_shard.get(shard) {
                for &q in set {
                    if best.is_some_and(|b| q >= b) {
                        break;
                    }
                    if self.assignable_to(self.queue.items[&q], host) {
                        best = Some(q);
                        break;
                    }
                }
            }
        }
        best
    }

    /// Scheduler: host `host` asks for work at `now`. Returns at most one
    /// assignment per call; callers loop while slots remain. Prefers a
    /// queued workunit whose shard the host already caches (sticky files),
    /// falling back to FIFO order. Hosts serving a failure backoff get
    /// nothing until it expires.
    pub fn request_work(&mut self, host: HostId, now: SimTime) -> Option<Assignment> {
        {
            let h = &self.hosts[host.0 as usize];
            if !h.has_capacity() || h.in_backoff(now) {
                return None;
            }
        }
        let cached_pick = if self.cfg.sticky_files {
            self.sticky_pick(host)
        } else {
            None
        };
        let pick = cached_pick.or_else(|| {
            self.queue
                .items
                .iter()
                .find(|(_, &id)| self.assignable_to(id, host))
                .map(|(&q, _)| q)
        })?;

        let wu_id = self.queue.items[&pick];
        let deadline_s = self.deadline_for(host);
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = &mut self.wus[wu_id.0 as usize];
        rec.attempts += 1;
        let deadline = now + deadline_s;
        let assignment = ActiveAssignment {
            seq,
            host,
            incarnation: self.hosts[host.0 as usize].lives,
            issued_at: now,
            deadline,
            attempt: rec.attempts,
        };
        match &mut rec.phase {
            WuPhase::Unsent => {
                rec.phase = WuPhase::InProgress {
                    assignments: vec![assignment],
                };
            }
            WuPhase::InProgress { assignments } => assignments.push(assignment),
            WuPhase::Done { .. } => unreachable!("assignable_to filtered Done"),
        }
        // Leave the workunit queued while it still wants more results.
        let dequeue =
            if rec.phase.replica_count() + rec.candidates.len() >= rec.target_results as usize {
                rec.queued.take().map(|q| (q, rec.wu.shard_id))
            } else {
                None
            };
        if let Some((q, shard)) = dequeue {
            self.queue.remove(q, shard);
        }
        self.timers.push(TimerEntry {
            deadline,
            seq,
            wu: wu_id,
            host,
        });
        self.observe(WU_DEADLINE_S, deadline_s);

        let attempt = self.wus[wu_id.0 as usize].attempts;
        let shard_id = self.wus[wu_id.0 as usize].wu.shard_id;
        let h = &mut self.hosts[host.0 as usize];
        h.in_flight += 1;
        h.live_assignments += 1;
        let cache = &mut self.cold[host.0 as usize].cached_shards;
        let shard_cached = cache.contains(&shard_id);
        if shard_cached {
            self.metrics.cache_hits += 1;
        } else {
            cache.insert(shard_id);
        }
        self.metrics.assigned += 1;
        self.emit(
            now,
            Level::Debug,
            "wu_assigned",
            vec![
                ("wu", wu_id.0.into()),
                ("host", host.0.into()),
                ("attempt", attempt.into()),
                ("shard", shard_id.into()),
                ("cached", shard_cached.into()),
            ],
        );
        if self.tracing() {
            // Dispatch latency = workunit creation to this hand-off
            // (re-dispatches after timeouts count the full wait).
            let rec = &self.wus[wu_id.0 as usize];
            let waited = (now - rec.wu.created_at).max(0.0);
            self.trace(
                now,
                TraceStage::Dispatch,
                wu_id,
                host,
                waited,
                vec![
                    ("attempt", attempt.into()),
                    ("shard", shard_id.into()),
                    ("epoch", rec.wu.epoch.into()),
                ],
            );
        }
        Some(Assignment {
            wu: self.wus[wu_id.0 as usize].wu.clone(),
            attempt,
            shard_cached,
            deadline,
        })
    }

    /// Removes `host`'s live assignment on `wu_id` (if any), freeing its
    /// slot. The assignment's timer entry is left to lapse in the heap
    /// (lazy invalidation: its `seq` no longer names a live assignment).
    /// Returns whether an assignment was removed.
    fn release_assignment(&mut self, wu_id: WuId, host: HostId) -> bool {
        let rec = &mut self.wus[wu_id.0 as usize];
        if let WuPhase::InProgress { assignments } = &mut rec.phase {
            if let Some(pos) = assignments.iter().position(|a| a.host == host) {
                let a = assignments.remove(pos);
                if assignments.is_empty() {
                    rec.phase = WuPhase::Unsent;
                }
                let h = &mut self.hosts[host.0 as usize];
                h.live_assignments = h.live_assignments.saturating_sub(1);
                // An orphaned assignment (issued to a dead predecessor)
                // never occupied the replacement's ledger.
                if a.incarnation == h.lives {
                    h.in_flight = h.in_flight.saturating_sub(1);
                }
                return true;
            }
        }
        false
    }

    /// Puts an open workunit back in the queue if it is not already there.
    fn ensure_queued(&mut self, wu_id: WuId) {
        let rec = &self.wus[wu_id.0 as usize];
        if rec.phase.is_open() && rec.queued.is_none() {
            let shard = rec.wu.shard_id;
            let qseq = self.queue.push(wu_id, shard);
            self.wus[wu_id.0 as usize].queued = Some(qseq);
        }
    }

    /// A client uploads an (already validator-screened) result payload.
    ///
    /// The upload becomes a quorum candidate; when `quorum` candidates
    /// agree under the configured comparator, the workunit completes and
    /// the caller assimilates the payload it is holding (`Accepted`).
    /// Until then the server banks a copy (`Pending`), extending the
    /// result target when the outstanding replicas can no longer reach
    /// quorum. Uploads for decided workunits, or second votes from the
    /// same host, are `Stale`.
    pub fn report_result(
        &mut self,
        wu_id: WuId,
        host: HostId,
        payload: &[f32],
        now: SimTime,
    ) -> ReportStatus {
        let idx = wu_id.0 as usize;
        let duplicate_vote = self.wus[idx].candidates.iter().any(|(h, _)| *h == host);
        if !self.wus[idx].phase.is_open() || duplicate_vote {
            // Free the reporter's slot if it still held a replica record —
            // by construction it does not, but the call is idempotent.
            self.release_assignment(wu_id, host);
            self.metrics.stale_results += 1;
            self.emit(
                now,
                Level::Debug,
                "wu_stale",
                vec![("wu", wu_id.0.into()), ("host", host.0.into())],
            );
            if self.tracing() {
                self.trace(
                    now,
                    TraceStage::Validate,
                    wu_id,
                    host,
                    0.0,
                    vec![("outcome", "stale".into())],
                );
            }
            return ReportStatus::Stale;
        }
        // Turnaround is observed only while the reporter still holds a live
        // assignment from its current incarnation (a late post-timeout
        // upload carries no timing signal — the blown deadline already fed
        // the EWMA — and an orphan's clock belongs to a dead predecessor).
        if let WuPhase::InProgress { assignments } = &self.wus[idx].phase {
            if let Some(a) = assignments
                .iter()
                .find(|a| a.host == host && a.incarnation == self.hosts[host.0 as usize].lives)
            {
                let turnaround = (now - a.issued_at).max(0.0);
                self.hosts[host.0 as usize].record_turnaround(turnaround, DEADLINE_ALPHA);
                self.observe(HOST_TURNAROUND_S, turnaround);
            }
        }
        self.release_assignment(wu_id, host);
        // The reporter's own vote counts without being banked: a vote that
        // decides the workunit is never copied.
        let agreeing = usize::from(self.comparator.matches(payload, payload))
            + self.wus[idx]
                .candidates
                .iter()
                .filter(|(_, p)| self.comparator.matches(p, payload))
                .count();
        if agreeing >= self.cfg.quorum as usize {
            self.decide(wu_id, host, payload, now);
            if self.tracing() {
                self.trace(
                    now,
                    TraceStage::Validate,
                    wu_id,
                    host,
                    0.0,
                    vec![("outcome", "accepted".into()), ("votes", agreeing.into())],
                );
            }
            return ReportStatus::Accepted;
        }
        self.wus[idx].candidates.push((host, payload.to_vec()));
        // Quorum still open. If the largest agreeing group plus every vote
        // that could still arrive (live replicas + unissued target slots)
        // cannot reach quorum, issue more replicas — BOINC's transitioner
        // reacting to a validator "inconclusive".
        let (best_group, live, banked, target) = {
            let rec = &self.wus[idx];
            let best = rec
                .candidates
                .iter()
                .map(|(_, a)| {
                    rec.candidates
                        .iter()
                        .filter(|(_, b)| self.comparator.matches(a, b))
                        .count()
                })
                .max()
                .unwrap_or(0);
            (
                best,
                rec.phase.replica_count(),
                rec.candidates.len(),
                rec.target_results as usize,
            )
        };
        let quorum = self.cfg.quorum as usize;
        let outstanding = target.saturating_sub(live + banked);
        if best_group + live + outstanding < quorum {
            let cap = MAX_ATTEMPTS.max(self.cfg.replication) as usize;
            let need = quorum - (best_group + live + outstanding);
            let new_target = (target + need).min(cap.max(target));
            if new_target > target {
                self.wus[idx].target_results = new_target as u32;
                self.metrics.quorum_disagreements += 1;
                self.emit(
                    now,
                    Level::Warn,
                    "wu_quorum_disagree",
                    vec![
                        ("wu", wu_id.0.into()),
                        ("host", host.0.into()),
                        ("candidates", banked.into()),
                        ("target", new_target.into()),
                    ],
                );
            }
        }
        self.ensure_queued(wu_id);
        if self.cfg.quorum > 1 {
            self.emit(
                now,
                Level::Debug,
                "wu_quorum_pending",
                vec![
                    ("wu", wu_id.0.into()),
                    ("host", host.0.into()),
                    ("votes", agreeing.into()),
                    ("quorum", self.cfg.quorum.into()),
                ],
            );
        }
        if self.tracing() {
            self.trace(
                now,
                TraceStage::Validate,
                wu_id,
                host,
                0.0,
                vec![("outcome", "pending".into()), ("votes", agreeing.into())],
            );
        }
        ReportStatus::Pending
    }

    /// Completes `wu_id` with `winner`'s `payload`: cancels live replicas,
    /// credits every banked candidate that agreed with the winning result
    /// and then the winner (whose vote is `payload` itself, not banked), and
    /// penalizes the outvoted ones like validator rejects.
    fn decide(&mut self, wu_id: WuId, winner: HostId, payload: &[f32], now: SimTime) {
        let others = self.wus[wu_id.0 as usize].phase.running_on();
        for other in others {
            self.release_assignment(wu_id, other);
            self.metrics.cancelled_replicas += 1;
        }
        let rec = &mut self.wus[wu_id.0 as usize];
        let candidates = std::mem::take(&mut rec.candidates);
        rec.phase = WuPhase::Done {
            host: winner,
            at: now,
        };
        let dequeue = rec.queued.take().map(|q| (q, rec.wu.shard_id));
        if let Some((q, shard)) = dequeue {
            self.queue.remove(q, shard);
        }
        self.open -= 1;
        let total_votes = candidates.len() + 1;
        let mut agreeing = 1usize;
        for (h, p) in &candidates {
            if self.comparator.matches(p, payload) {
                agreeing += 1;
                self.hosts[h.0 as usize].record_success();
            } else {
                self.hosts[h.0 as usize].record_invalid();
                self.metrics.invalid_results += 1;
                self.emit(
                    now,
                    Level::Warn,
                    "wu_invalid",
                    vec![
                        ("wu", wu_id.0.into()),
                        ("host", h.0.into()),
                        ("cause", "quorum".into()),
                    ],
                );
                self.apply_backoff(*h, now);
            }
        }
        // The winner voted last.
        self.hosts[winner.0 as usize].record_success();
        self.metrics.completed += 1;
        self.emit(
            now,
            Level::Debug,
            "wu_completed",
            vec![("wu", wu_id.0.into()), ("host", winner.0.into())],
        );
        if self.cfg.quorum > 1 {
            self.emit(
                now,
                Level::Info,
                "wu_quorum_reached",
                vec![
                    ("wu", wu_id.0.into()),
                    ("host", winner.0.into()),
                    ("agreeing", agreeing.into()),
                    ("votes", total_votes.into()),
                ],
            );
        }
    }

    /// The validator rejected `host`'s upload for `wu_id`: drop the
    /// replica, penalize the host (as an *invalid*, not a timeout — the
    /// two stay disjoint in host stats and metrics), put it in fetch
    /// backoff, and re-queue if no replicas remain.
    pub fn report_invalid(&mut self, wu_id: WuId, host: HostId, now: SimTime) {
        self.metrics.invalid_results += 1;
        if self.tracing() {
            self.trace(
                now,
                TraceStage::Validate,
                wu_id,
                host,
                0.0,
                vec![("outcome", "invalid".into())],
            );
        }
        self.emit(
            now,
            Level::Warn,
            "wu_invalid",
            vec![
                ("wu", wu_id.0.into()),
                ("host", host.0.into()),
                ("cause", "validator".into()),
            ],
        );
        if self.release_assignment(wu_id, host) {
            self.hosts[host.0 as usize].record_invalid();
            self.apply_backoff(host, now);
            self.metrics.reassignments += 1;
            self.emit(
                now,
                Level::Info,
                "wu_reassigned",
                vec![("wu", wu_id.0.into()), ("cause", "invalid".into())],
            );
            self.ensure_queued(wu_id);
        }
    }

    /// Transitioner: expires assignments whose deadline passed, re-queuing
    /// their workunits and penalizing the hosts. Returns the workunits that
    /// lost at least one replica.
    ///
    /// Drains the timer queue instead of scanning workunits: O(1) when the
    /// earliest armed deadline lies ahead, O(due · log n) otherwise. Due
    /// entries are processed in `(workunit, issue)` order — the exact
    /// order of the historical full scan — so EWMA feeds, metrics,
    /// telemetry events and the returned list are bitwise-unchanged.
    pub fn scan_timeouts(&mut self, now: SimTime) -> Vec<WuId> {
        let wus = &self.wus;
        let mut due = self
            .timers
            .pop_due(now, |e| match &wus[e.wu.0 as usize].phase {
                WuPhase::InProgress { assignments } => assignments.iter().any(|a| a.seq == e.seq),
                _ => false,
            });
        let mut expired = Vec::new();
        if due.is_empty() {
            return expired;
        }
        due.sort_unstable_by_key(|e| (e.wu.0, e.seq));
        for i in 0..due.len() {
            let e = due[i];
            let wu_id = e.wu;
            // Liveness was established at pop time and no processing step
            // in this loop can remove another due entry's assignment
            // (each release targets exactly one seq), so the lookup holds.
            let (incarnation, issued_at, deadline) = {
                let WuPhase::InProgress { assignments } = &self.wus[wu_id.0 as usize].phase else {
                    unreachable!("due entry's workunit left InProgress mid-scan");
                };
                let a = assignments
                    .iter()
                    .find(|a| a.seq == e.seq)
                    .expect("due entry names a live assignment");
                (a.incarnation, a.issued_at, a.deadline)
            };
            self.release_assignment(wu_id, e.host);
            // An orphaned assignment (its incarnation died and a
            // replacement registered) still only resurfaces here — the
            // server learns about lost work through timeouts (§III-E) —
            // but the expiry is not the new incarnation's fault, so the
            // host record takes no penalty, EWMA growth, or backoff.
            if incarnation == self.hosts[e.host.0 as usize].lives {
                // Feed the EWMA a grown estimate of the blown deadline
                // so a slow-but-honest host earns a longer one next
                // time instead of timing out forever.
                let blown = (deadline - issued_at) / DEADLINE_GRACE * TIMEOUT_TURNAROUND_GROWTH;
                let h = &mut self.hosts[e.host.0 as usize];
                h.record_timeout();
                h.record_turnaround(blown, DEADLINE_ALPHA);
                self.apply_backoff(e.host, now);
            }
            self.metrics.timeouts += 1;
            self.metrics.reassignments += 1;
            self.emit(
                now,
                Level::Info,
                "wu_timeout",
                vec![("wu", wu_id.0.into()), ("host", e.host.0.into())],
            );
            self.emit(
                now,
                Level::Info,
                "wu_reassigned",
                vec![("wu", wu_id.0.into()), ("cause", "timeout".into())],
            );
            if expired.last() != Some(&wu_id) {
                expired.push(wu_id);
            }
            // Re-queue once per workunit, after its whole expiry group —
            // the historical scan's enqueue point.
            if due.get(i + 1).map(|n| n.wu) != Some(wu_id) {
                self.ensure_queued(wu_id);
            }
        }
        expired
    }

    /// Marks a host terminated (preempted). In-flight work is *not*
    /// immediately re-queued: like the real system, the server only learns
    /// through timeouts (§III-E).
    pub fn preempt_host(&mut self, id: HostId) {
        self.hosts[id.0 as usize].alive = false;
    }

    /// A replacement instance comes up for a terminated host slot. The dead
    /// incarnation's assignments are *orphaned*, not cancelled: the server
    /// still learns about the lost work only when their deadlines pass
    /// (§III-E), but that expiry is charged to the run metrics alone — the
    /// host record, now a fresh incarnation that never held the work, takes
    /// no timeout penalty or backoff for it. The in-flight ledger restarts
    /// at zero so the replacement cannot over-commit past
    /// `effective_slots`, and orphan expiry no longer decrements it. The
    /// sticky-file cache dies with the instance; reputation survives (it
    /// tracks the volunteer, not the instance), but any pending fetch
    /// backoff is lifted so the fresh instance gets an immediate probe.
    /// Reviving an already-live host is a no-op.
    pub fn revive_host(&mut self, id: HostId, now: SimTime) {
        if self.hosts[id.0 as usize].alive {
            return;
        }
        // The dead incarnations' still-armed assignments, counted O(1)
        // from the maintained ledger instead of a workunit scan.
        let orphaned = self.hosts[id.0 as usize].live_assignments as u64;
        self.metrics.revive_orphaned += orphaned;
        let h = &mut self.hosts[id.0 as usize];
        h.lives += 1;
        h.in_flight = 0;
        h.alive = true;
        h.clear_backoff();
        self.cold[id.0 as usize].cached_shards.clear();
        self.emit(
            now,
            Level::Info,
            "host_revived",
            vec![("host", id.0.into()), ("orphaned", orphaned.into())],
        );
    }

    /// Workunits still needing a result (maintained counter, O(1)).
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// Workunits currently sitting in the work queue waiting for a host
    /// (the ops surface's backlog gauge; O(1)).
    pub fn queue_depth(&self) -> usize {
        self.queue.items.len()
    }

    /// True when all enqueued work has completed.
    pub fn all_done(&self) -> bool {
        self.open == 0
    }

    /// The workunit record for an id.
    pub fn workunit(&self, wu_id: WuId) -> &WorkUnit {
        &self.wus[wu_id.0 as usize].wu
    }

    /// Phase of a workunit (for tests and drivers).
    pub fn phase(&self, wu_id: WuId) -> &WuPhase {
        &self.wus[wu_id.0 as usize].phase
    }

    /// Earliest in-progress deadline, for event-driven timeout scans.
    /// Prunes stale timer entries from the heap top on the way (hence
    /// `&mut`); amortized O(1).
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        let wus = &self.wus;
        self.timers
            .next_deadline(|e| match &wus[e.wu.0 as usize].phase {
                WuPhase::InProgress { assignments } => assignments.iter().any(|a| a.seq == e.seq),
                _ => false,
            })
    }

    /// Banked quorum candidates for a workunit.
    #[cfg(test)]
    fn candidate_count(&self, wu_id: WuId) -> usize {
        self.wus[wu_id.0 as usize].candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_simnet::table1;

    fn server(hosts: usize, slots: usize) -> BoincServer {
        let fleet = (0..hosts)
            .map(|_| (table1::client_8v_2_2(), slots))
            .collect();
        BoincServer::new(MiddlewareConfig::default(), fleet)
    }

    fn replicated(hosts: usize, slots: usize, replication: u32) -> BoincServer {
        let fleet = (0..hosts)
            .map(|_| (table1::client_8v_2_2(), slots))
            .collect();
        BoincServer::new(
            MiddlewareConfig {
                replication,
                ..Default::default()
            },
            fleet,
        )
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fifo_assignment_and_completion() {
        let mut s = server(1, 2);
        s.add_epoch_sharded(1, 3, &ShardManifest::single(7), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(a.wu.shard_id, 0);
        assert_eq!(a.wu.param_version, 7);
        assert_eq!(a.attempt, 1);
        assert!(!a.shard_cached);
        let b = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(b.wu.shard_id, 1);
        // Two slots full.
        assert!(s.request_work(HostId(0), t(0.0)).is_none());
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[], t(10.0)),
            ReportStatus::Accepted
        );
        // Slot freed; third workunit assignable.
        let c = s.request_work(HostId(0), t(10.0)).unwrap();
        assert_eq!(c.wu.shard_id, 2);
        assert_eq!(s.open_count(), 2);
    }

    #[test]
    fn sticky_files_prefer_cached_shards() {
        let mut s = server(1, 1);
        s.add_workunit_sharded(1, 5, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        s.report_result(a.wu.id, HostId(0), &[], t(1.0));
        // Epoch 2: shards 3 and 5 queued; host caches shard 5.
        s.add_workunit_sharded(2, 3, ShardManifest::single(2), t(1.0));
        s.add_workunit_sharded(2, 5, ShardManifest::single(2), t(1.0));
        let b = s.request_work(HostId(0), t(1.0)).unwrap();
        assert_eq!(b.wu.shard_id, 5, "cached shard preferred over FIFO");
        assert!(b.shard_cached);
        assert_eq!(s.metrics().cache_hits, 1);
    }

    #[test]
    fn sticky_disabled_is_fifo() {
        let mut s = BoincServer::new(
            MiddlewareConfig {
                sticky_files: false,
                ..Default::default()
            },
            vec![(table1::client_8v_2_2(), 1)],
        );
        s.add_workunit_sharded(1, 5, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        s.report_result(a.wu.id, HostId(0), &[], t(1.0));
        s.add_workunit_sharded(2, 3, ShardManifest::single(2), t(1.0));
        s.add_workunit_sharded(2, 5, ShardManifest::single(2), t(1.0));
        let b = s.request_work(HostId(0), t(1.0)).unwrap();
        assert_eq!(b.wu.shard_id, 3, "FIFO when sticky files off");
    }

    #[test]
    fn timeout_requeues_and_penalizes() {
        let mut s = server(2, 1);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(a.deadline, t(300.0));
        assert!(s.scan_timeouts(t(299.0)).is_empty());
        let expired = s.scan_timeouts(t(300.0));
        assert_eq!(expired, vec![a.wu.id]);
        assert!(s.hosts()[0].reliability < 1.0);
        assert_eq!(s.metrics().timeouts, 1);
        // Reassignable to the other host with attempt 2.
        let b = s.request_work(HostId(1), t(300.0)).unwrap();
        assert_eq!(b.wu.id, a.wu.id);
        assert_eq!(b.attempt, 2);
    }

    #[test]
    fn late_result_after_timeout_is_accepted_if_unclaimed() {
        let mut s = server(1, 1);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        s.scan_timeouts(t(301.0));
        // The original host finally uploads.
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[], t(302.0)),
            ReportStatus::Accepted
        );
        assert!(s.all_done());
        // And the queue no longer re-issues it.
        assert!(s.request_work(HostId(0), t(303.0)).is_none());
    }

    #[test]
    fn double_report_is_stale() {
        let mut s = server(2, 1);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        s.scan_timeouts(t(301.0));
        let b = s.request_work(HostId(1), t(301.0)).unwrap();
        assert_eq!(a.wu.id, b.wu.id);
        // New assignee completes first.
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[], t(400.0)),
            ReportStatus::Accepted
        );
        // Original host's late upload and a double-report are both stale.
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[], t(401.0)),
            ReportStatus::Stale
        );
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[], t(402.0)),
            ReportStatus::Stale
        );
        assert_eq!(s.metrics().stale_results, 2);
    }

    #[test]
    fn invalid_result_requeues_after_backoff() {
        let mut s = server(1, 1);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        s.report_invalid(a.wu.id, HostId(0), t(5.0));
        assert_eq!(s.metrics().invalid_results, 1);
        assert_eq!(s.open_count(), 1);
        // The offender sits out its fetch backoff (15 s base) first...
        assert!(s.request_work(HostId(0), t(5.0)).is_none());
        assert!(s.hosts()[0].in_backoff(t(19.9)));
        // ...and the penalty is an invalid, not a timeout.
        assert_eq!((s.hosts()[0].invalids, s.hosts()[0].timeouts), (1, 0));
        assert_eq!(s.metrics().timeouts, 0);
        let b = s.request_work(HostId(0), t(20.0)).unwrap();
        assert_eq!(b.wu.id, a.wu.id);
        assert_eq!(b.attempt, 2);
    }

    #[test]
    fn preempted_host_recovers_via_timeout() {
        let mut s = server(2, 2);
        s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(0), t(0.0)).unwrap();
        s.preempt_host(HostId(0));
        // Dead host takes no more work...
        assert!(s.request_work(HostId(0), t(1.0)).is_none());
        // ...and its in-flight work only resurfaces at the deadline.
        assert!(s.scan_timeouts(t(100.0)).is_empty());
        let expired = s.scan_timeouts(t(300.0));
        assert_eq!(expired.len(), 2);
        assert!(expired.contains(&a.wu.id) && expired.contains(&b.wu.id));
        // The healthy host finishes the job.
        let c = s.request_work(HostId(1), t(300.0)).unwrap();
        let d = s.request_work(HostId(1), t(300.0)).unwrap();
        s.report_result(c.wu.id, HostId(1), &[], t(350.0));
        s.report_result(d.wu.id, HostId(1), &[], t(360.0));
        assert!(s.all_done());
    }

    #[test]
    fn revive_clears_cache_and_inflight() {
        let mut s = server(1, 2);
        s.add_workunit_sharded(1, 9, ShardManifest::single(1), t(0.0));
        s.request_work(HostId(0), t(0.0)).unwrap();
        s.preempt_host(HostId(0));
        s.revive_host(HostId(0), t(1.0));
        assert!(s.hosts()[0].alive);
        assert!(s.cached_shards(HostId(0)).is_empty());
        assert_eq!(s.hosts()[0].in_flight, 0);
    }

    #[test]
    fn revive_orphans_stale_assignments_without_penalty() {
        let mut s = server(2, 2);
        s.add_epoch_sharded(1, 4, &ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(0), t(0.0)).unwrap();
        s.preempt_host(HostId(0));
        s.revive_host(HostId(0), t(10.0));
        // The dead incarnation's assignments stay in flight — the server
        // only learns about lost work through timeouts (§III-E) — but the
        // replacement's ledger starts clean: it takes a full complement of
        // *fresh* work immediately, with no over-commit past its slots.
        assert_eq!(s.metrics().revive_orphaned, 2);
        assert_eq!(s.hosts()[0].in_flight, 0);
        let c = s.request_work(HostId(0), t(10.0)).unwrap();
        let d = s.request_work(HostId(0), t(10.0)).unwrap();
        assert!(s.request_work(HostId(0), t(10.0)).is_none());
        assert!(c.wu.id != a.wu.id && d.wu.id != a.wu.id);
        // When the orphans' deadlines pass the work is recovered and the
        // run-level timeout metric counts the loss...
        let expired = s.scan_timeouts(t(300.5));
        assert!(expired.contains(&a.wu.id) && expired.contains(&b.wu.id));
        assert_eq!(s.metrics().timeouts, 2);
        // ...but the new incarnation is not blamed: reputation, backoff and
        // the ledger for its own live work are untouched.
        assert_eq!(s.hosts()[0].reliability, 1.0);
        assert_eq!(s.hosts()[0].timeouts, 0);
        assert!(!s.hosts()[0].in_backoff(t(300.5)));
        assert_eq!(s.hosts()[0].in_flight, 2);
        // Reviving a live host changes nothing.
        s.revive_host(HostId(0), t(301.0));
        assert_eq!(s.hosts()[0].in_flight, 2);
        assert_eq!(s.metrics().revive_orphaned, 2);
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut s = server(2, 1);
        s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
        assert_eq!(s.next_deadline(), None);
        s.request_work(HostId(0), t(0.0)).unwrap();
        let mut q = vc_simnet::EventQueue::<()>::new();
        q.schedule(t(50.0), ());
        q.pop();
        s.request_work(HostId(1), t(50.0)).unwrap();
        assert_eq!(s.next_deadline(), Some(t(300.0)));
    }

    #[test]
    fn next_deadline_skips_completed_assignments() {
        let mut s = server(2, 1);
        s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(10.0)).unwrap();
        assert_eq!(s.next_deadline(), Some(t(300.0)));
        // First assignment completes: its timer entry is stale and must be
        // pruned, revealing the later deadline.
        s.report_result(a.wu.id, HostId(0), &[], t(20.0));
        assert_eq!(s.next_deadline(), Some(b.deadline));
        s.report_result(b.wu.id, HostId(1), &[], t(30.0));
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn unreliable_host_gets_fewer_slots() {
        let mut s = server(1, 4);
        s.add_epoch_sharded(1, 20, &ShardManifest::single(1), t(0.0));
        // Burn reliability with repeated timeouts.
        for round in 0..6 {
            let now = t(round as f64 * 400.0);
            while s.request_work(HostId(0), now).is_some() {}
            s.scan_timeouts(t(round as f64 * 400.0 + 301.0));
        }
        let h = &s.hosts()[0];
        assert!(h.effective_slots() < 4, "slots {}", h.effective_slots());
    }

    // ----------------------------------------------------- replication

    #[test]
    fn replication_issues_to_distinct_hosts() {
        let mut s = replicated(3, 2, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        // Same host cannot take the second replica.
        assert!(s.request_work(HostId(0), t(0.0)).is_none());
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        assert_eq!(a.wu.id, b.wu.id);
        assert_eq!(s.phase(a.wu.id).replica_count(), 2);
        // Cap reached: a third host gets nothing.
        assert!(s.request_work(HostId(2), t(0.0)).is_none());
    }

    #[test]
    fn first_replica_wins_and_cancels_the_other() {
        let mut s = replicated(2, 1, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[], t(50.0)),
            ReportStatus::Accepted
        );
        // Loser's slot was freed by cancellation...
        assert_eq!(s.hosts()[1].in_flight, 0);
        assert_eq!(s.metrics().cancelled_replicas, 1);
        // ...and its late upload is stale without penalty.
        let rel_before = s.hosts()[1].reliability;
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[], t(60.0)),
            ReportStatus::Stale
        );
        assert_eq!(s.hosts()[1].reliability, rel_before);
        assert!(s.all_done());
    }

    #[test]
    fn replica_timeout_leaves_other_replica_running() {
        let mut s = replicated(2, 1, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        // Second replica starts later, so its deadline is later.
        let mut q = vc_simnet::EventQueue::<()>::new();
        q.schedule(t(100.0), ());
        q.pop();
        let b = s.request_work(HostId(1), t(100.0)).unwrap();
        assert_eq!(a.wu.id, b.wu.id);
        // First replica expires at 300; second still lives.
        let expired = s.scan_timeouts(t(301.0));
        assert_eq!(expired, vec![a.wu.id]);
        assert_eq!(s.phase(a.wu.id).replica_count(), 1);
        // Workunit is open and re-queued (it lost a replica); the timed-out
        // host re-takes it once its fetch backoff (15 s) expires.
        assert!(s.request_work(HostId(0), t(301.0)).is_none());
        let c = s.request_work(HostId(0), t(317.0)).unwrap();
        assert_eq!(c.wu.id, a.wu.id);
        // Host 1 finishes; everyone else is cancelled.
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[], t(350.0)),
            ReportStatus::Accepted
        );
        assert!(s.all_done());
        assert_eq!(s.hosts()[0].in_flight, 0, "cancelled replica freed slot");
    }

    #[test]
    fn replication_one_is_the_classic_behaviour() {
        let mut s = replicated(2, 1, 1);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let _a = s.request_work(HostId(0), t(0.0)).unwrap();
        // Second host cannot take a replica at replication = 1.
        assert!(s.request_work(HostId(1), t(0.0)).is_none());
    }

    // ------------------------------------------------ adaptive deadlines

    #[test]
    fn deadline_adapts_to_observed_turnaround() {
        let mut s = server(1, 1);
        s.add_epoch_sharded(1, 3, &ShardManifest::single(1), t(0.0));
        // Unseeded host: the configured timeout applies verbatim.
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(a.deadline, t(300.0));
        s.report_result(a.wu.id, HostId(0), &[], t(10.0));
        // One 10 s observation seeds the EWMA; grace 3 × 10 = 30 (the
        // floor), far below the old fixed 300.
        let b = s.request_work(HostId(0), t(10.0)).unwrap();
        assert_eq!(b.deadline, t(40.0));
        // A slower result drags the EWMA (and deadline) back up.
        s.report_result(b.wu.id, HostId(0), &[], t(110.0));
        let c = s.request_work(HostId(0), t(110.0)).unwrap();
        let granted = c.deadline - t(110.0);
        assert!(
            granted > 30.0 && granted < 300.0,
            "blended deadline: {granted}"
        );
    }

    #[test]
    fn timeout_grows_the_next_deadline() {
        let mut s = BoincServer::new(
            MiddlewareConfig {
                timeout_s: 10.0,
                min_timeout_s: 10.0,
                backoff_base_s: 0.0,
                ..Default::default()
            },
            vec![(table1::client_8v_2_2(), 1)],
        );
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(a.deadline, t(10.0));
        s.scan_timeouts(t(11.0));
        // The blown 10 s deadline feeds the EWMA as (10/grace)·1.5, so the
        // re-issue gets 1.5× the old allowance instead of timing out on the
        // same fixed clock forever.
        let b = s.request_work(HostId(0), t(11.0)).unwrap();
        let granted = b.deadline - t(11.0);
        assert!((granted - 15.0).abs() < 1e-9, "granted {granted}");
    }

    #[test]
    fn deadline_clamp_is_widened_by_an_extreme_timeout_s() {
        // timeout_s below min_timeout_s: the clamp floor follows timeout_s
        // down, so a fast-turnaround config is not silently raised.
        let cfg = MiddlewareConfig {
            timeout_s: 2.0,
            min_timeout_s: 30.0,
            ..Default::default()
        };
        let mut s = BoincServer::new(cfg, vec![(table1::client_8v_2_2(), 1)]);
        s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(a.deadline, t(2.0), "unseeded: configured timeout");
        s.report_result(a.wu.id, HostId(0), &[], t(0.5));
        let b = s.request_work(HostId(0), t(0.5)).unwrap();
        assert_eq!(b.deadline - t(0.5), 2.0, "clamped to timeout_s, not 30");
    }

    // -------------------------------------------------- backoff & fetch

    #[test]
    fn backoff_blocks_fetch_until_it_expires() {
        let mut s = BoincServer::new(
            MiddlewareConfig {
                timeout_s: 10.0,
                min_timeout_s: 10.0,
                backoff_base_s: 5.0,
                backoff_max_s: 40.0,
                ..Default::default()
            },
            vec![(table1::client_8v_2_2(), 1); 2],
        );
        s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
        s.request_work(HostId(0), t(0.0)).unwrap();
        s.scan_timeouts(t(10.0));
        assert_eq!(s.metrics().backoffs, 1);
        // Barred for 5 s; the other host is unaffected.
        assert!(s.request_work(HostId(0), t(12.0)).is_none());
        let b = s.request_work(HostId(1), t(12.0)).unwrap();
        assert!(s.request_work(HostId(0), t(15.0)).is_some());
        // Success clears the streak entirely.
        s.report_result(b.wu.id, HostId(1), &[], t(16.0));
        assert!(!s.hosts()[1].in_backoff(t(16.0)));
    }

    // ------------------------------------------------------------ quorum

    fn quorate(hosts: usize, replication: u32, quorum: u32) -> BoincServer {
        let fleet = (0..hosts).map(|_| (table1::client_8v_2_2(), 2)).collect();
        BoincServer::new(
            MiddlewareConfig {
                replication,
                quorum,
                ..Default::default()
            },
            fleet,
        )
    }

    #[test]
    fn quorum_two_pends_until_agreement() {
        let mut s = quorate(2, 2, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        assert_eq!(a.wu.id, b.wu.id);
        let result = [1.0f32, 2.0, 3.0];
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &result, t(5.0)),
            ReportStatus::Pending
        );
        assert!(s.phase(a.wu.id).is_open(), "one vote is not a quorum");
        assert_eq!(s.candidate_count(a.wu.id), 1);
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &result, t(6.0)),
            ReportStatus::Accepted
        );
        assert!(s.all_done());
        // Both quorum members are credited.
        assert_eq!(s.hosts()[0].completed, 1);
        assert_eq!(s.hosts()[1].completed, 1);
        assert_eq!(s.metrics().completed, 1);
    }

    #[test]
    fn quorum_disagreement_extends_target_and_penalizes_loser() {
        let mut s = quorate(3, 2, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        // Host 0 uploads a poisoned result, host 1 the honest one.
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[999.0], t(5.0)),
            ReportStatus::Pending
        );
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[1.0], t(6.0)),
            ReportStatus::Pending
        );
        // Two disagreeing votes, none outstanding: the target grows so a
        // tie-breaker replica can be issued.
        assert!(s.wus[a.wu.id.0 as usize].target_results > 2);
        assert!(s.metrics().quorum_disagreements > 0);
        let c = s.request_work(HostId(2), t(7.0)).unwrap();
        assert_eq!(c.wu.id, a.wu.id);
        assert_eq!(
            s.report_result(c.wu.id, HostId(2), &[1.0], t(12.0)),
            ReportStatus::Accepted
        );
        assert!(s.all_done());
        // Winners credited; the outvoted host penalized like a validator
        // reject (invalid, not timeout) and sent into backoff.
        assert_eq!(s.hosts()[1].completed, 1);
        assert_eq!(s.hosts()[2].completed, 1);
        assert_eq!(s.hosts()[0].completed, 0);
        assert_eq!(s.hosts()[0].invalids, 1);
        assert_eq!(s.metrics().invalid_results, 1);
        assert!(s.hosts()[0].in_backoff(t(13.0)));
        assert!(s.hosts()[0].reliability < s.hosts()[1].reliability);
    }

    #[test]
    fn quorum_rejects_double_votes() {
        let mut s = quorate(2, 2, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[1.0], t(5.0)),
            ReportStatus::Pending
        );
        // The same host cannot vote itself into a quorum.
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[1.0], t(6.0)),
            ReportStatus::Stale
        );
        assert_eq!(s.candidate_count(a.wu.id), 1);
        // Nor re-take the workunit it already voted on.
        assert!(s.request_work(HostId(0), t(7.0)).is_none());
    }

    #[test]
    fn tolerance_comparator_closes_quorum_on_close_results() {
        let mut s = quorate(2, 2, 2);
        s.set_comparator(Box::new(crate::ToleranceComparator {
            atol: 1e-3,
            rtol: 0.0,
        }));
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        assert_eq!(
            s.report_result(a.wu.id, HostId(0), &[1.0], t(5.0)),
            ReportStatus::Pending
        );
        assert_eq!(
            s.report_result(b.wu.id, HostId(1), &[1.0005], t(6.0)),
            ReportStatus::Accepted
        );
        assert!(s.all_done());
    }

    #[test]
    fn quorum_turnaround_feeds_the_deadline_of_both_replicas() {
        let mut s = quorate(2, 2, 2);
        s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
        s.add_workunit_sharded(1, 1, ShardManifest::single(1), t(0.0));
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        s.report_result(a.wu.id, HostId(0), &[1.0], t(20.0));
        s.report_result(b.wu.id, HostId(1), &[1.0], t(40.0));
        assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(20.0));
        assert_eq!(s.hosts()[1].turnaround_ewma_s, Some(40.0));
    }

    #[test]
    fn config_validation_rejects_inconsistent_knobs() {
        let bad_quorum = MiddlewareConfig {
            replication: 2,
            quorum: 3,
            ..Default::default()
        };
        assert!(bad_quorum.validate().is_err());
        let bad_bounds = MiddlewareConfig {
            min_timeout_s: 100.0,
            max_timeout_s: 10.0,
            ..Default::default()
        };
        assert!(bad_bounds.validate().is_err());
        let bad_backoff = MiddlewareConfig {
            backoff_base_s: 10.0,
            backoff_max_s: 1.0,
            ..Default::default()
        };
        assert!(bad_backoff.validate().is_err());
        assert!(MiddlewareConfig::default().validate().is_ok());
    }

    #[test]
    fn same_instant_deadlines_expire_in_issue_order() {
        let mut s = server(3, 1);
        s.add_epoch_sharded(1, 3, &ShardManifest::single(1), t(0.0));
        // Three hosts take three workunits at the same instant — identical
        // deadlines, tie broken by the issue sequence.
        let a = s.request_work(HostId(0), t(0.0)).unwrap();
        let b = s.request_work(HostId(1), t(0.0)).unwrap();
        let c = s.request_work(HostId(2), t(0.0)).unwrap();
        let expired = s.scan_timeouts(t(300.0));
        assert_eq!(expired, vec![a.wu.id, b.wu.id, c.wu.id]);
        assert_eq!(s.metrics().timeouts, 3);
    }
}
