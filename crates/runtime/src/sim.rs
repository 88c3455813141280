//! Deterministic simulation testing (DST) for the volunteer-fleet runtime.
//!
//! FoundationDB-style: the *same* coordinator state machine, worker fault
//! arithmetic, assimilation paths and checkpoint timer that the threaded
//! runtime runs on OS threads are executed here single-threaded, under a
//! [`vc_middleware::VirtualClock`] and the seeded [`StepScheduler`]. Every
//! race, straggler, timeout, preemption and message reordering is then a
//! pure function of `(Scenario, seed)`:
//!
//! - **replayable** — a failing chaos run re-executes bit-for-bit from its
//!   seed, no wall-clock timeouts or OS scheduling involved;
//! - **fast** — a minute of simulated deadlines costs microseconds, so a
//!   32-seed sweep of fleet-kill scenarios finishes in seconds;
//! - **checkable** — the parameter store records its operation history
//!   (see [`vc_kvstore::history`]), and [`SimOutcome::verify_consistency`]
//!   asserts the mode's contract on every run: strong histories must admit
//!   a sequential witness, eventual histories must recount exactly the
//!   lost updates the store's counter ([`vc_kvstore::StoreOps`]) claims.
//!
//! The entry point is [`run_scenario`]; [`sweep`] runs a seed range and
//! panics with the offending seed in the message, so any CI failure is a
//! one-command local replay.
//!
//! What takes real time on threads costs fixed virtual time here: a
//! subtask trains for `TRAIN_S` plus a straggler draw up to
//! `TRAIN_JITTER_S`, an assimilation holds its race window open for
//! `ASSIM_S`, and the scheduler adds up to `SCHED_JITTER_S` to every
//! event. These are constants, sized so the test-scale timeouts (2 s)
//! catch dead workers without firing on stragglers; a [`Scenario`] varies
//! only the run configuration and the housekeeping cadence.

use crate::config::RuntimeConfig;
use crate::coordinator::{
    assemble, score, score_final, spare_threads, Assembled, Coordinator, Effect, Genesis, Stop,
};
use crate::fault::{ByzantineMode, FaultPlan};
use crate::protocol::{AssimTask, ToServer, ToWorker};
use crate::report::{RuntimeReport, WORKER_TRAIN_S};
use crate::scheduler::StepScheduler;
use crate::worker::WorkerCore;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use vc_data::{Dataset, ShardSet};
use vc_kvstore::{check_sequential, count_lost_updates, Consistency, HistoryEvent, VersionedStore};
use vc_middleware::{HostId, WuId};
use vc_nn::Sequential;
use vc_optim::TrainWorkspace;
use vc_ps::{MemClient, PsService, ShardSnapshot};
use vc_telemetry::{Histogram, Telemetry, TraceStage};

/// Base virtual seconds one subtask's training occupies a worker.
const TRAIN_S: f64 = 0.8;
/// Straggler spread: each subtask trains an extra uniform draw in
/// `[0, TRAIN_JITTER_S]` from the worker's private RNG stream.
const TRAIN_JITTER_S: f64 = 0.4;
/// Virtual seconds between an assimilation's begin (stale read) and commit
/// (write-back) — the race window eventual mode loses updates in.
const ASSIM_S: f64 = 0.05;
/// Scheduling-latency bound the [`StepScheduler`] adds to every event.
const SCHED_JITTER_S: f64 = 0.002;

/// One deterministic chaos scenario: a runtime configuration plus the
/// cadence of the coordinator's housekeeping under virtual time.
///
/// `seed` drives the [`StepScheduler`] (scheduling jitter + same-instant
/// picks) and, via [`Scenario::new`], the job's data/model seed — so one
/// number names the entire run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The replay handle: scheduler seed (and default job seed).
    pub seed: u64,
    /// The full runtime configuration (job, faults, checkpoints). The
    /// simulation honors the same fields the threaded runtime does;
    /// `max_wall_s` bounds *virtual* seconds here.
    pub cfg: RuntimeConfig,
    /// Cadence of the coordinator's housekeeping tick (timeout scans,
    /// checkpoint timer, status publish, `max_wall_s` safety net).
    pub tick_s: f64,
    /// Attach an in-memory [`vc_ops::OpsHub`] to the run: the coordinator
    /// publishes a status snapshot on every housekeeping tick at least
    /// 0.25 virtual seconds after the last one, and
    /// [`SimOutcome::ops`] exposes the hub so tests can call the same
    /// endpoint router a live HTTP scrape would hit — deterministically.
    pub ops: bool,
}

impl Scenario {
    /// The test-scale scenario: `seed` names the schedule *and* the job's
    /// data/model seed, faults off, a housekeeping tick every 0.25 s.
    pub fn new(seed: u64) -> Self {
        let mut cfg = RuntimeConfig::test_small(seed);
        cfg.poll_interval_s = 0.05;
        Scenario {
            seed,
            cfg,
            tick_s: 0.25,
            ops: false,
        }
    }

    /// Enables causal workunit tracing (`cfg.trace`): dispatch → fetch →
    /// train → upload → validate → assimilate spans into the flight
    /// recorder, timestamped by the virtual clock.
    pub fn tracing(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Attaches the in-memory ops hub (see [`Scenario::ops`] field docs).
    pub fn ops(mut self, on: bool) -> Self {
        self.ops = on;
        self
    }

    /// Sets the parameter-transfer codec (`cfg.codec`). Lossy modes also
    /// install the tolerance comparator for result quorums.
    pub fn codec(mut self, codec: vc_ps::Codec) -> Self {
        self.cfg.codec = codec;
        self
    }

    /// Sets the worker (client) count `Cn`.
    pub fn cn(mut self, cn: usize) -> Self {
        self.cfg.job.cn = cn;
        self
    }

    /// Sets the parameter-server count `Pn`.
    pub fn pn(mut self, pn: usize) -> Self {
        self.cfg.job.pn = pn;
        self
    }

    /// Sets the per-host slot cap `Tn`.
    pub fn tn(mut self, tn: usize) -> Self {
        self.cfg.job.tn = tn;
        self
    }

    /// Sets the epoch count.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.job.epochs = epochs;
        self
    }

    /// Sets the store consistency mode.
    pub fn consistency(mut self, mode: Consistency) -> Self {
        self.cfg.job.consistency = mode;
        self
    }

    /// Sets the parameter-service shard count `P`.
    pub fn ps_shards(mut self, p: usize) -> Self {
        self.cfg.job.ps_shards = p;
        self
    }

    /// Uses a synthesized heavy-tailed volunteer population for the fleet
    /// ([`vc_simnet::generated_fleet`]) instead of the Table I catalog —
    /// the 10k–100k-host fleets of the scale sweeps. `fleet_seed` names
    /// the population independently of the schedule seed.
    pub fn fleet_generated(mut self, fleet_seed: u64) -> Self {
        self.cfg.job.fleet = vc_asgd::FleetKind::Generated { seed: fleet_seed };
        self
    }

    /// Sets the idle-worker poll interval. Large fleets need a coarser
    /// cadence than the test default (0.05 s) or idle polling dominates
    /// the event budget.
    pub fn poll_interval(mut self, s: f64) -> Self {
        self.cfg.poll_interval_s = s;
        self
    }

    /// Sets the replication factor (replicas issued per workunit).
    pub fn replication(mut self, k: u32) -> Self {
        self.cfg.job.middleware.replication = k;
        self
    }

    /// Sets the validation quorum (agreeing results required to accept a
    /// workunit).
    pub fn quorum(mut self, m: u32) -> Self {
        self.cfg.job.middleware.quorum = m;
        self
    }

    /// Marks `hosts` as byzantine: they train honestly, then corrupt every
    /// result they upload in the given mode.
    pub fn byzantine(mut self, hosts: Vec<u32>, mode: ByzantineMode) -> Self {
        self.cfg.faults.byzantine_hosts = hosts;
        self.cfg.faults.byzantine_mode = mode;
        self
    }

    /// Preempts the first `ceil(frac · cn)` hosts on their `nth`
    /// assignment, seeding the plan from the scenario seed.
    pub fn kill_fraction(mut self, frac: f64, nth: u64) -> Self {
        self.cfg.faults.kill_hosts = FaultPlan::fraction_of(self.cfg.job.cn, frac);
        self.cfg.faults.kill_on_nth_assignment = nth;
        self.cfg.faults.seed = self.seed;
        self
    }

    /// Brings killed hosts back after `delay_s` virtual seconds.
    pub fn respawn_after(mut self, delay_s: f64) -> Self {
        self.cfg.faults.respawn_after_s = Some(delay_s);
        self
    }

    /// Routes worker→server messages through the delay line: uniform
    /// delays in `[0, max_s]`, so messages overtake each other.
    pub fn delays(mut self, max_s: f64) -> Self {
        self.cfg.faults.max_msg_delay_s = max_s;
        self.cfg.faults.seed = self.seed;
        self
    }

    /// Cross-field validation (config plus the housekeeping cadence).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.cfg.validate()?;
        if self.tick_s <= 0.0 || !self.tick_s.is_finite() {
            return Err(format!("invalid tick_s {}", self.tick_s));
        }
        Ok(())
    }
}

/// Everything a finished deterministic run yields: the report the threaded
/// runtime would have produced, plus the store's recorded operation
/// history.
pub struct SimOutcome {
    /// The consistency mode the run used (decides which checker applies).
    pub consistency: Consistency,
    /// The run report — byte-identical across replays of the same
    /// `(Scenario, seed)`.
    pub report: RuntimeReport,
    /// The store's per-key serialization-order operation log.
    pub history: Vec<HistoryEvent>,
    /// The run's telemetry hub: the flight recorder holds the event trace
    /// (virtual-clock timestamps, so replays dump byte-identical JSONL).
    pub telemetry: Telemetry,
    /// The in-memory ops hub, when the scenario enabled one
    /// ([`Scenario::ops`]): every endpoint a live HTTP server would serve,
    /// as pure in-memory calls over deterministic state.
    pub ops: Option<Arc<vc_ops::OpsHub>>,
}

impl SimOutcome {
    /// Canonical JSON of the report, for byte-identity assertions.
    pub fn report_json(&self) -> String {
        serde_json::to_string(&self.report).expect("report serializes")
    }

    /// Independent recount of lost updates from the history's versions.
    pub(crate) fn lost_updates_recount(&self) -> u64 {
        count_lost_updates(&self.history)
    }

    /// Asserts the consistency mode's contract on the recorded history:
    ///
    /// - both modes: the history's independent lost-update recount must
    ///   equal the store's `lost_updates` count exactly;
    /// - strong: the history must admit a sequential witness (and thus
    ///   zero lost updates);
    /// - eventual: clobbers are permitted — the recount cross-check above
    ///   is the whole claim.
    pub fn verify_consistency(&self) -> Result<(), String> {
        let metric = self.report.store_ops.lost_updates;
        let recount = self.lost_updates_recount();
        if recount != metric {
            return Err(format!(
                "history recounts {recount} lost updates but the store counted {metric}"
            ));
        }
        if self.consistency == Consistency::Strong {
            check_sequential(&self.history).map_err(|e| format!("strong history rejected: {e}"))?;
            if metric != 0 {
                return Err(format!("strong run lost {metric} updates"));
            }
        }
        Ok(())
    }
}

/// A simulated worker: the same [`WorkerCore`] the threaded worker runs,
/// plus the liveness state its thread encodes implicitly. Its in-memory
/// parameter-service client is synchronous — a fetch is a plain call, no
/// events and no RNG draws — so fetching leaves every schedule untouched.
struct SimWorker {
    core: WorkerCore,
    state: WState,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WState {
    Alive,
    AwaitingRespawn,
    Gone,
}

/// One virtual parameter-server slot of the `Pn` pool.
struct Slot {
    /// The slot's scoring replica; its buffer pool stays warm for the run.
    eval: Sequential,
    busy: Option<InFlight>,
}

/// An assimilation between begin and finish; `begun` is whatever
/// [`vc_ps::ShardedAssimilator::begin`] handed out (eventual mode's stale
/// read).
struct InFlight {
    task: AssimTask,
    begun: Option<ShardSnapshot>,
}

/// The simulation's event alphabet.
enum Ev {
    /// Worker `host` wakes and requests work.
    Poll(u32),
    /// A worker→server message reaches the coordinator (possibly after a
    /// delay-line hold).
    Deliver(ToServer),
    /// Worker `host` finishes training `wu` after its virtual compute
    /// time.
    TrainDone {
        host: u32,
        wu: WuId,
        params: Vec<f32>,
    },
    /// Host `host`'s replacement instance comes up.
    Respawn(u32),
    /// Parameter-server slot `slot` commits its in-flight assimilation.
    Commit(usize),
    /// Coordinator housekeeping: timeout scan, checkpoint timer, status
    /// publish, safety net.
    Tick,
}

struct Sim {
    sc: Scenario,
    sched: StepScheduler<Ev>,
    coord: Coordinator,
    workers: Vec<SimWorker>,
    slots: Vec<Slot>,
    assim_queue: VecDeque<AssimTask>,
    shards: Arc<ShardSet>,
    /// Simulated workers train one at a time under virtual time, so one
    /// buffer pool and one resident replica serve them all.
    train_ws: TrainWorkspace,
    val_eval: Arc<Dataset>,
}

impl Sim {
    fn run_loop(&mut self) -> Stop {
        loop {
            let Some((_, ev)) = self.sched.next() else {
                // Nothing scheduled anywhere: every actor is idle forever,
                // so the job can never finish.
                return Stop::Halted;
            };
            if let Some(stop) = self.exec(ev) {
                return stop;
            }
        }
    }

    fn exec(&mut self, ev: Ev) -> Option<Stop> {
        match ev {
            Ev::Poll(h) => {
                if self.workers[h as usize].state == WState::Alive {
                    self.send_to_server(h, ToServer::RequestWork { host: HostId(h) });
                }
                None
            }
            Ev::Deliver(msg) => {
                // As on threads, deadlines are scanned before each message
                // is served (the rest of the housekeeping waits for `Tick`),
                // and the one effect the coordinator returns is carried
                // out on the spot.
                let now = self.sched.now();
                self.coord.server.scan_timeouts(now);
                match self.coord.handle(msg) {
                    Effect::None => {}
                    Effect::Assimilate(task) => self.intake(task),
                    Effect::Reply { host, msg } => self.worker_recv(host.0, msg),
                    Effect::Stop(stop) => return Some(stop),
                }
                None
            }
            Ev::TrainDone { host, wu, params } => {
                if self.workers[host as usize].state == WState::Alive {
                    let delay = self.send_to_server(
                        host,
                        ToServer::Result {
                            host: HostId(host),
                            wu,
                            params,
                        },
                    );
                    // The upload occupies the delay-line hold (zero without
                    // one) and ends when the message lands.
                    let now = self.sched.now().as_secs();
                    self.coord.telemetry.trace_span(
                        now + delay,
                        TraceStage::Upload,
                        wu.0,
                        u64::from(host),
                        delay,
                        Vec::new(),
                    );
                    // The threaded worker loops straight back into a poll
                    // after uploading.
                    self.sched.schedule_in(0.0, Ev::Poll(host));
                }
                None
            }
            Ev::Respawn(h) => {
                let w = &mut self.workers[h as usize];
                if w.state == WState::AwaitingRespawn {
                    w.core.respawn();
                    w.state = WState::Alive;
                    self.sched.schedule_in(0.0, Ev::Poll(h));
                }
                None
            }
            Ev::Commit(slot) => {
                self.commit(slot);
                None
            }
            Ev::Tick => {
                // The threaded event loop's housekeeping. Its status
                // publish is pure state summarization — no RNG, no events —
                // so attaching the ops hub never perturbs a trajectory.
                let stop = self.coord.housekeep();
                if stop.is_none() {
                    self.sched.schedule_in(self.sc.tick_s, Ev::Tick);
                }
                stop
            }
        }
    }

    /// Sends a worker message toward the coordinator, held for whatever
    /// the worker's delay line draws (the exact draw a threaded worker
    /// adds to its send time to stamp the message's due reading). Returns
    /// the hold, so the caller can stamp an upload span with it.
    fn send_to_server(&mut self, host: u32, msg: ToServer) -> f64 {
        let delay = self.workers[host as usize].core.draw_delay();
        self.sched.schedule_in(delay, Ev::Deliver(msg));
        delay
    }

    fn worker_recv(&mut self, h: u32, msg: ToWorker) {
        let w = &mut self.workers[h as usize];
        match msg {
            ToWorker::Assign { wu } => {
                if w.state != WState::Alive {
                    // Reply addressed to a dead instance: dropped, and the
                    // server recovers the slot through the timeout path.
                    return;
                }
                if w.core.on_assign() {
                    match self.coord.cfg.faults.respawn_after_s {
                        Some(d) => {
                            w.state = WState::AwaitingRespawn;
                            self.sched.schedule_in(d, Ev::Respawn(h));
                        }
                        None => w.state = WState::Gone,
                    }
                    return;
                }
                let done = w
                    .core
                    .execute(&wu, &self.shards, &mut self.train_ws, None)
                    .expect("sim fetch: a snapshot is published for every generated epoch");
                let dur = TRAIN_S + w.core.rng.gen_range(0.0..=TRAIN_JITTER_S);
                // The virtual analogue of the threaded worker's measured
                // training time.
                self.coord
                    .telemetry
                    .registry()
                    .histogram_with(WORKER_TRAIN_S, Histogram::latency_bounds)
                    .observe(dur);
                // The in-memory fetch is synchronous under virtual time: an
                // instantaneous span marks the causal step. The train span
                // is emitted now, stamped with its end: the drawn virtual
                // compute time is already known.
                let now = self.sched.now().as_secs();
                w.core.trace_phases(&wu, now, 0.0, now + dur, dur);
                self.sched.schedule_in(
                    dur,
                    Ev::TrainDone {
                        host: h,
                        wu: wu.id,
                        params: done.params,
                    },
                );
            }
            ToWorker::NoWork => {
                let poll = self.coord.cfg.poll_interval_s;
                self.sched.schedule_in(poll, Ev::Poll(h));
            }
            ToWorker::Shutdown => w.state = WState::Gone,
        }
    }

    /// Routes one accepted result to a free parameter-server slot, or
    /// queues it for the first one to finish.
    fn intake(&mut self, task: AssimTask) {
        match self.slots.iter().position(|s| s.busy.is_none()) {
            Some(i) => self.start(i, task),
            None => self.assim_queue.push_back(task),
        }
    }

    fn start(&mut self, slot: usize, task: AssimTask) {
        // Eventual mode reads its (possibly stale) snapshot when the
        // assimilation *starts*; the commit lands `ASSIM_S` later, and
        // anything that commits in between is clobbered — the same race
        // the threaded pool runs, under scheduler control.
        let begun = self.coord.assim.begin();
        self.slots[slot].busy = Some(InFlight { task, begun });
        self.sched.schedule_in(ASSIM_S, Ev::Commit(slot));
    }

    fn commit(&mut self, slot: usize) {
        let InFlight { mut task, begun } = self.slots[slot]
            .busy
            .take()
            .expect("commit event for an idle slot");
        let upload = std::mem::take(&mut task.client);
        let updated = self.coord.assim.finish(begun, upload, task.epoch);
        let acc = score(&mut self.slots[slot].eval, &updated, &self.val_eval);
        if let Some(next) = self.assim_queue.pop_front() {
            self.start(slot, next);
        }
        // The outcome travels through the scheduler like any other message
        // so it interleaves with the rest of the traffic.
        self.sched
            .schedule_in(0.0, Ev::Deliver(task.assimilated(acc)));
    }
}

/// Executes one scenario deterministically and returns its outcome. The
/// entire run — every timeout, preemption, reordering and parameter value —
/// is a pure function of the scenario (including its seed).
pub fn run_scenario(sc: &Scenario) -> Result<SimOutcome, String> {
    run_with_service(sc).map(|(out, _)| out)
}

/// [`run_scenario`], also handing back the run's parameter service so tests
/// can inspect what it still holds.
fn run_with_service(sc: &Scenario) -> Result<(SimOutcome, Arc<PsService>), String> {
    sc.validate()?;
    let cfg = Arc::new(sc.cfg.clone());
    let job = &cfg.job;

    // The telemetry hub reads the virtual clock from the very first store
    // operation, so every event timestamp, latency observation and
    // coordinator `now` is a pure function of the schedule — replays dump
    // byte-identical traces. A simulated run starts fresh, so there is no
    // resume offset to start the clock at. The store records its operation
    // history for the consistency checks.
    let sched = StepScheduler::new(sc.seed, SCHED_JITTER_S);
    let tel = Telemetry::silent();
    tel.set_time_source(Arc::new(sched.clock()));
    let ops_hub = sc.ops.then(|| Arc::new(vc_ops::OpsHub::new(tel.clone())));
    let Assembled {
        coord,
        scorers,
        genesis,
        shards,
        val_eval,
        val,
        test,
        ..
    } = assemble(
        cfg.clone(),
        &tel,
        VersionedStore::recording(),
        None,
        ops_hub.clone(),
        |_| {},
    );

    // Every worker is primed from slot 0's replica, the run's seeded model.
    let genesis = genesis.as_deref().map(|versions| Genesis {
        versions,
        params: scorers[0].params(),
    });
    let workers = (0..job.cn)
        .map(|h| SimWorker {
            core: coord.worker(h, Box::new(MemClient::new(coord.service.clone())), genesis),
            state: WState::Alive,
        })
        .collect();
    // One slot per scoring replica, slot 0's the run's model.
    let slots = scorers
        .into_iter()
        .map(|eval| Slot { eval, busy: None })
        .collect();
    let mut sim = Sim {
        sc: sc.clone(),
        sched,
        coord,
        workers,
        slots,
        assim_queue: VecDeque::new(),
        shards,
        train_ws: TrainWorkspace::new(),
        val_eval,
    };
    for h in 0..job.cn as u32 {
        sim.sched.schedule_in(0.0, Ev::Poll(h));
    }
    sim.sched.schedule_in(sc.tick_s, Ev::Tick);

    let stop = sim.run_loop();
    let coord = &sim.coord;
    let mut report = coord.finalize(stop);
    // Final full-split evaluation, as in `Runtime::run`: slot 0's scoring
    // replica, warm from the run (`pn ≥ 1` is validated), and the spare
    // threads' blank ones.
    (report.final_val_acc, report.final_test_acc) = score_final(
        &mut sim.slots[0].eval,
        &job.model,
        spare_threads(job),
        &coord.assim,
        &val,
        &test,
    );

    let out = SimOutcome {
        consistency: job.consistency,
        report,
        history: coord.assim.store().take_history(),
        telemetry: tel,
        ops: ops_hub,
    };
    Ok((out, coord.service.clone()))
}

/// Verifies one outcome's consistency contract. On failure the flight
/// recorder is dumped to `vc-dst-seed-<seed>.jsonl` in the temp directory —
/// the full event trace of the failing run, with virtual-clock timestamps,
/// so the panic message names a replayable artifact — then panics.
pub fn verify_seed(seed: u64, out: &SimOutcome) {
    if let Err(e) = out.verify_consistency() {
        let path = std::env::temp_dir().join(format!("vc-dst-seed-{seed}.jsonl"));
        let note = match out.telemetry.recorder().dump_to_file(&path) {
            Ok(p) => format!("; flight recorder dumped to {}", p.display()),
            Err(io) => format!("; flight recorder dump failed: {io}"),
        };
        // Also export the Chrome trace_event view so the failing run opens
        // as a waterfall in chrome://tracing / Perfetto.
        let trace_path = std::env::temp_dir().join(format!("vc-dst-seed-{seed}.trace.json"));
        let trace_note = match std::fs::write(
            &trace_path,
            vc_telemetry::chrome_trace_json(&out.telemetry.recorder().events()),
        ) {
            Ok(()) => format!("; chrome trace at {}", trace_path.display()),
            Err(io) => format!("; chrome trace export failed: {io}"),
        };
        panic!("DST seed {seed}: {e}{note}{trace_note} — replay with run_scenario(&make({seed}))");
    }
}

/// Runs `make(seed)` for every seed in the range, verifying each outcome's
/// consistency contract. Any failure panics with the seed in the message,
/// so the exact run replays locally with `run_scenario(&make(seed))`.
pub fn sweep(
    seeds: std::ops::Range<u64>,
    make: impl Fn(u64) -> Scenario,
) -> Vec<(u64, SimOutcome)> {
    seeds
        .map(|seed| {
            let out = run_scenario(&make(seed)).unwrap_or_else(|e| {
                panic!("DST seed {seed}: {e} — replay with run_scenario(&make({seed}))")
            });
            verify_seed(seed, &out);
            (seed, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;

    fn tiny(seed: u64) -> Scenario {
        let mut sc = Scenario::new(seed).cn(3).epochs(2);
        sc.cfg.job.val_eval_n = 60;
        sc
    }

    #[test]
    fn fault_free_scenario_finishes_and_learns() {
        let out = run_scenario(&tiny(1)).unwrap();
        assert!(!out.report.halted_early);
        assert_eq!(out.report.epochs.len(), 2);
        for (i, e) in out.report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i + 1);
            assert_eq!(e.assimilated, 8);
        }
        assert!(out.report.wall_s > 0.0, "virtual time must pass");
        assert!(out.report.final_mean_acc() > 0.15);
        out.verify_consistency().unwrap();
    }

    #[test]
    fn finished_epochs_retire_their_snapshots() {
        let mut sc = tiny(2);
        sc.cfg.job.epochs = 6;
        let (out, service) = run_with_service(&sc).unwrap();
        assert_eq!(out.report.epochs.len(), 6);
        // The current epoch (fetch, checkpoint) and the one before it (a
        // replica handed out as the epoch closed) stay; the rest are gone.
        for e in 1..=4 {
            assert!(service.snapshot_params(e).is_none(), "epoch {e} retained");
        }
        assert!(service.snapshot_params(5).is_some());
        assert!(service.snapshot_params(6).is_some());
    }

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let a = run_scenario(&tiny(5)).unwrap();
        let b = run_scenario(&tiny(5)).unwrap();
        assert_eq!(
            a.report_json(),
            b.report_json(),
            "replay must be bit-for-bit"
        );
        assert_eq!(a.history, b.history, "down to the store's op history");
        let c = run_scenario(&tiny(6)).unwrap();
        assert_ne!(a.report_json(), c.report_json());
    }

    #[test]
    fn preempted_fleet_recovers_through_virtual_timeouts() {
        let sc = tiny(9).cn(4).kill_fraction(0.3, 2);
        assert_eq!(sc.cfg.faults.kill_hosts.len(), 2);
        let out = run_scenario(&sc).unwrap();
        assert!(!out.report.halted_early, "survivors must finish the job");
        assert_eq!(out.report.kills, 2);
        assert!(out.report.server_metrics.timeouts > 0, "deadlines fired");
        assert!(out.report.server_metrics.reassignments > 0);
        out.verify_consistency().unwrap();
    }

    #[test]
    fn virtual_checkpoint_timer_fires() {
        let path = std::env::temp_dir().join("vc_sim_ck_timer.json");
        std::fs::remove_file(&path).ok();
        let mut sc = tiny(3);
        sc.cfg.checkpoint_every_s = Some(2.0);
        sc.cfg.checkpoint_path = Some(path.to_string_lossy().into_owned());
        let out = run_scenario(&sc).unwrap();
        assert!(!out.report.halted_early);
        let ck = Checkpoint::load(&path).expect("timer must have written a checkpoint");
        assert!(ck.wall_s >= 2.0, "checkpoint stamped with virtual time");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_invalid_scenarios() {
        let mut sc = tiny(1);
        sc.tick_s = 0.0;
        assert!(run_scenario(&sc).is_err());
        let sc = tiny(1).cn(2).kill_fraction(1.0, 1);
        assert!(
            run_scenario(&sc).is_err(),
            "whole-fleet kill without respawn is rejected"
        );
    }
}
