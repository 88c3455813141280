//! The worker (volunteer client): one body, two substrates.
//!
//! [`WorkerCore`] is everything one volunteer host is and does, independent
//! of what drives it: its identity and lives, its fault-plan arithmetic
//! (when it dies, when its replacement comes up, how long the delay line
//! holds each of its messages), its parameter-service connection with the
//! sticky shard cache and upload-codec residual, and
//! [`WorkerCore::execute`] — the one workunit body: sync the cache, train
//! the shard with real SGD ([`vc_asgd::train_client_replica`]), shape
//! the upload through the lossy codec, corrupt it if the host is byzantine.
//!
//! The threaded runtime wraps a core in [`worker_main`], the BOINC client
//! loop on an OS thread: poll the scheduler, execute, upload, repeat, one
//! subtask at a time (the server-side slot cap `Tn` still bounds how much
//! work can be assigned to the host record). Each message goes straight
//! into the coordinator's inbox, stamped due at its send time plus the
//! drawn delay; the coordinator holds it until then. The deterministic
//! simulation (`crate::sim`) drives the same core from its event loop, so
//! a fault plan, a codec and a workunit mean the same thing under both.
//!
//! Death is silent: a preempted worker simply stops participating, exactly
//! like a terminated spot instance. The server learns only when the
//! assignment's deadline passes.

use crate::config::RuntimeConfig;
use crate::protocol::{ToServer, ToWorker};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use vc_asgd::train_client_replica;
use vc_data::ShardSet;
use vc_middleware::{HostId, WorkUnit};
use vc_optim::{StepTimer, TrainWorkspace};
use vc_ps::codec::apply_update_roundtrip;
use vc_ps::{PsClient, PsError, ShardCache};
use vc_simnet::SimTime;
use vc_telemetry::{event, Counter, Histogram, Telemetry, TraceStage};

use crate::report::{
    DELAY_LINE_DELAY_S, WORKER_FETCH_S, WORKER_KILLS, WORKER_POLL_S, WORKER_RESPAWNS,
    WORKER_TRAIN_S, WORKER_TRAIN_STEP_S, WORKER_UPLOAD_S,
};

/// How long a worker thread waits for a scheduler reply before polling
/// again (covers replies lost to its own death/respawn cycle).
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// One volunteer host, whatever drives it.
pub struct WorkerCore {
    /// This worker's host identity.
    pub id: HostId,
    /// 0 for the original instance, +1 per respawn.
    pub life: u32,
    /// 1-based count of assignments received in the current life.
    pub assignments_this_life: u64,
    /// Per-worker RNG (message-delay draws, sim jitter). Seeded from the
    /// fault-plan seed and the host id, so streams are independent across
    /// workers but identical across substrates.
    pub rng: StdRng,
    pub(crate) cfg: Arc<RuntimeConfig>,
    pub(crate) telemetry: Telemetry,
    /// The run's fault tallies, taken from `telemetry`'s registry.
    kills: Arc<Counter>,
    respawns: Arc<Counter>,
    /// Every drawn delay; its count is the run's delayed messages.
    delays: Arc<Histogram>,
    /// Connection to the parameter service (in-memory or TCP).
    ps: Box<dyn PsClient>,
    /// Sticky shard cache: only shards whose manifest version moved are
    /// re-fetched across assignments.
    cache: ShardCache,
    /// Error-feedback residual of this worker's upload stream (empty
    /// without error feedback).
    upload_residual: Vec<f32>,
}

/// One executed workunit: the upload, and the worker's clock at the three
/// instants that bound its fetch and train phases (the train phase ends
/// before the upload is shaped).
pub struct Executed {
    /// What the host uploads.
    pub params: Vec<f32>,
    /// Clock seconds when the cache sync started.
    pub fetch_t0: f64,
    /// Clock seconds when the snapshot was in hand and training started.
    pub fetch_t1: f64,
    /// Clock seconds when the last optimizer step finished.
    pub train_t1: f64,
}

impl WorkerCore {
    /// A fresh worker on its first life.
    pub fn new(
        id: HostId,
        cfg: Arc<RuntimeConfig>,
        telemetry: Telemetry,
        ps: Box<dyn PsClient>,
        cache: ShardCache,
    ) -> Self {
        let reg = telemetry.registry();
        let (kills, respawns) = (reg.counter(WORKER_KILLS), reg.counter(WORKER_RESPAWNS));
        let delays = reg.histogram_with(DELAY_LINE_DELAY_S, Histogram::latency_bounds);
        WorkerCore {
            id,
            life: 0,
            assignments_this_life: 0,
            rng: StdRng::seed_from_u64(
                cfg.faults
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(id.0)),
            ),
            cfg,
            telemetry,
            kills,
            respawns,
            delays,
            ps,
            cache,
            upload_residual: Vec::new(),
        }
    }

    /// Records one received assignment and returns `true` when the fault
    /// plan says this worker dies (counted here) instead of executing it.
    pub fn on_assign(&mut self) -> bool {
        self.assignments_this_life += 1;
        let dies = self
            .cfg
            .faults
            .should_kill(self.id.0, self.life, self.assignments_this_life);
        if dies {
            self.kills.inc();
            event!(
                self.telemetry,
                Info,
                "worker_kill",
                host = self.id.0,
                life = self.life
            );
        }
        dies
    }

    /// Starts the replacement instance's life.
    pub fn respawn(&mut self) {
        self.life += 1;
        self.assignments_this_life = 0;
        self.respawns.inc();
        event!(
            self.telemetry,
            Info,
            "worker_respawn",
            host = self.id.0,
            life = self.life
        );
    }

    /// The delay line's hold on this worker's next message: uniform in
    /// `[0, max_msg_delay_s]` from the worker's own stream, `0` (and no
    /// draw) without a delay line.
    pub fn draw_delay(&mut self) -> f64 {
        let max = self.cfg.faults.max_msg_delay_s;
        if max <= 0.0 {
            return 0.0;
        }
        let delay = self.rng.gen_range(0.0..=max);
        self.delays.observe(delay);
        delay
    }

    /// The workunit body. Syncs the sticky cache against the workunit's
    /// manifest (only shards whose version moved cross the wire), trains
    /// the shard from that snapshot, and turns the replica into the upload.
    /// `tws` is lent by the caller — a thread owns one, a simulated fleet
    /// shares one. A failed fetch returns the error and leaves the
    /// assignment to the server's timeout path, like any lost host.
    pub fn execute(
        &mut self,
        wu: &WorkUnit,
        shards: &ShardSet,
        tws: &mut TrainWorkspace,
        timer: Option<&StepTimer<'_>>,
    ) -> Result<Executed, PsError> {
        let fetch_t0 = self.telemetry.now_s();
        let snapshot = self
            .cache
            .sync(wu.epoch as u64, &wu.param_versions.0, self.ps.as_mut())?;
        let fetch_t1 = self.telemetry.now_s();
        let mut params = train_client_replica(
            &self.cfg.job,
            snapshot,
            &shards.shard(wu.shard_id).data,
            wu.epoch,
            wu.shard_id,
            tws,
            timer,
        );
        let train_t1 = self.telemetry.now_s();
        // Under a lossy codec the upload is what survives the wire:
        // quantize the trained delta against the fetched snapshot; error
        // feedback carries the dropped mass into this worker's next upload.
        if self.cfg.codec.is_lossy() {
            apply_update_roundtrip(
                self.cfg.codec,
                self.cache.params(),
                &mut params,
                &mut self.upload_residual,
            );
        }
        // A byzantine host does the work, then lies about it.
        if let Some(mode) = self.cfg.faults.byzantine(self.id.0) {
            mode.corrupt(self.id.0, &mut params);
        }
        Ok(Executed {
            params,
            fetch_t0,
            fetch_t1,
            train_t1,
        })
    }

    /// Records the fetch and train spans of an executed workunit, each
    /// stamped with its end and duration on the substrate's clock (no-op
    /// unless the run traces).
    pub fn trace_phases(
        &self,
        wu: &WorkUnit,
        fetch_end: f64,
        fetch_s: f64,
        train_end: f64,
        train_s: f64,
    ) {
        if !self.telemetry.tracing() {
            return;
        }
        let (host, epoch) = (u64::from(self.id.0), wu.epoch as u64);
        self.telemetry.trace_span(
            fetch_end,
            TraceStage::Fetch,
            wu.id.0,
            host,
            fetch_s,
            vec![("epoch", epoch.into())],
        );
        self.telemetry.trace_span(
            train_end,
            TraceStage::Train,
            wu.id.0,
            host,
            train_s,
            vec![
                ("epoch", epoch.into()),
                ("shard", (wu.shard_id as u64).into()),
            ],
        );
    }
}

/// Everything one worker thread needs.
pub struct WorkerCtx {
    /// The host this thread impersonates.
    pub core: WorkerCore,
    /// The sharded training set (workers read their assigned shard).
    pub shards: Arc<ShardSet>,
    /// Replies from the coordinator.
    pub cmd_rx: Receiver<ToWorker>,
    /// The coordinator's inbox: each message with the reading it is due at.
    pub out: Sender<(SimTime, ToServer)>,
}

/// The worker thread body.
pub fn worker_main(ctx: WorkerCtx) {
    let WorkerCtx {
        mut core,
        shards,
        cmd_rx,
        out,
    } = ctx;
    let (id, cfg, telemetry) = (core.id, core.cfg.clone(), core.telemetry.clone());
    // Sends `msg` due its drawn delay from now; `false` once the
    // coordinator is gone.
    let send = |core: &mut WorkerCore, msg| {
        let due = SimTime::from_secs(telemetry.now_s() + core.draw_delay());
        out.send((due, msg)).is_ok()
    };
    let poll = Duration::from_secs_f64(cfg.poll_interval_s);
    let latency = |name| {
        telemetry
            .registry()
            .histogram_with(name, Histogram::latency_bounds)
    };
    let poll_h = latency(WORKER_POLL_S);
    let train_h = latency(WORKER_TRAIN_S);
    let train_step_h = latency(WORKER_TRAIN_STEP_S);
    let upload_h = latency(WORKER_UPLOAD_S);
    let fetch_h = latency(WORKER_FETCH_S);
    // One workspace per worker thread: the first subtask builds the
    // replica and warms the pools; after it a subtask reloads the replica
    // and its training steps allocate nothing.
    let mut tws = TrainWorkspace::new();

    loop {
        let poll_t0 = telemetry.now_s();
        if !send(&mut core, ToServer::RequestWork { host: id }) {
            return; // coordinator gone
        }
        let reply = cmd_rx.recv_timeout(REPLY_TIMEOUT);
        if reply.is_ok() {
            // Scheduler round-trip: request sent to reply in hand.
            poll_h.observe((telemetry.now_s() - poll_t0).max(0.0));
        }
        match reply {
            Err(RecvTimeoutError::Disconnected) | Ok(ToWorker::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => continue, // reply lost somewhere: re-poll
            Ok(ToWorker::NoWork) => std::thread::sleep(poll),
            Ok(ToWorker::Assign { wu }) => {
                if core.on_assign() {
                    if !replacement_comes_up(&cfg, &cmd_rx) {
                        return;
                    }
                    core.respawn();
                    continue;
                }
                let step_timer = StepTimer {
                    telemetry: &telemetry,
                    histogram: &train_step_h,
                };
                let done = match core.execute(&wu, &shards, &mut tws, Some(&step_timer)) {
                    Ok(done) => done,
                    Err(e) => {
                        event!(
                            telemetry,
                            Warn,
                            "worker_fetch_failed",
                            host = id.0,
                            err = e.to_string()
                        );
                        continue;
                    }
                };
                let fetch_s = (done.fetch_t1 - done.fetch_t0).max(0.0);
                let train_s = (done.train_t1 - done.fetch_t1).max(0.0);
                fetch_h.observe(fetch_s);
                train_h.observe(train_s);
                core.trace_phases(&wu, done.fetch_t1, fetch_s, done.train_t1, train_s);
                let upload_t0 = telemetry.now_s();
                let upload = ToServer::Result {
                    host: id,
                    wu: wu.id,
                    params: done.params,
                };
                if !send(&mut core, upload) {
                    return;
                }
                let upload_t1 = telemetry.now_s();
                let upload_s = (upload_t1 - upload_t0).max(0.0);
                upload_h.observe(upload_s);
                telemetry.trace_span(
                    upload_t1,
                    TraceStage::Upload,
                    wu.id.0,
                    u64::from(id.0),
                    upload_s,
                    Vec::new(),
                );
            }
        }
    }
}

/// After a preemption (the in-hand assignment was dropped without a word):
/// with a respawn delay configured, the thread impersonates the replacement
/// instance — it waits out the provisioning delay and discards every
/// message addressed to its dead predecessor. Returns `true` when the
/// replacement may start its life, `false` when the host is gone for good.
fn replacement_comes_up(cfg: &RuntimeConfig, cmd_rx: &Receiver<ToWorker>) -> bool {
    let Some(delay_s) = cfg.faults.respawn_after_s else {
        return false;
    };
    std::thread::sleep(Duration::from_secs_f64(delay_s));
    // A fresh instance has no memory of in-flight replies.
    loop {
        match cmd_rx.try_recv() {
            Ok(ToWorker::Shutdown) | Err(TryRecvError::Disconnected) => return false,
            Ok(_) => continue,
            Err(TryRecvError::Empty) => return true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::{MemClient, PsService, ShardedAssimilator};

    /// A core for `host` under `faults`, wired to a one-value parameter
    /// service nothing ever fetches from.
    fn core(host: u32, faults: FaultPlan) -> (WorkerCore, Telemetry) {
        let mut cfg = RuntimeConfig::test_small(1);
        cfg.faults = faults;
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            1,
            1,
            Consistency::Strong,
            cfg.job.alpha,
        ));
        assim.seed_params(&[0.0]);
        let cache = ShardCache::new(*assim.layout());
        let ps = Box::new(MemClient::new(Arc::new(PsService::new(assim))));
        let tel = Telemetry::silent();
        let core = WorkerCore::new(HostId(host), Arc::new(cfg), tel.clone(), ps, cache);
        (core, tel)
    }

    /// `(kills, respawns, delayed messages)` as the run's registry holds
    /// them.
    fn tallies(tel: &Telemetry) -> (Option<u64>, Option<u64>, u64) {
        let snap = tel.registry().snapshot();
        let delayed = snap.histogram(DELAY_LINE_DELAY_S).map_or(0, |h| h.count);
        (
            snap.counter(WORKER_KILLS),
            snap.counter(WORKER_RESPAWNS),
            delayed,
        )
    }

    #[test]
    fn core_counts_assignments_and_dies_on_schedule() {
        let mut plan = FaultPlan::none();
        plan.kill_hosts = vec![3];
        plan.kill_on_nth_assignment = 2;
        let (mut core, tel) = core(3, plan);
        assert!(!core.on_assign(), "first assignment survives");
        assert!(core.on_assign(), "second assignment kills");
        core.respawn();
        assert_eq!((core.life, core.assignments_this_life), (1, 0));
        assert!(!core.on_assign(), "replacement instances are safe");
        assert_eq!(
            tallies(&tel),
            (Some(1), Some(1), 0),
            "one kill, one respawn"
        );
    }

    #[test]
    fn rng_streams_differ_by_host_but_not_by_call() {
        let mut plan = FaultPlan::none();
        plan.seed = 42;
        let (mut a1, ..) = core(0, plan.clone());
        let (mut a2, ..) = core(0, plan.clone());
        let (mut b, ..) = core(1, plan);
        let x1: f64 = a1.rng.gen_range(0.0..1.0);
        let x2: f64 = a2.rng.gen_range(0.0..1.0);
        let y: f64 = b.rng.gen_range(0.0..1.0);
        assert_eq!(
            x1.to_bits(),
            x2.to_bits(),
            "same (seed, host) → same stream"
        );
        assert_ne!(x1.to_bits(), y.to_bits(), "hosts draw independent streams");
    }

    #[test]
    fn delay_draws_are_counted_observed_and_absent_without_a_delay_line() {
        let (mut quiet, tel) = core(0, FaultPlan::none());
        let before: f64 = quiet.rng.clone().gen_range(0.0..1.0);
        assert_eq!(quiet.draw_delay(), 0.0);
        let after: f64 = quiet.rng.gen_range(0.0..1.0);
        assert_eq!(before.to_bits(), after.to_bits(), "no delay line, no draw");
        assert_eq!(tallies(&tel).2, 0);

        let mut plan = FaultPlan::none();
        plan.max_msg_delay_s = 0.05;
        let (mut delayed, tel) = core(0, plan);
        for _ in 0..64 {
            let d = delayed.draw_delay();
            assert!((0.0..=0.05).contains(&d));
        }
        assert_eq!(tallies(&tel).2, 64, "every drawn delay is observed");
    }
}
