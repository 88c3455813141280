//! The worker (volunteer client): one body, two substrates.
//!
//! [`WorkerCore`] is everything one volunteer host is and does, independent
//! of what drives it: its identity and lives, its fault-plan arithmetic
//! (when it dies, when its replacement comes up, how long the delay line
//! holds each of its messages), its parameter-service connection with the
//! sticky shard cache and upload-codec residual, and
//! [`WorkerCore::execute`] — the one workunit body: sync the cache (a
//! fresh run's first snapshot, the job's seeded model, was copied into it
//! from the run's own seeded model when the worker was made, rather than
//! fetched), train
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
use crate::coordinator::Genesis;
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
    /// The cache was primed with a fresh run's seeded snapshot and no
    /// workunit has run yet: the first keeps it only if it names the
    /// snapshot's versions.
    primed: bool,
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
    /// A fresh worker on its first life, its cache primed with `genesis`
    /// when given.
    pub(crate) fn new(
        id: HostId,
        cfg: Arc<RuntimeConfig>,
        telemetry: Telemetry,
        ps: Box<dyn PsClient>,
        mut cache: ShardCache,
        genesis: Option<Genesis<'_>>,
    ) -> Self {
        if let Some(g) = genesis {
            cache.prime(g.versions, g.params);
        }
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
            primed: genesis.is_some(),
            upload_residual: Vec::new(),
        }
    }

    /// Records one received assignment and returns `true` when the fault
    /// plan says this worker dies (counted here) instead of executing it.
    pub(crate) fn on_assign(&mut self) -> bool {
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
    pub(crate) fn respawn(&mut self) {
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
    pub(crate) fn draw_delay(&mut self) -> f64 {
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
    pub(crate) fn execute(
        &mut self,
        wu: &WorkUnit,
        shards: &ShardSet,
        tws: &mut TrainWorkspace,
        timer: Option<&StepTimer<'_>>,
    ) -> Result<Executed, PsError> {
        let fetch_t0 = self.telemetry.now_s();
        // A fresh run's first snapshot is `job.model.build(job.seed)`,
        // drawn once by the run and copied into the cache at birth: for a
        // first workunit that names it the sync below is a hit. One that
        // names later versions fetches every shard whole, as a new cache
        // would.
        if std::mem::take(&mut self.primed) && wu.param_versions.0 != self.cache.versions() {
            self.cache.forget();
        }
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
    pub(crate) fn trace_phases(
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
pub(crate) fn worker_main(ctx: WorkerCtx) {
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
    // A reply that came in while this worker waited out a poll interval
    // answers its next request, as it would have had the worker slept.
    let mut early = None;

    loop {
        let poll_t0 = telemetry.now_s();
        if !send(&mut core, ToServer::RequestWork { host: id }) {
            return; // coordinator gone
        }
        let reply = match early.take() {
            Some(msg) => Ok(msg),
            None => cmd_rx.recv_timeout(REPLY_TIMEOUT),
        };
        if reply.is_ok() {
            // Scheduler round-trip: request sent to reply in hand.
            poll_h.observe((telemetry.now_s() - poll_t0).max(0.0));
        }
        match reply {
            Err(RecvTimeoutError::Disconnected) | Ok(ToWorker::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => continue, // reply lost somewhere: re-poll
            // Wait out the poll interval on the channel, so the closing
            // `Shutdown` (or a coordinator gone) ends the wait at once.
            Ok(ToWorker::NoWork) => match cmd_rx.recv_timeout(poll) {
                Err(RecvTimeoutError::Disconnected) | Ok(ToWorker::Shutdown) => return,
                Err(RecvTimeoutError::Timeout) => {}
                Ok(msg) => early = Some(msg),
            },
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
    use crate::checkpoint::{Checkpoint, CheckpointHeader};
    use crate::coordinator::{assemble, Assembled, Effect};
    use crate::fault::FaultPlan;
    use std::sync::Mutex;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::codec::Codec;
    use vc_ps::{FetchSink, FetchSummary, MemClient, PsService, ShardedAssimilator};

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
        let core = WorkerCore::new(HostId(host), Arc::new(cfg), tel.clone(), ps, cache, None);
        (core, tel)
    }

    /// `(kills, respawns, delayed messages)` as the run's registry holds
    /// them.
    fn tallies(tel: &Telemetry) -> (u64, u64, u64) {
        let reg = tel.registry();
        (
            reg.counter(WORKER_KILLS).get(),
            reg.counter(WORKER_RESPAWNS).get(),
            reg.histogram(DELAY_LINE_DELAY_S).snapshot().count,
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
        assert_eq!(tallies(&tel), (1, 1, 0), "one kill, one respawn");
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

    /// A [`MemClient`] that logs the epoch every fetch names.
    struct Logged {
        inner: MemClient,
        epochs: Arc<Mutex<Vec<u64>>>,
    }

    impl PsClient for Logged {
        fn fetch(
            &mut self,
            epoch: u64,
            wants: &[(u32, u64)],
            codec: Codec,
            sink: &mut FetchSink<'_>,
        ) -> Result<FetchSummary, PsError> {
            self.epochs.lock().unwrap().push(epoch);
            self.inner.fetch(epoch, wants, codec, sink)
        }
    }

    /// One host's opening workunit: the epochs its fetches named and the
    /// vector it trained from.
    type Opening = (Vec<u64>, Vec<u32>);

    /// Puts `cfg`'s run together the way both substrates do (resumed from
    /// `resume` when given) and has every host execute one workunit of the
    /// epoch the run opens with. Returns each host's [`Opening`] and the
    /// bits of the snapshot the service publishes for that epoch.
    fn openings(cfg: RuntimeConfig, resume: Option<Checkpoint>) -> (Vec<Opening>, Vec<u32>) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cfg = Arc::new(cfg);
        let tel = Telemetry::silent();
        let Assembled {
            mut coord,
            shards,
            genesis,
            scorers,
            ..
        } = assemble(
            cfg.clone(),
            &tel,
            VersionedStore::new(),
            resume,
            None,
            |_| {},
        );
        let mut tws = TrainWorkspace::new();
        let hosts = (0..cfg.job.cn)
            .map(|h| {
                let epochs = Arc::new(Mutex::new(Vec::new()));
                let inner = MemClient::new(coord.service.clone());
                let logged = Logged {
                    inner,
                    epochs: epochs.clone(),
                };
                let genesis = genesis.as_deref().map(|versions| Genesis {
                    versions,
                    params: scorers[0].params(),
                });
                let mut core = coord.worker(h, Box::new(logged), genesis);
                let host = HostId(h as u32);
                let Effect::Reply {
                    msg: ToWorker::Assign { wu },
                    ..
                } = coord.handle(ToServer::RequestWork { host })
                else {
                    panic!("host {h} got no work");
                };
                assert_eq!(wu.epoch, coord.epoch);
                core.execute(&wu, &shards, &mut tws, None).expect("sync");
                let fetched = epochs.lock().unwrap().clone();
                (fetched, bits(core.cache.params()))
            })
            .collect();
        let snapshot = coord.service.snapshot_blobs(coord.epoch as u64);
        let mut published = Vec::new();
        for (blob, _) in snapshot.expect("published") {
            let values = vc_tensor::codec::value_bytes(&blob).expect("a VCP1 blob");
            let words = values.chunks_exact(4);
            published.extend(words.map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        }
        (hosts, published)
    }

    /// A fresh run's workers are primed with epoch 1's snapshot from the
    /// run's seeded model: bit for bit what the service publishes, for
    /// every model family and both codecs, and no fetch names epoch 1.
    #[test]
    fn fresh_workers_draw_the_published_genesis_snapshot() {
        let mut cfg = RuntimeConfig::test_small(4);
        cfg.job.cn = 3;
        let (img, classes) = (cfg.job.data.img, cfg.job.data.classes);
        let int8 = Codec::Int8 {
            error_feedback: true,
        };
        for (model, codec) in [
            (vc_nn::spec::mlp(&img, 32, classes), Codec::Raw),
            (vc_nn::spec::small_cnn(&img, classes), Codec::Raw),
            (vc_nn::spec::resnet_lite(&img, 1, classes), int8),
        ] {
            let name = model.name.clone();
            cfg.job.model = model;
            cfg.codec = codec;
            let (hosts, genesis) = openings(cfg.clone(), None);
            for (h, (fetched, got)) in hosts.iter().enumerate() {
                assert!(fetched.is_empty(), "{name} host {h} fetched {fetched:?}");
                assert!(*got == genesis, "{name} host {h} drew other bits");
            }
        }
    }

    /// A primed worker whose first workunit names later versions than the
    /// seeded ones (a host that got no work in epoch 1) fetches every shard
    /// whole, as an unprimed cache does, and lands on the published bits;
    /// one whose first workunit names the seeded versions fetches nothing.
    #[test]
    fn a_primed_worker_first_assigned_later_fetches_every_shard() {
        use crate::coordinator::{assimilator, JobData};
        let mut cfg = RuntimeConfig::test_small(8);
        cfg.job.ps_shards = 4;
        let cfg = Arc::new(cfg);
        let job = &cfg.job;
        let shards = JobData::generate(job).shards;
        let seeded = job.model.build(job.seed).params_flat();
        let assim = Arc::new(assimilator(
            job,
            Arc::new(VersionedStore::new()),
            seeded.len(),
        ));
        let svc = Arc::new(PsService::new(assim.clone()).with_codec(cfg.codec));
        svc.publish(1, &assim.seed_params(&seeded));
        let genesis = assim.versions();
        // One shard is assimilated: epoch 2 names a moved version.
        let part = vec![0.5; assim.layout().len(1)];
        assim.merge_shard(1, &part, 1);
        let (later, manifest) = assim.read_params();
        svc.publish(2, &assim.read_blobs());

        let mut tws = TrainWorkspace::new();
        for (epoch, versions, want, fetched) in [
            (1, &genesis, &seeded, 0),
            (2, &manifest, &later, job.ps_shards as u64),
        ] {
            let before = svc.ops();
            let mut core = WorkerCore::new(
                HostId(0),
                cfg.clone(),
                Telemetry::silent(),
                Box::new(MemClient::new(svc.clone())),
                ShardCache::new(*assim.layout()).with_codec(cfg.codec),
                Some(Genesis {
                    versions: &genesis,
                    params: &seeded,
                }),
            );
            let wu = WorkUnit {
                id: vc_middleware::WuId(0),
                epoch,
                shard_id: 0,
                param_versions: vc_middleware::ShardManifest(versions.clone()),
                created_at: SimTime::ZERO,
            };
            core.execute(&wu, &shards, &mut tws, None).expect("sync");
            let sent = svc.ops().shards_sent - before.shards_sent;
            assert_eq!(sent, fetched, "epoch {epoch}: shards fetched");
            assert!(
                core.cache.params() == &want[..],
                "epoch {epoch}: other bits"
            );
        }
    }

    /// A resumed run's store sits at the versions a fresh run seeds, but
    /// holds the checkpoint's parameters: no worker primes, every first
    /// sync reaches the wire and lands on the checkpointed snapshot.
    #[test]
    fn a_resumed_run_primes_nothing() {
        let mut cfg = RuntimeConfig::test_small(6);
        cfg.job.cn = 3;
        let job = &cfg.job;
        let params = job.model.build(job.seed + 1).params_flat();
        let layout = vc_ps::ShardLayout::new(params.len(), job.ps_shards);
        let blobs: Vec<_> = layout
            .iter()
            .map(|(_, range)| (vc_tensor::codec::encode_f32s(&params[range]), 1))
            .collect();
        let ck = Checkpoint {
            header: CheckpointHeader {
                cfg: cfg.clone(),
                epoch: 2,
                done: Vec::new(),
                stats: Vec::new(),
                assimilations: 8,
                bytes_transferred: 0,
                wall_s: 1.0,
            },
            snapshot: blobs.clone(),
            params: blobs,
        };
        let (hosts, published) = openings(cfg, Some(ck));
        for (h, (fetched, got)) in hosts.iter().enumerate() {
            assert_eq!(fetched, &[2], "host {h}'s first sync must reach the wire");
            assert!(*got == published, "host {h} trained from other bits");
        }
    }
}
