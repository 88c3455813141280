//! The coordinator (BOINC server) and the assimilator pool: one body per
//! role, substrates at the edge.
//!
//! [`Coordinator`] owns the [`BoincServer`] state machine and everything
//! the epoch protocol decides server-side: it is handed one message at a
//! time through [`Coordinator::handle`] and *returns* what should happen
//! next — at most one worker reply or one assimilation task — as an
//! [`Effect`]. It holds no channel and starts no thread. The threaded
//! runtime wraps it in [`Coordinator::run`], which reads an MPMC inbox
//! and forwards effects to worker and assimilator channels; `Pn`
//! [`assimilator_main`] threads then contend on the shared
//! [`VersionedStore`] for real — in eventual mode overlapping
//! read-blend-write cycles genuinely lose updates, by racing. The
//! deterministic simulation (`crate::sim`) executes each effect directly.
//! Either way the coordinator reads one clock, its telemetry hub's time
//! source: a [`vc_telemetry::WallTime`] on threads, the scheduler's
//! `VirtualClock` under simulation. And either way a delayed worker
//! message waits in one time-ordered queue until that clock reaches its
//! due reading: the scheduler's, as a `Deliver` event, under simulation;
//! the event loop's own [`DelayQueue`] on threads.
//!
//! The server side keeps one copy of the parameters, the store's shard
//! blobs: an assimilator moves the accepted upload into
//! `ShardedAssimilator::finish`, which blends the stored values into it and
//! hands it back to score, and an epoch publish serves the stored blobs
//! themselves (`read_blobs` → `PsService::publish`).
//!
//! [`assemble`] is the one place a run is put together — data, seeded
//! parameter service, middleware, coordinator, one scoring replica per
//! parameter server — for both substrates; [`score`] is the one
//! validation-scoring pass behind every accuracy a report carries.
//! The pieces of a run that the discrete-event driver (`crate::des`) puts
//! together and closes the same way — [`JobData`], [`scheduler`],
//! [`assimilator`], [`accuracy_spread`] and [`score_final`] — are one body
//! each, here.
//!
//! Outside the epoch loop the fleet's cores are idle, so set-up and close
//! use them ([`spare_threads`] of them, never more than the loop's `Cn`):
//! [`JobData::generate_beside`] generates the data on a scoped thread
//! while the calling thread draws and publishes the seeded model, and
//! [`score_final`] splits the closing evaluation's rows across replicas.
//! Neither moves a bit: the data is a pure function of its spec, and an
//! accuracy is an integer hit count over `n`.

use crate::checkpoint::{Checkpoint, CheckpointHeader};
use crate::config::RuntimeConfig;
use crate::protocol::{AssimTask, ToServer, ToWorker};
use crate::report::{
    RuntimeEpoch, RuntimeReport, RuntimeTelemetry, ASSIM_LATENCY_S, DELAY_LINE_DELAY_S,
    WORKER_KILLS, WORKER_RESPAWNS,
};
use crate::worker::WorkerCore;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_asgd::{result_is_valid, JobConfig};
use vc_data::{Dataset, ShardSet};
use vc_kvstore::VersionedStore;
use vc_middleware::{BoincServer, HostId, ReportStatus, ShardManifest, ToleranceComparator};
use vc_nn::metrics::{evaluate, evaluate_split};
use vc_nn::{ModelSpec, Sequential};
use vc_ops::{FleetStatus, OpsHub, PsStatus, StatusSnapshot};
use vc_ps::service::PS_BYTES_SAVED;
use vc_ps::{PsClient, PsService, ShardCache, ShardedAssimilator};
use vc_simnet::{DelayQueue, SimTime};
use vc_telemetry::{event, Histogram, Telemetry, TraceStage};

/// The batch cap of every scoring pass; `evaluate` runs a smaller one when
/// the model's widest hidden activation would not fit its cache budget.
pub(crate) const SCORE_BATCH: usize = 256;

/// Parameter-server validation scoring (§III-A): loads `params` into the
/// scoring replica and returns its accuracy on `data`.
pub(crate) fn score(model: &mut Sequential, params: &[f32], data: &Dataset) -> f32 {
    model.set_params_flat(params);
    accuracy(model, data)
}

/// The scoring replica's accuracy on `data` with whatever parameters it
/// holds.
fn accuracy(model: &mut Sequential, data: &Dataset) -> f32 {
    evaluate(model, &data.images, &data.labels, SCORE_BATCH)
}

/// Final evaluation of a run: the server's current parameters on the full
/// validation and test splits, each split's rows shared out over `parts`
/// replicas scored at once (`evaluate_split`): `model`, warm from the run,
/// and `parts - 1` blank builds of `spec`, each made and loaded once for
/// both splits on the thread that scores it. An accuracy is the integer
/// hit count over `n`, so it is bit for bit one replica's whatever `parts`
/// is; one part is the serial path. Returns `(val, test)` accuracy.
pub(crate) fn score_final(
    model: &mut Sequential,
    spec: &ModelSpec,
    parts: usize,
    assim: &ShardedAssimilator,
    val: &Dataset,
    test: &Dataset,
) -> (f32, f32) {
    let params = assim.read_params().0;
    model.set_params_flat(&params);
    let replica = || {
        let mut replica = spec.build_blank();
        replica.set_params_flat(&params);
        replica
    };
    let sets = [
        (&val.images, &val.labels[..]),
        (&test.images, &test.labels[..]),
    ];
    let acc = evaluate_split(model, replica, parts, &sets, SCORE_BATCH);
    (acc[0], acc[1])
}

/// Threads the phases outside the epoch loop may use — set-up before the
/// workers start, the closing evaluation after they are joined: the cores
/// the host has, never more than the `Cn` worker threads the loop runs.
pub(crate) fn spare_threads(job: &JobConfig) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(job.cn)
        .max(1)
}

/// Where a run's set-up went ([`JobData::generate_beside`]): seconds of
/// data generation, of the calling thread's own set-up (model build, seed
/// and publish), and of the two running at once — what the overlap saved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SetupTimes {
    pub data_s: f64,
    pub init_s: f64,
    pub overlap_s: f64,
}

/// Mean, min and max of an epoch's per-assimilation validation accuracies.
pub(crate) fn accuracy_spread(accs: &[f32]) -> (f32, f32, f32) {
    let mean = accs.iter().sum::<f32>() / accs.len() as f32;
    let min = accs.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = accs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    (mean, min, max)
}

/// A job's data as every driver splits it: the training set cut into
/// shards (the full split is dropped), the validation prefix scored after
/// every assimilation, and the full validation and test splits the closing
/// evaluation scores.
pub(crate) struct JobData {
    pub shards: ShardSet,
    pub val_eval: Dataset,
    pub val: Dataset,
    pub test: Dataset,
}

impl JobData {
    pub(crate) fn generate(job: &JobConfig) -> Self {
        let (shards, val, test) = job.data.generate_sharded(job.shards);
        JobData {
            shards,
            val_eval: val.select(&(0..job.val_eval_n).collect::<Vec<_>>()),
            val,
            test,
        }
    }

    /// [`JobData::generate`] on a scoped thread while `init` runs on the
    /// calling one, when the run has a spare thread ([`spare_threads`]);
    /// one after the other when it has not. Data generation emits no
    /// telemetry, so every event `init` emits stays on the thread that
    /// emits it either way. A panic on either thread is a panic here once
    /// both are done.
    pub(crate) fn generate_beside<T>(
        job: &JobConfig,
        init: impl FnOnce() -> T,
    ) -> (Self, T, SetupTimes) {
        let generate = || {
            let t0 = Instant::now();
            (JobData::generate(job), t0.elapsed().as_secs_f64())
        };
        let t0 = Instant::now();
        let (out, init_s, (data, data_s)) = if spare_threads(job) < 2 {
            let data = generate();
            let t1 = Instant::now();
            (init(), t1.elapsed().as_secs_f64(), data)
        } else {
            std::thread::scope(|s| {
                let data = s.spawn(generate);
                let out = init();
                let init_s = t0.elapsed().as_secs_f64();
                let data = data.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                (out, init_s, data)
            })
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let overlap_s = (data_s + init_s - wall_s).max(0.0);
        let times = SetupTimes {
            data_s,
            init_s,
            overlap_s,
        };
        (data, out, times)
    }
}

/// A fresh run's epoch-1 snapshot as the store was seeded with it, lent to
/// each worker as it is made: the worker copies it into its shard cache
/// instead of fetching or drawing it. Borrowed from the run's seeded model
/// (the first scorer), so no copy outlives the workers' making.
#[derive(Clone, Copy)]
pub(crate) struct Genesis<'a> {
    /// The seeded store's shard versions.
    pub versions: &'a [u64],
    /// The seeded parameter vector: `job.model.build(job.seed)`'s.
    pub params: &'a [f32],
}

/// A job's BOINC scheduler: one host per instance of its fleet, `tn`
/// subtask slots each.
pub(crate) fn scheduler(job: &JobConfig) -> BoincServer {
    let fleet = job.fleet.build(job.cn);
    BoincServer::new(
        job.middleware.clone(),
        fleet.into_iter().map(|spec| (spec, job.tn)).collect(),
    )
}

/// A job's parameter server over `store`: `param_count` values in
/// `ps_shards` shards, blended by Eq. (1) under the job's consistency mode
/// and α schedule.
pub(crate) fn assimilator(
    job: &JobConfig,
    store: Arc<VersionedStore>,
    param_count: usize,
) -> ShardedAssimilator {
    ShardedAssimilator::new(
        store,
        param_count,
        job.ps_shards,
        job.consistency,
        job.alpha,
    )
}

/// Everything one assimilator (parameter-server) thread needs.
pub struct AssimCtx {
    /// Shared per-shard Eq. (1) applier over the shared store.
    pub assim: Arc<ShardedAssimilator>,
    /// The thread's scoring replica, one of [`Assembled::scorers`]: for
    /// assimilator 0 the run's one built model. Its buffer pool stays warm
    /// across every assimilation the thread scores.
    pub eval_model: Sequential,
    /// The validation subset scored after every assimilation.
    pub val_eval: Arc<Dataset>,
    /// Task intake (MPMC: the pool shares one receiver).
    pub task_rx: Receiver<AssimTask>,
    /// Outcome uplink into the coordinator's inbox.
    pub out: Sender<(SimTime, ToServer)>,
}

/// The assimilator thread body: blend, score, report, until the task
/// channel closes or the coordinator is gone. The accepted upload is moved
/// into `finish`, which blends the stored shards into it and hands it back
/// as the updated vector the replica scores — the thread holds no
/// model-sized buffer of its own besides that replica, which it returns
/// for `Runtime::run`'s final evaluation.
pub(crate) fn assimilator_main(mut ctx: AssimCtx) -> Sequential {
    while let Ok(mut t) = ctx.task_rx.recv() {
        let begun = ctx.assim.begin();
        if begun.is_some() {
            // A stale read is in hand: until the finish below this is a
            // real race against the other assimilator threads. The yield
            // widens the window the same way a network hop to Redis would.
            std::thread::yield_now();
        }
        let updated = ctx
            .assim
            .finish(begun, std::mem::take(&mut t.client), t.epoch);
        let acc = score(&mut ctx.eval_model, &updated, &ctx.val_eval);
        drop(updated);
        // An outcome is due on arrival: its acceptance reading has passed.
        if ctx.out.send((t.accepted_at, t.assimilated(acc))).is_err() {
            break; // coordinator gone
        }
    }
    ctx.eval_model
}

/// The coordinator's state, put together by [`assemble`]. It reads time
/// from its telemetry hub, whose time source the run points at a
/// [`vc_telemetry::WallTime`] on threads and at the scheduler's
/// `VirtualClock` under simulation.
pub struct Coordinator {
    /// Shared run configuration.
    pub cfg: Arc<RuntimeConfig>,
    /// The middleware state machine.
    pub server: BoincServer,
    /// Per-shard Eq. (1) applier (same instance the pool shares).
    pub assim: Arc<ShardedAssimilator>,
    /// The parameter service workers fetch epoch snapshots from (shard
    /// blobs pre-encoded per epoch; wire-byte counters).
    pub service: Arc<PsService>,
    /// The in-progress epoch.
    pub epoch: usize,
    /// `(shard, acc)` assimilated so far this epoch.
    pub done: Vec<(usize, f32)>,
    /// Completed epochs.
    pub stats: Vec<RuntimeEpoch>,
    /// Total assimilations (cumulative across resumes).
    pub assimilations: u64,
    /// Parameter payload bytes (cumulative across resumes).
    pub bytes: u64,
    /// Wall seconds already on the clock at process start (resume offset).
    pub wall_base_s: f64,
    /// Second of this process's run (the clock reading less
    /// `wall_base_s`) at which the next timed checkpoint is due; `None`
    /// disables the timer.
    pub next_checkpoint_s: Option<f64>,
    /// The run's telemetry hub (registry + flight recorder) and its one
    /// clock: every middleware `now` is its `now_s`.
    pub telemetry: Telemetry,
    /// The live ops hub the coordinator publishes status snapshots into
    /// (`None` when no ops surface is attached).
    pub ops: Option<Arc<OpsHub>>,
    /// Clock second of the last ops publish (throttles housekeeping
    /// publishing to [`OPS_PUBLISH_EVERY_S`]).
    pub last_ops_publish_s: f64,
}

/// The channel ends the threaded coordinator loop reads and feeds.
pub struct Links {
    /// The shared inbox: workers and assimilators send each message with
    /// the reading it is due at.
    pub inbox: Receiver<(SimTime, ToServer)>,
    /// Reply channels, indexed by host id.
    pub worker_txs: Vec<Sender<ToWorker>>,
    /// Intake of the assimilator pool.
    pub assim_tx: Sender<AssimTask>,
}

/// What one handled message asks the substrate to do — never more than
/// one thing per message.
pub(crate) enum Effect {
    /// Nothing leaves the coordinator.
    None,
    /// Answer `host`'s work request.
    Reply {
        /// The polling host.
        host: HostId,
        /// `Assign` or `NoWork`.
        msg: ToWorker,
    },
    /// Hand an accepted result to a parameter server.
    Assimilate(AssimTask),
    /// The run is over.
    Stop(Stop),
}

/// A run put together by [`assemble`]: the coordinator plus the data the
/// substrate's actors and the final evaluation need.
pub(crate) struct Assembled {
    pub coord: Coordinator,
    /// One scoring replica per parameter server (`pn`): the run's built
    /// model first, the rest blank, since every scoring loads what it
    /// scores. Each keeps its buffer pool warm for the run, and the first
    /// closes it with [`score_final`].
    pub scorers: Vec<Sequential>,
    /// The seeded store's shard versions on a fresh run, whose first
    /// scorer still holds the seeded parameters: with them they make the
    /// [`Genesis`] each worker is primed from when the driver makes it.
    /// `None` on a resume, whose store holds the checkpoint's parameters
    /// at the versions a fresh run seeds.
    pub genesis: Option<Vec<u64>>,
    /// Where set-up went, for the threaded run's `run_assembled` event.
    pub setup: SetupTimes,
    /// The sharded training set (the full split is already dropped).
    pub shards: Arc<ShardSet>,
    /// The validation subset scored after every assimilation.
    pub val_eval: Arc<Dataset>,
    pub val: Dataset,
    pub test: Dataset,
}

/// Puts a run together: data, the parameter store seeded behind its
/// sharded service, the middleware with the first (or the resumed) epoch's
/// workunits queued, and the coordinator over all of it. The data is
/// generated beside the rest ([`JobData::generate_beside`]): the calling
/// thread meanwhile builds the run's model (at `job.seed` on a fresh run,
/// which seeds the store from it; blank on a resume, which seeds it from
/// the checkpoint) and publishes the first epoch. `store` arrives bare
/// (recording or not) and `tel` with whatever time source should stamp
/// the seeding operations; `start_clock` is called with the resume offset
/// once seeding is done, to point `tel` at the run's clock, so set-up time
/// never counts against it.
pub(crate) fn assemble(
    cfg: Arc<RuntimeConfig>,
    tel: &Telemetry,
    store: VersionedStore,
    resume: Option<Checkpoint>,
    ops: Option<Arc<OpsHub>>,
    start_clock: impl FnOnce(f64),
) -> Assembled {
    let job = &cfg.job;
    // Causal workunit tracing: off by default so untraced runs record
    // byte-identical telemetry; `cfg.trace` opts a run in.
    tel.set_tracing(cfg.trace);

    let store = Arc::new(store.with_telemetry(tel));
    // A fresh run starts epoch 1 from nothing, a resumed one where its
    // checkpoint left off.
    let (epoch, wall_base_s, done, stats, assimilations, bytes, blobs) = match resume {
        None => (1, 0.0, Vec::new(), Vec::new(), 0, 0, None),
        Some(ck) => {
            let (h, blobs) = (ck.header, Some((ck.params, ck.snapshot)));
            (
                h.epoch,
                h.wall_s,
                h.done,
                h.stats,
                h.assimilations,
                h.bytes_transferred,
                blobs,
            )
        }
    };
    // The calling thread's half of set-up: the run's one model build (a
    // resume's is blank, since every scoring loads what it scores), the
    // store seeded from it or from the checkpoint's blobs, and the
    // in-progress epoch's fetchable snapshot (Eq. (2)'s W_{s,e-1})
    // published at the seeded versions: the seeded blobs themselves on a
    // fresh run, the checkpointed snapshot's on a resume, where it differs
    // from the store.
    let fresh = blobs.is_none();
    let init = || {
        let model = if fresh {
            job.model.build(job.seed)
        } else {
            job.model.build_blank()
        };
        let assim =
            Arc::new(assimilator(job, store.clone(), model.params().len()).with_telemetry(tel));
        let snapshot = match blobs {
            None => assim.seed_params(model.params()),
            Some((params, snapshot)) => {
                let seeded = assim.seed_blobs(params.into_iter().map(|(blob, _)| blob));
                let blobs = snapshot.into_iter().map(|(blob, _)| blob);
                blobs.zip(seeded.into_iter().map(|(_, v)| v)).collect()
            }
        };
        let service = Arc::new(
            PsService::new(assim.clone())
                .with_codec(cfg.codec)
                .with_telemetry(tel),
        );
        service.publish(epoch as u64, &snapshot);
        (model, assim, service)
    };
    let (data, (model, assim, service), setup) = JobData::generate_beside(job, init);
    let JobData {
        shards,
        val_eval,
        val,
        test,
    } = data;

    let mut server = scheduler(job);
    start_clock(wall_base_s);
    server.set_telemetry(tel.clone());
    if cfg.codec.is_lossy() {
        // Quantized honest replicas differ by a few quantization steps;
        // exact-match quorums would reject them all.
        let (atol, rtol) = cfg.codec.quorum_tolerance();
        server.set_comparator(Box::new(ToleranceComparator { atol, rtol }));
    }
    let manifest = ShardManifest(assim.versions());
    // A resume re-issues only the shards the interrupted epoch still owes;
    // the already-assimilated ones live on inside the checkpointed
    // parameters. In-flight client results are simply recomputed — subtask
    // training is deterministic per (seed, epoch, shard).
    for shard in 0..job.shards {
        if !done.iter().any(|&(s, _)| s == shard) {
            server.add_workunit_sharded(epoch, shard, manifest.clone(), SimTime::ZERO);
        }
    }

    let genesis = fresh.then(|| manifest.0.clone());
    let scorers = std::iter::once(model)
        .chain((1..job.pn).map(|_| job.model.build_blank()))
        .collect();
    let coord = Coordinator {
        server,
        assim,
        service,
        epoch,
        done,
        stats,
        assimilations,
        bytes,
        wall_base_s,
        next_checkpoint_s: cfg.checkpoint_every_s,
        telemetry: tel.clone(),
        ops,
        last_ops_publish_s: -1.0,
        cfg,
    };
    Assembled {
        coord,
        scorers,
        genesis,
        setup,
        shards: Arc::new(shards),
        val_eval: Arc::new(val_eval),
        val,
        test,
    }
}

/// Minimum clock seconds between housekeeping status publishes: scrapes
/// see fresh-enough state without the coordinator re-summarizing a
/// 100k-host fleet on every message. Simulation ticks are at least this
/// far apart, so a simulated run publishes on every tick.
const OPS_PUBLISH_EVERY_S: f64 = 0.25;

/// Longest the threaded event loop blocks on its inbox between
/// housekeeping passes.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// Why the coordinator stopped.
pub(crate) enum Stop {
    /// All epochs finished (or the accuracy target was reached).
    Finished,
    /// `halt_after_assims` fired or `max_wall_s` ran out.
    Halted,
}

impl Coordinator {
    /// The threaded driver: serves `links.inbox` to completion (or halt),
    /// shuts the fleet down, and returns the report. Final accuracies are
    /// evaluated by the caller — the coordinator has no model of its own.
    pub(crate) fn run(mut self, links: Links) -> RuntimeReport {
        let stop = self.event_loop(&links);
        // Orderly shutdown: tell every worker; dropping `links` closes the
        // assimilator intake. Dead workers' channels error harmlessly.
        for tx in &links.worker_txs {
            let _ = tx.send(ToWorker::Shutdown);
        }
        self.finalize(stop)
    }

    /// Host `h` of this run's fleet on its first life, fetching through
    /// `ps`, its shard cache laid out and coded like the run's service,
    /// and handed a fresh run's [`Genesis`] to prime from instead of fetch.
    pub(crate) fn worker(
        &self,
        h: usize,
        ps: Box<dyn PsClient>,
        genesis: Option<Genesis<'_>>,
    ) -> WorkerCore {
        WorkerCore::new(
            HostId(h as u32),
            self.cfg.clone(),
            self.telemetry.clone(),
            ps,
            ShardCache::new(*self.assim.layout()).with_codec(self.cfg.codec),
            genesis,
        )
    }

    /// Closes a run and builds its report — the same way whichever
    /// substrate served the messages.
    pub(crate) fn finalize(&self, stop: Stop) -> RuntimeReport {
        let halted = matches!(stop, Stop::Halted);
        // Final status publish: scrapes after the run report `done`.
        self.publish_ops(true);
        let reg = self.telemetry.registry();
        event!(
            self.telemetry,
            Info,
            "run_finalized",
            halted = halted,
            assimilations = self.assimilations
        );
        RuntimeReport {
            label: self.cfg.job.pct_label(),
            epochs: self.stats.clone(),
            final_val_acc: 0.0,  // filled by `score_final`
            final_test_acc: 0.0, // filled by `score_final`
            wall_s: self.telemetry.now_s(),
            workers: self.cfg.job.cn,
            server_metrics: self.server.metrics(),
            hosts: self.server.host_summaries(),
            store_ops: self.assim.store().ops(),
            telemetry: RuntimeTelemetry::from_registry(reg),
            ps_ops: self.service.ops(),
            bytes_transferred: self.total_bytes(),
            kills: reg.counter(WORKER_KILLS).get(),
            respawns: reg.counter(WORKER_RESPAWNS).get(),
            delayed_msgs: reg
                .histogram_with(DELAY_LINE_DELAY_S, Histogram::latency_bounds)
                .snapshot()
                .count,
            halted_early: halted,
        }
    }

    /// Serves the inbox: each pass housekeeps, then serves the earliest
    /// held message that has come due, else the next arrival if it is due
    /// (an early one waits in `held`), waiting at most until the next due
    /// stamp or [`MAX_WAIT`].
    fn event_loop(&mut self, links: &Links) -> Stop {
        let mut held: DelayQueue<SimTime, ToServer> = DelayQueue::new();
        loop {
            if let Some(stop) = self.housekeep() {
                return stop;
            }
            let now = self.now();
            let msg = match held.pop_due(now) {
                Some((_, msg)) => msg,
                None => {
                    let wait = held.peek().map_or(MAX_WAIT, |(due, _)| {
                        Duration::from_secs_f64(due - now).min(MAX_WAIT)
                    });
                    match links.inbox.recv_timeout(wait) {
                        Ok((due, msg)) if due <= self.now() => msg,
                        Ok((due, msg)) => {
                            held.push(due, msg);
                            continue;
                        }
                        Err(RecvTimeoutError::Timeout) => continue,
                        // Every worker and assimilator is gone; nothing can
                        // ever complete the job.
                        Err(RecvTimeoutError::Disconnected) => return Stop::Halted,
                    }
                }
            };
            match self.handle(msg) {
                Effect::None => {}
                // A dead worker's channel errors; its assignment (if any)
                // recovers through the timeout path like any lost host.
                Effect::Reply { host, msg } => {
                    let _ = links.worker_txs[host.0 as usize].send(msg);
                }
                Effect::Assimilate(task) => {
                    let _ = links.assim_tx.send(task);
                }
                Effect::Stop(stop) => return stop,
            }
        }
    }

    /// The housekeeping both drivers run between messages — before each
    /// one on threads, on every tick under simulation: the timeout scan,
    /// the interval checkpoint (re-armed from the current reading), a
    /// status publish at most every [`OPS_PUBLISH_EVERY_S`], and the
    /// `max_wall_s` safety net, which checkpoints and halts the run.
    pub(crate) fn housekeep(&mut self) -> Option<Stop> {
        self.server.scan_timeouts(self.now());
        let elapsed = self.telemetry.now_s() - self.wall_base_s;
        if let (Some(every), Some(due)) = (self.cfg.checkpoint_every_s, self.next_checkpoint_s) {
            if elapsed >= due {
                self.write_checkpoint();
                self.next_checkpoint_s = Some(elapsed + every);
            }
        }
        if self.ops.is_some() && elapsed - self.last_ops_publish_s >= OPS_PUBLISH_EVERY_S {
            self.last_ops_publish_s = elapsed;
            self.publish_ops(false);
        }
        if elapsed > self.cfg.max_wall_s {
            self.write_checkpoint();
            return Some(Stop::Halted);
        }
        None
    }

    /// The run clock's current reading, on the middleware's time axis.
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.telemetry.now_s())
    }

    /// Serves one message against the clock's current reading.
    pub(crate) fn handle(&mut self, msg: ToServer) -> Effect {
        let now = self.now();
        match msg {
            ToServer::RequestWork { host } => {
                // Download bytes are no longer estimated here: the worker
                // fetches missing shards from the parameter service, whose
                // wire counters ([`PsService::ops`]) record what actually
                // travelled.
                let msg = match self.server.request_work(host, now) {
                    Some(asg) => ToWorker::Assign { wu: asg.wu },
                    None => ToWorker::NoWork,
                };
                Effect::Reply { host, msg }
            }
            ToServer::Result { host, wu, params } => {
                if !result_is_valid(&params) {
                    self.server.report_invalid(wu, host, now);
                    return Effect::None;
                }
                match self.server.report_result(wu, host, &params, now) {
                    ReportStatus::Accepted => {
                        self.bytes += self.upload_bytes();
                        let info = self.server.workunit(wu);
                        Effect::Assimilate(AssimTask {
                            wu,
                            host,
                            epoch: info.epoch,
                            shard_id: info.shard_id,
                            client: params,
                            accepted_at: now,
                        })
                    }
                    // The upload happened and is banked for quorum: its
                    // bytes count, but nothing is assimilated yet.
                    ReportStatus::Pending => {
                        self.bytes += self.upload_bytes();
                        Effect::None
                    }
                    ReportStatus::Stale => Effect::None,
                }
            }
            ToServer::Assimilated {
                wu,
                host,
                epoch,
                shard_id,
                acc,
                accepted_at,
            } => {
                self.assimilations += 1;
                self.telemetry
                    .registry()
                    .histogram_with(ASSIM_LATENCY_S, Histogram::latency_bounds)
                    .observe((now - accepted_at).max(0.0));
                if self.telemetry.tracing() {
                    // Causal trace: the assimilate stage closes the
                    // workunit's dispatch → … → assimilate chain.
                    self.telemetry.trace_span(
                        now.as_secs(),
                        TraceStage::Assimilate,
                        wu.0,
                        u64::from(host.0),
                        (now - accepted_at).max(0.0),
                        vec![
                            ("epoch", (epoch as u64).into()),
                            ("shard", (shard_id as u64).into()),
                            ("acc", f64::from(acc).into()),
                        ],
                    );
                }
                event!(
                    self.telemetry,
                    Debug,
                    "assimilated",
                    wu = wu.0,
                    epoch = epoch,
                    shard = shard_id,
                    acc = acc
                );
                let mut finished = false;
                if epoch == self.epoch {
                    self.done.push((shard_id, acc));
                    if self.done.len() == self.cfg.job.shards {
                        finished = self.finish_epoch();
                    }
                }
                if finished {
                    return Effect::Stop(Stop::Finished);
                }
                if self
                    .cfg
                    .halt_after_assims
                    .is_some_and(|h| self.assimilations >= h)
                {
                    self.write_checkpoint();
                    return Effect::Stop(Stop::Halted);
                }
                Effect::None
            }
        }
    }

    /// Closes out the current epoch; returns `true` when the job is over.
    fn finish_epoch(&mut self) -> bool {
        let accs: Vec<f32> = self.done.iter().map(|d| d.1).collect();
        let (mean, min, max) = accuracy_spread(&accs);
        let sm = self.server.metrics();
        self.stats.push(RuntimeEpoch {
            epoch: self.epoch,
            alpha: self.cfg.job.alpha.alpha(self.epoch),
            end_wall_s: self.telemetry.now_s(),
            mean_val_acc: mean,
            min_val_acc: min,
            max_val_acc: max,
            assimilated: accs.len(),
            lost_updates: self.assim.store().ops().lost_updates,
            timeouts: sm.timeouts,
            reassignments: sm.reassignments,
        });
        event!(
            self.telemetry,
            Info,
            "epoch_finished",
            epoch = self.epoch,
            mean_val_acc = mean,
            assimilated = accs.len()
        );
        self.done.clear();

        if self.epoch >= self.cfg.job.epochs {
            return true;
        }

        // Next epoch: publish the store's shard blobs as they stand —
        // shared, not copied — as this epoch's fetchable snapshot (Eq. (2)'s
        // W_{s,e-1}) and hand the middleware the shard-version manifest its
        // workunits will carry.
        self.epoch += 1;
        let shards = self.assim.read_blobs();
        self.service.publish(self.epoch as u64, &shards);
        let manifest = shards.iter().map(|&(_, v)| v).collect();
        // Keep the new epoch (fetches, checkpoints) and the one that just
        // closed (a replica handed out as it closed may still fetch it).
        self.service.retire_snapshots_before(self.epoch as u64 - 1);
        let now = self.now();
        self.server.add_epoch_sharded(
            self.epoch,
            self.cfg.job.shards,
            &ShardManifest(manifest),
            now,
        );
        false
    }

    /// Summarizes live coordinator state into the `/status` document: job
    /// progress, fleet health, queue backlog, and parameter-service shard
    /// versions — read-only over state the coordinator already owns.
    fn build_status(&self, done: bool) -> StatusSnapshot {
        let now = self.now();
        let ops = self.service.ops();
        let mut ps = PsStatus::from_versions(self.assim.versions());
        ps.fetches = ops.fetches;
        ps.shards_sent = ops.shards_sent;
        ps.cache_hits = ops.cache_hits;
        ps.bytes_rx = ops.bytes_rx;
        ps.bytes_tx = ops.bytes_tx;
        ps.bytes_saved = self.telemetry.registry().counter(PS_BYTES_SAVED).get();
        ps.compression_ratio = if ops.bytes_tx > 0 {
            (ops.bytes_tx + ps.bytes_saved) as f64 / ops.bytes_tx as f64
        } else {
            1.0
        };
        StatusSnapshot {
            t_s: self.telemetry.now_s(),
            label: self.cfg.job.pct_label(),
            epochs_done: self.stats.len() as u32,
            epochs_total: self.cfg.job.epochs as u32,
            open_workunits: self.server.open_count(),
            queue_depth: self.server.queue_depth(),
            assimilations: self.assimilations,
            epoch_acc: self
                .stats
                .iter()
                .map(|e| f64::from(e.mean_val_acc))
                .collect(),
            fleet: FleetStatus::from_hosts(self.server.hosts(), now),
            server: self.server.metrics(),
            ps,
            done,
        }
    }

    /// Publishes a fresh status snapshot into the ops hub, if one is
    /// attached. Pure state summarization — no RNG, no telemetry events —
    /// so attaching an ops surface never perturbs a trajectory.
    fn publish_ops(&self, done: bool) {
        if let Some(hub) = &self.ops {
            hub.publish(self.build_status(done));
        }
    }

    /// Total payload bytes: channel uploads counted here plus the wire
    /// bytes the parameter service moved (fetch requests and shard blobs).
    fn total_bytes(&self) -> u64 {
        let ops = self.service.ops();
        self.bytes + ops.bytes_rx + ops.bytes_tx
    }

    /// Bytes one result upload would occupy on the wire under the active
    /// codec. Uploads travel an in-process channel here, so this is the
    /// accounting model: `Raw` charges the exact legacy VCP1 frame size,
    /// lossy codecs their worst-case blob size.
    fn upload_bytes(&self) -> u64 {
        self.cfg.codec.blob_len(self.assim.layout().param_count()) as u64
    }

    /// Serializes the current state to the configured path (no-op without
    /// one). I/O errors become `checkpoint_write_failed` telemetry events,
    /// not fatal: losing a checkpoint must not kill a healthy run.
    fn write_checkpoint(&mut self) {
        let Some(path) = self.cfg.checkpoint_path.clone() else {
            return;
        };
        let snapshot = self.service.snapshot_blobs(self.epoch as u64);
        let ck = Checkpoint {
            header: CheckpointHeader {
                cfg: (*self.cfg).clone(),
                epoch: self.epoch,
                done: self.done.clone(),
                stats: self.stats.clone(),
                assimilations: self.assimilations,
                bytes_transferred: self.total_bytes(),
                wall_s: self.telemetry.now_s(),
            },
            snapshot: snapshot.expect("the current epoch is published"),
            params: self.assim.read_blobs(),
        };
        match ck.save(&path) {
            Ok(()) => event!(
                self.telemetry,
                Info,
                "checkpoint_written",
                path = path.as_str(),
                epoch = self.epoch,
                assimilations = self.assimilations
            ),
            Err(e) => event!(
                self.telemetry,
                Warn,
                "checkpoint_write_failed",
                path = path.as_str(),
                err = e
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use vc_middleware::{VirtualClock, WuId};
    use vc_telemetry::FieldValue;

    /// The threaded event loop over an assembled coordinator and real
    /// channel ends, on a clock the test moves. An outcome stamped after
    /// everything else arrives first (it halts the run once served), then
    /// one work request per host, stamped with `dues[host]`. Once the loop
    /// has taken the last message, the clock passes every stamp at once.
    /// Returns the hosts in `wu_assigned` order, after checking that every
    /// host got its assignment and its shutdown: none is lost.
    fn serve_requests(dues: &[f64]) -> Vec<u64> {
        let hosts = dues.len();
        let mut cfg = RuntimeConfig::test_small(1);
        cfg.job.cn = hosts;
        cfg.halt_after_assims = Some(1);
        let cfg = Arc::new(cfg);
        let clock = VirtualClock::new();
        let tel = Telemetry::silent();
        tel.set_time_source(Arc::new(clock.clone()));
        let (tx, inbox) = bounded(hosts + 2);
        let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) = (0..hosts).map(|_| bounded(4)).unzip();
        let (assim_tx, _assim_rx) = bounded(1);

        let outcome = ToServer::Assimilated {
            wu: WuId(0),
            host: HostId(0),
            epoch: 1,
            shard_id: 0,
            acc: 0.5,
            accepted_at: SimTime::ZERO,
        };
        tx.send((SimTime::from_secs(1.1), outcome)).unwrap();
        for (h, &due) in dues.iter().enumerate() {
            let msg = ToServer::RequestWork {
                host: HostId(h as u32),
            };
            tx.send((SimTime::from_secs(due), msg)).unwrap();
        }
        let report = std::thread::scope(|s| {
            let coordinator = s.spawn(|| {
                let Assembled { coord, .. } =
                    assemble(cfg, &tel, VersionedStore::new(), None, None, |_| {});
                coord.run(Links {
                    inbox,
                    worker_txs,
                    assim_tx,
                })
            });
            // (A loop that stops early leaves messages behind; the
            // assertions below then fail instead of this wait hanging.)
            while !tx.is_empty() && !coordinator.is_finished() {
                std::thread::yield_now();
            }
            // Before any assignment's 2 s deadline.
            clock.set(SimTime::from_secs(1.5));
            coordinator.join().expect("coordinator thread")
        });

        assert!(report.halted_early, "the outcome was served");
        for rx in worker_rxs {
            assert!(matches!(rx.try_recv(), Ok(ToWorker::Assign { .. })));
            assert!(matches!(rx.try_recv(), Ok(ToWorker::Shutdown)));
        }
        tel.recorder()
            .events()
            .into_iter()
            .filter(|e| e.name == "wu_assigned")
            .map(|e| match e.field("host") {
                Some(FieldValue::U64(h)) => *h,
                other => panic!("wu_assigned without a host: {other:?}"),
            })
            .collect()
    }

    /// Four requests whose stamps run against their arrival order, then two
    /// that are due on arrival. The due ones are served on arrival, in
    /// arrival order; the held ones in due order; none is lost.
    #[test]
    fn held_messages_are_served_in_due_order_and_none_is_lost() {
        let assigned = serve_requests(&[1.0, 0.9, 0.8, 0.7, 0.0, 0.0]);
        assert_eq!(assigned, [4, 5, 3, 2, 1, 0]);
    }

    /// Messages with no delay bypass the queue and keep the order they
    /// were sent in.
    #[test]
    fn messages_due_on_arrival_are_served_in_arrival_order() {
        let assigned = serve_requests(&[0.0; 5]);
        assert_eq!(assigned, [0, 1, 2, 3, 4]);
    }

    /// The closing evaluation loads the server's parameters into the
    /// replica once and scores both splits on them: bit for bit what two
    /// separate `score` calls on a fresh replica give, whether the rows go
    /// to one, two or three replicas. `resnet_lite` on 32×32×3 scores in
    /// passes of 32, shared out to 16 and 10 a part, so each part runs
    /// more than one, and 40 and 36 rows do not split evenly three ways.
    #[test]
    fn score_final_equals_scoring_each_split() {
        let mut job = JobConfig::test_small(3);
        job.data.img = [3, 32, 32];
        (job.data.train_n, job.data.val_n, job.data.test_n) = (16, 40, 36);
        job.val_eval_n = 8;
        job.model = vc_nn::spec::resnet_lite(&job.data.img, 1, job.data.classes);
        let data = JobData::generate(&job);
        // The server holds parameters the replica was not built with.
        let params = job.model.build(job.seed + 1).params_flat();
        let assim = assimilator(&job, VersionedStore::shared(), params.len());
        assim.seed_params(&params);

        let mut fresh = job.model.build_blank();
        let want = (
            score(&mut fresh, &params, &data.val).to_bits(),
            score(&mut fresh, &params, &data.test).to_bits(),
        );
        for parts in [1, 2, 3] {
            let mut model = job.model.build(job.seed);
            let (val, test) =
                score_final(&mut model, &job.model, parts, &assim, &data.val, &data.test);
            assert!(
                model.params_flat() == params,
                "the replica holds the server's parameters"
            );
            assert_eq!((val.to_bits(), test.to_bits()), want, "{parts} parts");
        }
    }

    /// A panic on the data-generation thread comes out of `assemble` as a
    /// panic, with its own message, once the calling thread's half is done:
    /// the run fails, it does not hang. One worker runs the two halves one
    /// after the other, two run them side by side.
    #[test]
    fn a_data_generation_panic_in_assemble_does_not_hang() {
        for cn in [1, 2] {
            let mut cfg = RuntimeConfig::test_small(1);
            cfg.job.cn = cn;
            // More shards than training samples: drawing the shards panics.
            cfg.job.shards = cfg.job.data.train_n + 1;
            let cfg = Arc::new(cfg);
            let (done_tx, done_rx) = bounded(1);
            let run = std::thread::spawn(move || {
                let tel = Telemetry::silent();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    drop(assemble(
                        cfg,
                        &tel,
                        VersionedStore::new(),
                        None,
                        None,
                        |_| {},
                    ));
                }));
                let message = out.err().map(|p| match p.downcast::<String>() {
                    Ok(m) => *m,
                    Err(p) => p.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
                });
                done_tx.send(message).expect("the test waits");
            });
            let message = done_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("assemble hung on a data panic ({cn} workers)"));
            let message = message.expect("assemble must panic");
            assert!(message.contains("more shards"), "{cn} workers: {message}");
            run.join().expect("the panic was caught");
        }
    }
}
