//! The coordinator thread (BOINC server) and the assimilator pool.
//!
//! The coordinator owns the [`BoincServer`] state machine and drives it
//! with wall-clock readings: scheduler RPCs and uploads arrive over one
//! MPMC inbox, timeouts are scanned against real deadlines, and accepted
//! results are handed to `Pn` assimilator threads that contend on the
//! shared [`vc_kvstore::VersionedStore`] for real — in eventual mode,
//! overlapping read-blend-write cycles genuinely lose updates, not by
//! simulation but by racing.
//!
//! The coordinator is generic over its [`Clock`]: the threaded runtime
//! instantiates it with [`WallClock`], the deterministic simulation
//! (`crate::sim`) with a `VirtualClock` and drives [`Coordinator::handle`]
//! directly from its event loop instead of running the blocking
//! [`Coordinator::event_loop`].

use crate::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use crate::config::RuntimeConfig;
use crate::fault::FaultStats;
use crate::protocol::{AssimTask, ToServer, ToWorker};
use crate::report::{RuntimeEpoch, RuntimeReport, RuntimeTelemetry, ASSIM_LATENCY_S};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;
use vc_asgd::result_is_valid;
use vc_data::Dataset;
use vc_kvstore::{Consistency, VersionedStore};
use vc_middleware::{BoincServer, Clock, ReportStatus, ShardManifest};
use vc_nn::metrics::evaluate;
use vc_nn::Sequential;
use vc_ops::{FleetStatus, OpsHub, PsStatus, StatusSnapshot};
use vc_ps::{PsService, ShardedAssimilator};
use vc_telemetry::{event, Histogram, Telemetry, TraceStage};

/// Everything one assimilator (parameter-server) thread needs.
pub struct AssimCtx {
    /// Shared per-shard Eq. (1) applier over the shared store.
    pub assim: Arc<ShardedAssimilator>,
    /// Consistency mode (decides the store access pattern).
    pub mode: Consistency,
    /// Shared run configuration (model spec for the eval replica).
    pub cfg: Arc<RuntimeConfig>,
    /// The validation subset scored after every assimilation.
    pub val_eval: Arc<Dataset>,
    /// Task intake (MPMC: the pool shares one receiver).
    pub task_rx: Receiver<AssimTask>,
    /// Outcome uplink into the coordinator's inbox.
    pub out: Sender<ToServer>,
}

/// The assimilator thread body: blend, score, report, until the task
/// channel closes or the coordinator is gone. Returns its scoring replica,
/// which `Runtime::run` reuses for the final evaluation.
pub fn assimilator_main(ctx: AssimCtx) -> Sequential {
    let mut eval_model = ctx.cfg.job.model.build(ctx.cfg.job.seed);
    while let Ok(t) = ctx.task_rx.recv() {
        let updated = match ctx.mode {
            Consistency::Eventual => {
                // Read-blend-write with the read at cycle start: the window
                // between begin and commit is a real race against the other
                // assimilator threads. The yield widens it the same way a
                // network hop to Redis would.
                let snap = ctx.assim.begin_eventual();
                std::thread::yield_now();
                ctx.assim.commit_eventual(snap, &t.client, t.epoch).0
            }
            Consistency::Strong => ctx.assim.assimilate_strong(&t.client, t.epoch),
        };
        // Parameter-server validation scoring (§III-A).
        eval_model.set_params_flat(&updated);
        let (_, acc) = evaluate(
            &mut eval_model,
            &ctx.val_eval.images,
            &ctx.val_eval.labels,
            256,
        );
        if ctx
            .out
            .send(ToServer::Assimilated {
                wu: t.wu,
                host: t.host,
                epoch: t.epoch,
                shard_id: t.shard_id,
                acc,
                accepted_at: t.accepted_at,
            })
            .is_err()
        {
            break; // coordinator gone
        }
    }
    eval_model
}

/// The coordinator's mutable state, assembled by `Runtime::run` (with a
/// [`vc_middleware::WallClock`]) or by the simulation (with a
/// `VirtualClock`).
pub struct Coordinator<C: Clock> {
    /// Shared run configuration.
    pub cfg: Arc<RuntimeConfig>,
    /// The middleware state machine.
    pub server: BoincServer,
    /// Per-shard Eq. (1) applier (same instance the pool shares).
    pub assim: Arc<ShardedAssimilator>,
    /// The shared parameter store (for operation counters).
    pub store: Arc<VersionedStore>,
    /// Clock driving every middleware `now` (wall or virtual).
    pub clock: C,
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
    /// Parameter count (sizes the byte accounting).
    pub param_count: usize,
    /// Reply channels, indexed by host id.
    pub worker_txs: Vec<Sender<ToWorker>>,
    /// The shared inbox.
    pub inbox: Receiver<ToServer>,
    /// Intake of the assimilator pool.
    pub assim_tx: Sender<AssimTask>,
    /// Shared fault counters.
    pub stats_faults: Arc<FaultStats>,
    /// Runtime second (clock `elapsed_s`) at which the next timed
    /// checkpoint is due; `None` disables the timer.
    pub next_checkpoint_s: Option<f64>,
    /// The run's telemetry hub (registry + flight recorder).
    pub telemetry: Telemetry,
    /// The live ops hub the coordinator publishes status snapshots into
    /// (`None` when no ops surface is attached).
    pub ops: Option<Arc<OpsHub>>,
    /// Clock second of the last ops publish (throttles event-loop
    /// publishing to [`OPS_PUBLISH_EVERY_S`]).
    pub last_ops_publish_s: f64,
}

/// Minimum clock seconds between event-loop status publishes: scrapes see
/// fresh-enough state without the coordinator re-summarizing a 100k-host
/// fleet on every message.
const OPS_PUBLISH_EVERY_S: f64 = 0.25;

/// Why the coordinator stopped.
pub(crate) enum Stop {
    /// All epochs finished (or the accuracy target was reached).
    Finished,
    /// `halt_after_assims` fired or `max_wall_s` ran out.
    Halted,
}

impl<C: Clock> Coordinator<C> {
    /// Runs the job to completion (or halt), shuts the fleet down, and
    /// returns the report. Final accuracies are evaluated by the caller —
    /// the coordinator has no model of its own.
    pub fn run(mut self) -> (RuntimeReport, Arc<ShardedAssimilator>) {
        let stop = self.event_loop();
        self.finalize(stop)
    }

    /// Shuts the fleet down and builds the report. Split from [`Self::run`]
    /// so the simulation, which pumps [`Self::handle`] itself, can close a
    /// run the same way the threaded path does.
    pub(crate) fn finalize(self, stop: Stop) -> (RuntimeReport, Arc<ShardedAssimilator>) {
        // Orderly shutdown: tell every worker, close the assimilator
        // intake. Dead workers' channels error harmlessly.
        for tx in &self.worker_txs {
            let _ = tx.send(ToWorker::Shutdown);
        }
        let halted = matches!(stop, Stop::Halted);
        // Final status publish: scrapes after the run report `done`.
        self.publish_ops(true);
        let (kills, respawns, delayed) = self.stats_faults.snapshot();
        event!(
            self.telemetry,
            Info,
            "run_finalized",
            halted = halted,
            assimilations = self.assimilations
        );
        if let Some(path) = &self.cfg.flight_recorder_path {
            if let Err(e) = self.telemetry.recorder().dump_to_file(path) {
                event!(
                    self.telemetry,
                    Warn,
                    "flight_recorder_dump_failed",
                    path = path.as_str(),
                    err = e.to_string()
                );
            }
        }
        let report = RuntimeReport {
            label: self.cfg.job.pct_label(),
            epochs: self.stats.clone(),
            final_val_acc: 0.0,  // filled by Runtime::run
            final_test_acc: 0.0, // filled by Runtime::run
            wall_s: self.wall_base_s + self.clock.elapsed_s(),
            workers: self.worker_txs.len(),
            server_metrics: self.server.metrics(),
            hosts: self.server.host_summaries(),
            store_ops: self.store.metrics().snapshot(),
            telemetry: RuntimeTelemetry::from_registry(self.telemetry.registry()),
            ps_ops: self.service.ops(),
            bytes_transferred: self.total_bytes(),
            kills,
            respawns,
            delayed_msgs: delayed,
            halted_early: halted,
        };
        (report, self.assim)
    }

    fn event_loop(&mut self) -> Stop {
        loop {
            let now = self.clock.now();
            self.server.scan_timeouts(now);
            self.maybe_timed_checkpoint();
            self.maybe_publish_ops();
            if self.clock.elapsed_s() > self.cfg.max_wall_s {
                self.write_checkpoint();
                return Stop::Halted;
            }
            match self.inbox.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => {
                    if let Some(stop) = self.handle(msg) {
                        return stop;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Every worker and assimilator is gone; nothing can
                    // ever complete the job.
                    return Stop::Halted;
                }
            }
        }
    }

    pub(crate) fn handle(&mut self, msg: ToServer) -> Option<Stop> {
        let now = self.clock.now();
        match msg {
            ToServer::RequestWork { host } => {
                // Download bytes are no longer estimated here: the worker
                // fetches missing shards from the parameter service, whose
                // wire counters ([`PsService::ops`]) record what actually
                // travelled.
                let reply = match self.server.request_work(host, now) {
                    Some(asg) => ToWorker::Assign { wu: asg.wu },
                    None => ToWorker::NoWork,
                };
                // A dead worker's channel errors; its assignment (if any)
                // recovers through the timeout path like any lost host.
                let _ = self.worker_txs[host.0 as usize].send(reply);
                None
            }
            ToServer::Result { host, wu, params } => {
                if !result_is_valid(&params) {
                    self.server.report_invalid(wu, host, now);
                    return None;
                }
                match self.server.report_result(wu, host, &params, now) {
                    ReportStatus::Accepted => {
                        self.bytes += self.upload_bytes();
                        let info = self.server.workunit(wu).clone();
                        let _ = self.assim_tx.send(AssimTask {
                            wu,
                            host,
                            epoch: info.epoch,
                            shard_id: info.shard_id,
                            client: params,
                            accepted_at: now,
                        });
                    }
                    // The upload happened and is banked for quorum: its
                    // bytes count, but nothing is assimilated yet.
                    ReportStatus::Pending => {
                        self.bytes += self.upload_bytes();
                    }
                    ReportStatus::Stale => {}
                }
                None
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
                if let Some(every) = self.cfg.checkpoint_every_assims {
                    if self.assimilations.is_multiple_of(every) {
                        self.write_checkpoint();
                    }
                }
                if finished {
                    return Some(Stop::Finished);
                }
                if self
                    .cfg
                    .halt_after_assims
                    .is_some_and(|h| self.assimilations >= h)
                {
                    self.write_checkpoint();
                    return Some(Stop::Halted);
                }
                None
            }
        }
    }

    /// Closes out the current epoch; returns `true` when the job is over.
    fn finish_epoch(&mut self) -> bool {
        let accs: Vec<f32> = self.done.iter().map(|d| d.1).collect();
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        let min = accs.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = accs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sm = self.server.metrics();
        self.stats.push(RuntimeEpoch {
            epoch: self.epoch,
            alpha: self.cfg.job.alpha.alpha(self.epoch),
            end_wall_s: self.wall_base_s + self.clock.elapsed_s(),
            mean_val_acc: mean,
            min_val_acc: min,
            max_val_acc: max,
            assimilated: accs.len(),
            lost_updates: self.assim.lost_updates(),
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

        let reached = self
            .cfg
            .job
            .target_accuracy
            .map(|t| mean >= t)
            .unwrap_or(false);
        if reached || self.epoch >= self.cfg.job.epochs {
            return true;
        }

        // Next epoch: publish the server parameters as this epoch's
        // fetchable snapshot (Eq. (2)'s W_{s,e-1}) and hand the middleware
        // the shard-version manifest its workunits will carry.
        self.epoch += 1;
        let (params, manifest) = self.assim.read_params();
        self.service
            .publish_snapshot(self.epoch as u64, &params, &manifest);
        // Keep the new epoch (fetches, checkpoints) and the one that just
        // closed (a replica handed out as it closed may still fetch it).
        self.service.retire_snapshots_before(self.epoch as u64 - 1);
        let now = self.clock.now();
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
    pub(crate) fn build_status(&self, done: bool) -> StatusSnapshot {
        let now = self.clock.now();
        let ops = self.service.ops();
        let mut ps = PsStatus::from_versions(self.assim.versions());
        ps.fetches = ops.fetches;
        ps.shards_sent = ops.shards_sent;
        ps.cache_hits = ops.cache_hits;
        ps.pushes = ops.pushes;
        ps.bytes_rx = ops.bytes_rx;
        ps.bytes_tx = ops.bytes_tx;
        let codec_ops = self.service.codec_ops();
        ps.bytes_saved = codec_ops.bytes_saved;
        ps.compression_ratio = if ops.bytes_tx > 0 {
            (ops.bytes_tx + codec_ops.bytes_saved) as f64 / ops.bytes_tx as f64
        } else {
            1.0
        };
        StatusSnapshot {
            t_s: self.wall_base_s + self.clock.elapsed_s(),
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
    pub(crate) fn publish_ops(&self, done: bool) {
        if let Some(hub) = &self.ops {
            hub.publish(self.build_status(done));
        }
    }

    /// Event-loop beat: publish at most every [`OPS_PUBLISH_EVERY_S`]
    /// clock seconds.
    fn maybe_publish_ops(&mut self) {
        if self.ops.is_none() {
            return;
        }
        let elapsed = self.clock.elapsed_s();
        if elapsed - self.last_ops_publish_s >= OPS_PUBLISH_EVERY_S {
            self.last_ops_publish_s = elapsed;
            self.publish_ops(false);
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
        self.cfg.codec.blob_len(self.param_count) as u64
    }

    /// Fires the interval checkpoint timer when its due second has passed,
    /// then re-arms it relative to the current reading — wall-clock in the
    /// threaded runtime, virtual time in the simulation.
    pub(crate) fn maybe_timed_checkpoint(&mut self) {
        let Some(every) = self.cfg.checkpoint_every_s else {
            return;
        };
        let elapsed = self.clock.elapsed_s();
        if self.next_checkpoint_s.is_some_and(|due| elapsed >= due) {
            self.write_checkpoint();
            self.next_checkpoint_s = Some(elapsed + every);
        }
    }

    /// Serializes the current state to the configured path (no-op without
    /// one). I/O errors become `checkpoint_write_failed` telemetry events,
    /// not fatal: losing a checkpoint must not kill a healthy run.
    pub(crate) fn write_checkpoint(&mut self) {
        let Some(path) = self.cfg.checkpoint_path.clone() else {
            return;
        };
        let snapshot = self
            .service
            .snapshot_params(self.epoch as u64)
            .expect("snapshot exists for the current epoch");
        let (params, _) = self.assim.read_params();
        let mut ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            cfg: (*self.cfg).clone(),
            epoch: self.epoch,
            snapshot,
            params,
            done: self.done.clone(),
            stats: self.stats.clone(),
            assimilations: self.assimilations,
            bytes_transferred: self.total_bytes(),
            wall_s: self.wall_base_s + self.clock.elapsed_s(),
            digest: 0,
        };
        ck.seal();
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
