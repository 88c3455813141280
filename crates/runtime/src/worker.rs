//! The worker (volunteer client) thread.
//!
//! Each worker owns one host identity and runs the BOINC client loop for
//! real: poll the scheduler, train the assigned shard with actual SGD
//! (through the same [`vc_asgd::train_client_replica_ws`] the simulator
//! uses), upload the replica parameters, repeat. A worker executes one
//! subtask at a time; the server-side slot cap (`Tn`) still bounds how much
//! work can be assigned to its host record.
//!
//! Death is silent: a preempted worker simply stops participating, exactly
//! like a terminated spot instance. The server learns only when the
//! assignment's wall-clock deadline passes.
//!
//! The identity/fault-arithmetic part of the loop lives in [`WorkerCore`],
//! which the deterministic simulation (`crate::sim`) drives from its own
//! event loop — threaded and simulated workers share one notion of lives,
//! assignment counts, and per-worker RNG streams, so a fault plan means the
//! same thing in both substrates.

use crate::config::RuntimeConfig;
use crate::fault::{FaultPlan, FaultStats};
use crate::protocol::{ToServer, ToWorker};
use crate::transport::Outbox;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use vc_asgd::{train_client_replica_ws, JobConfig};
use vc_data::ShardSet;
use vc_middleware::HostId;
use vc_optim::{StepTimer, TrainWorkspace};
use vc_ps::codec::apply_update_roundtrip;
use vc_ps::{PsClient, ShardCache};
use vc_telemetry::{event, Histogram, Telemetry, TraceStage};

use crate::report::{
    WORKER_FETCH_S, WORKER_POLL_S, WORKER_TRAIN_S, WORKER_TRAIN_STEP_S, WORKER_UPLOAD_S,
};

/// The substrate-independent worker state: identity, life/assignment
/// counters for the fault plan, and the worker's private RNG stream.
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
}

impl WorkerCore {
    /// A fresh worker on its first life.
    pub fn new(id: HostId, fault_seed: u64) -> Self {
        WorkerCore {
            id,
            life: 0,
            assignments_this_life: 0,
            rng: StdRng::seed_from_u64(
                fault_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(id.0)),
            ),
        }
    }

    /// Records one received assignment and returns `true` when the fault
    /// plan says this worker dies instead of executing it.
    pub fn on_assign(&mut self, plan: &FaultPlan) -> bool {
        self.assignments_this_life += 1;
        plan.should_kill(self.id.0, self.life, self.assignments_this_life)
    }

    /// Starts the replacement instance's life.
    pub fn respawn(&mut self) {
        self.life += 1;
        self.assignments_this_life = 0;
    }
}

/// Everything one worker thread needs.
pub struct WorkerCtx {
    /// This worker's host identity.
    pub id: HostId,
    /// Shared run configuration.
    pub cfg: Arc<RuntimeConfig>,
    /// The sharded training set (workers read their assigned shard).
    pub shards: Arc<ShardSet>,
    /// Replies from the coordinator.
    pub cmd_rx: Receiver<ToWorker>,
    /// Uplink to the coordinator (possibly through the delay line).
    pub outbox: Outbox,
    /// Shared fault counters.
    pub stats: Arc<FaultStats>,
    /// The run's telemetry hub (phase timings, kill/respawn events).
    pub telemetry: Telemetry,
    /// Connection to the parameter service (in-memory or TCP).
    pub ps: Box<dyn PsClient>,
    /// Sticky shard cache: only shards whose manifest version moved are
    /// re-fetched across assignments.
    pub cache: ShardCache,
}

/// The worker thread body.
pub fn worker_main(ctx: WorkerCtx) {
    let WorkerCtx {
        id,
        cfg,
        shards,
        cmd_rx,
        outbox,
        stats,
        telemetry,
        mut ps,
        mut cache,
    } = ctx;
    let job: &JobConfig = &cfg.job;
    let mut core = WorkerCore::new(id, cfg.faults.seed);
    let poll = Duration::from_secs_f64(cfg.poll_interval_s);
    let reply_timeout = Duration::from_secs_f64(cfg.reply_timeout_s);
    let poll_h = telemetry
        .registry()
        .histogram_with(WORKER_POLL_S, Histogram::latency_bounds);
    let train_h = telemetry
        .registry()
        .histogram_with(WORKER_TRAIN_S, Histogram::latency_bounds);
    let train_step_h = telemetry
        .registry()
        .histogram_with(WORKER_TRAIN_STEP_S, Histogram::latency_bounds);
    let upload_h = telemetry
        .registry()
        .histogram_with(WORKER_UPLOAD_S, Histogram::latency_bounds);
    let fetch_h = telemetry
        .registry()
        .histogram_with(WORKER_FETCH_S, Histogram::latency_bounds);
    // One workspace per worker thread: the first subtask builds the
    // replica and warms the pools; after it a subtask reloads the replica
    // and its training steps allocate nothing.
    let mut tws = TrainWorkspace::new();
    // Upload-codec state: the error-feedback residual for this worker's
    // upload stream (empty without error feedback).
    let mut upload_residual: Vec<f32> = Vec::new();

    loop {
        let poll_t0 = telemetry.now_s();
        if outbox
            .send(&mut core.rng, ToServer::RequestWork { host: id })
            .is_err()
        {
            return; // coordinator gone
        }
        let reply = cmd_rx.recv_timeout(reply_timeout);
        if reply.is_ok() {
            // Scheduler round-trip: request sent to reply in hand.
            poll_h.observe((telemetry.now_s() - poll_t0).max(0.0));
        }
        match reply {
            Err(RecvTimeoutError::Disconnected) | Ok(ToWorker::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => continue, // reply lost somewhere: re-poll
            Ok(ToWorker::NoWork) => std::thread::sleep(poll),
            Ok(ToWorker::Assign { wu }) => {
                if core.on_assign(&cfg.faults) {
                    if !die(&cfg, &cmd_rx, &stats, &telemetry, id, core.life) {
                        return;
                    }
                    core.respawn();
                    continue;
                }
                // Sync the sticky cache against the workunit's manifest:
                // only shards whose version moved cross the wire.
                let fetch_t0 = telemetry.now_s();
                let snapshot = match cache.sync(wu.epoch as u64, &wu.param_versions.0, ps.as_mut())
                {
                    Ok(params) => params,
                    Err(e) => {
                        // A failed fetch drops the assignment; the server
                        // recovers it through the timeout path like any
                        // lost host.
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
                let fetch_t1 = telemetry.now_s();
                fetch_h.observe((fetch_t1 - fetch_t0).max(0.0));
                if telemetry.tracing() {
                    telemetry.trace_span(
                        fetch_t1,
                        TraceStage::Fetch,
                        wu.id.0,
                        u64::from(id.0),
                        (fetch_t1 - fetch_t0).max(0.0),
                        vec![("epoch", (wu.epoch as u64).into())],
                    );
                }
                let data = &shards.shard(wu.shard_id).data;
                let train_t0 = telemetry.now_s();
                let step_timer = StepTimer {
                    telemetry: &telemetry,
                    histogram: &train_step_h,
                };
                let mut params = train_client_replica_ws(
                    job,
                    snapshot,
                    data,
                    wu.epoch,
                    wu.shard_id,
                    &mut tws,
                    Some(&step_timer),
                );
                let train_t1 = telemetry.now_s();
                train_h.observe((train_t1 - train_t0).max(0.0));
                if telemetry.tracing() {
                    telemetry.trace_span(
                        train_t1,
                        TraceStage::Train,
                        wu.id.0,
                        u64::from(id.0),
                        (train_t1 - train_t0).max(0.0),
                        vec![
                            ("epoch", (wu.epoch as u64).into()),
                            ("shard", (wu.shard_id as u64).into()),
                        ],
                    );
                }
                // Under a lossy codec the upload is what survives the
                // wire: quantize the trained delta against the fetched
                // snapshot; error feedback carries the dropped mass into
                // this worker's next upload.
                if cfg.codec.is_lossy() {
                    apply_update_roundtrip(
                        cfg.codec,
                        cache.params(),
                        &mut params,
                        &mut upload_residual,
                    );
                }
                // A byzantine host does the work, then lies about it.
                if let Some(mode) = cfg.faults.byzantine(id.0) {
                    mode.corrupt(id.0, &mut params);
                }
                let upload_t0 = telemetry.now_s();
                if outbox
                    .send(
                        &mut core.rng,
                        ToServer::Result {
                            host: id,
                            wu: wu.id,
                            params,
                        },
                    )
                    .is_err()
                {
                    return;
                }
                let upload_t1 = telemetry.now_s();
                upload_h.observe((upload_t1 - upload_t0).max(0.0));
                if telemetry.tracing() {
                    telemetry.trace_span(
                        upload_t1,
                        TraceStage::Upload,
                        wu.id.0,
                        u64::from(id.0),
                        (upload_t1 - upload_t0).max(0.0),
                        Vec::new(),
                    );
                }
            }
        }
    }
}

/// Preemption: the in-hand assignment is dropped without a word. With a
/// respawn delay configured, the thread then impersonates the replacement
/// instance: it waits out the provisioning delay and discards every message
/// addressed to its dead predecessor. Returns `true` when a replacement
/// came up, `false` when the host is gone for good.
fn die(
    cfg: &RuntimeConfig,
    cmd_rx: &Receiver<ToWorker>,
    stats: &FaultStats,
    telemetry: &Telemetry,
    id: HostId,
    life: u32,
) -> bool {
    stats
        .kills
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    event!(telemetry, Info, "worker_kill", host = id.0, life = life);
    let Some(delay_s) = cfg.faults.respawn_after_s else {
        return false;
    };
    std::thread::sleep(Duration::from_secs_f64(delay_s));
    // A fresh instance has no memory of in-flight replies.
    loop {
        match cmd_rx.try_recv() {
            Ok(ToWorker::Shutdown) | Err(TryRecvError::Disconnected) => return false,
            Ok(_) => continue,
            Err(TryRecvError::Empty) => break,
        }
    }
    stats
        .respawns
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    event!(
        telemetry,
        Info,
        "worker_respawn",
        host = id.0,
        life = life + 1
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_assignments_and_dies_on_schedule() {
        let mut plan = FaultPlan::none();
        plan.kill_hosts = vec![3];
        plan.kill_on_nth_assignment = 2;
        let mut core = WorkerCore::new(HostId(3), plan.seed);
        assert!(!core.on_assign(&plan), "first assignment survives");
        assert!(core.on_assign(&plan), "second assignment kills");
        core.respawn();
        assert_eq!((core.life, core.assignments_this_life), (1, 0));
        assert!(!core.on_assign(&plan), "replacement instances are safe");
    }

    #[test]
    fn rng_streams_differ_by_host_but_not_by_call() {
        use rand::Rng;
        let mut a1 = WorkerCore::new(HostId(0), 42);
        let mut a2 = WorkerCore::new(HostId(0), 42);
        let mut b = WorkerCore::new(HostId(1), 42);
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
}
