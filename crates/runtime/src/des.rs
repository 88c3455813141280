//! The discrete-event driver behind the paper's figures: wires the work
//! generator, BOINC-like middleware, simulated fleet, real client training
//! and the VC-ASGD parameter servers together under `vc-simnet`'s
//! calibrated clock. It shares with the other two drivers of this crate
//! the client step, the parameter-server `begin`/`finish`, the scoring
//! pass and the `EventQueue`, and the run's set-up and close: the data
//! split, the scheduler, the parameter server, the epoch's accuracy spread
//! and the closing evaluation. Host liveness is the scheduler's own record
//! (`alive` and the incarnation counter `lives`). It keeps its own event
//! loop on purpose (DESIGN.md §6f): cost models for compute, transfer and
//! store updates, `Tn` concurrent slots per host, two-phase assimilation,
//! stochastic per-subtask preemption and `timing_only` are each a
//! behaviour the `Scenario` engine would have to switch on per caller.
//! The knobs for them are [`DesConfig`]'s, so no other driver's config can
//! name one.
//!
//! ## What is simulated and what is real
//!
//! *Time* is simulated: downloads, training durations, uploads, timeouts,
//! preemptions and assimilation queueing advance a discrete-event clock
//! calibrated to the paper's testbed (see `vc-simnet`). *Learning* is real:
//! every subtask trains an actual model replica on its shard, and every
//! assimilation applies Eq. (1) to actual parameter vectors, so the
//! accuracy curves are genuine SGD dynamics under the simulated asynchrony.
//!
//! ## Epoch protocol (§III-A)
//!
//! The work generator creates one workunit per shard at the start of each
//! epoch, all carrying the server parameter snapshot current at that moment
//! (Eq. (2)'s `W_{s,e-1}`). Within the epoch everything is asynchronous:
//! results assimilate in arrival order, stragglers time out and are
//! reassigned, lost hosts are replaced. The epoch ends when all shards'
//! results have been assimilated; the driver then records the epoch's
//! validation statistics and generates the next epoch.

use crate::coordinator::{
    accuracy_spread, assimilator, scheduler, score, score_final, spare_threads, JobData,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use vc_asgd::{result_is_valid, train_client_replica, EpochStats, JobConfig, JobReport};
use vc_kvstore::{LatencyModel, VersionedStore};
use vc_middleware::{BoincServer, HostId, ReportStatus, ShardManifest, WuId};
use vc_nn::Sequential;
use vc_optim::TrainWorkspace;
use vc_ps::{ShardSnapshot, ShardedAssimilator};
use vc_simnet::{ComputeModel, EventQueue, NetworkModel, PreemptionModel, SimTime};
use vc_tensor::codec::encoded_len;

/// Seconds a preempted host slot takes to be replaced by a fresh instance
/// (the fleet keeps its size; §IV-E runs "a fleet").
pub const REPLACEMENT_DELAY_S: f64 = 120.0;

/// A discrete-event run: the job every driver reads, plus what only this
/// driver models — simulated compute costs, instance preemption, and the
/// timing-only shortcut. Transfers are priced by the default
/// [`NetworkModel`], and a preempted host comes back after
/// [`REPLACEMENT_DELAY_S`].
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// The training job.
    pub job: JobConfig,
    /// Fleet compute model.
    pub compute: ComputeModel,
    /// Instance-termination process (§IV-E).
    pub preemption: PreemptionModel,
    /// Skip real training and per-update evaluation: clients return the
    /// snapshot unchanged and accuracies read as zero. The simulated
    /// *timing* is identical, so time-shape experiments (Fig. 3, §IV-D,
    /// §IV-E) run in milliseconds.
    pub timing_only: bool,
    /// Also score the held-out test split at every epoch end (Fig. 6's
    /// right panel). Costs one extra evaluation per epoch.
    pub track_test_acc: bool,
}

impl DesConfig {
    /// Simulates `job` on the calibrated testbed: the default compute
    /// model, no preemption, real training, no per-epoch test scoring.
    pub fn new(job: JobConfig) -> Self {
        DesConfig {
            job,
            compute: ComputeModel::default(),
            preemption: PreemptionModel::None,
            timing_only: false,
            track_test_acc: false,
        }
    }
}

impl From<JobConfig> for DesConfig {
    fn from(job: JobConfig) -> Self {
        DesConfig::new(job)
    }
}

/// Discrete events driving the simulation.
enum Ev {
    /// A host polls the scheduler for work.
    Poll(HostId),
    /// A host finished local training for a workunit (starts the upload).
    /// Every host event carries the incarnation (`lives`) it was issued
    /// to; a dead or replaced instance's events are ignored.
    TaskDone { host: HostId, gen: u32, wu: WuId },
    /// A result upload reached the server.
    UploadDone { host: HostId, gen: u32, wu: WuId },
    /// A parameter server finished the CPU part of assimilation
    /// (deserialization + validation prep) and now begins the store update.
    AssimCommit(PendingAssim),
    /// The store update transaction completed; `begun` is what
    /// [`ShardedAssimilator::begin`] handed out when it started (eventual
    /// mode's stale read).
    AssimDone {
        task: PendingAssim,
        begun: Option<ShardSnapshot>,
    },
    /// The transitioner wakes to expire overdue assignments.
    DeadlineScan,
    /// A host instance is terminated by the cloud provider.
    Preempt { host: HostId, gen: u32 },
    /// A replacement instance comes up for a terminated host slot.
    Revive(HostId),
}

/// An accepted result on its way through a parameter server.
struct PendingAssim {
    epoch: usize,
    client: Arc<Vec<f32>>,
}

/// The end-to-end distributed training run.
struct TrainingJob {
    cfg: DesConfig,
    data: JobData,
    // Distributed state: the scheduler holds every host's spec and
    // liveness.
    server: BoincServer,
    assim: ShardedAssimilator,
    events: EventQueue<Ev>,
    // Per-epoch state.
    epoch: usize,
    /// The server snapshot the current epoch's workunits train from (the
    /// only ones open: an epoch closes once every workunit is decided).
    snapshot: Arc<Vec<f32>>,
    /// Each open workunit's trained result, dropped when it is accepted.
    client_cache: HashMap<WuId, Arc<Vec<f32>>>,
    /// Simulated clients train one at a time, so one buffer pool serves
    /// every replica.
    train_ws: TrainWorkspace,
    epoch_accs: Vec<f32>,
    epoch_stats: Vec<EpochStats>,
    // Server-side resources.
    busy_ps: usize,
    assim_queue: VecDeque<PendingAssim>,
    /// The scoring replica; its buffer pool stays warm for the run.
    eval_model: Sequential,
    network: NetworkModel,
    // RNG streams.
    net_rng: StdRng,
    preempt_rng: StdRng,
    // Accounting.
    bytes: u64,
    preemptions: u64,
    param_count: usize,
    done: bool,
}

impl TrainingJob {
    /// Builds a job, generating data beside seeding the parameter store.
    fn new(cfg: DesConfig) -> Result<Self, String> {
        let job = &cfg.job;
        job.validate()?;
        let (data, (init_model, init_params, assim), _) = JobData::generate_beside(job, || {
            let init_model = job.model.build(job.seed);
            let init_params = init_model.params_flat();
            let assim = assimilator(job, VersionedStore::shared(), init_params.len());
            assim.seed_params(&init_params);
            (init_model, init_params, assim)
        });
        let param_count = init_params.len();

        Ok(TrainingJob {
            net_rng: StdRng::seed_from_u64(job.seed.wrapping_mul(0x2545_F491).wrapping_add(11)),
            preempt_rng: StdRng::seed_from_u64(job.seed.wrapping_mul(0x9E37_79B9).wrapping_add(13)),
            eval_model: init_model,
            data,
            server: scheduler(job),
            assim,
            events: EventQueue::new(),
            epoch: 1,
            snapshot: Arc::new(init_params),
            client_cache: HashMap::new(),
            train_ws: TrainWorkspace::new(),
            epoch_accs: Vec::new(),
            epoch_stats: Vec::new(),
            busy_ps: 0,
            assim_queue: VecDeque::new(),
            network: NetworkModel::default(),
            bytes: 0,
            preemptions: 0,
            param_count,
            cfg,
            done: false,
        })
    }

    /// Executes the run to completion and returns the report.
    fn run(&mut self) -> JobReport {
        // Kick off epoch 1 and the first round of polls.
        let manifest = ShardManifest(self.assim.versions());
        self.server
            .add_epoch_sharded(1, self.cfg.job.shards, &manifest, SimTime::ZERO);
        self.poll_all();

        let mut safety = 0u64;
        while !self.done {
            let Some((_, ev)) = self.events.pop() else {
                panic!(
                    "event queue drained with {} open workunits at epoch {}",
                    self.server.open_count(),
                    self.epoch
                );
            };
            self.dispatch(ev);
            safety += 1;
            assert!(
                safety < 50_000_000,
                "simulation exceeded event budget — livelock?"
            );
        }
        self.report()
    }

    // ------------------------------------------------------------ dispatch

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Poll(host) => self.on_poll(host),
            Ev::TaskDone { host, gen, wu } => self.on_task_done(host, gen, wu),
            Ev::UploadDone { host, gen, wu } => self.on_upload_done(host, gen, wu),
            Ev::AssimCommit(task) => self.on_assim_commit(task),
            Ev::AssimDone { task, begun } => self.on_assim_done(task, begun),
            Ev::DeadlineScan => self.on_deadline_scan(),
            Ev::Preempt { host, gen } => self.on_preempt(host, gen),
            Ev::Revive(host) => self.on_revive(host),
        }
    }

    /// Wakes every host of the fleet.
    fn poll_all(&mut self) {
        for h in 0..self.server.hosts().len() {
            self.events.schedule_in(0.0, Ev::Poll(HostId(h as u32)));
        }
    }

    /// Whether `host` is still the incarnation `gen` an event was issued to.
    fn is_live(&self, host: HostId, gen: u32) -> bool {
        let h = &self.server.hosts()[host.0 as usize];
        h.alive && h.lives == gen
    }

    fn on_poll(&mut self, host: HostId) {
        let now = self.events.now();
        while let Some(asg) = self.server.request_work(host, now) {
            let spec = self.server.spec(host);
            let hot = &self.server.hosts()[host.0 as usize];
            let (resident, gen) = (hot.in_flight, hot.lives);

            // Download: parameter snapshot always; shard only on cache miss.
            let param_bytes = encoded_len(self.param_count);
            let mut dl = self
                .network
                .transfer_s(spec, param_bytes, &mut self.net_rng);
            self.bytes += param_bytes as u64;
            if !asg.shard_cached {
                let shard_bytes = self.data.shards.shard(asg.wu.shard_id).byte_size();
                dl += self
                    .network
                    .transfer_s(spec, shard_bytes, &mut self.net_rng);
                self.bytes += shard_bytes as u64;
            }

            let compute = self.cfg.compute.subtask_s(spec, resident.max(1));

            // Preemption (§IV-E): drawn per subtask execution; a hit kills
            // the whole instance partway through the compute phase.
            if let Some(kill_after) = self
                .cfg
                .preemption
                .draw_preemption(compute, &mut self.preempt_rng)
            {
                self.events
                    .schedule_in(dl + kill_after, Ev::Preempt { host, gen });
                // The TaskDone below still gets scheduled; the host is
                // dead by then, and its replacement a later incarnation.
            }

            self.events.schedule_in(
                dl + compute,
                Ev::TaskDone {
                    host,
                    gen,
                    wu: asg.wu.id,
                },
            );
            // Wake the transitioner just after this assignment's deadline.
            let delay = (asg.deadline - now) + 0.001;
            self.events.schedule_in(delay, Ev::DeadlineScan);
        }
        // A host barred by fetch backoff re-polls right after the bar
        // lifts; nothing else is guaranteed to wake it before the event
        // queue drains.
        if let Some(until) = self.server.hosts()[host.0 as usize].backoff_until {
            if self.server.hosts()[host.0 as usize].alive && until > now {
                self.events
                    .schedule_in((until - now) + 0.001, Ev::Poll(host));
            }
        }
    }

    fn on_task_done(&mut self, host: HostId, gen: u32, wu: WuId) {
        if !self.is_live(host, gen) {
            return; // the instance died before finishing
        }
        let now = self.events.now();
        // Client-side sanity: a diverged replica uploads anyway; the
        // server-side validator rejects it (BOINC validator step). A
        // decided workunit's result is the accepted one, which passed.
        if self.client_result(wu).is_some_and(|p| !result_is_valid(&p)) {
            self.server.report_invalid(wu, host, now);
            self.events.schedule_in(0.0, Ev::Poll(host));
            return;
        }

        let up = self.network.transfer_s(
            self.server.spec(host),
            encoded_len(self.param_count),
            &mut self.net_rng,
        );
        self.bytes += encoded_len(self.param_count) as u64;
        self.events
            .schedule_in(up, Ev::UploadDone { host, gen, wu });
    }

    fn on_upload_done(&mut self, host: HostId, gen: u32, wu: WuId) {
        if !self.is_live(host, gen) {
            return; // died mid-upload; the timeout will recover the workunit
        }
        let now = self.events.now();
        // A decided workunit's upload is `Stale` whatever it carries.
        let client = self.client_result(wu).unwrap_or_default();
        let status = self.server.report_result(wu, host, &client, now);
        // Either way the slot is free again.
        self.events.schedule_in(0.0, Ev::Poll(host));
        if status != ReportStatus::Accepted {
            // Pending: the vote is banked server-side until quorum; other
            // hosts may need to pick up the extra replicas it requested.
            if status == ReportStatus::Pending {
                self.poll_all();
            }
            return;
        }
        self.client_cache.remove(&wu);
        self.assim_queue.push_back(PendingAssim {
            epoch: self.server.workunit(wu).epoch,
            client,
        });
        self.pump_assimilators();
    }

    /// Starts assimilations while parameter servers are free.
    ///
    /// An assimilation has two simulated phases: the CPU phase (result
    /// deserialization, bookkeeping, validation-scoring preparation) and
    /// the store-update transaction. The eventual-consistency race window
    /// is only the second phase — the read of the read-modify-write cycle
    /// happens when the DB update begins, exactly as a Redis GET/SET pair
    /// would, so overlap between parameter servers loses updates at the
    /// §IV-D rate rather than across the whole CPU phase.
    fn pump_assimilators(&mut self) {
        while self.busy_ps < self.cfg.job.pn {
            let Some(task) = self.assim_queue.pop_front() else {
                break;
            };
            self.busy_ps += 1;
            let server_spec = vc_simnet::table1::server();
            let inflight = self.busy_ps + self.assim_queue.len();
            // ±10% duration jitter desynchronizes parameter servers that
            // picked results up in the same burst; without it, commits tie
            // exactly and the eventual-consistency loss rate is
            // pathologically overstated.
            let jitter = 0.9 + 0.2 * rand::Rng::gen::<f64>(&mut self.net_rng);
            let cpu = self
                .cfg
                .compute
                .assim_s(&server_spec, self.cfg.job.pn, inflight)
                * jitter;
            self.events.schedule_in(cpu, Ev::AssimCommit(task));
        }
    }

    fn on_assim_commit(&mut self, task: PendingAssim) {
        let begun = self.assim.begin();
        // One update transaction on the whole parameter blob, priced by
        // the §IV-D latency model of the configured store.
        let dur = LatencyModel::for_mode(self.cfg.job.consistency)
            .update_s(encoded_len(self.param_count));
        self.events.schedule_in(dur, Ev::AssimDone { task, begun });
    }

    fn on_assim_done(&mut self, task: PendingAssim, begun: Option<ShardSnapshot>) {
        let PendingAssim { epoch, client } = task;
        // Apply Eq. (1) through the configured consistency path, into the
        // upload: the result cache let go of it at acceptance (a
        // timing-only result is the epoch snapshot, and is copied).
        let updated = self
            .assim
            .finish(begun, Arc::unwrap_or_clone(client), epoch);
        self.busy_ps -= 1;

        // Parameter-server validation scoring (§III-A): accuracy of the
        // post-update server copy on the validation subset.
        let acc = if self.cfg.timing_only {
            0.0
        } else {
            score(&mut self.eval_model, &updated, &self.data.val_eval)
        };
        if epoch == self.epoch {
            self.epoch_accs.push(acc);
            if self.epoch_accs.len() == self.cfg.job.shards {
                self.finish_epoch();
            }
        }
        self.pump_assimilators();
    }

    fn finish_epoch(&mut self) {
        let now = self.events.now();
        let accs = std::mem::take(&mut self.epoch_accs);
        let (mean, min, max) = accuracy_spread(&accs);
        let sm = self.server.metrics();
        let test_acc = (self.cfg.track_test_acc && !self.cfg.timing_only).then(|| {
            let (params, _) = self.assim.read_params();
            score(&mut self.eval_model, &params, &self.data.test)
        });
        self.epoch_stats.push(EpochStats {
            epoch: self.epoch,
            alpha: self.cfg.job.alpha.alpha(self.epoch),
            end_time_h: now.as_hours(),
            mean_val_acc: mean,
            min_val_acc: min,
            max_val_acc: max,
            test_acc,
            assimilated: accs.len(),
            lost_updates: self.assim.store().ops().lost_updates,
            timeouts: sm.timeouts,
        });

        if self.epoch >= self.cfg.job.epochs {
            self.done = true;
            return;
        }

        // Next epoch: snapshot the current server parameters for all of its
        // subtasks (Eq. (2)'s W_{s,e-1}).
        self.epoch += 1;
        let (params, manifest) = self.assim.read_params();
        self.snapshot = Arc::new(params);
        self.server.add_epoch_sharded(
            self.epoch,
            self.cfg.job.shards,
            &ShardManifest(manifest),
            now,
        );
        self.poll_all();
    }

    fn on_deadline_scan(&mut self) {
        let now = self.events.now();
        let expired = self.server.scan_timeouts(now);
        if !expired.is_empty() {
            self.poll_all();
        }
    }

    fn on_preempt(&mut self, host: HostId, gen: u32) {
        if !self.is_live(host, gen) {
            return; // instance already terminated
        }
        self.preemptions += 1;
        self.server.preempt_host(host);
        self.events
            .schedule_in(REPLACEMENT_DELAY_S, Ev::Revive(host));
    }

    fn on_revive(&mut self, host: HostId) {
        self.server.revive_host(host, self.events.now());
        self.events.schedule_in(0.0, Ev::Poll(host));
    }

    // ---------------------------------------------------------- client side

    /// The (cached) result of training a client replica for open workunit
    /// `wu`: start from the epoch snapshot, run `local_epochs` over its
    /// shard, return the replica's parameters. Deterministic per (seed,
    /// epoch, shard) — a reassigned subtask reproduces the same result,
    /// like re-running the same workunit payload. `None` once `wu` is
    /// decided: its result was the accepted one, dropped at acceptance.
    fn client_result(&mut self, wu: WuId) -> Option<Arc<Vec<f32>>> {
        if !self.server.phase(wu).is_open() {
            return None;
        }
        if let Some(r) = self.client_cache.get(&wu) {
            return Some(r.clone());
        }
        let info = self.server.workunit(wu);
        debug_assert_eq!(info.epoch, self.epoch, "only the current epoch is open");
        let shard = info.shard_id;
        // Time-shape mode: the result is the unchanged snapshot; the
        // simulated durations are identical to a real run.
        let result = if self.cfg.timing_only {
            self.snapshot.clone()
        } else {
            Arc::new(train_client_replica(
                &self.cfg.job,
                &self.snapshot,
                &self.data.shards.shard(shard).data,
                self.epoch,
                shard,
                &mut self.train_ws,
                None,
            ))
        };
        self.client_cache.insert(wu, result.clone());
        Some(result)
    }

    // -------------------------------------------------------------- report

    fn report(&mut self) -> JobReport {
        let (final_val, final_test) = if self.cfg.timing_only {
            (0.0, 0.0)
        } else {
            let JobData { val, test, .. } = &self.data;
            let job = &self.cfg.job;
            let parts = spare_threads(job);
            score_final(
                &mut self.eval_model,
                &job.model,
                parts,
                &self.assim,
                val,
                test,
            )
        };
        JobReport {
            label: self.cfg.job.pct_label(),
            epochs: self.epoch_stats.clone(),
            final_test_acc: final_test,
            final_val_acc: final_val,
            total_time_h: self.epoch_stats.last().map(|e| e.end_time_h).unwrap_or(0.0),
            server_metrics: self.server.metrics(),
            bytes_transferred: self.bytes,
            store_ops: self.assim.store().ops(),
            preemptions: self.preemptions,
        }
    }
}

/// Runs one job under the discrete-event clock and returns its report. A
/// bare [`JobConfig`] runs with [`DesConfig::new`]'s defaults.
pub fn run_job(cfg: impl Into<DesConfig>) -> Result<JobReport, String> {
    Ok(TrainingJob::new(cfg.into())?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_kvstore::Consistency;

    #[test]
    fn small_job_completes_all_epochs() {
        let cfg = JobConfig::test_small(1);
        let report = run_job(cfg.clone()).unwrap();
        assert_eq!(report.epochs.len(), cfg.epochs);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i + 1);
            assert_eq!(e.assimilated, cfg.shards);
            assert!(e.mean_val_acc >= e.min_val_acc && e.mean_val_acc <= e.max_val_acc);
        }
        // Simulated time advances monotonically.
        for w in report.epochs.windows(2) {
            assert!(w[1].end_time_h > w[0].end_time_h);
        }
        assert!(report.total_time_h > 0.0);
    }

    #[test]
    fn job_learns_above_chance() {
        let mut cfg = JobConfig::test_small(2);
        cfg.epochs = 5;
        let report = run_job(cfg).unwrap();
        // 10 classes -> chance is 0.1; even 5 tiny epochs must beat it.
        assert!(
            report.final_mean_acc() > 0.2,
            "accuracy {}",
            report.final_mean_acc()
        );
        // Test and validation accuracy broadly agree (Fig. 6's premise).
        assert!((report.final_test_acc - report.final_val_acc).abs() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_job(JobConfig::test_small(7)).unwrap();
        let b = run_job(JobConfig::test_small(7)).unwrap();
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.final_test_acc, b.final_test_acc);
        assert_eq!(a.bytes_transferred, b.bytes_transferred);
    }

    #[test]
    fn preemption_inflates_time_but_job_finishes() {
        let mut base = JobConfig::test_small(4);
        base.epochs = 2;
        let clean = run_job(base.clone()).unwrap();

        let stormy = DesConfig {
            preemption: PreemptionModel::BernoulliPerSubtask { p: 0.3 },
            ..DesConfig::new(base)
        };
        let hit = run_job(stormy).unwrap();
        assert!(hit.preemptions > 0, "a 30% storm must hit at least once");
        assert!(hit.server_metrics.timeouts > 0);
        assert_eq!(hit.epochs.len(), 2, "fault tolerance: still completes");
        assert!(
            hit.total_time_h > clean.total_time_h,
            "preemption must cost time: {} vs {}",
            hit.total_time_h,
            clean.total_time_h
        );
    }

    #[test]
    fn more_clients_train_faster() {
        let mut small = JobConfig::test_small(5);
        small.epochs = 2;
        small.cn = 1;
        small.tn = 2;
        let one = run_job(small.clone()).unwrap();
        let mut big = small;
        big.cn = 4;
        let four = run_job(big).unwrap();
        assert!(
            four.total_time_h < one.total_time_h,
            "horizontal scaling: {} vs {}",
            four.total_time_h,
            one.total_time_h
        );
    }

    #[test]
    fn eventual_mode_with_many_ps_may_lose_updates() {
        // With pn > 1, assimilations overlap in simulated time; eventual
        // consistency then loses updates while strong never does.
        // Zeroing the CPU phase makes queued results commit
        // simultaneously, so the read-modify-write windows reliably
        // collide.
        let mut cfg = DesConfig::new(JobConfig::test_small(6));
        cfg.job.pn = 4;
        cfg.job.epochs = 2;
        cfg.compute.assim_cpu_s = 0.0;
        cfg.job.consistency = Consistency::Eventual;
        let ev = run_job(cfg.clone()).unwrap();
        let mut cfg_s = cfg;
        cfg_s.job.consistency = Consistency::Strong;
        let st = run_job(cfg_s).unwrap();
        assert_eq!(
            st.store_ops.lost_updates, 0,
            "strong mode never loses updates"
        );
        // Eventual mode *can* lose updates (it does whenever two
        // assimilations overlap, which pn=4 with 8 shards makes likely).
        assert!(
            ev.store_ops.lost_updates > 0,
            "expected overlapping assimilations to clobber"
        );
    }

    #[test]
    fn bytes_accounting_scales_with_work() {
        let r = run_job(JobConfig::test_small(8)).unwrap();
        // At minimum: every assignment downloads a parameter blob and every
        // completion uploads one.
        let min_bytes = (r.server_metrics.completed * 2)
            * encoded_len(
                vc_nn::spec::mlp(&[3, 16, 16], 32, 10)
                    .build(1)
                    .param_count(),
            ) as u64;
        assert!(
            r.bytes_transferred >= min_bytes / 2,
            "{}",
            r.bytes_transferred
        );
    }
}
