//! # vc-runtime
//!
//! The paper's epoch protocol (§III-A: work generator → scheduler → client
//! trains its shard → validator → assimilator applies Eq. (1)), written
//! once and driven three ways.
//!
//! ## One set of bodies
//!
//! `worker::WorkerCore` is the volunteer host (sync the shard cache,
//! train with [`vc_asgd::train_client_replica`], shape and possibly
//! corrupt the upload; die, respawn, draw message delays);
//! `coordinator::Coordinator` is the BOINC server over the
//! `vc-middleware` state machine, returning the effect of each message it
//! handles; `vc_ps::ShardedAssimilator::{begin, finish}` is the parameter
//! server's Eq. (1) under the configured consistency mode;
//! `coordinator::score` is the validation pass behind every reported
//! accuracy; `coordinator::assemble` puts a run together from the data
//! split, scheduler and parameter server that [`des`] builds its runs
//! from too, and `coordinator::score_final` closes every run. All three
//! modules, and the channel protocol between them, are private: a caller
//! drives a run through [`Runtime`], [`sim`] or [`des`].
//!
//! ## Three drivers
//!
//! * [`Runtime`] — OS threads over wall-clock time: one coordinator thread,
//!   `Pn` assimilator threads contending on the store of the `vc-ps`
//!   service for real (eventual consistency loses updates by racing), `Cn`
//!   worker threads. Scheduler RPCs, uploads and assimilation tasks flow
//!   over `crossbeam` channels; parameter fetches go to the `vc-ps` service
//!   — in-process, or over loopback TCP with `ps_tcp`.
//! * [`sim`] — the same coordinator and workers single-stepped under a
//!   virtual clock by a seeded scheduler: every race, timeout and
//!   reordering a pure function of `(Scenario, seed)`.
//! * [`des`] — the discrete-event simulator behind the paper's figures:
//!   the same client step, assimilation and scoring bodies under
//!   `vc-simnet`'s calibrated compute / network / preemption models.
//!
//! ## Faults and recovery
//!
//! A [`FaultPlan`] preempts chosen workers mid-subtask — they vanish
//! silently, and the server discovers the loss the BOINC way, through
//! assignment timeouts, then reassigns to surviving hosts. An optional
//! delay line randomly delays and reorders worker messages: each worker
//! stamps a message with the clock reading it is due at, and the
//! coordinator holds it in its own time-ordered queue until then — on
//! threads and under simulation alike. Timed [`Checkpoint`]s capture
//! server parameters plus open-workunit state; [`Runtime::resume`]
//! continues an interrupted job mid-epoch.

pub mod checkpoint;
pub mod config;
mod coordinator;
pub mod des;
pub mod fault;
mod protocol;
pub mod report;
pub mod scheduler;
pub mod sim;
mod worker;

pub use checkpoint::Checkpoint;
pub use config::RuntimeConfig;
pub use fault::{ByzantineMode, FaultPlan};
pub use report::{
    RuntimeEpoch, RuntimeReport, RuntimeTelemetry, ASSIM_LATENCY_S, DELAY_LINE_DELAY_S,
    WORKER_KILLS, WORKER_POLL_S, WORKER_RESPAWNS, WORKER_TRAIN_S, WORKER_UPLOAD_S,
};
pub use scheduler::StepScheduler;
pub use sim::{run_scenario, sweep, verify_seed, Scenario, SimOutcome};

use coordinator::{
    assemble, assimilator_main, score_final, Assembled, AssimCtx, Links, SCORE_BATCH,
};
use crossbeam::channel::unbounded;
use std::path::Path;
use std::sync::Arc;
use vc_kvstore::VersionedStore;
use vc_nn::metrics::pass_batch;
use vc_ops::{OpsHub, OpsServer};
use vc_ps::{MemClient, PsClient, TcpClient, TcpPsServer};
use vc_telemetry::{Telemetry, WallTime};
use worker::{worker_main, WorkerCtx};

/// A configured (possibly resumed) run, executed with [`Runtime::run`].
pub struct Runtime {
    cfg: RuntimeConfig,
    resume: Option<Checkpoint>,
    telemetry: Option<Telemetry>,
    ops_hub: Option<Arc<OpsHub>>,
}

impl Runtime {
    /// Builds a fresh run.
    pub fn new(cfg: RuntimeConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Runtime {
            cfg,
            resume: None,
            telemetry: None,
            ops_hub: None,
        })
    }

    /// Rebuilds a run from a checkpoint written by a previous process. The
    /// checkpoint embeds the full [`RuntimeConfig`], so nothing else is
    /// needed; adjust it through [`Runtime::config_mut`] before running
    /// (e.g. to clear a one-shot `halt_after_assims` hook).
    pub fn resume(path: impl AsRef<Path>) -> Result<Self, String> {
        let ck = Checkpoint::load(path)?;
        Ok(Runtime {
            cfg: ck.cfg.clone(),
            resume: Some(ck),
            telemetry: None,
            ops_hub: None,
        })
    }

    /// The run configuration (mutable, for pre-run adjustments).
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.cfg
    }

    /// Uses `tel` as the run's telemetry hub instead of the default
    /// [`Telemetry::from_env`]-built one, so a caller can keep a handle to
    /// the registry and flight recorder after the run. The run retargets
    /// the hub's time source at its own clock.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Publishes live status into `hub` during the run. The caller keeps
    /// its own handle — typically to front the hub with an
    /// [`vc_ops::OpsServer`] it controls (binding, lifetime) instead of
    /// the `ops_addr`-managed one. The hub should share the run's
    /// telemetry (see [`Runtime::with_telemetry`]) so `/metrics`,
    /// `/events` and `/trace` read this run's registry and recorder.
    pub fn with_ops_hub(mut self, hub: Arc<OpsHub>) -> Self {
        self.ops_hub = Some(hub);
        self
    }

    /// Executes the job: spawns the fleet, trains to completion (or halt),
    /// joins every thread, and reports.
    pub fn run(mut self) -> Result<RuntimeReport, String> {
        self.cfg.validate()?;
        // The run's one build of its model: the resume guard reads its size,
        // a fresh run seeds the store from it, and
        // assimilator 0 scores on it.
        let mut model = self.cfg.job.model.build(self.cfg.job.seed);
        if let Some(ck) = &self.resume {
            // config_mut may have edited anything; what the checkpointed
            // parameters and shard bookkeeping were shaped by must not move.
            let (now, then) = (&self.cfg.job, &ck.cfg.job);
            if now.shards != then.shards {
                return Err("cannot change shard count across a resume".into());
            }
            if now.model != then.model {
                return Err("cannot change the model across a resume".into());
            }
            let param_count = model.param_count();
            // (`Checkpoint::load` already holds the snapshot to this length.)
            if ck.params.len() != param_count {
                return Err(format!(
                    "checkpoint holds {} parameters but the model has {param_count}",
                    ck.params.len()
                ));
            }
        }
        let tel = self.telemetry.take().unwrap_or_else(Telemetry::from_env);
        let cfg = Arc::new(self.cfg);
        let job = &cfg.job;

        // --- live ops surface ----------------------------------------------
        // An externally supplied hub wins; otherwise `ops_addr` creates one.
        // The HTTP server (if any) lives exactly as long as the run.
        let ops_hub = match self.ops_hub.take() {
            Some(hub) => Some(hub),
            None => cfg
                .ops_addr
                .as_ref()
                .map(|_| Arc::new(OpsHub::new(tel.clone()))),
        };
        let _ops_server = match (&cfg.ops_addr, &ops_hub) {
            (Some(addr), Some(hub)) => {
                let srv = OpsServer::start(addr, hub.clone()).map_err(|e| e.to_string())?;
                vc_telemetry::event!(
                    tel,
                    Info,
                    "ops_server_started",
                    addr = srv.local_addr().to_string()
                );
                Some(srv)
            }
            _ => None,
        };

        // --- data, parameter service, middleware, coordinator --------------
        // The run's one clock (cumulative across resumes): the
        // coordinator's deadlines, every due stamp and every event
        // timestamp read it.
        let start_clock = |wall_base_s| {
            tel.set_time_source(Arc::new(WallTime::resumed_at(wall_base_s)));
        };
        let Assembled {
            coord,
            model,
            shards,
            val_eval,
            val,
            test,
        } = assemble(
            cfg.clone(),
            model,
            &tel,
            VersionedStore::new(),
            self.resume.take(),
            ops_hub,
            start_clock,
        );
        let (assim, service) = (coord.assim.clone(), coord.service.clone());

        // --- parameter-service transport -----------------------------------
        // In-process by default; with `ps_tcp` every fetch crosses a real
        // loopback socket through the wire codec: one listener, one stream
        // per worker, one request per sync. Dropping the server — at the
        // end of the run or on any early `?` exit below — stops it.
        let start_tcp = || TcpPsServer::start(service.clone()).map_err(|e| e.to_string());
        let tcp = cfg.ps_tcp.then(start_tcp).transpose()?;

        // --- channels ------------------------------------------------------
        // Every message into the coordinator carries the clock reading it is
        // due at; the coordinator holds one that arrives early.
        let (server_tx, server_rx) = unbounded();
        let (assim_tx, assim_rx) = unbounded();

        // --- assimilator pool ---------------------------------------------
        // Assimilator 0 scores on the run's model; any other builds a blank one
        // (`score` loads the parameters it scores).
        let mut model = Some(model);
        let mut assim_handles = Vec::new();
        for i in 0..job.pn {
            let ctx = AssimCtx {
                assim: assim.clone(),
                eval_model: model.take().unwrap_or_else(|| job.model.build_blank()),
                val_eval: val_eval.clone(),
                task_rx: assim_rx.clone(),
                out: server_tx.clone(),
            };
            assim_handles.push(spawn(format!("vc-assim-{i}"), move || {
                assimilator_main(ctx)
            })?);
        }
        drop(assim_rx);

        // --- workers -------------------------------------------------------
        let mut worker_txs = Vec::new();
        let mut worker_handles = Vec::new();
        for h in 0..job.cn {
            let (tx, rx) = unbounded();
            worker_txs.push(tx);
            let ps: Box<dyn PsClient> = match &tcp {
                Some(srv) => Box::new(TcpClient::new(srv.local_addr()).map_err(|e| e.to_string())?),
                None => Box::new(MemClient::new(service.clone())),
            };
            let ctx = WorkerCtx {
                core: coord.worker(h, ps),
                shards: shards.clone(),
                cmd_rx: rx,
                out: server_tx.clone(),
            };
            worker_handles.push(spawn(format!("vc-worker-{h}"), move || worker_main(ctx))?);
        }
        // The coordinator's inbox must disconnect once the fleet is gone:
        // only workers and assimilators may hold senders.
        drop(server_tx);

        // --- coordinate ----------------------------------------------------
        let mut report = coord.run(Links {
            inbox: server_rx,
            worker_txs,
            assim_tx,
        });

        // The coordinator dropped its channel ends on return: every worker's
        // next recv/send errors and the assimilator intake closes. Join them
        // all.
        for h in worker_handles {
            h.join().map_err(|_| "a worker thread panicked")?;
        }
        // The first assimilator's scoring replica does the final
        // evaluation below (`pn ≥ 1` is validated, so there is one).
        let mut model = None;
        for h in assim_handles {
            let eval_model = h.join().map_err(|_| "an assimilator thread panicked")?;
            model.get_or_insert(eval_model);
        }

        let mut model = model.ok_or("a run needs at least one assimilator (pn >= 1)")?;
        // The closing evaluation is still the largest part of a short
        // run's set-up: on `resnet_compute` (192 images, AVX-512F, two
        // vCPUs, one kernel thread) 118 ms of a 158 ms `setup_s`, median
        // of 31 runs, in passes of 32 (163 of 200 ms as one batch). The
        // event names its cost, the images scored and the largest pass.
        // Wall time stays out of `RuntimeReport`, whose bits the DES and
        // DST drivers reproduce.
        let scoring = std::time::Instant::now();
        (report.final_val_acc, report.final_test_acc) =
            score_final(&mut model, &assim, &val, &test);
        vc_telemetry::event!(
            tel,
            Info,
            "final_scored",
            seconds = scoring.elapsed().as_secs_f64(),
            images = val.labels.len() + test.labels.len(),
            batch = pass_batch(&model, &val.images.dims()[1..], SCORE_BATCH)
                .min(val.labels.len().max(test.labels.len()))
        );
        Ok(report)
    }
}

/// Starts a named OS thread.
fn spawn<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>, String> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tentpole acceptance: ≥ 4 real worker threads train the synthetic
    /// dataset to the same learnability threshold as the simulated driver.
    #[test]
    fn threaded_fleet_learns_above_chance() {
        let mut cfg = RuntimeConfig::test_small(2);
        cfg.job.cn = 4;
        cfg.job.tn = 2;
        cfg.job.epochs = 5;
        let tel = Telemetry::silent();
        let report = Runtime::new(cfg.clone())
            .unwrap()
            .with_telemetry(tel.clone())
            .run()
            .unwrap();
        assert!(!report.halted_early, "run must finish on its own");
        assert_eq!(report.epochs.len(), cfg.job.epochs);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i + 1);
            assert_eq!(e.assimilated, cfg.job.shards);
        }
        assert!(
            report.final_mean_acc() > 0.2,
            "accuracy {}",
            report.final_mean_acc()
        );
        // Final full-split evaluations broadly agree with the epoch series.
        assert!((report.final_val_acc - report.final_mean_acc()).abs() < 0.25);
        assert!(report.wall_s > 0.0);
        assert!(report.bytes_transferred > 0);
        // The run names what its closing evaluation cost, once.
        let scored: Vec<_> = tel
            .recorder()
            .events()
            .into_iter()
            .filter(|e| e.name == "final_scored")
            .collect();
        assert_eq!(scored.len(), 1, "one final_scored event per run");
        match scored[0].field("seconds") {
            Some(vc_telemetry::FieldValue::F64(s)) => assert!(s.is_finite() && *s > 0.0),
            other => panic!("final_scored seconds: {other:?}"),
        }
        let images = (cfg.job.data.val_n + cfg.job.data.test_n) as u64;
        assert_eq!(
            scored[0].field("images"),
            Some(&vc_telemetry::FieldValue::U64(images))
        );
        // `test_small`'s MLP fits the budget at the cap: each split of 120
        // is one pass.
        assert_eq!(
            scored[0].field("batch"),
            Some(&vc_telemetry::FieldValue::U64(120))
        );
    }

    /// Satellite: checkpoint mid-epoch, resume in a fresh `Runtime`, and
    /// the final accuracy matches an uninterrupted run within tolerance.
    #[test]
    fn checkpoint_roundtrip_matches_uninterrupted() {
        let path = std::env::temp_dir().join("vc_runtime_resume_test.json");
        let path_s = path.to_string_lossy().into_owned();
        std::fs::remove_file(&path).ok();

        let mut base = RuntimeConfig::test_small(11);
        base.job.cn = 4;
        base.job.epochs = 3;

        let clean = Runtime::new(base.clone()).unwrap().run().unwrap();
        assert!(clean.final_mean_acc() > 0.15, "{}", clean.final_mean_acc());

        // Interrupt mid-job: halt after 11 assimilations (mid-epoch-2 with
        // 8 shards per epoch), checkpointing at the halt.
        let mut first = base.clone();
        first.checkpoint_path = Some(path_s.clone());
        first.halt_after_assims = Some(11);
        let partial = Runtime::new(first).unwrap().run().unwrap();
        assert!(partial.halted_early);
        assert!(partial.epochs.len() < 3);

        let mut resumed = Runtime::resume(&path).unwrap();
        resumed.config_mut().halt_after_assims = None;
        resumed.config_mut().checkpoint_path = None;
        let done = resumed.run().unwrap();
        std::fs::remove_file(&path).ok();

        assert!(!done.halted_early);
        assert_eq!(done.epochs.len(), 3, "resume completes the job");
        // Both runs assimilate the same deterministic client results; only
        // arrival order (and thus blend order) differs across threads.
        assert!(
            (done.final_mean_acc() - clean.final_mean_acc()).abs() < 0.15,
            "resumed {} vs clean {}",
            done.final_mean_acc(),
            clean.final_mean_acc()
        );
        assert!(done.final_mean_acc() > 0.15, "{}", done.final_mean_acc());
        // The resumed clock continues where the checkpoint left off: epoch
        // stamps stay monotone across the resume boundary, and the resumed
        // total covers everything the partial run finished. (Comparing
        // against `partial.wall_s` directly races — that stamp includes
        // post-halt finalize time, which on a loaded machine can exceed
        // the whole resumed run.)
        for w in done.epochs.windows(2) {
            assert!(
                w[0].end_wall_s < w[1].end_wall_s,
                "wall went backwards across resume: {} then {}",
                w[0].end_wall_s,
                w[1].end_wall_s
            );
        }
        let last_partial = partial.epochs.last().expect("halt landed mid-epoch-2");
        assert!(done.wall_s > last_partial.end_wall_s);
    }

    /// A resume that no longer fits its checkpoint is an `Err` up front,
    /// not a panic inside an assimilator thread's `set_params_flat`.
    #[test]
    fn resume_rejects_a_model_the_checkpoint_does_not_fit() {
        let path = std::env::temp_dir().join("vc_runtime_resume_guard_test.json");
        let mut first = RuntimeConfig::test_small(5);
        first.checkpoint_path = Some(path.to_string_lossy().into_owned());
        first.halt_after_assims = Some(3);
        assert!(Runtime::new(first).unwrap().run().unwrap().halted_early);

        let mut edited = Runtime::resume(&path).unwrap();
        let job = &mut edited.config_mut().job;
        job.model = vc_nn::spec::mlp(&job.data.img, 16, job.data.classes);
        let err = edited.run().unwrap_err();
        assert!(err.contains("model"), "{err}");

        // Vectors that do not fit the checkpoint's own model: same answer.
        let mut ck = Checkpoint::load(&path).unwrap();
        ck.params.pop();
        ck.snapshot.pop();
        ck.seal();
        ck.save(&path).unwrap();
        let err = Runtime::resume(&path).unwrap().run().unwrap_err();
        assert!(err.contains("parameters"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = RuntimeConfig::test_small(1);
        cfg.faults.kill_hosts = (0..cfg.job.cn as u32).collect();
        assert!(
            Runtime::new(cfg).is_err(),
            "whole-fleet kill without respawn must be rejected"
        );
    }
}
