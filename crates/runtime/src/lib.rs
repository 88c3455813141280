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
//! accuracy; `coordinator::assemble` puts a run together, its `Pn` scoring
//! replicas included, from the data split, scheduler and parameter server
//! that [`des`] builds its runs from too, and `coordinator::score_final`
//! closes every run. All three modules, and the channel protocol between
//! them, are private: a caller drives a run through [`Runtime`], [`sim`]
//! or [`des`].
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
//! threads and under simulation alike. Timed [`Checkpoint`]s hold the
//! store's shard blobs, the epoch's snapshot and the run's progress;
//! [`Runtime::resume`] continues an interrupted job mid-epoch.

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
    assemble, assimilator_main, score_final, spare_threads, Assembled, AssimCtx, Genesis, Links,
    SCORE_BATCH,
};
use crossbeam::channel::unbounded;
use std::path::Path;
use std::sync::Arc;
use vc_kvstore::VersionedStore;
use vc_nn::metrics::split_pass_batch;
use vc_ops::OpsHub;
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
        let mut run = Runtime::new(ck.header.cfg.clone())?;
        run.resume = Some(ck);
        Ok(run)
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
    /// its own handle, typically to front the hub with a
    /// [`vc_ops::OpsServer`] whose binding and lifetime it controls: the
    /// runtime starts no server of its own. The hub should share the run's
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
        if let Some(ck) = &self.resume {
            // config_mut may have edited anything; the checkpoint's blobs and
            // shard bookkeeping are cut along its own config (load checks).
            let (now, then) = (&self.cfg.job, &ck.header.cfg.job);
            if now.shards != then.shards {
                return Err("cannot change shard count across a resume".into());
            }
            if now.model != then.model {
                return Err("cannot change the model across a resume".into());
            }
            if now.ps_shards != then.ps_shards {
                return Err("cannot change ps_shards across a resume".into());
            }
        }
        let tel = self.telemetry.take().unwrap_or_else(Telemetry::from_env);
        let cfg = Arc::new(self.cfg);
        let job = &cfg.job;

        // --- data, parameter service, middleware, coordinator --------------
        // The run's one clock (cumulative across resumes): the
        // coordinator's deadlines, every due stamp and every event
        // timestamp read it.
        let start_clock = |wall_base_s| {
            tel.set_time_source(Arc::new(WallTime::resumed_at(wall_base_s)));
        };
        let Assembled {
            coord,
            scorers,
            genesis,
            setup,
            shards,
            val_eval,
            val,
            test,
        } = assemble(
            cfg.clone(),
            &tel,
            VersionedStore::new(),
            self.resume.take(),
            self.ops_hub.take(),
            start_clock,
        );
        let (assim, service) = (coord.assim.clone(), coord.service.clone());
        // What set-up cost, split by what ran beside what.
        vc_telemetry::event!(
            tel,
            Info,
            "run_assembled",
            data_s = setup.data_s,
            init_s = setup.init_s,
            overlap_s = setup.overlap_s
        );

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

        // --- worker cores --------------------------------------------------
        // Made before the first scorer leaves for its thread: on a fresh run
        // each cache is primed from its seeded parameters.
        let genesis = genesis.as_deref().map(|versions| Genesis {
            versions,
            params: scorers[0].params(),
        });
        let mut cores = Vec::new();
        for h in 0..job.cn {
            let ps: Box<dyn PsClient> = match &tcp {
                Some(srv) => Box::new(TcpClient::new(srv.local_addr()).map_err(|e| e.to_string())?),
                None => Box::new(MemClient::new(service.clone())),
            };
            cores.push(coord.worker(h, ps, genesis));
        }

        // --- assimilator pool ---------------------------------------------
        // One scoring replica a thread, assimilator 0's the run's model.
        let mut assim_handles = Vec::new();
        for (i, eval_model) in scorers.into_iter().enumerate() {
            let ctx = AssimCtx {
                assim: assim.clone(),
                eval_model,
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
        for (h, core) in cores.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            worker_txs.push(tx);
            let ctx = WorkerCtx {
                core,
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
        // The first assimilator's scoring replica leads the final
        // evaluation below (`pn ≥ 1` is validated, so there is one).
        let mut model = None;
        for h in assim_handles {
            let eval_model = h.join().map_err(|_| "an assimilator thread panicked")?;
            model.get_or_insert(eval_model);
        }

        let mut model = model.ok_or("a run needs at least one assimilator (pn >= 1)")?;
        // The closing evaluation runs on that replica's warm buffer pool
        // and, with the workers joined, on a blank replica per spare thread,
        // both splits. The event names its cost, the images scored, the
        // parts and the largest pass. Wall time stays out of
        // `RuntimeReport`, whose bits the DES and DST drivers reproduce.
        let parts = spare_threads(job);
        let scoring = std::time::Instant::now();
        (report.final_val_acc, report.final_test_acc) =
            score_final(&mut model, &job.model, parts, &assim, &val, &test);
        let largest_part = val.labels.len().max(test.labels.len()).div_ceil(parts);
        vc_telemetry::event!(
            tel,
            Info,
            "final_scored",
            seconds = scoring.elapsed().as_secs_f64(),
            images = val.labels.len() + test.labels.len(),
            parts = parts,
            batch = split_pass_batch(&model, &val.images.dims()[1..], SCORE_BATCH, parts)
                .min(largest_part)
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
    use vc_ps::Bytes;

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
        // The closing evaluation runs on a part per spare thread, never
        // more than the four workers; `test_small`'s MLP fits the budget at
        // the cap, so each part of each split of 120 is one pass.
        let parts = coordinator::spare_threads(&cfg.job) as u64;
        assert!((1..=4).contains(&parts));
        assert_eq!(
            scored[0].field("parts"),
            Some(&vc_telemetry::FieldValue::U64(parts))
        );
        assert_eq!(
            scored[0].field("batch"),
            Some(&vc_telemetry::FieldValue::U64(120u64.div_ceil(parts)))
        );
        // So does its set-up: the seconds of data generation, of the rest,
        // and of the two running at once, which neither outlasts.
        let assembled: Vec<_> = tel
            .recorder()
            .events()
            .into_iter()
            .filter(|e| e.name == "run_assembled")
            .collect();
        assert_eq!(assembled.len(), 1, "one run_assembled event per run");
        let secs = |name| match assembled[0].field(name) {
            Some(vc_telemetry::FieldValue::F64(s)) if s.is_finite() && *s >= 0.0 => *s,
            other => panic!("run_assembled {name}: {other:?}"),
        };
        let (data_s, init_s, overlap_s) = (secs("data_s"), secs("init_s"), secs("overlap_s"));
        assert!(data_s > 0.0 && init_s > 0.0, "{data_s} {init_s}");
        assert!(
            overlap_s <= data_s.min(init_s),
            "overlap {overlap_s} s of {data_s} s and {init_s} s"
        );
    }

    /// A worker waiting out a poll interval leaves on the closing
    /// `Shutdown` at once: with an interval far longer than the teardown,
    /// `run` returns a fraction of it after its `run_finalized` event (the
    /// joins and the closing evaluation of `test_small`'s MLP).
    #[test]
    fn teardown_does_not_wait_out_a_poll_interval() {
        let mut cfg = RuntimeConfig::test_small(3);
        cfg.job.epochs = 1;
        cfg.poll_interval_s = 2.0;
        let tel = Telemetry::silent();
        let report = Runtime::new(cfg)
            .unwrap()
            .with_telemetry(tel.clone())
            .run()
            .unwrap();
        let returned_s = tel.now_s();
        assert!(!report.halted_early);
        let finalized = tel
            .recorder()
            .events()
            .into_iter()
            .find(|e| e.name == "run_finalized")
            .expect("one run_finalized event");
        let teardown_s = returned_s - finalized.t_s;
        assert!(
            teardown_s < 0.5,
            "run returned {teardown_s:.3} s after run_finalized (poll interval 2 s)"
        );
    }

    /// Satellite: checkpoint mid-epoch, resume in a fresh `Runtime`, and
    /// the final accuracy matches an uninterrupted run within tolerance.
    #[test]
    fn checkpoint_roundtrip_matches_uninterrupted() {
        let path = std::env::temp_dir().join("vc_runtime_resume_test.bin");
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
        let path = std::env::temp_dir().join("vc_runtime_resume_guard_test.bin");
        let mut first = RuntimeConfig::test_small(5);
        first.checkpoint_path = Some(path.to_string_lossy().into_owned());
        first.halt_after_assims = Some(3);
        assert!(Runtime::new(first).unwrap().run().unwrap().halted_early);

        let mut edited = Runtime::resume(&path).unwrap();
        let job = &mut edited.config_mut().job;
        job.model = vc_nn::spec::mlp(&job.data.img, 16, job.data.classes);
        let err = edited.run().unwrap_err();
        assert!(err.contains("model"), "{err}");

        // Blobs that do not fit the checkpoint's own model: a dropped shard
        // blob, or a shortened one, is refused before anything is seeded.
        let ck = Checkpoint::load(&path).unwrap();
        let mut dropped = ck.clone();
        dropped.params.pop();
        let mut shortened = ck;
        let (blob, _) = &mut shortened.snapshot[0];
        *blob = Bytes::copy_from_slice(&blob[..blob.len() - 4]);
        for bad in [dropped, shortened] {
            bad.save(&path).unwrap();
            let err = Runtime::resume(&path).and_then(Runtime::run).unwrap_err();
            assert!(err.contains("parameters"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The store's shard layout is the checkpoint's: a resume that edits
    /// `ps_shards` is an `Err` naming it.
    #[test]
    fn resume_rejects_a_checkpoint_at_another_ps_shard_count() {
        let path = std::env::temp_dir().join("vc_runtime_resume_ps_shards_test.bin");
        let mut first = RuntimeConfig::test_small(5);
        first.job.ps_shards = 2;
        first.checkpoint_path = Some(path.to_string_lossy().into_owned());
        first.halt_after_assims = Some(3);
        assert!(Runtime::new(first).unwrap().run().unwrap().halted_early);

        let mut edited = Runtime::resume(&path).unwrap();
        edited.config_mut().job.ps_shards = 4;
        let err = edited.run().unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("ps_shards"), "{err}");
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
