//! Single-instance synchronous training (the paper's Figure 6 baseline):
//! "the same job on one instance". [`run_serial`] reads the model, data,
//! optimizer, batch size, seed and shard count of the distributed
//! [`JobConfig`] it is compared against, and trains on the server-class
//! Table I instance, whose single synchronous process exploits
//! `EFFECTIVE_CORES` of its vCPUs, with epochs timed by the default
//! [`ComputeModel`] the fleet simulation is calibrated with.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vc_asgd::JobConfig;
use vc_nn::metrics::evaluate;
use vc_optim::{train_minibatch, TrainWorkspace};
use vc_simnet::{table1, ComputeModel};

/// Effective cores a single synchronous training process exploits
/// (TensorFlow intra-op parallelism on the 8-vCPU server instance).
const EFFECTIVE_CORES: f64 = 4.0;

/// Simulated wall-clock seconds one serial epoch over a job of `shards`
/// subtasks takes: the work of all of them executed back-to-back on the
/// server instance, sped up by the intra-op parallelism a dedicated box
/// sustains.
pub fn epoch_duration_s(shards: usize) -> f64 {
    let per_subtask = ComputeModel::default().base_subtask_s / table1::server().core_speed();
    shards as f64 * per_subtask / EFFECTIVE_CORES
}

/// One epoch of the serial run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SerialEpoch {
    /// 1-based epoch.
    pub epoch: usize,
    /// Cumulative simulated time, hours.
    pub end_time_h: f64,
    /// Mean training loss.
    pub train_loss: f32,
    /// Validation accuracy after the epoch.
    pub val_acc: f32,
    /// Test accuracy after the epoch.
    pub test_acc: f32,
}

/// The serial run's output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SerialReport {
    /// Per-epoch series.
    pub epochs: Vec<SerialEpoch>,
    /// Total simulated time, hours.
    pub total_time_h: f64,
}

impl SerialReport {
    /// Validation accuracy at (or just before) `hours` of training — used
    /// to compare against the distributed curve at matched times.
    pub fn val_acc_at_hours(&self, hours: f64) -> Option<f32> {
        self.epochs
            .iter()
            .take_while(|e| e.end_time_h <= hours)
            .last()
            .map(|e| e.val_acc)
    }
}

/// Runs `job` as the serial synchronous baseline for `epochs` epochs: real
/// minibatch SGD over the full training set, one pass per epoch, each
/// epoch timed as the job's `shards` subtasks run back-to-back
/// ([`epoch_duration_s`]).
pub fn run_serial(job: &JobConfig, epochs: usize) -> SerialReport {
    let (train, val, test) = job.data.generate();
    let mut model = job.model.build(job.seed);
    let mut opt = job.optimizer.build(model.param_count());
    let mut rng = StdRng::seed_from_u64(job.seed.wrapping_add(17));
    let epoch_s = epoch_duration_s(job.shards);

    let mut tws = TrainWorkspace::new();
    let mut series = Vec::with_capacity(epochs);
    let mut now_s = 0.0;
    for e in 1..=epochs {
        let stats = train_minibatch(
            &mut model,
            &mut opt,
            &train.images,
            &train.labels,
            job.batch_size,
            1,
            5.0,
            &mut rng,
            &mut tws,
            None,
        );
        now_s += epoch_s;
        let (_, val_acc) = evaluate(&mut model, &val.images, &val.labels, 256);
        let (_, test_acc) = evaluate(&mut model, &test.images, &test.labels, 256);
        series.push(SerialEpoch {
            epoch: e,
            end_time_h: now_s / 3600.0,
            train_loss: stats.mean_loss,
            val_acc,
            test_acc,
        });
    }
    SerialReport {
        total_time_h: now_s / 3600.0,
        epochs: series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(seed: u64) -> JobConfig {
        let mut job = JobConfig::paper_default(seed);
        job.data.train_n = 600;
        job.data.val_n = 150;
        job.data.test_n = 150;
        job.data.noise = 1.0;
        job.data.label_noise = 0.0;
        job.model = vc_nn::spec::mlp(&job.data.img, 32, job.data.classes);
        job
    }

    #[test]
    fn serial_learns() {
        let r = run_serial(&tiny_job(1), 4);
        assert_eq!(r.epochs.len(), 4);
        let first = r.epochs.first().unwrap();
        let last = r.epochs.last().unwrap();
        assert!(last.val_acc > 0.3, "val acc {}", last.val_acc);
        assert!(last.train_loss < first.train_loss);
    }

    #[test]
    fn serial_sees_the_whole_set_every_epoch() {
        // Three passes over all 600 samples end far above the 10-class
        // chance level, and above three passes over the quarter of the set
        // one client of a 4-way split would hold.
        let final_val_acc = |train_n: usize| {
            let mut job = tiny_job(7);
            job.data.train_n = train_n;
            run_serial(&job, 3).epochs.last().unwrap().val_acc
        };
        let (full, quarter) = (final_val_acc(600), final_val_acc(150));
        assert!(full > 0.8, "val acc {full}");
        assert!(full > quarter, "whole set {full} vs a quarter {quarter}");
    }

    #[test]
    fn simulated_clock_is_uniform_per_epoch() {
        let r = run_serial(&tiny_job(2), 4);
        let d1 = r.epochs[1].end_time_h - r.epochs[0].end_time_h;
        let d2 = r.epochs[3].end_time_h - r.epochs[2].end_time_h;
        assert!((d1 - d2).abs() < 1e-9);
        assert!(r.total_time_h > 0.0);
    }

    #[test]
    fn epoch_duration_is_paper_scale() {
        // 50 subtasks of ~2.4 min on a 2.3 GHz box over 4 effective cores:
        // ~29 minutes per serial epoch, so ~17 epochs fit in the 8.4 h
        // window of Figure 6.
        let epoch_min = epoch_duration_s(JobConfig::paper_default(0).shards) / 60.0;
        assert!(epoch_min > 20.0 && epoch_min < 40.0, "{epoch_min} min");
    }

    #[test]
    fn val_acc_at_hours_interpolates_left() {
        let r = run_serial(&tiny_job(3), 4);
        let t1 = r.epochs[0].end_time_h;
        assert_eq!(r.val_acc_at_hours(t1), Some(r.epochs[0].val_acc));
        assert_eq!(r.val_acc_at_hours(t1 * 0.5), None, "before first epoch");
        assert_eq!(
            r.val_acc_at_hours(1e9),
            Some(r.epochs.last().unwrap().val_acc)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_serial(&tiny_job(4), 4);
        let b = run_serial(&tiny_job(4), 4);
        assert_eq!(a, b);
    }
}
