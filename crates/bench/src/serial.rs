//! Single-instance synchronous training (the paper's Figure 6 baseline).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vc_data::SyntheticSpec;
use vc_nn::metrics::evaluate;
use vc_nn::ModelSpec;
use vc_optim::{train_minibatch_ws, OptimizerSpec, TrainWorkspace};
use vc_simnet::{table1, ComputeModel, InstanceSpec};

/// Configuration of the serial run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SerialConfig {
    /// Model architecture (must match the distributed run for Figure 6).
    pub model: ModelSpec,
    /// Dataset generator (same seed as the distributed run → same data).
    pub data: SyntheticSpec,
    /// Epochs to train.
    pub epochs: usize,
    /// Optimizer (paper: Adam, lr 0.001).
    pub optimizer: OptimizerSpec,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Instance the job runs on (paper: the server-class instance).
    pub instance: InstanceSpec,
    /// Effective cores a single synchronous training process exploits
    /// (TensorFlow intra-op parallelism on the 8-vCPU box).
    pub effective_cores: f64,
    /// Compute model shared with the fleet simulation, for calibration.
    pub compute: ComputeModel,
    /// Seed.
    pub seed: u64,
}

impl SerialConfig {
    /// The paper's serial baseline: same CIFAR-like job on the server
    /// instance.
    pub fn paper_default(seed: u64) -> Self {
        let data = SyntheticSpec::cifar_like(seed);
        let model = vc_nn::spec::small_cnn(&data.img, data.classes);
        SerialConfig {
            model,
            data,
            epochs: 18,
            optimizer: OptimizerSpec::paper_adam(),
            batch_size: 32,
            instance: table1::server(),
            effective_cores: 4.0,
            compute: ComputeModel::default(),
            seed,
        }
    }

    /// Simulated wall-clock seconds one full epoch takes: the work of all
    /// shards' subtasks executed back-to-back on this instance, sped up by
    /// the intra-op parallelism a dedicated box sustains.
    pub fn epoch_duration_s(&self, shards_equivalent: usize) -> f64 {
        let per_subtask = self.compute.base_subtask_s / self.instance.core_speed();
        shards_equivalent as f64 * per_subtask / self.effective_cores
    }
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

/// Runs the serial synchronous baseline: real minibatch SGD over the full
/// training set, one pass per epoch, with simulated epoch durations.
pub fn run_serial(cfg: &SerialConfig) -> SerialReport {
    let (train, val, test) = cfg.data.generate();
    let mut model = cfg.model.build(cfg.seed);
    let mut opt = cfg.optimizer.build(model.param_count());
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(17));

    // The distributed job splits this dataset into 50 shards; time one
    // serial epoch as the equivalent 50 subtasks run back-to-back.
    let shards_equivalent = 50;
    let epoch_s = cfg.epoch_duration_s(shards_equivalent);

    let mut tws = TrainWorkspace::new();
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut now_s = 0.0;
    for e in 1..=cfg.epochs {
        let stats = train_minibatch_ws(
            &mut model,
            &mut opt,
            &train.images,
            &train.labels,
            cfg.batch_size,
            1,
            5.0,
            &mut rng,
            &mut tws,
            None,
        );
        now_s += epoch_s;
        let (_, val_acc) = evaluate(&mut model, &val.images, &val.labels, 256);
        let (_, test_acc) = evaluate(&mut model, &test.images, &test.labels, 256);
        epochs.push(SerialEpoch {
            epoch: e,
            end_time_h: now_s / 3600.0,
            train_loss: stats.mean_loss,
            val_acc,
            test_acc,
        });
    }
    SerialReport {
        total_time_h: now_s / 3600.0,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> SerialConfig {
        let mut cfg = SerialConfig::paper_default(seed);
        cfg.data.train_n = 600;
        cfg.data.val_n = 150;
        cfg.data.test_n = 150;
        cfg.data.noise = 1.0;
        cfg.data.label_noise = 0.0;
        cfg.model = vc_nn::spec::mlp(&cfg.data.img, 32, cfg.data.classes);
        cfg.epochs = 4;
        cfg
    }

    #[test]
    fn serial_learns() {
        let r = run_serial(&tiny_cfg(1));
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
            let mut cfg = tiny_cfg(7);
            cfg.data.train_n = train_n;
            cfg.epochs = 3;
            run_serial(&cfg).epochs.last().unwrap().val_acc
        };
        let (full, quarter) = (final_val_acc(600), final_val_acc(150));
        assert!(full > 0.8, "val acc {full}");
        assert!(full > quarter, "whole set {full} vs a quarter {quarter}");
    }

    #[test]
    fn simulated_clock_is_uniform_per_epoch() {
        let r = run_serial(&tiny_cfg(2));
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
        let cfg = SerialConfig::paper_default(0);
        let epoch_min = cfg.epoch_duration_s(50) / 60.0;
        assert!(epoch_min > 20.0 && epoch_min < 40.0, "{epoch_min} min");
    }

    #[test]
    fn val_acc_at_hours_interpolates_left() {
        let r = run_serial(&tiny_cfg(3));
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
        let a = run_serial(&tiny_cfg(4));
        let b = run_serial(&tiny_cfg(4));
        assert_eq!(a, b);
    }
}
