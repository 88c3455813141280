//! Run results: the per-epoch series the paper's figures plot.

use serde::{Deserialize, Serialize};
use vc_kvstore::StoreOps;
use vc_middleware::ServerMetrics;

/// One marker on the paper's accuracy-vs-time curves: the state at the end
/// of an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 1-based epoch number.
    pub epoch: usize,
    /// α used this epoch.
    pub alpha: f32,
    /// Cumulative simulated training time at epoch end, hours (the x-axis
    /// of Figures 2, 4, 5, 6).
    pub end_time_h: f64,
    /// Mean validation accuracy over the epoch's assimilated subtasks
    /// (the y-axis of Figures 2, 4, 5).
    pub mean_val_acc: f32,
    /// Minimum per-subtask validation accuracy (lower error bar, Fig. 4).
    pub min_val_acc: f32,
    /// Maximum per-subtask validation accuracy (upper error bar, Fig. 4).
    pub max_val_acc: f32,
    /// Test accuracy at epoch end, when the run tracks it (Fig. 6).
    pub test_acc: Option<f32>,
    /// Subtask results assimilated this epoch.
    pub assimilated: usize,
    /// Cumulative lost updates in the parameter store so far.
    pub lost_updates: u64,
    /// Cumulative middleware timeouts so far.
    pub timeouts: u64,
}

/// The complete output of a distributed training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Experiment label (e.g. `P5C5T2`).
    pub label: String,
    /// Per-epoch series.
    pub epochs: Vec<EpochStats>,
    /// Accuracy of the final server parameters on the held-out test split
    /// (Figure 6's right panel).
    pub final_test_acc: f32,
    /// Accuracy of the final server parameters on the full validation split.
    pub final_val_acc: f32,
    /// Total simulated training time, hours.
    pub total_time_h: f64,
    /// Middleware counters at the end of the run.
    pub server_metrics: ServerMetrics,
    /// Bytes moved over the simulated network (downloads + uploads).
    pub bytes_transferred: u64,
    /// Parameter-store operation counters.
    pub store_ops: StoreOps,
    /// Preemptions that occurred during the run.
    pub preemptions: u64,
}

impl JobReport {
    /// The epoch at which mean validation accuracy first reached `target`,
    /// with its cumulative time — the "time-to-accuracy" metric used to
    /// compare schedules in §IV-C.
    pub fn time_to_accuracy(&self, target: f32) -> Option<(usize, f64)> {
        self.epochs
            .iter()
            .find(|e| e.mean_val_acc >= target)
            .map(|e| (e.epoch, e.end_time_h))
    }

    /// Final epoch-mean accuracy (0 when no epoch completed).
    pub fn final_mean_acc(&self) -> f32 {
        self.epochs.last().map(|e| e.mean_val_acc).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, h: f64, acc: f32) -> EpochStats {
        EpochStats {
            epoch,
            alpha: 0.95,
            end_time_h: h,
            mean_val_acc: acc,
            min_val_acc: acc - 0.05,
            max_val_acc: acc + 0.05,
            test_acc: None,
            assimilated: 50,
            lost_updates: 0,
            timeouts: 0,
        }
    }

    fn report() -> JobReport {
        JobReport {
            label: "P1C1T1".into(),
            epochs: vec![stats(1, 0.5, 0.3), stats(2, 1.0, 0.6), stats(3, 1.5, 0.7)],
            final_test_acc: 0.68,
            final_val_acc: 0.70,
            total_time_h: 1.5,
            server_metrics: ServerMetrics::default(),
            bytes_transferred: 0,
            store_ops: StoreOps::default(),
            preemptions: 0,
        }
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = report();
        assert_eq!(r.time_to_accuracy(0.5), Some((2, 1.0)));
        assert_eq!(r.time_to_accuracy(0.65), Some((3, 1.5)));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn final_mean_acc_is_last_epoch() {
        assert_eq!(report().final_mean_acc(), 0.7);
        let empty = JobReport {
            epochs: vec![],
            ..report()
        };
        assert_eq!(empty.final_mean_acc(), 0.0);
    }
}
