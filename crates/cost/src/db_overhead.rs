//! §IV-D: training-time overhead of a strong-consistency parameter store.

use serde::{Deserialize, Serialize};

/// Overhead of choosing a strong-consistency store over an eventual one,
/// for a job with a known number of parameter-update operations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DbOverhead {
    /// Per-update latency of the eventual-consistency store, seconds
    /// (paper: Redis, 0.87 s).
    pub eventual_update_s: f64,
    /// Per-update latency of the strong-consistency store, seconds
    /// (paper: MySQL, 1.29 s).
    pub strong_update_s: f64,
}

impl DbOverhead {
    /// The paper's measured figures.
    pub fn paper_measured() -> Self {
        DbOverhead {
            eventual_update_s: 0.87,
            strong_update_s: 1.29,
        }
    }

    /// Extra seconds a job with `updates` update operations pays for strong
    /// consistency.
    pub fn extra_s(&self, updates: u64) -> f64 {
        (self.strong_update_s - self.eventual_update_s) * updates as f64
    }

    /// Update count for a CIFAR10-scale job (paper: ~2 000 for 40 epochs of
    /// 50 subtasks).
    pub fn cifar10_updates(epochs: u64) -> u64 {
        epochs * 50
    }

    /// Update count for an ImageNet-scale job. §IV-D: ImageNet's training
    /// data is ~800× CIFAR10's, so the same 40-epoch job performs ~800×
    /// the update operations (~1.6 M).
    pub fn imagenet_updates(epochs: u64) -> u64 {
        Self::cifar10_updates(epochs) * 800
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratio_is_1_5x() {
        let d = DbOverhead::paper_measured();
        let ratio = d.strong_update_s / d.eventual_update_s;
        assert!((ratio - 1.483).abs() < 0.01);
    }

    #[test]
    fn cifar10_overhead_is_14_minutes() {
        let d = DbOverhead::paper_measured();
        let updates = DbOverhead::cifar10_updates(40);
        assert_eq!(updates, 2000);
        let minutes = d.extra_s(updates) / 60.0;
        assert!((minutes - 14.0).abs() < 0.5, "{minutes}");
    }

    #[test]
    fn imagenet_overhead_is_187_hours() {
        let d = DbOverhead::paper_measured();
        let updates = DbOverhead::imagenet_updates(40);
        assert_eq!(updates, 1_600_000);
        let hours = d.extra_s(updates) / 3600.0;
        assert!((hours - 186.7).abs() < 1.0, "{hours}");
    }

    #[test]
    fn extra_scales_linearly() {
        let d = DbOverhead::paper_measured();
        assert!((d.extra_s(2000) * 800.0 - d.extra_s(1_600_000)).abs() < 1e-6);
    }
}
