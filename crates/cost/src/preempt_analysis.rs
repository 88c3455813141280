//! The §IV-E binomial timeout model and its Monte-Carlo validation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The analytic model: subtask waves as independent Bernoulli trials.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeoutAnalysis {
    /// Total subtasks in the job (`n_s` = epochs × subtasks/epoch).
    pub n_s: f64,
    /// Client instances (`n_c`).
    pub n_c: f64,
    /// Simultaneous subtasks per client (`n_tc`).
    pub n_tc: f64,
    /// Average subtask execution time, seconds (`t_e`).
    pub t_e: f64,
    /// Timeout, seconds (`t_o`).
    pub t_o: f64,
}

impl TimeoutAnalysis {
    /// The paper's worked example: P5C5T2, 2 000 subtasks, t_e ≤ 2.4 min,
    /// t_o = 5 min.
    pub fn paper_p5c5t2() -> Self {
        TimeoutAnalysis {
            n_s: 2000.0,
            n_c: 5.0,
            n_tc: 2.0,
            t_e: 144.0,
            t_o: 300.0,
        }
    }

    /// Waves that can each accrue one timeout: `n = n_s / (n_c · n_tc)`.
    pub fn n_waves(&self) -> f64 {
        self.n_s / (self.n_c * self.n_tc)
    }

    /// The expected increase: `n·p·t_o`.
    pub fn expected_extra_s(&self, p: f64) -> f64 {
        self.n_waves() * p * self.t_o
    }
}

/// Monte-Carlo version of the same process: each wave draws a Bernoulli
/// interruption; an interrupted wave costs `t_e + t_o`, a clean one `t_e`.
/// Returns the mean extra time over `trials` simulated jobs.
pub fn simulate_extra_time_s(a: &TimeoutAnalysis, p: f64, trials: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let waves = a.n_waves().round() as usize;
    let mut total_extra = 0.0;
    for _ in 0..trials {
        let mut extra = 0.0;
        for _ in 0..waves {
            if rng.gen::<f64>() < p {
                extra += a.t_o;
            }
        }
        total_extra += extra;
    }
    total_extra / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_expected_extras() {
        // §IV-E: p = 0.05 → 50 min; p = 0.20 → 200 min.
        let a = TimeoutAnalysis::paper_p5c5t2();
        assert_eq!(a.n_waves(), 200.0);
        assert!((a.expected_extra_s(0.05) / 60.0 - 50.0).abs() < 1e-9);
        assert!((a.expected_extra_s(0.20) / 60.0 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn base_time_is_about_8_hours() {
        // 200 waves × 2.4 min = 480 min = 8 h, matching "total training
        // time is slightly more than 8 hr".
        let a = TimeoutAnalysis::paper_p5c5t2();
        assert!((a.n_waves() * a.t_e / 3600.0 - 8.0).abs() < 0.01);
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let a = TimeoutAnalysis::paper_p5c5t2();
        for &p in &[0.05, 0.20] {
            let analytic = a.expected_extra_s(p);
            let simulated = simulate_extra_time_s(&a, p, 400, 42);
            let rel = (simulated - analytic).abs() / analytic;
            assert!(rel < 0.05, "p={p}: {simulated} vs {analytic}");
        }
    }

    #[test]
    fn zero_probability_means_no_extra() {
        let a = TimeoutAnalysis::paper_p5c5t2();
        assert_eq!(a.expected_extra_s(0.0), 0.0);
        assert_eq!(simulate_extra_time_s(&a, 0.0, 10, 1), 0.0);
    }
}
