//! Preemptible-instance termination models (§IV-E).
//!
//! The paper models instance usage as independent Bernoulli trials with
//! per-subtask termination probability `p`, derives the expected training-
//! time inflation `E[extra] = n·p·t_o`, and reports AWS interruption-
//! frequency bands (<5 %, 5–10 %, …, >20 %). This module is the stochastic
//! per-subtask process the discrete-event driver draws from; the analytic
//! expectation is `vc_cost::TimeoutAnalysis`, and the §IV-E bench checks
//! that the two agree.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How instance terminations are generated.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PreemptionModel {
    /// No terminations (standard instances).
    None,
    /// Each subtask execution is an independent Bernoulli trial: with
    /// probability `p` the instance is reclaimed mid-subtask (the paper's
    /// model).
    BernoulliPerSubtask { p: f64 },
}

impl PreemptionModel {
    /// Draws whether a subtask execution of `duration_s` seconds on an
    /// instance gets preempted, and if so after how many seconds.
    pub fn draw_preemption<R: Rng>(&self, duration_s: f64, rng: &mut R) -> Option<f64> {
        match *self {
            PreemptionModel::None => None,
            PreemptionModel::BernoulliPerSubtask { p } => {
                assert!((0.0..=1.0).contains(&p), "probability out of range");
                if rng.gen::<f64>() < p {
                    // Uniform kill point within the execution.
                    Some(rng.gen::<f64>() * duration_s)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_preempts() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(PreemptionModel::None.draw_preemption(1e6, &mut rng), None);
        }
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let m = PreemptionModel::BernoulliPerSubtask { p: 0.2 };
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| m.draw_preemption(100.0, &mut rng).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_kill_point_inside_duration() {
        let m = PreemptionModel::BernoulliPerSubtask { p: 1.0 };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let at = m.draw_preemption(60.0, &mut rng).unwrap();
            assert!((0.0..60.0).contains(&at));
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        PreemptionModel::BernoulliPerSubtask { p: 1.5 }.draw_preemption(1.0, &mut rng);
    }
}
