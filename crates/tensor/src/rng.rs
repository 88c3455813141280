//! Seeded Gaussian sampling.
//!
//! `rand` 0.8 ships only uniform distributions in the base crate; rather than
//! pull in `rand_distr`, we implement the Box–Muller transform once here and
//! reuse it across the workspace (He-normal init in `vc-nn`, noise in
//! `vc-data`, latency jitter in `vc-simnet` takes its own copy of the same
//! math through this type).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic `N(0, 1)` sampler built on a seeded [`StdRng`] using the
/// Box–Muller transform. Generates values in pairs and caches the spare.
pub struct NormalSampler {
    rng: StdRng,
    spare: Option<f32>,
}

impl NormalSampler {
    /// Builds a sampler from a 64-bit seed. The same seed always yields the
    /// same stream, which keeps every experiment in the repo reproducible.
    pub fn seed_from(seed: u64) -> Self {
        NormalSampler {
            rng: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Draws one standard-normal sample.
    pub fn sample(&mut self) -> f32 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - self.rng.gen::<f32>();
        let u2: f32 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = NormalSampler::seed_from(7);
        let mut b = NormalSampler::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NormalSampler::seed_from(1);
        let mut b = NormalSampler::seed_from(2);
        let same = (0..32).filter(|_| a.sample() == b.sample()).count();
        assert!(same < 4);
    }

    #[test]
    fn moments_match_standard_normal() {
        let mut s = NormalSampler::seed_from(123);
        let n = 100_000;
        let xs: Vec<f32> = (0..n).map(|_| s.sample()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / (n - 1) as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn all_samples_finite() {
        let mut s = NormalSampler::seed_from(99);
        assert!((0..10_000).all(|_| s.sample().is_finite()));
    }
}
