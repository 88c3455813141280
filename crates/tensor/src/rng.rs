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
        let (c, s) = self.pair();
        self.spare = Some(s);
        c
    }

    /// Fills `out` with the next `out.len()` samples: exactly what as many
    /// [`NormalSampler::sample`] calls return, and the same spare left
    /// behind, so fills and single draws interleave freely. A spare left
    /// by an odd count goes first; then whole Box–Muller pairs, with no
    /// per-sample branch.
    pub fn fill(&mut self, out: &mut [f32]) {
        let out = match (self.spare, out) {
            (Some(s), [first, rest @ ..]) => {
                *first = s;
                self.spare = None;
                rest
            }
            (_, out) => out,
        };
        let mut pairs = out.chunks_exact_mut(2);
        for pair in &mut pairs {
            (pair[0], pair[1]) = self.pair();
        }
        if let [last] = pairs.into_remainder() {
            let (c, s) = self.pair();
            *last = c;
            self.spare = Some(s);
        }
    }

    /// One Box–Muller pair `(r·cos θ, r·sin θ)`, the cosine drawn first.
    #[inline]
    fn pair(&mut self) -> (f32, f32) {
        // u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - self.rng.gen::<f32>();
        let u2: f32 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
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

    proptest::proptest! {
        /// Any sequence of fill lengths — odd ones, empty ones, single
        /// draws between them — is bitwise as many `sample()` calls, and
        /// leaves the same spare (the draw after it agrees too).
        #[test]
        fn fill_is_as_many_samples(
            seed in 0u64..1_000,
            steps in proptest::collection::vec((0usize..9, 0u8..2), 0..12),
        ) {
            let (mut a, mut b) = (NormalSampler::seed_from(seed), NormalSampler::seed_from(seed));
            for (len, single) in steps {
                let mut got = vec![f32::NAN; len];
                a.fill(&mut got);
                let want: Vec<f32> = (0..len).map(|_| b.sample()).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&got), bits(&want));
                if single == 1 {
                    proptest::prop_assert_eq!(a.sample().to_bits(), b.sample().to_bits());
                }
            }
            proptest::prop_assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }

    #[test]
    fn all_samples_finite() {
        let mut s = NormalSampler::seed_from(99);
        assert!((0..10_000).all(|_| s.sample().is_finite()));
    }
}
