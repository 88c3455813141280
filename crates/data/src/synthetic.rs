//! Procedural CIFAR-like dataset generation.

use crate::dataset::Dataset;
use crate::shard::ShardSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vc_tensor::{NormalSampler, Tensor};

/// Generation parameters for the synthetic image-classification problem.
///
/// Each class owns a spatially-smoothed random prototype. A sample is the
/// class prototype, randomly translated by up to `max_shift` pixels,
/// amplitude-jittered, with i.i.d. Gaussian pixel noise of strength `noise`
/// added, and with probability `label_noise` the label is resampled
/// uniformly. `noise` and `label_noise` together set the achievable
/// accuracy plateau — the knob used to match the paper's ~0.73/~0.82
/// operating points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Number of classes (CIFAR10 → 10).
    pub classes: usize,
    /// Channels, height, width (CIFAR10 → `[3, 32, 32]`; experiments default
    /// to `[3, 16, 16]` to keep real training inside CI budgets).
    pub img: [usize; 3],
    /// Training-set size.
    pub train_n: usize,
    /// Validation-set size (the parameter server scores each assimilated
    /// update on this split).
    pub val_n: usize,
    /// Held-out test-set size (Figure 6 reports it).
    pub test_n: usize,
    /// Pixel-noise standard deviation relative to unit signal.
    pub noise: f32,
    /// Probability of a uniformly-random label.
    pub label_noise: f32,
    /// Maximum translation jitter in pixels.
    pub max_shift: usize,
    /// Generation seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A configuration scaled for tests: small images, small splits.
    pub fn tiny(seed: u64) -> Self {
        SyntheticSpec {
            classes: 4,
            img: [1, 8, 8],
            train_n: 200,
            val_n: 64,
            test_n: 64,
            noise: 0.6,
            label_noise: 0.0,
            max_shift: 1,
            seed,
        }
    }

    /// The default experiment configuration: a 10-class, 3×16×16 problem
    /// whose difficulty is tuned so the reference models plateau in the
    /// 0.7–0.85 accuracy band, like CIFAR10 under the paper's ResNetV2.
    pub fn cifar_like(seed: u64) -> Self {
        SyntheticSpec {
            classes: 10,
            img: [3, 16, 16],
            train_n: 5_000,
            val_n: 500,
            test_n: 1_000,
            noise: 2.6,
            label_noise: 0.10,
            max_shift: 2,
            seed,
        }
    }

    /// Generates `(train, val, test)` datasets.
    pub fn generate(&self) -> (Dataset, Dataset, Dataset) {
        let (mut train, val, test) = self.generate_blocks(&[self.train_n]);
        (train.pop().expect("one block"), val, test)
    }

    /// [`generate`](Self::generate) with the training split already cut
    /// into `k` shards, bit for bit the [`ShardSet::split`] of it: each
    /// block is drawn in place, so the whole split and its shards never
    /// live at once.
    pub fn generate_sharded(&self, k: usize) -> (ShardSet, Dataset, Dataset) {
        let lens = ShardSet::block_lens(self.train_n, k);
        let (blocks, val, test) = self.generate_blocks(&lens);
        (ShardSet::from_blocks(blocks), val, test)
    }

    /// The one generator: the training split as consecutive blocks of
    /// `train_lens` samples (one stream of draws, indexed across blocks),
    /// then val and test.
    fn generate_blocks(&self, train_lens: &[usize]) -> (Vec<Dataset>, Dataset, Dataset) {
        assert!(self.classes >= 2, "need at least two classes");
        let [ch, h, w] = self.img;
        assert!(
            h > 2 * self.max_shift && w > 2 * self.max_shift,
            "image too small for shift"
        );
        let mut sampler = NormalSampler::seed_from(self.seed);
        let prototypes: Vec<Vec<f32>> = (0..self.classes)
            .map(|_| smooth_prototype(ch, h, w, &mut sampler))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let mut noise_sampler =
            NormalSampler::seed_from(self.seed.wrapping_mul(0x85eb_ca6b).wrapping_add(2));

        // Each prototype zero-padded by `max_shift` on every side: a shifted
        // row is one in-bounds slice, and a pixel shifted in from outside
        // the image reads the literal zero the signal is defined as there.
        let ms = self.max_shift;
        let (ph, pw) = (h + 2 * ms, w + 2 * ms);
        let padded: Vec<Vec<f32>> = prototypes
            .iter()
            .map(|proto| {
                let mut p = vec![0.0f32; ch * ph * pw];
                for (row, src) in proto.chunks_exact(w).enumerate() {
                    let (c, y) = (row / h, row % h);
                    p[(c * ph + y + ms) * pw + ms..][..w].copy_from_slice(src);
                }
                p
            })
            .collect();

        // Sample `first + i` of its split is row `i` of this block.
        let mut make = |first: usize, n: usize| -> Dataset {
            let sample_len = ch * h * w;
            let mut data = vec![0.0f32; n * sample_len];
            let mut labels = Vec::with_capacity(n);
            for (i, img) in data.chunks_exact_mut(sample_len).enumerate() {
                // Round-robin classes for exact balance, then optional label noise.
                let class = (first + i) % self.classes;
                let dy = rng.gen_range(-(ms as isize)..=ms as isize);
                let dx = rng.gen_range(-(ms as isize)..=ms as isize);
                let amp: f32 = rng.gen_range(0.8..1.2);
                // The noise first, in pixel order, then the shifted signal
                // added in place: `amp·sig + noise·n`, the one expression.
                noise_sampler.fill(img);
                let proto = &padded[class];
                // Padded column `x + dx + ms` is image column `x + dx`.
                let x0 = (ms as isize + dx) as usize;
                for (row, dst) in img.chunks_exact_mut(w).enumerate() {
                    let (c, y) = (row / h, row % h);
                    let sy = (y as isize + dy + ms as isize) as usize;
                    let src = &proto[(c * ph + sy) * pw + x0..][..w];
                    for (d, &sig) in dst.iter_mut().zip(src) {
                        *d = amp * sig + self.noise * *d;
                    }
                }
                let label = if self.label_noise > 0.0 && rng.gen::<f32>() < self.label_noise {
                    rng.gen_range(0..self.classes)
                } else {
                    class
                };
                labels.push(label);
            }
            let mut dims = vec![n];
            dims.extend_from_slice(&self.img);
            Dataset::new(Tensor::from_vec(data, &dims), labels, self.classes)
        };

        let mut first = 0;
        let train = train_lens
            .iter()
            .map(|&n| {
                first += n;
                make(first - n, n)
            })
            .collect();
        (train, make(0, self.val_n), make(0, self.test_n))
    }
}

/// Draws a random image and box-blurs it twice so prototypes have the
/// spatial correlation that makes convolution the right inductive bias.
fn smooth_prototype(ch: usize, h: usize, w: usize, sampler: &mut NormalSampler) -> Vec<f32> {
    let mut img = vec![0.0f32; ch * h * w];
    sampler.fill(&mut img);
    for _ in 0..2 {
        img = box_blur(&img, ch, h, w);
    }
    // Re-normalize each channel plane to unit RMS so `noise` is a meaningful
    // signal-to-noise knob.
    for c in 0..ch {
        let plane = &mut img[c * h * w..(c + 1) * h * w];
        let rms = (plane.iter().map(|v| v * v).sum::<f32>() / plane.len() as f32).sqrt();
        if rms > 1e-6 {
            for v in plane.iter_mut() {
                *v /= rms;
            }
        }
    }
    img
}

/// 3×3 box blur with clamped borders, per channel.
fn box_blur(img: &[f32], ch: usize, h: usize, w: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; img.len()];
    for c in 0..ch {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        let sy = y as isize + dy;
                        let sx = x as isize + dx;
                        if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                            acc += img[(c * h + sy as usize) * w + sx as usize];
                            cnt += 1.0;
                        }
                    }
                }
                out[(c * h + y) * w + x] = acc / cnt;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::tests::class_histogram;

    #[test]
    fn splits_have_requested_sizes() {
        let spec = SyntheticSpec::tiny(1);
        let (tr, va, te) = spec.generate();
        assert_eq!(tr.len(), 200);
        assert_eq!(va.len(), 64);
        assert_eq!(te.len(), 64);
        assert_eq!(tr.sample_dims(), &[1, 8, 8]);
    }

    #[test]
    fn classes_are_balanced_without_label_noise() {
        let spec = SyntheticSpec::tiny(2);
        let (tr, _, _) = spec.generate();
        let hist = class_histogram(&tr);
        assert_eq!(hist, vec![50, 50, 50, 50]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSpec::tiny(3).generate().0;
        let b = SyntheticSpec::tiny(3).generate().0;
        assert_eq!(a.images.data(), b.images.data());
        assert_eq!(a.labels, b.labels);
        let c = SyntheticSpec::tiny(4).generate().0;
        assert_ne!(a.images.data(), c.images.data());
    }

    #[test]
    fn same_class_more_similar_than_cross_class() {
        // The generator's core property: within-class correlation exceeds
        // cross-class correlation, so the problem is learnable.
        let spec = SyntheticSpec {
            noise: 0.3,
            ..SyntheticSpec::tiny(5)
        };
        let (tr, _, _) = spec.generate();
        let sample_len: usize = tr.sample_dims().iter().product();
        let dot = |i: usize, j: usize| -> f32 {
            let a = &tr.images.data()[i * sample_len..(i + 1) * sample_len];
            let b = &tr.images.data()[j * sample_len..(j + 1) * sample_len];
            let na = a.iter().map(|v| v * v).sum::<f32>().sqrt();
            let nb = b.iter().map(|v| v * v).sum::<f32>().sqrt();
            a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>() / (na * nb)
        };
        // Samples 0 and 4 share class 0; sample 1 is class 1 (round-robin).
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut n = 0.0;
        for i in 0..20 {
            for j in (i + 1)..20 {
                if tr.labels[i] == tr.labels[j] {
                    within += dot(i, j);
                } else {
                    cross += dot(i, j);
                }
                n += 1.0;
            }
        }
        let _ = n;
        assert!(
            within > cross,
            "within-class similarity {within} not above cross-class {cross}"
        );
    }

    #[test]
    fn label_noise_perturbs_balance() {
        let spec = SyntheticSpec {
            label_noise: 0.5,
            train_n: 2000,
            ..SyntheticSpec::tiny(6)
        };
        let (tr, _, _) = spec.generate();
        let hist = class_histogram(&tr);
        // Still roughly balanced, but not exactly 500 each.
        assert!(hist.iter().any(|&c| c != 500));
        assert!(hist.iter().all(|&c| c > 350 && c < 650), "{hist:?}");
    }

    #[test]
    fn noise_zero_gives_pure_prototypes() {
        let spec = SyntheticSpec {
            noise: 0.0,
            max_shift: 1,
            ..SyntheticSpec::tiny(7)
        };
        let (tr, _, _) = spec.generate();
        // Two same-class samples with the same shift/amplitude need not be
        // identical, but all values must be finite and bounded.
        assert!(tr
            .images
            .data()
            .iter()
            .all(|v| v.is_finite() && v.abs() < 10.0));
    }

    #[test]
    fn cifar_like_is_paper_shaped() {
        let spec = SyntheticSpec::cifar_like(0);
        assert_eq!(spec.classes, 10);
        assert_eq!(spec.img[0], 3);
        // 50 shards of the training split mirror the paper's 50 subtasks.
        assert_eq!(spec.train_n % 50, 0);
    }

    #[test]
    fn box_blur_preserves_constant_images() {
        let img = vec![2.5f32; 4 * 4];
        let out = box_blur(&img, 1, 4, 4);
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }
}
