//! Dataset sharding — the work generator's split of a training job.
//!
//! The paper splits the 50 000-image CIFAR10 training set into 50 subsets of
//! 3.9 MB each; one epoch = 50 subtasks, one per shard. [`ShardSet`]
//! reproduces that split with contiguous class-balanced blocks, and
//! [`DataShard::byte_size`] is the download the simulated network charges
//! for one shard: its raw header, labels and pixels, the size of the
//! uncompressed input file a volunteer host fetches per subtask.

use crate::dataset::Dataset;

/// One training-data subset, the payload of one BOINC workunit.
#[derive(Clone, Debug, PartialEq)]
pub struct DataShard {
    /// Shard index within its [`ShardSet`].
    pub id: usize,
    /// The shard's samples.
    pub data: Dataset,
}

impl DataShard {
    /// Download size in bytes, what the simulated network transfers for
    /// one workunit's input file: a 20-byte header (magic, id, classes,
    /// rank, sample count), one `u32` per image dim, one `u16` per label
    /// and one `f32` per pixel.
    pub fn byte_size(&self) -> usize {
        let d = &self.data;
        20 + 4 * d.images.dims().len() + 2 * d.len() + 4 * d.images.numel()
    }
}

/// A complete split of a training set into `k` shards.
#[derive(Clone, Debug)]
pub struct ShardSet {
    shards: Vec<DataShard>,
}

impl ShardSet {
    /// Splits `train` into `k` shards of contiguous sample blocks.
    ///
    /// The synthetic generator interleaves classes round-robin, so a
    /// contiguous block is class-balanced — matching the paper's
    /// representative subsets. (A naive `i % k` assignment would be
    /// catastrophic here: whenever `k` is a multiple of the class count,
    /// every shard collapses to a single class and clients learn nothing
    /// generalizable.)
    pub fn split(train: &Dataset, k: usize) -> ShardSet {
        let mut start = 0;
        let blocks = Self::block_lens(train.len(), k)
            .into_iter()
            .map(|len| {
                start += len;
                train.select(&(start - len..start).collect::<Vec<_>>())
            })
            .collect();
        Self::from_blocks(blocks)
    }

    /// The sizes of [`split`](Self::split)'s `k` blocks of `n` samples, in
    /// order: `n / k` each, the first `n % k` one more.
    pub(crate) fn block_lens(n: usize, k: usize) -> Vec<usize> {
        assert!(k > 0, "cannot split into zero shards");
        assert!(k <= n, "more shards ({k}) than samples ({n})");
        (0..k).map(|s| n / k + usize::from(s < n % k)).collect()
    }

    /// The set whose shard `i` is `blocks[i]`.
    pub(crate) fn from_blocks(blocks: Vec<Dataset>) -> ShardSet {
        let shards = blocks
            .into_iter()
            .enumerate()
            .map(|(id, data)| DataShard { id, data })
            .collect();
        ShardSet { shards }
    }

    /// Access one shard.
    pub fn shard(&self, id: usize) -> &DataShard {
        &self.shards[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::tests::class_histogram;
    use crate::synthetic::SyntheticSpec;
    use vc_tensor::Tensor;

    fn train() -> Dataset {
        SyntheticSpec::tiny(1).generate().0
    }

    #[test]
    fn split_covers_every_sample_once() {
        let tr = train();
        let set = ShardSet::split(&tr, 7);
        assert_eq!(set.shards.len(), 7);
        assert_eq!(
            set.shards.iter().map(|s| s.data.len()).sum::<usize>(),
            tr.len()
        );
        // Shard sizes differ by at most one.
        let sizes: Vec<usize> = set.shards.iter().map(|s| s.data.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn shards_are_class_balanced() {
        // The degenerate case that motivated block splitting: k a multiple
        // of the class count. Every shard must still see every class.
        let tr = train(); // 4 classes, round-robin labels, n = 200
        for k in [4usize, 5, 8] {
            let set = ShardSet::split(&tr, k);
            for shard in &set.shards {
                let hist = class_histogram(&shard.data);
                assert!(
                    hist.iter().all(|&c| c > 0),
                    "k={k}: shard missing a class: {hist:?}"
                );
            }
        }
    }

    /// Drawing the blocks in place gives the split of the whole split, bit
    /// for bit, with val and test unmoved: even and uneven cuts, one shard
    /// and one sample a shard, with label noise drawing from the stream.
    #[test]
    fn generate_sharded_is_the_split_of_generate() {
        let mut spec = SyntheticSpec::tiny(5);
        spec.label_noise = 0.2;
        let (tr, va, te) = spec.generate();
        for k in [1, 3, 7, 200] {
            let (set, v, t) = spec.generate_sharded(k);
            assert_eq!((&v, &t), (&va, &te), "k={k}");
            assert_eq!(set.shards, ShardSet::split(&tr, k).shards, "k={k}");
        }
    }

    #[test]
    fn split_is_contiguous_blocks() {
        let tr = train();
        let set = ShardSet::split(&tr, 3);
        // Shard 0 holds the first ceil(200/3) samples in order.
        assert_eq!(set.shard(0).data.labels[..4], tr.labels[..4]);
        let n0 = set.shard(0).data.len();
        assert_eq!(set.shard(1).data.labels[0], tr.labels[n0]);
    }

    #[test]
    fn byte_size_of_a_fixed_shard() {
        // 3 samples of [1, 2, 2]: 20 header + 4·4 dims + 2·3 labels +
        // 4·12 pixels, the length the retired VDS1 encoder wrote.
        let images = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 1, 2, 2]);
        let shard = DataShard {
            id: 5,
            data: Dataset::new(images, vec![0, 1, 0], 2),
        };
        assert_eq!(shard.byte_size(), 90);
    }

    #[test]
    fn paper_scale_shard_bytes() {
        // CIFAR10: 50k images of 3x32x32 split 50 ways -> 1000 images/shard
        // -> ~12.3 MB raw f32; the paper's 3.9 MB reflects npz compression.
        // Our byte model is the raw size; the simulator's bandwidth
        // calibration accounts for the constant factor.
        let spec = SyntheticSpec {
            train_n: 1000,
            img: [3, 32, 32],
            classes: 10,
            ..SyntheticSpec::tiny(2)
        };
        let (tr, _, _) = spec.generate();
        let set = ShardSet::split(&tr, 1);
        let mb = set.shard(0).byte_size() as f64 / (1024.0 * 1024.0);
        assert!(mb > 11.0 && mb < 13.0, "{mb} MB");
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn rejects_overfine_split() {
        let tr = train();
        ShardSet::split(&tr, tr.len() + 1);
    }
}
