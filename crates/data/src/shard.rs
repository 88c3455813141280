//! Dataset sharding — the work generator's split of a training job.
//!
//! The paper splits the 50 000-image CIFAR10 training set into 50 subsets of
//! 3.9 MB each; one epoch = 50 subtasks, one per shard. [`ShardSet`]
//! reproduces that split with contiguous class-balanced blocks, and a
//! binary codec whose byte length is what the simulated network transfers.

use crate::dataset::Dataset;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use vc_tensor::Tensor;

/// One training-data subset, the payload of one BOINC workunit.
#[derive(Clone, Debug, PartialEq)]
pub struct DataShard {
    /// Shard index within its [`ShardSet`].
    pub id: usize,
    /// The shard's samples.
    pub data: Dataset,
}

impl DataShard {
    /// Encoded size in bytes (what the client downloads).
    pub fn byte_size(&self) -> usize {
        self.encode().len()
    }

    /// Serializes the shard: header, dims, labels, pixels.
    pub fn encode(&self) -> Bytes {
        let d = &self.data;
        let mut buf = BytesMut::with_capacity(32 + d.images.numel() * 4 + d.len());
        buf.put_u32_le(0x5644_5331); // "VDS1"
        buf.put_u32_le(self.id as u32);
        buf.put_u32_le(d.classes as u32);
        buf.put_u32_le(d.images.dims().len() as u32);
        for &dim in d.images.dims() {
            buf.put_u32_le(dim as u32);
        }
        buf.put_u32_le(d.len() as u32);
        for &y in &d.labels {
            buf.put_u16_le(y as u16);
        }
        for &px in d.images.data() {
            buf.put_f32_le(px);
        }
        buf.freeze()
    }

    /// Deserializes a shard encoded by [`Self::encode`].
    pub fn decode(mut blob: &[u8]) -> Result<DataShard, String> {
        if blob.len() < 16 {
            return Err("shard blob too short".into());
        }
        let magic = blob.get_u32_le();
        if magic != 0x5644_5331 {
            return Err(format!("bad shard magic 0x{magic:08x}"));
        }
        let id = blob.get_u32_le() as usize;
        let classes = blob.get_u32_le() as usize;
        let rank = blob.get_u32_le() as usize;
        if rank > 8 || blob.len() < rank * 4 + 4 {
            return Err("corrupt shard header".into());
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(blob.get_u32_le() as usize);
        }
        let n = blob.get_u32_le() as usize;
        let numel: usize = dims.iter().product();
        if blob.len() < n * 2 + numel * 4 {
            return Err("shard blob truncated".into());
        }
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(blob.get_u16_le() as usize);
        }
        let mut pixels = Vec::with_capacity(numel);
        for _ in 0..numel {
            pixels.push(blob.get_f32_le());
        }
        Ok(DataShard {
            id,
            data: Dataset::new(Tensor::from_vec(pixels, &dims), labels, classes),
        })
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
        assert!(k > 0, "cannot split into zero shards");
        assert!(
            k <= train.len(),
            "more shards ({k}) than samples ({})",
            train.len()
        );
        let n = train.len();
        let base = n / k;
        let extra = n % k;
        let mut buckets: Vec<Vec<usize>> = Vec::with_capacity(k);
        let mut start = 0;
        for s in 0..k {
            let len = base + usize::from(s < extra);
            buckets.push((start..start + len).collect());
            start += len;
        }
        let shards = buckets
            .into_iter()
            .enumerate()
            .map(|(id, idx)| DataShard {
                id,
                data: train.select(&idx),
            })
            .collect();
        ShardSet { shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when there are no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Access one shard.
    pub fn shard(&self, id: usize) -> &DataShard {
        &self.shards[id]
    }

    /// Iterate over all shards.
    pub fn iter(&self) -> impl Iterator<Item = &DataShard> {
        self.shards.iter()
    }

    /// Total samples across shards.
    pub fn total_samples(&self) -> usize {
        self.shards.iter().map(|s| s.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    fn train() -> Dataset {
        SyntheticSpec::tiny(1).generate().0
    }

    #[test]
    fn split_covers_every_sample_once() {
        let tr = train();
        let set = ShardSet::split(&tr, 7);
        assert_eq!(set.len(), 7);
        assert_eq!(set.total_samples(), tr.len());
        // Shard sizes differ by at most one.
        let sizes: Vec<usize> = set.iter().map(|s| s.data.len()).collect();
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
            for shard in set.iter() {
                let hist = shard.data.class_histogram();
                assert!(
                    hist.iter().all(|&c| c > 0),
                    "k={k}: shard missing a class: {hist:?}"
                );
            }
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
    fn encode_decode_roundtrip() {
        let tr = train();
        let set = ShardSet::split(&tr, 3);
        for shard in set.iter() {
            let blob = shard.encode();
            let back = DataShard::decode(&blob).unwrap();
            assert_eq!(&back, shard);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let tr = train();
        let shard = ShardSet::split(&tr, 2).shard(0).clone();
        let blob = shard.encode();
        assert!(DataShard::decode(&blob[..10]).is_err());
        let mut bad = blob.to_vec();
        bad[0] ^= 0xff;
        assert!(DataShard::decode(&bad).is_err());
        let cut = &blob[..blob.len() - 8];
        assert!(DataShard::decode(cut).is_err());
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
