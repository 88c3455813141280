//! Evaluation metrics.

use crate::model::Sequential;
use vc_tensor::{Tensor, Workspace};

/// Bytes the widest hidden activation of one scoring pass may take: 2 MiB,
/// one L2 of the AVX-512F box the closing evaluation was measured on.
/// `resnet_lite` on 32×32×3 then scores 32 images a pass (its first
/// convolution's output is 64 KiB an image) and holds 10.5 MB of live heap
/// instead of 41.6 MB at one pass of 128; `resnet_compute`'s closing val +
/// test scoring (192 images, one kernel thread) fell from 163 ms to 118 ms,
/// median of 31 runs a side. An MLP's hidden layer is a few KiB an image,
/// so its passes stay at the caller's batch.
pub const EVAL_ACTIVATION_BYTES: usize = 2 << 20;

/// Top-1 hits: rows of `logits` `[batch, classes]` whose argmax is the
/// label.
fn hits(logits: &Tensor, labels: &[usize]) -> usize {
    assert_eq!(logits.dims().len(), 2);
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(b, labels.len(), "batch/labels length mismatch");
    let mut correct = 0;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.data()[i * c..(i + 1) * c];
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    correct
}

/// The batch [`evaluate`] runs its passes at for samples of shape
/// `sample_dims`: the largest batch up to `batch_size` whose widest hidden
/// activation fits [`EVAL_ACTIVATION_BYTES`], and at least one. Hidden
/// means a layer's output other than the model's last; a layer that keeps
/// its input's width (activation, normalization, flatten, a residual
/// block) does not count, so the input never does.
pub fn pass_batch(model: &Sequential, sample_dims: &[usize], batch_size: usize) -> usize {
    let per_sample = model.widest_hidden(sample_dims) * std::mem::size_of::<f32>();
    (EVAL_ACTIVATION_BYTES / per_sample.max(1)).clamp(1, batch_size.max(1))
}

/// Evaluates a model over a dataset in mini-batches, returning its top-1
/// accuracy. `images` is `[n, ...]`, flattened per batch.
///
/// `batch_size` caps the batch; the passes run at [`pass_batch`]. The
/// accuracy is the integer count of hits over `n`, so it does not depend
/// on how `n` is split.
pub fn evaluate(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> f32 {
    let n = images.dims()[0];
    assert_eq!(n, labels.len());
    if n == 0 {
        return 0.0;
    }
    let sample_len: usize = images.dims()[1..].iter().product();
    let mut dims = images.dims().to_vec();
    let batch_size = pass_batch(model, &dims[1..], batch_size);
    // Same bits, fewer passes over each activation.
    model.fuse_relu();
    // Batches share one buffer pool for the length of the pass.
    let mut ws = Workspace::new();
    let mut total_hits = 0;
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        dims[0] = end - start;
        let batch = ws.take_copy(&images.data()[start * sample_len..end * sample_len]);
        let logits = model.forward_pipeline(Tensor::from_vec(batch, &dims), false, &mut ws);
        total_hits += hits(&logits, &labels[start..end]);
        ws.recycle(logits.into_vec());
        start = end;
    }
    total_hits as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use vc_tensor::NormalSampler;

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.9, 1.1], &[3, 2]);
        assert_eq!(hits(&logits, &[0, 1, 0]), 2);
        assert_eq!(hits(&logits, &[0, 1, 1]), 3);
    }

    #[test]
    fn accuracy_empty_batch_is_zero() {
        assert_eq!(hits(&Tensor::zeros(&[0, 3]), &[]), 0);
        let none = evaluate(&mut Sequential::new(), &Tensor::zeros(&[0, 3]), &[], 256);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn evaluate_batches_cover_everything() {
        let mut s = NormalSampler::seed_from(1);
        let mut m = Sequential::new().push(Dense::new(4, 3, &mut s));
        let images = Tensor::randn(&[10, 4], 0.0, 1.0, &mut s);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        // Whole-set eval must equal batched eval regardless of batch size.
        let a1 = evaluate(&mut m, &images, &labels, 10);
        let a3 = evaluate(&mut m, &images, &labels, 3);
        assert_eq!(a1.to_bits(), a3.to_bits());
    }

    #[test]
    fn accuracy_counts_hits_whatever_the_split() {
        // Logits are the input: every sample's argmax is class 0.
        let mut s = NormalSampler::seed_from(1);
        let mut m = Sequential::new().push(Dense::new(2, 2, &mut s));
        m.set_params_flat(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let images = Tensor::from_vec([1.0, 0.0].repeat(14), &[14, 2]);
        // 7 hits among the first 13 and none in the 14th: an f32 sum of
        // per-batch `(7 / 13) · 13` misses 7/14 by an ulp.
        let labels: Vec<usize> = (0..14).map(|i| usize::from(i >= 7)).collect();
        for cap in [1, 2, 13, 14] {
            assert_eq!(evaluate(&mut m, &images, &labels, cap), 0.5, "cap {cap}");
        }
    }

    #[test]
    fn pass_batch_fits_the_widest_hidden_activation_in_budget() {
        use crate::spec::{mlp, resnet_lite, small_cnn};
        let img = [3, 32, 32];
        // 64 KiB an image after the first convolution: 32 fit 2 MiB.
        for spec in [resnet_lite(&img, 2, 10), small_cnn(&img, 10)] {
            let m = spec.build(1);
            assert_eq!(pass_batch(&m, &img, 256), 32);
            assert_eq!(pass_batch(&m, &img, 20), 20);
        }
        // 2 KiB an image: the cap decides.
        assert_eq!(pass_batch(&mlp(&img, 512, 10).build(1), &img, 256), 256);
        // Nothing hidden: the cap decides; a cap of zero still runs one.
        let mut s = NormalSampler::seed_from(1);
        let m = Sequential::new().push(Dense::new(4, 3, &mut s));
        assert_eq!(pass_batch(&m, &[4], 7), 7);
        assert_eq!(pass_batch(&m, &[4], 0), 1);
        // One sample's hidden layer alone over the budget.
        let wide = EVAL_ACTIVATION_BYTES / 4 + 1;
        let huge = Sequential::new()
            .push(Dense::new(1, wide, &mut s))
            .push(Dense::new(wide, 1, &mut s));
        assert_eq!(pass_batch(&huge, &[1], 256), 1);
    }
}
