//! Evaluation metrics.

use crate::loss::SoftmaxCrossEntropy;
use crate::model::Sequential;
use vc_tensor::{Tensor, Workspace};

/// Top-1 accuracy of logits `[batch, classes]` against integer labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.dims().len(), 2);
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(b, labels.len(), "batch/labels length mismatch");
    if b == 0 {
        return 0.0;
    }
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
    correct as f32 / b as f32
}

/// Evaluates a model over a dataset in mini-batches, returning
/// `(mean loss, accuracy)`. `images` is `[n, ...]`, flattened per batch.
pub fn evaluate(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> (f32, f32) {
    let n = images.dims()[0];
    assert_eq!(n, labels.len());
    if n == 0 {
        return (0.0, 0.0);
    }
    let sample_len: usize = images.dims()[1..].iter().product();
    let mut dims = images.dims().to_vec();
    // Same bits, fewer passes over each activation.
    model.fuse_relu();
    // Batches share one buffer pool for the length of the pass.
    let mut ws = Workspace::new();
    let mut total_loss = 0.0;
    let mut total_correct = 0.0;
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let bs = end - start;
        dims[0] = bs;
        let batch = ws.take_copy(&images.data()[start * sample_len..end * sample_len]);
        let logits = model.forward_pipeline(Tensor::from_vec(batch, &dims), false, &mut ws);
        total_loss += SoftmaxCrossEntropy::loss(&logits, &labels[start..end]) * bs as f32;
        total_correct += accuracy(&logits, &labels[start..end]) * bs as f32;
        ws.recycle(logits.into_vec());
        start = end;
    }
    (total_loss / n as f32, total_correct / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use vc_tensor::NormalSampler;

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.9, 1.1], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 1.0);
    }

    #[test]
    fn accuracy_empty_batch_is_zero() {
        assert_eq!(accuracy(&Tensor::zeros(&[0, 3]), &[]), 0.0);
    }

    #[test]
    fn evaluate_batches_cover_everything() {
        let mut s = NormalSampler::seed_from(1);
        let mut m = Sequential::new().push(Dense::new(4, 3, &mut s));
        let images = Tensor::randn(&[10, 4], 0.0, 1.0, &mut s);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        // Whole-set eval must equal batched eval regardless of batch size.
        let (l1, a1) = evaluate(&mut m, &images, &labels, 10);
        let (l3, a3) = evaluate(&mut m, &images, &labels, 3);
        assert!((l1 - l3).abs() < 1e-5);
        assert!((a1 - a3).abs() < 1e-6);
    }
}
