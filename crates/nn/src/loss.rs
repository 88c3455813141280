//! Classification loss.

use vc_tensor::Tensor;

/// Softmax + cross-entropy, fused for numerical stability.
///
/// Operates on logits `[batch, classes]` and integer labels. The fused
/// gradient is `(softmax(x) - onehot(y)) / batch`.
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Loss and the gradient w.r.t. the logits, in one pass, consuming the
    /// logits: the softmax and the gradient are computed in place in the
    /// logits' own buffer, so the hot loop allocates nothing.
    pub fn loss_and_grad_ws(mut logits: Tensor, labels: &[usize]) -> (f32, Tensor) {
        assert_eq!(logits.dims().len(), 2, "softmax expects [batch, classes]");
        let (b, c) = (logits.dims()[0], logits.dims()[1]);
        assert_eq!(b, labels.len(), "batch/labels length mismatch");
        let data = logits.data_mut();
        for i in 0..b {
            let row = &mut data[i * c..(i + 1) * c];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for v in row.iter_mut() {
                let e = (*v - m).exp();
                *v = e;
                denom += e;
            }
            for v in row.iter_mut() {
                *v /= denom;
            }
        }
        let mut total = 0.0;
        let inv_b = 1.0 / b as f32;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            let p = data[i * c + y].max(1e-12);
            total -= p.ln();
            data[i * c + y] -= 1.0;
        }
        for g in data.iter_mut() {
            *g *= inv_b;
        }
        (total * inv_b, logits)
    }
}

/// The unfused softmax and loss: the finite-difference oracle of
/// [`SoftmaxCrossEntropy::loss_and_grad_ws`], which is the one production
/// body.
#[cfg(test)]
impl SoftmaxCrossEntropy {
    /// Row-wise softmax with the max-subtraction trick.
    pub(crate) fn softmax(logits: &Tensor) -> Tensor {
        assert_eq!(logits.dims().len(), 2, "softmax expects [batch, classes]");
        let (b, c) = (logits.dims()[0], logits.dims()[1]);
        let src = logits.data();
        let mut out = vec![0.0f32; b * c];
        for i in 0..b {
            let row = &src[i * c..(i + 1) * c];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                out[i * c + j] = e;
                denom += e;
            }
            for o in &mut out[i * c..(i + 1) * c] {
                *o /= denom;
            }
        }
        Tensor::from_vec(out, &[b, c])
    }

    /// Mean cross-entropy loss over the batch.
    pub(crate) fn loss(logits: &Tensor, labels: &[usize]) -> f32 {
        let probs = Self::softmax(logits);
        let c = logits.dims()[1];
        let b = labels.len();
        assert_eq!(logits.dims()[0], b, "batch/labels length mismatch");
        let mut total = 0.0;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            total -= probs.data()[i * c + y].max(1e-12).ln();
        }
        total / b as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = SoftmaxCrossEntropy::softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![1001.0, 1002.0, 1003.0], &[1, 3]);
        let pa = SoftmaxCrossEntropy::softmax(&a);
        let pb = SoftmaxCrossEntropy::softmax(&b);
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let loss = SoftmaxCrossEntropy::loss(&logits, &[0, 3, 7, 9]);
        assert!((loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 20.0;
        assert!(SoftmaxCrossEntropy::loss(&logits, &[1]) < 1e-4);
        assert!(SoftmaxCrossEntropy::loss(&logits, &[0]) > 10.0);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0], &[2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = SoftmaxCrossEntropy::loss_and_grad_ws(logits.clone(), &labels);
        let eps = 1e-3f32;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fd = (SoftmaxCrossEntropy::loss(&lp, &labels)
                - SoftmaxCrossEntropy::loss(&lm, &labels))
                / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "grad {i}: fd={fd} an={}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, 0.1, -0.5, 0.9, 2.0, -2.0], &[2, 3]);
        let (_, grad) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &[0, 1]);
        for i in 0..2 {
            let s: f32 = grad.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        SoftmaxCrossEntropy::loss(&Tensor::zeros(&[1, 3]), &[3]);
    }
}
