//! Batch normalization.

use crate::layer::{Layer, ParamVisitor};
use vc_tensor::{Tensor, Workspace};

/// Numerical floor added to the variance before taking the square root.
const BN_EPS: f32 = 1e-5;

/// Batch normalization over the channel axis.
///
/// Accepts `[batch, ch]` (after a dense layer) or `[batch, ch, h, w]`
/// (after a convolution); statistics are computed per channel over all other
/// axes. Owns learnable `gamma`/`beta` and running mean/variance buffers.
///
/// The running buffers are included in the parameter vector: the paper ships
/// the complete `.h5` model state between clients and the server, so the
/// VC-ASGD blend averages them along with the weights.
pub struct BatchNorm {
    ch: usize,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    cache: Option<BnCache>,
}

/// What a training forward keeps for backward; both buffers are pooled.
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Builds a batch-norm layer for `ch` channels with the given running-
    /// statistics momentum (the fraction of the *old* running value kept per
    /// batch; 0.9 is the common default).
    pub fn new(ch: usize, momentum: f32) -> Self {
        BatchNorm {
            ch,
            momentum,
            gamma: Tensor::ones(&[ch]),
            beta: Tensor::zeros(&[ch]),
            running_mean: Tensor::zeros(&[ch]),
            running_var: Tensor::ones(&[ch]),
            dgamma: Tensor::zeros(&[ch]),
            dbeta: Tensor::zeros(&[ch]),
            cache: None,
        }
    }

    /// Iterates channel planes: yields (channel, start, len, plane stride)
    /// describing where channel c's values live in the flat buffer.
    fn plane_geometry(dims: &[usize]) -> (usize, usize, usize) {
        // Returns (batch, ch, spatial) where spatial = product of trailing axes.
        match dims.len() {
            2 => (dims[0], dims[1], 1),
            4 => (dims[0], dims[1], dims[2] * dims[3]),
            r => panic!("BatchNorm expects rank 2 or 4 input, got rank {r}"),
        }
    }

    /// Per-channel reduction `f` over all (batch, spatial) positions.
    fn reduce_per_channel(data: &[f32], dims: &[usize], mut f: impl FnMut(usize, f32)) {
        let (b, ch, sp) = Self::plane_geometry(dims);
        for bi in 0..b {
            for c in 0..ch {
                let base = (bi * ch + c) * sp;
                for s in 0..sp {
                    f(c, data[base + s]);
                }
            }
        }
    }

    /// Normalizes `data` in place to `gamma * x_hat + beta`, also writing
    /// `x_hat` out when backward will need it.
    fn normalize(
        &self,
        data: &mut [f32],
        dims: &[usize],
        mean: &[f32],
        inv_std: &[f32],
        mut x_hat: Option<&mut [f32]>,
    ) {
        let (b, ch, sp) = Self::plane_geometry(dims);
        for bi in 0..b {
            for c in 0..ch {
                let plane = (bi * ch + c) * sp..(bi * ch + c + 1) * sp;
                let (g, be) = (self.gamma.data()[c], self.beta.data()[c]);
                let (m, is) = (mean[c], inv_std[c]);
                match x_hat.as_deref_mut() {
                    Some(x_hat) => {
                        for (v, h) in data[plane.clone()].iter_mut().zip(&mut x_hat[plane]) {
                            *h = (*v - m) * is;
                            *v = g * *h + be;
                        }
                    }
                    None => {
                        for v in &mut data[plane] {
                            *v = g * ((*v - m) * is) + be;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for BatchNorm {
    fn forward_ws(&mut self, mut x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let shape = *x.shape();
        let dims = shape.dims();
        let (b, ch, sp) = Self::plane_geometry(dims);
        assert_eq!(ch, self.ch, "BatchNorm channel mismatch");
        if let Some(prev) = self.cache.take() {
            ws.recycle(prev.x_hat.into_vec());
            ws.recycle(prev.inv_std);
        }
        let mut inv_std = ws.take(ch);
        if !train {
            for (is, &v) in inv_std.iter_mut().zip(self.running_var.data()) {
                *is = 1.0 / (v + BN_EPS).sqrt();
            }
            let mean = self.running_mean.data();
            self.normalize(x.data_mut(), dims, mean, &inv_std, None);
            ws.recycle(inv_std);
            return x;
        }

        let n = (b * sp) as f32;
        let mut mean = ws.take(ch);
        Self::reduce_per_channel(x.data(), dims, |c, v| mean[c] += v);
        for m in &mut mean {
            *m /= n;
        }
        let mut var = ws.take(ch);
        Self::reduce_per_channel(x.data(), dims, |c, v| {
            var[c] += (v - mean[c]) * (v - mean[c])
        });
        for v in &mut var {
            *v /= n;
        }
        // Update running statistics.
        for (rm, &m) in self.running_mean.data_mut().iter_mut().zip(&mean) {
            *rm = self.momentum * *rm + (1.0 - self.momentum) * m;
        }
        for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
            *rv = self.momentum * *rv + (1.0 - self.momentum) * v;
        }
        for (is, &v) in inv_std.iter_mut().zip(&var) {
            *is = 1.0 / (v + BN_EPS).sqrt();
        }
        ws.recycle(var);
        let mut x_hat = ws.take(x.numel());
        self.normalize(x.data_mut(), dims, &mean, &inv_std, Some(&mut x_hat));
        ws.recycle(mean);
        self.cache = Some(BnCache {
            x_hat: Tensor::from_vec(x_hat, dims),
            inv_std,
        });
        x
    }

    fn backward_ws(&mut self, mut dy: Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm::backward called without a cached forward");
        assert_eq!(
            dy.dims(),
            cache.x_hat.dims(),
            "BatchNorm grad shape mismatch"
        );
        let (b, ch, sp) = Self::plane_geometry(dy.dims());
        let n = (b * sp) as f32;
        let xh = cache.x_hat.data();

        // Per-channel sums needed by the closed-form gradient.
        let mut sum_dy = ws.take(ch);
        let mut sum_dy_xh = ws.take(ch);
        let dyd = dy.data_mut();
        for bi in 0..b {
            for c in 0..ch {
                let base = (bi * ch + c) * sp;
                for i in base..base + sp {
                    sum_dy[c] += dyd[i];
                    sum_dy_xh[c] += dyd[i] * xh[i];
                }
            }
        }
        for c in 0..ch {
            self.dbeta.data_mut()[c] += sum_dy[c];
            self.dgamma.data_mut()[c] += sum_dy_xh[c];
        }

        // dx overwrites dy element by element.
        for bi in 0..b {
            for c in 0..ch {
                let base = (bi * ch + c) * sp;
                let g = self.gamma.data()[c];
                let k = g * cache.inv_std[c];
                for i in base..base + sp {
                    dyd[i] = k * (dyd[i] - sum_dy[c] / n - xh[i] * sum_dy_xh[c] / n);
                }
            }
        }
        ws.recycle(sum_dy);
        ws.recycle(sum_dy_xh);
        dy
    }

    fn param_len(&self) -> usize {
        4 * self.ch
    }

    fn collect_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.gamma.data());
        out.extend_from_slice(self.beta.data());
        out.extend_from_slice(self.running_mean.data());
        out.extend_from_slice(self.running_var.data());
    }

    fn load_params(&mut self, src: &[f32]) -> usize {
        let c = self.ch;
        self.gamma.data_mut().copy_from_slice(&src[..c]);
        self.beta.data_mut().copy_from_slice(&src[c..2 * c]);
        self.running_mean
            .data_mut()
            .copy_from_slice(&src[2 * c..3 * c]);
        self.running_var
            .data_mut()
            .copy_from_slice(&src[3 * c..4 * c]);
        4 * c
    }

    fn visit_params(&mut self, offset: usize, f: &mut ParamVisitor<'_>) {
        f(offset, self.gamma.data_mut(), self.dgamma.data_mut());
        f(
            offset + self.ch,
            self.beta.data_mut(),
            self.dbeta.data_mut(),
        );
        // The running statistics are buffers, not trained: no gradient.
        f(offset + 2 * self.ch, self.running_mean.data_mut(), &mut []);
        f(offset + 3 * self.ch, self.running_var.data_mut(), &mut []);
    }

    fn zero_grads(&mut self) {
        self.dgamma.map_inplace(|_| 0.0);
        self.dbeta.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use vc_tensor::NormalSampler;

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm::new(2, 0.9);
        let mut s = NormalSampler::seed_from(1);
        let x = Tensor::randn(&[8, 2, 4, 4], 3.0, 2.0, &mut s);
        let y = bn.forward(&x, true);
        // Each channel of y should have ~zero mean and ~unit variance.
        let (b, ch, sp) = (8, 2, 16);
        for c in 0..ch {
            let mut vals = Vec::new();
            for bi in 0..b {
                let base = (bi * ch + c) * sp;
                vals.extend_from_slice(&y.data()[base..base + sp]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1, 0.0); // momentum 0: running = last batch
        let mut s = NormalSampler::seed_from(2);
        let x = Tensor::randn(&[64, 1], 5.0, 3.0, &mut s);
        bn.forward(&x, true);
        // In eval mode the same batch should now also normalize to ~N(0,1).
        let y = bn.forward(&x, false);
        let mean = y.mean();
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn rank2_and_rank4_agree() {
        // A [batch, ch] input must behave as [batch, ch, 1, 1].
        let mut bn2 = BatchNorm::new(3, 0.9);
        let mut bn4 = BatchNorm::new(3, 0.9);
        let mut s = NormalSampler::seed_from(3);
        let x2 = Tensor::randn(&[6, 3], 0.0, 1.0, &mut s);
        let x4 = x2.clone().reshape(&[6, 3, 1, 1]);
        let y2 = bn2.forward(&x2, true);
        let y4 = bn4.forward(&x4, true);
        assert_eq!(y2.data(), y4.data());
    }

    #[test]
    fn gradcheck_inputs() {
        let mut bn = BatchNorm::new(2, 0.9);
        let mut s = NormalSampler::seed_from(4);
        let x = Tensor::randn(&[4, 2, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut bn, &x, 3e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut bn = BatchNorm::new(3, 0.9);
        let mut s = NormalSampler::seed_from(5);
        let x = Tensor::randn(&[5, 3], 0.0, 1.0, &mut s);
        gradcheck::check_param_grad(&mut bn, &x, 3e-2);
    }

    #[test]
    fn param_vector_carries_buffers() {
        let mut bn = BatchNorm::new(2, 0.5);
        let mut s = NormalSampler::seed_from(6);
        let x = Tensor::randn(&[16, 2], 1.0, 1.0, &mut s);
        bn.forward(&x, true);
        let mut p = Vec::new();
        bn.collect_params(&mut p);
        assert_eq!(p.len(), 8);
        // Running mean (slots 4..6) moved toward the batch mean of ~1.0.
        assert!(p[4] > 0.2, "running mean {}", p[4]);
        // Restoring into a fresh layer reproduces eval outputs exactly.
        let mut bn2 = BatchNorm::new(2, 0.5);
        bn2.load_params(&p);
        let y1 = bn.forward(&x, false);
        let y2 = bn2.forward(&x, false);
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    #[should_panic(expected = "rank 2 or 4")]
    fn rejects_rank3() {
        let mut bn = BatchNorm::new(2, 0.9);
        bn.forward(&Tensor::zeros(&[2, 2, 2]), false);
    }

    #[test]
    fn eval_forward_materializes_no_x_hat() {
        let mut bn = BatchNorm::new(2, 0.9);
        let mut ws = Workspace::new();
        let y = bn.forward_ws(Tensor::ones(&[4, 2, 3, 3]), false, &mut ws);
        assert_eq!(y.dims(), &[4, 2, 3, 3]);
        // One take: the per-channel inverse std. The output is the input's
        // own buffer and inference keeps nothing for backward.
        assert_eq!(ws.stats().0, 1);
        assert!(bn.cache.is_none());
    }

    #[test]
    fn training_steps_reuse_pooled_buffers() {
        let mut bn = BatchNorm::new(3, 0.9);
        let mut s = NormalSampler::seed_from(7);
        let x = Tensor::randn(&[4, 3, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_steady_state_pool(&mut bn, &x);
    }
}
