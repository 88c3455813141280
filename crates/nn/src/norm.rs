//! Batch normalization.
//!
//! ## Reductions: lane-interleaved, chain order untouched
//!
//! Every per-channel sum here — the batch mean, the batch variance, and
//! backward's `Σ dy` and `Σ dy·x̂` — is one serial chain of `f32` adds over
//! `(batch, position)` ascending, and the goldens freeze that order: the
//! chain cannot be split into partial sums or vectorized along itself. Run
//! one channel at a time it is bound by add latency (four cycles per
//! element). But chains of *different* channels share nothing, so
//! `LANES` of them run side by side (`lane_groups`): element `s` of
//! eight channel planes is added to eight accumulators before element
//! `s + 1` of any. Each accumulator still sees exactly its own channel's
//! values in exactly the old order — only the interleaving of independent
//! instructions changed — so every sum keeps its bits. The elementwise
//! passes (normalize, backward's `dx`) have no chain and vectorize as they
//! are.

use crate::layer::{FusionPart, Layer};
use std::ops::Range;
use vc_tensor::conv_direct::{BnRelu, BnReluChannel};
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// Numerical floor added to the variance before taking the square root.
const BN_EPS: f32 = 1e-5;

/// Channel chains reduced side by side: enough independent adds in flight
/// to cover the add latency, few enough that backward's two accumulators
/// per lane stay in registers.
const LANES: usize = 8;

/// Batch normalization over the channel axis.
///
/// Accepts `[batch, ch]` (after a dense layer) or `[batch, ch, h, w]`
/// (after a convolution); statistics are computed per channel over all other
/// axes. Its slice of the parameter vector is the learnable `gamma` and
/// `beta`, then the running mean and variance: `[4 · ch]`.
///
/// The running buffers are included in the parameter vector: the paper ships
/// the complete `.h5` model state between clients and the server, so the
/// VC-ASGD blend averages them along with the weights. They are not
/// trained: the model lists them as buffers.
pub struct BatchNorm {
    ch: usize,
    momentum: f32,
    cache: Option<BnCache>,
}

/// What a forward keeps for backward; every buffer is pooled.
struct BnCache {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    /// The normalized input. `None` when the layer ran as the head of a
    /// pre-activation step ([`crate::preact`]): the step's convolution
    /// holds the raw input, and backward recomputes `x_hat` from it.
    x_hat: Option<Tensor>,
}

/// `(batch, ch, spatial)` of a rank-2 or rank-4 activation.
type Planes = (usize, usize, usize);

/// [`LANES`] channel planes of one batch element, reduced side by side.
struct LaneGroup {
    /// Channel of each lane. A short last group repeats its first channel
    /// in the surplus lanes: they re-read valid memory and
    /// [`store`](Self::store) drops their sums, so there is no remainder
    /// loop.
    c: [usize; LANES],
    /// Offset of each lane's plane in the flat buffer.
    base: [usize; LANES],
    /// Lanes that carry a channel of their own.
    n: usize,
}

impl LaneGroup {
    fn load(&self, acc: &[f32]) -> [f32; LANES] {
        self.c.map(|c| acc[c])
    }

    fn store(&self, lanes: &[f32; LANES], acc: &mut [f32]) {
        acc[self.c[0]..self.c[0] + self.n].copy_from_slice(&lanes[..self.n]);
    }

    fn planes<'a>(&self, data: &'a [f32], sp: usize) -> [&'a [f32]; LANES] {
        self.base.map(|b| &data[b..b + sp])
    }
}

/// The groups in `(batch, channel)` ascending order, so each channel's
/// chain still runs over `(batch, position)` ascending.
fn lane_groups((b, ch, sp): Planes) -> impl Iterator<Item = LaneGroup> {
    (0..b).flat_map(move |bi| {
        (0..ch).step_by(LANES).map(move |c0| {
            let n = LANES.min(ch - c0);
            let c: [usize; LANES] = std::array::from_fn(|j| if j < n { c0 + j } else { c0 });
            LaneGroup {
                c,
                base: c.map(|c| (bi * ch + c) * sp),
                n,
            }
        })
    })
}

/// `acc[c] += Σ f(k(c), x)` over channel `c`'s values, [`LANES`] channels
/// at a time (see the module docs).
#[allow(clippy::needless_range_loop)] // `s` indexes every lane's plane, not `x`
fn reduce_per_channel<K: Copy>(
    data: &[f32],
    planes: Planes,
    acc: &mut [f32],
    k: impl Fn(usize) -> K,
    f: impl Fn(K, f32) -> f32,
) {
    let sp = planes.2;
    for g in lane_groups(planes) {
        let x = g.planes(data, sp);
        let ks = g.c.map(&k);
        let mut a = g.load(acc);
        for s in 0..sp {
            for j in 0..LANES {
                a[j] += f(ks[j], x[j][s]);
            }
        }
        g.store(&a, acc);
    }
}

/// Statistics and the affine in `p` (`gamma`, then `beta`, `ch` each) as
/// the expression bundle every consumer evaluates.
fn bn_relu<'a>(p: &'a [f32], mean: &'a [f32], inv_std: &'a [f32]) -> BnRelu<'a> {
    let ch = mean.len();
    BnRelu {
        mean,
        inv_std,
        gamma: &p[..ch],
        beta: &p[ch..2 * ch],
    }
}

/// The closed-form gradient's two passes over `dy`, which `dx` overwrites
/// element by element; `dgamma`/`dbeta` accumulate. `at(channel, aux, dy)`
/// yields the element's `(x_hat, dy as the layer sees it)`: the identity
/// over a stored `x_hat`, or the recompute over the raw input. `skip`, when
/// given, is added to each finished plane of `dx` (a residual block's
/// skip gradient: `dx + skip`, element by element, as the block would).
#[allow(clippy::needless_range_loop)] // `s` indexes every lane's planes at once
#[allow(clippy::too_many_arguments)] // one private body behind two entry points
fn backward_passes(
    pre: BnRelu<'_>,
    (dgamma, dbeta): (&mut [f32], &mut [f32]),
    mut dy: Tensor,
    aux: &[f32],
    skip: Option<&[f32]>,
    planes @ (b, ch, sp): Planes,
    ws: &mut Workspace,
    at: impl Fn(&BnReluChannel, f32, f32) -> (f32, f32),
) -> Tensor {
    let n = (b * sp) as f32;
    let dyd = dy.data_mut();

    // Per-channel sums needed by the closed-form gradient.
    let mut sum_dy = ws.take(ch);
    let mut sum_dy_xh = ws.take(ch);
    for g in lane_groups(planes) {
        let chans = g.c.map(|c| pre.channel(c));
        let (a, d) = (g.planes(aux, sp), g.planes(dyd, sp));
        let mut s_dy = g.load(&sum_dy);
        let mut s_dy_xh = g.load(&sum_dy_xh);
        for s in 0..sp {
            for j in 0..LANES {
                let (x_hat, dyv) = at(&chans[j], a[j][s], d[j][s]);
                s_dy[j] += dyv;
                s_dy_xh[j] += dyv * x_hat;
            }
        }
        g.store(&s_dy, &mut sum_dy);
        g.store(&s_dy_xh, &mut sum_dy_xh);
    }
    for c in 0..ch {
        dbeta[c] += sum_dy[c];
        dgamma[c] += sum_dy_xh[c];
    }

    for bi in 0..b {
        for c in 0..ch {
            let plane = (bi * ch + c) * sp..(bi * ch + c + 1) * sp;
            let chan = pre.channel(c);
            let k = pre.gamma[c] * pre.inv_std[c];
            for (d, &a) in dyd[plane.clone()].iter_mut().zip(&aux[plane.clone()]) {
                let (x_hat, dyv) = at(&chan, a, *d);
                *d = k * (dyv - sum_dy[c] / n - x_hat * sum_dy_xh[c] / n);
            }
            if let Some(skip) = skip {
                for (d, s) in dyd[plane.clone()].iter_mut().zip(&skip[plane]) {
                    *d += s;
                }
            }
        }
    }
    ws.recycle(sum_dy);
    ws.recycle(sum_dy_xh);
    dy
}

impl BatchNorm {
    /// Builds a batch-norm layer for `ch` channels with the given running-
    /// statistics momentum (the fraction of the *old* running value kept per
    /// batch; 0.9 is the common default).
    pub fn new(ch: usize, momentum: f32) -> Self {
        BatchNorm {
            ch,
            momentum,
            cache: None,
        }
    }

    /// The running mean and variance within the layer's slice: the buffers
    /// the model records, and the one place their position is stated.
    pub(crate) fn buffer_range(&self) -> Range<usize> {
        2 * self.ch..4 * self.ch
    }

    /// Channels this layer normalizes.
    pub(crate) fn channels(&self) -> usize {
        self.ch
    }

    fn plane_geometry(&self, dims: &[usize]) -> Planes {
        let planes = match dims.len() {
            2 => (dims[0], dims[1], 1),
            4 => (dims[0], dims[1], dims[2] * dims[3]),
            r => panic!("BatchNorm expects rank 2 or 4 input, got rank {r}"),
        };
        assert_eq!(planes.1, self.ch, "BatchNorm channel mismatch");
        planes
    }

    fn recycle_cache(&mut self, ws: &mut Workspace) {
        if let Some(prev) = self.cache.take() {
            ws.recycle(prev.mean);
            ws.recycle(prev.inv_std);
            if let Some(x_hat) = prev.x_hat {
                ws.recycle(x_hat.into_vec());
            }
        }
    }

    /// Inference statistics: `1 / sqrt(running_var + eps)` per channel.
    fn running_inv_std(&self, p: &[f32], ws: &mut Workspace) -> Vec<f32> {
        let mut inv_std = ws.take(self.ch);
        for (is, &v) in inv_std.iter_mut().zip(&p[self.buffer_range()][self.ch..]) {
            *is = 1.0 / (v + BN_EPS).sqrt();
        }
        inv_std
    }

    /// Training statistics of `x` — batch mean and `1 / sqrt(var + eps)`
    /// per channel, in pooled buffers — folding the batch's mean and
    /// variance into the running ones in `p`.
    fn batch_stats(&self, p: &mut [f32], x: &Tensor, ws: &mut Workspace) -> (Vec<f32>, Vec<f32>) {
        let planes = self.plane_geometry(x.dims());
        let n = (planes.0 * planes.2) as f32;
        let mut mean = ws.take(self.ch);
        reduce_per_channel(x.data(), planes, &mut mean, |_| (), |(), v| v);
        for m in &mut mean {
            *m /= n;
        }
        let mut var = ws.take(self.ch);
        reduce_per_channel(
            x.data(),
            planes,
            &mut var,
            |c| mean[c],
            |m, v| (v - m) * (v - m),
        );
        for v in &mut var {
            *v /= n;
        }
        let (running_mean, running_var) = p[self.buffer_range()].split_at_mut(self.ch);
        for (rm, &m) in running_mean.iter_mut().zip(&mean) {
            *rm = self.momentum * *rm + (1.0 - self.momentum) * m;
        }
        for (rv, &v) in running_var.iter_mut().zip(&var) {
            *rv = self.momentum * *rv + (1.0 - self.momentum) * v;
        }
        // The variance buffer becomes the inverse std in place.
        for v in &mut var {
            *v = 1.0 / (*v + BN_EPS).sqrt();
        }
        (mean, var)
    }

    /// Normalizes `data` in place to `gamma * x_hat + beta`, also writing
    /// `x_hat` out when backward will need it.
    fn normalize(
        data: &mut [f32],
        (b, ch, sp): Planes,
        pre: BnRelu<'_>,
        mut x_hat: Option<&mut [f32]>,
    ) {
        for bi in 0..b {
            for c in 0..ch {
                let plane = (bi * ch + c) * sp..(bi * ch + c + 1) * sp;
                let chan = pre.channel(c);
                match x_hat.as_deref_mut() {
                    Some(x_hat) => {
                        for (v, h) in data[plane.clone()].iter_mut().zip(&mut x_hat[plane]) {
                            *h = chan.x_hat(*v);
                            *v = chan.affine(*h);
                        }
                    }
                    None => {
                        for v in &mut data[plane] {
                            *v = chan.affine(chan.x_hat(*v));
                        }
                    }
                }
            }
        }
    }

    /// Head of a pre-activation step: reduces `x` to the statistics the
    /// consumer's [`prologue`](Self::prologue) applies — batch statistics
    /// (updating the running ones) when training, the running ones
    /// otherwise — and keeps only those; `x` itself is left untouched.
    pub(crate) fn prepare_prologue(
        &mut self,
        p: &mut [f32],
        x: &Tensor,
        train: bool,
        ws: &mut Workspace,
    ) {
        self.recycle_cache(ws);
        let (mean, inv_std) = if train {
            self.batch_stats(p, x, ws)
        } else {
            let mean = ws.take_copy(&p[self.buffer_range()][..self.ch]);
            (mean, self.running_inv_std(p, ws))
        };
        self.cache = Some(BnCache {
            mean,
            inv_std,
            x_hat: None,
        });
    }

    /// The normalization [`prepare_prologue`](Self::prepare_prologue) set
    /// up with parameters `p`, for the consumer to apply while it stages
    /// its input.
    pub(crate) fn prologue<'a>(&'a self, p: &'a [f32]) -> BnRelu<'a> {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm::backward called without a cached forward");
        bn_relu(p, &cache.mean, &cache.inv_std)
    }

    /// Backward of a pre-activation step's BN→ReLU half: `dy` is the
    /// gradient at the ReLU's *output* and `x` the step's raw input. Where
    /// the standalone layers read a stored `x_hat` and a stored mask, this
    /// recomputes both from `x` with the forward's expressions — same
    /// operands, same operations, same bits — inside the same two passes.
    /// `skip` is added to the result as it is written (a residual block's
    /// `dy`, when this step heads the block's body).
    pub(crate) fn backward_recompute(
        &self,
        p: &[f32],
        g: &mut [f32],
        dy: Tensor,
        x: &Tensor,
        skip: Option<&Tensor>,
        ws: &mut Workspace,
    ) -> Tensor {
        assert_eq!(dy.dims(), x.dims(), "BatchNorm grad shape mismatch");
        if let Some(skip) = skip {
            assert_eq!(skip.dims(), x.dims(), "residual skip shape mismatch");
        }
        let planes = self.plane_geometry(dy.dims());
        let (pre, grads) = (self.prologue(p), g[..2 * self.ch].split_at_mut(self.ch));
        let skip = skip.map(Tensor::data);
        backward_passes(pre, grads, dy, x.data(), skip, planes, ws, |chan, x, dy| {
            let x_hat = chan.x_hat(x);
            // The ReLU's mask is `its input > 0`, and its input was
            // `affine(x_hat)`; NaN compares false on both sides.
            (x_hat, if chan.affine(x_hat) > 0.0 { dy } else { 0.0 })
        })
    }
}

impl Layer for BatchNorm {
    fn forward_ws(&mut self, p: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut x = x;
        let planes = self.plane_geometry(x.dims());
        self.recycle_cache(ws);
        if !train {
            let inv_std = self.running_inv_std(p, ws);
            let pre = bn_relu(p, &p[self.buffer_range()][..self.ch], &inv_std);
            Self::normalize(x.data_mut(), planes, pre, None);
            ws.recycle(inv_std);
            return x;
        }
        let (mean, inv_std) = self.batch_stats(p, &x, ws);
        let mut x_hat = ws.take(x.numel());
        let pre = bn_relu(p, &mean, &inv_std);
        Self::normalize(x.data_mut(), planes, pre, Some(&mut x_hat));
        self.cache = Some(BnCache {
            mean,
            inv_std,
            x_hat: Some(Tensor::from_vec(x_hat, x.dims())),
        });
        x
    }

    fn backward_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        let planes = self.plane_geometry(dy.dims());
        let (pre, grads) = (self.prologue(p), g[..2 * self.ch].split_at_mut(self.ch));
        let x_hat = self.cache.as_ref().and_then(|c| c.x_hat.as_ref());
        let x_hat = x_hat.expect("BatchNorm::backward after a pre-activation forward");
        assert_eq!(dy.dims(), x_hat.dims(), "BatchNorm grad shape mismatch");
        backward_passes(
            pre,
            grads,
            dy,
            x_hat.data(),
            None,
            planes,
            ws,
            |_, x_hat, dy| (x_hat, dy),
        )
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Norm(self)
    }

    fn arena_len(&self) -> usize {
        4 * self.ch
    }

    /// Unit scale and variance; shift and mean stay zero.
    fn init_params(&mut self, p: &mut [f32], _sampler: Option<&mut NormalSampler>) {
        p[..self.ch].fill(1.0);
        p[self.buffer_range()][self.ch..].fill(1.0);
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::gradcheck::ones;
    use crate::model::Sequential;

    fn model(ch: usize, momentum: f32) -> Sequential {
        Sequential::new().push(BatchNorm::new(ch, momentum))
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = model(2, 0.9);
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
        let mut bn = model(1, 0.0); // momentum 0: running = last batch
        let mut s = NormalSampler::seed_from(2);
        let x = Tensor::randn(&[64, 1], 5.0, 3.0, &mut s);
        bn.forward(&x, true);
        // In eval mode the same batch should now also normalize to ~N(0,1).
        let y = bn.forward(&x, false);
        let mean = y.data().iter().sum::<f32>() / y.numel() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn rank2_and_rank4_agree() {
        // A [batch, ch] input must behave as [batch, ch, 1, 1].
        let mut bn2 = model(3, 0.9);
        let mut bn4 = model(3, 0.9);
        let mut s = NormalSampler::seed_from(3);
        let x2 = Tensor::randn(&[6, 3], 0.0, 1.0, &mut s);
        let x4 = x2.clone().reshape(&[6, 3, 1, 1]);
        let y2 = bn2.forward(&x2, true);
        let y4 = bn4.forward(&x4, true);
        assert_eq!(y2.data(), y4.data());
    }

    #[test]
    fn gradcheck_inputs() {
        let mut bn = model(2, 0.9);
        let mut s = NormalSampler::seed_from(4);
        let x = Tensor::randn(&[4, 2, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut bn, &x, 3e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut bn = model(3, 0.9);
        let mut s = NormalSampler::seed_from(5);
        let x = Tensor::randn(&[5, 3], 0.0, 1.0, &mut s);
        gradcheck::check_param_grad(&mut bn, &x, 3e-2);
    }

    #[test]
    fn param_vector_carries_buffers() {
        let mut bn = model(2, 0.5);
        assert_eq!(bn.arena().2, std::slice::from_ref(&(4..8)));
        let mut s = NormalSampler::seed_from(6);
        let x = Tensor::randn(&[16, 2], 1.0, 1.0, &mut s);
        bn.forward(&x, true);
        let p = bn.params_flat();
        assert_eq!(p.len(), 8);
        // Running mean (slots 4..6) moved toward the batch mean of ~1.0.
        assert!(p[4] > 0.2, "running mean {}", p[4]);
        // Restoring into a fresh layer reproduces eval outputs exactly.
        let mut bn2 = model(2, 0.5);
        bn2.set_params_flat(&p);
        let y1 = bn.forward(&x, false);
        let y2 = bn2.forward(&x, false);
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    #[should_panic(expected = "rank 2 or 4")]
    fn rejects_rank3() {
        let mut bn = model(2, 0.9);
        bn.forward(&Tensor::zeros(&[2, 2, 2]), false);
    }

    #[test]
    fn eval_forward_materializes_no_x_hat() {
        let mut bn = BatchNorm::new(2, 0.9);
        let mut p = vec![0.0; bn.arena_len()];
        bn.init_params(&mut p, None);
        let mut ws = Workspace::new();
        let y = bn.forward_ws(&mut p, ones(&[4, 2, 3, 3]), false, &mut ws);
        assert_eq!(y.dims(), &[4, 2, 3, 3]);
        // One take: the per-channel inverse std. The output is the input's
        // own buffer and inference keeps nothing for backward.
        assert_eq!(ws.stats().0, 1);
        assert!(bn.cache.is_none());
    }

    #[test]
    fn training_steps_reuse_pooled_buffers() {
        let mut s = NormalSampler::seed_from(7);
        let x = Tensor::randn(&[4, 3, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_steady_state_pool(&mut model(3, 0.9), &x);
    }
}
