//! The pre-activation unit `BatchNorm → Relu → Conv2d(3×3, stride 1)` as
//! one step of the [`Sequential`](crate::Sequential) traversal.
//!
//! Layer by layer the unit makes four passes over its activation and keeps
//! 2.25 copies of it for backward (`x_hat`, the ReLU's byte mask, the
//! convolution's input). Here it makes the passes that cannot be avoided:
//!
//! * **forward** — [`BatchNorm::prepare_prologue`] reduces `x` to its
//!   per-channel statistics; the convolution then applies
//!   `max(0, γ·x̂ + β)` *while it stages each image*
//!   ([`vc_tensor::conv_direct::BnRelu`]), so the normalized tensor,
//!   `x_hat` and the mask never exist. The step caches `x` — moved in by
//!   value, no copy — and two `[ch]` vectors.
//! * **backward** — dK re-stages `x` through the same prologue; then
//!   [`BatchNorm::backward_recompute`] runs batch-norm backward's two
//!   passes, recomputing `x_hat` and the mask from `x` as it reads. Then
//!   the step gives `x` back to the pool, so a backward pass holds the
//!   caches of the steps it has not reached yet and no others.
//!
//! Both halves evaluate the standalone layers' own expressions on the same
//! operands in the same order (`conv_direct`'s module docs carry the
//! argument), so outputs, gradients and running statistics are
//! bit-identical to calling the three layers one by one — which is exactly
//! what the tests below do.
//!
//! A unit that heads a [`Residual`](crate::Residual) body also serves the
//! skip path: its cached `x` *is* the skip operand (kept past an inference
//! forward too, until the block's add), and its batch-norm backward adds
//! the block's `dy` where it writes `dx`.

use crate::conv::Conv2d;
use crate::layer::Layer;
use crate::norm::BatchNorm;
use vc_tensor::{Tensor, Workspace};

/// Forward of the unit headed by `bn` and closed by `conv`, over the
/// unit's slice `p` of the parameter vector. The unit keeps `x` after a
/// training forward, and after an inference one too when `keep_input` (for
/// a residual skip to read; `conv` gives it back).
pub(crate) fn forward(
    bn: &mut BatchNorm,
    conv: &mut Conv2d,
    p: &mut [f32],
    x: Tensor,
    train: bool,
    keep_input: bool,
    ws: &mut Workspace,
) -> Tensor {
    let (pb, pc) = p.split_at_mut(bn.arena_len());
    bn.prepare_prologue(pb, &x, train, ws);
    conv.forward_direct(pc, x, Some(bn.prologue(pb)), train || keep_input, ws)
}

/// Backward of the unit, after a training [`forward`], accumulating into
/// the unit's slice `g` of the gradient vector. `dy` is only read; `skip`,
/// when given, is added to `dx` where batch norm writes it. The cached `x`
/// goes back to `ws` once batch norm has read it: nothing reads it before
/// the next forward, and the gradients of the steps below take its buffer
/// instead of a new one.
pub(crate) fn backward(
    bn: &mut BatchNorm,
    conv: &mut Conv2d,
    p: &[f32],
    g: &mut [f32],
    dy: &Tensor,
    skip: Option<&Tensor>,
    ws: &mut Workspace,
) -> Tensor {
    let (pb, pc) = p.split_at(bn.arena_len());
    let (gb, gc) = g.split_at_mut(bn.arena_len());
    let d_act = conv.backward_direct(pc, gc, dy, Some(bn.prologue(pb)), ws);
    let dx = bn.backward_recompute(pb, gb, d_act, conv.cached_input(), skip, ws);
    conv.recycle_cache(ws);
    dx
}

#[cfg(test)]
mod tests {
    //! The oracle: the same three layers called one by one. Everything is
    //! compared by `to_bits()`, NaNs included. CI runs this module under
    //! `VC_THREADS=1` and under the default pool.

    use crate::activation::Relu;
    use crate::conv::Conv2d;
    use crate::model::Sequential;
    use crate::norm::BatchNorm;
    use crate::residual::Residual;
    use vc_tensor::isa::{with_tier_cap, Tier};
    use vc_tensor::{NormalSampler, Tensor, Workspace};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `model` with a pre-activation unit appended, every parameter and
    /// buffer of the unit randomized. Channel 0's affine is negative
    /// everywhere, so its whole plane is masked.
    fn push_unit(model: Sequential, ch: usize, out_ch: usize, pad: usize, seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        let mut bn: Vec<f32> = (0..4 * ch).map(|_| s.sample()).collect();
        (bn[0], bn[ch]) = (0.01, -100.0);
        for v in &mut bn[3 * ch..] {
            *v = v.abs() + 0.1; // running variance
        }
        let conv = Conv2d::new(ch, out_ch, 3, 1, pad, &mut s);
        let mut model = model;
        let start = model.param_count();
        model = model
            .push(BatchNorm::new(ch, 0.9))
            .push(Relu::new())
            .push(conv);
        let mut p = model.params_flat();
        p[start..start + 4 * ch].copy_from_slice(&bn);
        for b in &mut p[start + 4 * ch + out_ch * ch * 9..] {
            *b = s.sample(); // bias
        }
        model.set_params_flat(&p);
        model
    }

    /// A randomized unit on its own, its three layers not fused: the
    /// traversal calls them one by one.
    fn unit(ch: usize, out_ch: usize, pad: usize, seed: u64) -> Sequential {
        push_unit(Sequential::new(), ch, out_ch, pad, seed)
    }

    /// Inputs with the values the bit-identity argument has to survive:
    /// signed zeros, an all-negative plane, an exact tie at the mean.
    fn input(dims: [usize; 4], seed: u64) -> Tensor {
        let mut s = NormalSampler::seed_from(seed);
        let mut x = Tensor::randn(&dims, 0.5, 2.0, &mut s);
        let sp = dims[2] * dims[3];
        let d = x.data_mut();
        d[0] = 0.0;
        d[1] = -0.0;
        if dims[1] > 1 {
            for v in &mut d[sp..2 * sp] {
                *v = -v.abs() - 1.0;
            }
        }
        x
    }

    /// `(output, dx, grads, params)` bits of one training step and the
    /// bits of an inference forward afterwards.
    type Trace = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

    fn through_traversal(mut model: Sequential, x: &Tensor, seed: u64) -> Trace {
        let mut ws = Workspace::new();
        let y = model.forward_pipeline_ws(x.clone(), true, &mut ws);
        let mut s = NormalSampler::seed_from(seed);
        let dy = Tensor::randn(y.dims(), 0.0, 1.0, &mut s);
        let dx = model.backward_pipeline_ws(dy, &mut ws);
        let (grads, params) = (bits(model.grads()), bits(&model.params_flat()));
        let y_eval = model.forward_pipeline_ws(x.clone(), false, &mut ws);
        (
            bits(y.data()),
            bits(dx.data()),
            grads,
            params,
            bits(y_eval.data()),
        )
    }

    fn fused_model(mut model: Sequential) -> Sequential {
        model.fuse_relu();
        model
    }

    fn assert_unit_matches(dims: [usize; 4], out_ch: usize, pad: usize, x: &Tensor) {
        let seed = (dims.iter().sum::<usize>() * 31 + out_ch * 7 + pad) as u64;
        let want = through_traversal(unit(dims[1], out_ch, pad, seed), x, seed);
        let mut model = fused_model(unit(dims[1], out_ch, pad, seed));
        assert_eq!(model.preact_unit_map(), [[0]], "the unit must run fused");
        let got = through_traversal(model, x, seed);
        let what = format!("dims {dims:?} out_ch {out_ch} pad {pad}");
        assert_eq!(got.0, want.0, "training output, {what}");
        assert_eq!(got.1, want.1, "dx, {what}");
        assert_eq!(got.2, want.2, "dγ/dβ/dK/dbias, {what}");
        assert_eq!(got.3, want.3, "parameters and running statistics, {what}");
        assert_eq!(got.4, want.4, "inference output, {what}");
    }

    #[test]
    fn fused_unit_is_bitwise_the_three_layers() {
        // Batch 1; rows narrower than a vector span (w < 8, the portable
        // row kernel); rows with 16-, 8- and overlapped 8-pixel spans at
        // 8 lanes, whole and backed-up 16-lane spans at 16; channel counts
        // around the 8-lane reduction groups and the 4- and 8-wide
        // output-channel blocks; pad 0 and 1.
        for (batch, h, w) in [(1, 5, 5), (3, 4, 7), (2, 9, 12), (2, 8, 8), (2, 6, 29)] {
            for (ch, out_ch) in [(3, 5), (5, 3), (12, 12), (16, 16), (32, 6)] {
                for pad in [0, 1] {
                    let dims = [batch, ch, h, w];
                    let x = input(dims, (h * w + ch) as u64);
                    assert_unit_matches(dims, out_ch, pad, &x);
                }
            }
        }
        // Past PAR_THRESHOLD: the per-image parallel forward and dx.
        let dims = [4, 16, 16, 16];
        assert_unit_matches(dims, 16, 1, &input(dims, 99));
    }

    /// Cases of the test above with the convolutions capped at `cap` on
    /// both routes: a host with a wider tier runs it everywhere else.
    fn capped_units_match(cap: Tier) {
        with_tier_cap(cap, || {
            for (batch, h, w) in [(1, 5, 5), (3, 4, 7), (2, 6, 29)] {
                for (ch, out_ch) in [(3, 5), (16, 16)] {
                    let dims = [batch, ch, h, w];
                    let x = input(dims, (h * w + ch) as u64);
                    assert_unit_matches(dims, out_ch, 1, &x);
                }
            }
            let dims = [4, 16, 16, 16];
            assert_unit_matches(dims, 16, 1, &input(dims, 99));
        });
    }

    #[test]
    fn portable_body_unit_is_bitwise_the_three_layers() {
        // So `deploy/sanitize.sh` puts the portable body's slot arithmetic
        // under ASan too.
        capped_units_match(Tier::Portable);
    }

    #[test]
    fn avx2_capped_unit_is_bitwise_the_three_layers() {
        // The 8-lane bodies, which an AVX-512 host runs only for rows
        // narrower than 16 pixels unless capped.
        capped_units_match(Tier::Avx2);
    }

    #[test]
    fn nan_and_infinite_inputs_propagate_identically() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let dims = [2, 5, 6, 9];
            let mut x = input(dims, 17);
            // One poisoned value takes its whole channel's statistics with
            // it; the other channels must come through untouched.
            x.data_mut()[2 * 54 + 7] = poison;
            assert_unit_matches(dims, 4, 1, &x);
        }
    }

    /// `resnet_lite`'s block, hand-assembled the way the benchmark probes
    /// do it: the peephole has to find the units inside the residual body.
    #[test]
    fn residual_block_is_bitwise_its_layers_and_fuses_both_units() {
        let (ch, dims, seed) = (12, [2, 12, 8, 8], 5);
        let x = input(dims, 23);
        let two_units = || push_unit(unit(ch, ch, 1, seed), ch, ch, 1, seed + 1);
        let mut model = Sequential::new().push(Residual::new(two_units()));
        model.fuse_relu();
        assert_eq!(model.preact_unit_map(), [vec![], vec![0, 3]]);
        let got = through_traversal(model, &x, seed);

        // The oracle: both units layer by layer, the skip added by hand.
        let mut layers = two_units();
        let mut ws = Workspace::new();
        let mut y = layers.forward_pipeline_ws(x.clone(), true, &mut ws);
        for (f, s) in y.data_mut().iter_mut().zip(x.data()) {
            *f += s;
        }
        let mut s = NormalSampler::seed_from(seed);
        let dy = Tensor::randn(y.dims(), 0.0, 1.0, &mut s);
        let mut dx = layers.backward_pipeline_ws(dy.clone(), &mut ws);
        for (d, s) in dx.data_mut().iter_mut().zip(dy.data()) {
            *d += s;
        }
        assert_eq!(got.0, bits(y.data()), "training output");
        assert_eq!(got.1, bits(dx.data()), "dx");
        assert_eq!(got.2, bits(layers.grads()), "gradients");
        assert_eq!(
            got.3,
            bits(&layers.params_flat()),
            "parameters and running statistics"
        );
    }

    /// Negative control for the tests above: they compare a traversal
    /// against the plain layers, so a peephole that never fires would pass
    /// them. It has to fire exactly where a unit is, and nowhere else.
    #[test]
    fn peephole_fires_on_units_and_only_on_units() {
        let spec = crate::spec::resnet_lite(&[3, 8, 8], 2, 10);
        let mut model = spec.build(1);
        assert!(
            model.preact_unit_map().concat().is_empty(),
            "nothing fuses before fuse_relu"
        );
        model.fuse_relu();
        // Top level: stem conv, 2 blocks, pool, 1×1 conv, 2 blocks, then a
        // BN→ReLU tail with no convolution to close it — no unit. Each of
        // the four bodies: two.
        let mut want = vec![vec![]];
        want.extend(vec![vec![0, 3]; 4]);
        assert_eq!(model.preact_unit_map(), want);

        let mut s = NormalSampler::seed_from(1);
        let misfit = |bn_ch, k, pad, s: &mut NormalSampler| {
            Sequential::new()
                .push(BatchNorm::new(bn_ch, 0.9))
                .push(Relu::new())
                .push(Conv2d::new(2, 2, k, 1, pad, s))
        };
        // Channel counts disagree; a 1×1 convolution has no staging pass
        // to run the prologue in.
        for model in [misfit(4, 3, 1, &mut s), misfit(2, 1, 0, &mut s)] {
            assert_eq!(fused_model(model).preact_unit_map(), [[]]);
        }
    }

    #[test]
    fn fused_step_keeps_one_copy_of_its_input() {
        // What the step is for: after a training forward the workspace has
        // handed out the output, the staging scratch and four `[ch]`
        // vectors (mean, variance→inv_std, and nothing else) — no `x_hat`,
        // no normalized copy.
        let dims = [2, 4, 8, 8];
        let n = dims.iter().product::<usize>();
        let mut model = fused_model(unit(4, 4, 1, 3));
        let mut ws = Workspace::new();
        let x = input(dims, 3);
        let y = model.forward_pipeline_ws(x, true, &mut ws);
        let (takes, _) = ws.stats();
        assert_eq!(takes, 4, "mean, var, output, stage");
        assert_eq!(y.numel(), n);
        // Steady state: the step gives back everything it takes, its cached
        // input included, by the end of backward.
        let dx = model.backward_pipeline_ws(y, &mut ws);
        ws.recycle(dx.into_vec());
        let mut misses = [0; 2];
        for m in &mut misses {
            let x = Tensor::from_vec(ws.take_copy(input(dims, 3).data()), &dims);
            let y = model.forward_pipeline_ws(x, true, &mut ws);
            let dx = model.backward_pipeline_ws(y, &mut ws);
            ws.recycle(dx.into_vec());
            *m = ws.stats().1;
            // Out of the pool: what it allocated, plus the first step's
            // input (allocated outside it), minus what it holds.
            let out = *m + 1 - ws.pooled() as u64;
            assert_eq!(
                out, 2,
                "after backward only batch norm's [ch] statistics are out"
            );
        }
        assert_eq!(misses[0], misses[1], "steady-state step allocated");
    }
}
