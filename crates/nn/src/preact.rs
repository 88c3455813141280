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
use crate::norm::BatchNorm;
use vc_tensor::{Tensor, Workspace};

/// Forward of the unit headed by `bn` and closed by `conv`. The unit keeps
/// `x` after a training forward, and after an inference one too when
/// `keep_input` (for a residual skip to read; `conv` gives it back).
pub(crate) fn forward(
    bn: &mut BatchNorm,
    conv: &mut Conv2d,
    x: Tensor,
    train: bool,
    keep_input: bool,
    ws: &mut Workspace,
) -> Tensor {
    bn.prepare_prologue(&x, train, ws);
    conv.forward_direct(x, Some(bn.prologue()), train || keep_input, ws)
}

/// Backward of the unit, after a training [`forward`]. `dy` is only read;
/// `skip`, when given, is added to `dx` where batch norm writes it. The
/// cached `x` goes back to `ws` once batch norm has read it: nothing reads
/// it before the next forward, and the gradients of the steps below take
/// its buffer instead of a new one.
pub(crate) fn backward(
    bn: &mut BatchNorm,
    conv: &mut Conv2d,
    dy: &Tensor,
    skip: Option<&Tensor>,
    ws: &mut Workspace,
) -> Tensor {
    let d_act = conv.backward_direct(dy, Some(bn.prologue()), ws);
    let dx = bn.backward_recompute(d_act, conv.cached_input(), skip, ws);
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
    use crate::layer::{append_grads, append_params, install_params, Layer};
    use crate::model::Sequential;
    use crate::norm::BatchNorm;
    use crate::residual::Residual;
    use vc_tensor::isa::{with_tier_cap, Tier};
    use vc_tensor::{NormalSampler, Tensor, Workspace};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A pre-activation unit with every parameter and buffer randomized.
    /// Channel 0's affine is negative everywhere, so its whole plane is
    /// masked.
    fn unit(ch: usize, out_ch: usize, pad: usize, seed: u64) -> [Box<dyn Layer>; 3] {
        let mut s = NormalSampler::seed_from(seed);
        let mut bn = BatchNorm::new(ch, 0.9);
        let mut p: Vec<f32> = (0..4 * ch).map(|_| s.sample()).collect();
        (p[0], p[ch]) = (0.01, -100.0);
        for v in &mut p[3 * ch..] {
            *v = v.abs() + 0.1; // running variance
        }
        install_params(&mut bn, &p);
        let mut conv = Conv2d::new(ch, out_ch, 3, 1, pad, &mut s);
        let mut p: Vec<f32> = Vec::new();
        append_params(&mut conv, &mut p);
        for b in &mut p[out_ch * ch * 9..] {
            *b = s.sample(); // bias
        }
        install_params(&mut conv, &p);
        [Box::new(bn), Box::new(Relu::new()), Box::new(conv)]
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

    fn trace(
        mut forward: impl FnMut(Tensor, bool, &mut Workspace) -> Tensor,
        mut backward: impl FnMut(Tensor, &mut Workspace) -> Tensor,
        state: impl Fn() -> (Vec<f32>, Vec<f32>),
        x: &Tensor,
        seed: u64,
    ) -> Trace {
        let mut ws = Workspace::new();
        let y = forward(x.clone(), true, &mut ws);
        let mut s = NormalSampler::seed_from(seed);
        let dy = Tensor::randn(y.dims(), 0.0, 1.0, &mut s);
        let dx = backward(dy, &mut ws);
        let (grads, params) = state();
        let y_eval = forward(x.clone(), false, &mut ws);
        (
            bits(y.data()),
            bits(dx.data()),
            bits(&grads),
            bits(&params),
            bits(y_eval.data()),
        )
    }

    fn layer_by_layer(mut layers: [Box<dyn Layer>; 3], x: &Tensor, seed: u64) -> Trace {
        let layers = std::cell::RefCell::new(&mut layers);
        trace(
            |x, train, ws| {
                let mut cur = x;
                for l in layers.borrow_mut().iter_mut() {
                    cur = l.forward_ws(cur, train, ws);
                }
                cur
            },
            |dy, ws| {
                let mut cur = dy;
                for l in layers.borrow_mut().iter_mut().rev() {
                    cur = l.backward_ws(cur, ws);
                }
                cur
            },
            || {
                let (mut g, mut p) = (Vec::new(), Vec::new());
                for l in layers.borrow_mut().iter_mut() {
                    append_grads(l.as_mut(), &mut g);
                    append_params(l.as_mut(), &mut p);
                }
                (g, p)
            },
            x,
            seed,
        )
    }

    fn through_traversal(model: Sequential, x: &Tensor, seed: u64) -> Trace {
        let model = std::cell::RefCell::new(model);
        trace(
            |x, train, ws| model.borrow_mut().forward_pipeline(x, train, ws),
            |dy, ws| model.borrow_mut().backward_pipeline(dy, ws),
            || {
                let mut m = model.borrow_mut();
                (m.grads_flat(), m.params_flat())
            },
            x,
            seed,
        )
    }

    fn fused_model(layers: [Box<dyn Layer>; 3]) -> Sequential {
        let mut model = Sequential::new();
        for l in layers {
            model.push_boxed(l);
        }
        model.fuse_relu();
        model
    }

    fn assert_unit_matches(dims: [usize; 4], out_ch: usize, pad: usize, x: &Tensor) {
        let seed = (dims.iter().sum::<usize>() * 31 + out_ch * 7 + pad) as u64;
        let want = layer_by_layer(unit(dims[1], out_ch, pad, seed), x, seed);
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
        let mut body = Sequential::new();
        for l in unit(ch, ch, 1, seed)
            .into_iter()
            .chain(unit(ch, ch, 1, seed + 1))
        {
            body.push_boxed(l);
        }
        let mut model = Sequential::new().push(Residual::new(body));
        model.fuse_relu();
        assert_eq!(model.preact_unit_map(), [vec![], vec![0, 3]]);
        let got = through_traversal(model, &x, seed);

        // The oracle: both units layer by layer, the skip added by hand.
        let mut layers: Vec<Box<dyn Layer>> = unit(ch, ch, 1, seed)
            .into_iter()
            .chain(unit(ch, ch, 1, seed + 1))
            .collect();
        let mut ws = Workspace::new();
        let mut y = x.clone();
        for l in &mut layers {
            y = l.forward_ws(y, true, &mut ws);
        }
        for (f, s) in y.data_mut().iter_mut().zip(x.data()) {
            *f += s;
        }
        let mut s = NormalSampler::seed_from(seed);
        let dy = Tensor::randn(y.dims(), 0.0, 1.0, &mut s);
        let mut dx = dy.clone();
        for l in layers.iter_mut().rev() {
            dx = l.backward_ws(dx, &mut ws);
        }
        for (d, s) in dx.data_mut().iter_mut().zip(dy.data()) {
            *d += s;
        }
        let (mut g, mut p) = (Vec::new(), Vec::new());
        for l in &mut layers {
            append_grads(l.as_mut(), &mut g);
            append_params(l.as_mut(), &mut p);
        }
        assert_eq!(got.0, bits(y.data()), "training output");
        assert_eq!(got.1, bits(dx.data()), "dx");
        assert_eq!(got.2, bits(&g), "gradients");
        assert_eq!(got.3, bits(&p), "parameters and running statistics");
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
        let misfits: [[Box<dyn Layer>; 3]; 2] = [
            // Channel counts disagree.
            [
                Box::new(BatchNorm::new(4, 0.9)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(2, 2, 3, 1, 1, &mut s)),
            ],
            // A 1×1 convolution has no staging pass to run the prologue in.
            [
                Box::new(BatchNorm::new(2, 0.9)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(2, 2, 1, 1, 0, &mut s)),
            ],
        ];
        for layers in misfits {
            assert_eq!(fused_model(layers).preact_unit_map(), [[]]);
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
        let y = model.forward_pipeline(x, true, &mut ws);
        let (takes, _) = ws.stats();
        assert_eq!(takes, 4, "mean, var, output, stage");
        assert_eq!(y.numel(), n);
        // Steady state: the step gives back everything it takes, its cached
        // input included, by the end of backward.
        let dx = model.backward_pipeline(y, &mut ws);
        ws.recycle(dx.into_vec());
        let mut misses = [0; 2];
        for m in &mut misses {
            let x = Tensor::from_vec(ws.take_copy(input(dims, 3).data()), &dims);
            let y = model.forward_pipeline(x, true, &mut ws);
            let dx = model.backward_pipeline(y, &mut ws);
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
