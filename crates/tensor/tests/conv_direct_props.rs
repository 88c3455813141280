//! Property tests: the direct 3×3 stride-1 conv kernels vs the
//! im2col+GEMM reference, compared **bitwise**.
//!
//! The direct path's contract (see `conv_direct`'s module docs) is that
//! every output element is the same fused-multiply-add chain in the same
//! order as the lowered route, so these properties never use a tolerance.
//! The reference here is assembled from the exact public pieces the layer
//! code uses: `im2col` → `matmul_a_bt_epi_into` (forward),
//! `matmul_epi_into` → `col2im_into` (dx), `matmul_at_b_epi_into` with
//! `Accumulate` (dK), plus the pure index permutations between row-major
//! `[rows, oc]` matrices and `[b, oc, oh, ow]` image tensors.
//!
//! The prologue variants (`*_pre_into`) are held to the same reference run
//! on the **materialized** activation: batch-norm affine and ReLU written
//! out as a tensor first (with the expression spelled out here, not
//! borrowed from the kernel), then im2col + GEMM.
//!
//! The random cases reach every AVX2 tile shape: rows up to 40 wide run
//! 16-pixel spans, exact 8-pixel spans and backed-up ones, and up to 9
//! output channels put a full 4-channel block beside each remainder.
//! `check_forward` covers all four epilogues, `Accumulate` onto a random
//! starting output, and `signed_zero_and_nan_lanes_bitwise` feeds the
//! vector write-back's epilogues `±0.0` and NaN operands.
//!
//! Every direct call runs twice, on the body the host selects (AVX2 where
//! present) and on the portable one (`conv_direct::with_portable_bodies`),
//! so one case holds both to the reference — and `deploy/sanitize.sh` runs
//! both under AddressSanitizer. CI also runs this file with
//! `VC_THREADS=1` and `VC_THREADS=4`, so the slot-sharing case reaches
//! four participants and the single-thread path is held as measured.

use proptest::prelude::*;
use vc_tensor::conv_direct::{
    conv3x3_backward_dk_pre_into, conv3x3_backward_dx_into, conv3x3_forward_pre_into,
    dk_scratch_len, dx_scratch_len, fwd_scratch_len, with_portable_bodies, BnRelu,
};
use vc_tensor::ops::{
    col2im_into, im2col, matmul_a_bt_epi_into, matmul_at_b_epi_into, matmul_epi_into, ConvGeom,
    Epilogue,
};
use vc_tensor::{NormalSampler, Tensor};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Scratch as a pooled buffer may arrive: full of someone else's values.
/// NaN, so a kernel that reads scratch it did not write shows in the bits.
fn garbage(len: usize) -> Vec<f32> {
    vec![f32::NAN; len]
}

/// Runs `f` on the body the host selects, then on the portable body,
/// naming each.
fn on_both_bodies(mut f: impl FnMut(&str)) {
    f("detected body");
    with_portable_bodies(|| f("portable body"));
}

fn geom(h: usize, w: usize, pad: usize) -> ConvGeom {
    ConvGeom {
        h,
        w,
        kh: 3,
        kw: 3,
        stride: 1,
        pad,
    }
}

/// `[rows, oc]` flat matrix → `[b, oc, oh, ow]` images (pure copy).
fn rows_to_images(flat: &[f32], batch: usize, oc: usize, ohw: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; flat.len()];
    for b in 0..batch {
        for c in 0..oc {
            for px in 0..ohw {
                out[(b * oc + c) * ohw + px] = flat[(b * ohw + px) * oc + c];
            }
        }
    }
    out
}

/// `[b, oc, oh, ow]` images → `[rows, oc]` flat matrix (pure copy).
fn images_to_rows(img: &[f32], batch: usize, oc: usize, ohw: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; img.len()];
    for b in 0..batch {
        for c in 0..oc {
            for px in 0..ohw {
                out[(b * ohw + px) * oc + c] = img[(b * oc + c) * ohw + px];
            }
        }
    }
    out
}

struct Case {
    input: Tensor,
    kernel: Tensor,
    bias: Tensor,
    /// What the output buffer holds before a forward: `Accumulate` adds
    /// onto it, every other epilogue overwrites it.
    out0: Tensor,
    dy: Tensor,
    g: ConvGeom,
    batch: usize,
    ch: usize,
    out_ch: usize,
}

fn make_case(
    batch: usize,
    ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    pad: usize,
    seed: u64,
) -> Case {
    let g = geom(h, w, pad);
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut s = NormalSampler::seed_from(seed);
    Case {
        input: Tensor::randn(&[batch, ch, h, w], 0.0, 1.0, &mut s),
        kernel: Tensor::randn(&[out_ch, ch * 9], 0.0, 0.5, &mut s),
        bias: Tensor::randn(&[out_ch], 0.0, 0.5, &mut s),
        dy: Tensor::randn(&[batch, out_ch, oh, ow], 0.0, 1.0, &mut s),
        out0: Tensor::randn(&[batch, out_ch, oh, ow], 0.0, 1.0, &mut s),
        g,
        batch,
        ch,
        out_ch,
    }
}

/// Per-channel `[mean, inv_std, gamma, beta]` for a prologue over `c`.
/// Channel 0 is pushed far negative, so its whole activated plane is zero.
struct Pre([Vec<f32>; 4]);

impl Pre {
    fn new(ch: usize, seed: u64) -> Self {
        let mut s = NormalSampler::seed_from(seed ^ 0xbeef);
        let mut v: [Vec<f32>; 4] = std::array::from_fn(|_| (0..ch).map(|_| s.sample()).collect());
        v[1].iter_mut().for_each(|is| *is = is.abs() + 0.25);
        v[3][0] = -50.0;
        Pre(v)
    }

    fn as_prologue(&self) -> BnRelu<'_> {
        let [mean, inv_std, gamma, beta] = &self.0;
        BnRelu {
            mean,
            inv_std,
            gamma,
            beta,
        }
    }

    /// The reference's input: normalize, scale, shift, rectify — written
    /// out as a tensor, signed zeros and a NaN included.
    fn materialize(&self, c: &Case) -> (Tensor, Tensor) {
        let [mean, inv_std, gamma, beta] = &self.0;
        let mut raw = c.input.clone();
        let plane = c.g.h * c.g.w;
        {
            let d = raw.data_mut();
            d[0] = -0.0;
            if d.len() > 2 {
                d[1] = 0.0;
                d[2] = f32::NAN;
            }
        }
        let mut act = raw.clone();
        for (i, v) in act.data_mut().iter_mut().enumerate() {
            let ch = (i / plane) % c.ch;
            let x_hat = (*v - mean[ch]) * inv_std[ch];
            *v = (gamma[ch] * x_hat + beta[ch]).max(0.0);
        }
        (raw, act)
    }
}

fn check_forward(c: &Case, epi_kind: u8) {
    check_forward_sized(c, epi_kind, fwd_scratch_len(c.batch, c.ch, c.g));
}

/// [`check_forward`] with `stage_len` floats of staging scratch.
fn check_forward_sized(c: &Case, epi_kind: u8, stage_len: usize) {
    let (oh, ow) = (c.g.out_h(), c.g.out_w());
    let ohw = oh * ow;
    let epi = match epi_kind {
        0 => Epilogue::Store,
        1 => Epilogue::Bias(c.bias.data()),
        2 => Epilogue::BiasRelu(c.bias.data()),
        _ => Epilogue::Accumulate,
    };
    // Reference: materialize columns, GEMM against Kᵀ onto the starting
    // output, permute to images.
    let reference = |input: &Tensor| {
        let cols = im2col(input, c.ch, c.g);
        let mut flat = images_to_rows(c.out0.data(), c.batch, c.out_ch, ohw);
        matmul_a_bt_epi_into(&cols, &c.kernel, &mut flat, epi);
        rows_to_images(&flat, c.batch, c.out_ch, ohw)
    };
    let want = reference(&c.input);
    let pre = Pre::new(c.ch, c.batch as u64);
    let (raw, act) = pre.materialize(c);
    let want_pre = reference(&act);
    let mut got = vec![0.0f32; want.len()];
    let mut stage = garbage(stage_len);
    on_both_bodies(|body| {
        // Direct.
        got.copy_from_slice(c.out0.data());
        conv3x3_forward_pre_into(&c.input, None, &c.kernel, c.g, &mut got, epi, &mut stage);
        assert_eq!(bits(&got), bits(&want), "forward epi={epi_kind}, {body}");
        // Direct with the prologue, against the materialized activation.
        got.copy_from_slice(c.out0.data());
        conv3x3_forward_pre_into(
            &raw,
            Some(pre.as_prologue()),
            &c.kernel,
            c.g,
            &mut got,
            epi,
            &mut stage,
        );
        assert_eq!(
            bits(&got),
            bits(&want_pre),
            "prologue forward epi={epi_kind}, {body}"
        );
    });
}

fn check_dx(c: &Case) {
    check_dx_sized(c, dx_scratch_len(c.batch, c.ch, c.out_ch));
}

/// [`check_dx`] with `scratch_len` floats of scratch.
fn check_dx_sized(c: &Case, scratch_len: usize) {
    let (oh, ow) = (c.g.out_h(), c.g.out_w());
    let ohw = oh * ow;
    let rows = c.batch * ohw;
    // Reference: dy → rows, dcols = dy_rows · K, col2im scatter.
    let dy_rows = Tensor::from_vec(
        images_to_rows(c.dy.data(), c.batch, c.out_ch, ohw),
        &[rows, c.out_ch],
    );
    let mut dcols = vec![0.0f32; rows * c.ch * 9];
    matmul_epi_into(&dy_rows, &c.kernel, &mut dcols, Epilogue::Store);
    let mut want = vec![0.0f32; c.batch * c.ch * c.g.h * c.g.w];
    col2im_into(
        &Tensor::from_vec(dcols, &[rows, c.ch * 9]),
        c.batch,
        c.ch,
        c.g,
        &mut want,
    );
    // Direct (fused): no dcols matrix, per-participant band scratch.
    let mut got = vec![0.0f32; want.len()];
    let mut scratch = garbage(scratch_len);
    on_both_bodies(|body| {
        conv3x3_backward_dx_into(&c.dy, &c.kernel, c.ch, c.g, &mut got, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "dx, {body}");
    });
}

fn check_dk(c: &Case, seed: u64) {
    let (oh, ow) = (c.g.out_h(), c.g.out_w());
    let ohw = oh * ow;
    let rows = c.batch * ohw;
    let patch = c.ch * 9;
    // Both paths accumulate onto the same nonzero starting gradient, so the
    // Accumulate epilogue semantics are covered too.
    let mut s = NormalSampler::seed_from(seed ^ 0xdead);
    let dk0 = Tensor::randn(&[c.out_ch, patch], 0.0, 1.0, &mut s);
    let dy_rows = Tensor::from_vec(
        images_to_rows(c.dy.data(), c.batch, c.out_ch, ohw),
        &[rows, c.out_ch],
    );
    let reference = |input: &Tensor| {
        let cols = im2col(input, c.ch, c.g);
        let mut want = dk0.data().to_vec();
        matmul_at_b_epi_into(&dy_rows, &cols, &mut want, Epilogue::Accumulate);
        want
    };
    let want = reference(&c.input);
    let pre = Pre::new(c.ch, seed);
    let (raw, act) = pre.materialize(c);
    let want_pre = reference(&act);
    let mut scratch = garbage(dk_scratch_len(c.ch, c.out_ch, c.g));
    on_both_bodies(|body| {
        let mut got = dk0.data().to_vec();
        conv3x3_backward_dk_pre_into(&c.dy, &c.input, None, c.g, &mut got, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "dK, {body}");
        // With the prologue, against the materialized activation.
        let mut got = dk0.data().to_vec();
        conv3x3_backward_dk_pre_into(
            &c.dy,
            &raw,
            Some(pre.as_prologue()),
            c.g,
            &mut got,
            &mut scratch,
        );
        assert_eq!(bits(&got), bits(&want_pre), "prologue dK, {body}");
    });
}

proptest! {
    #[test]
    fn forward_bitwise_vs_im2col(
        batch in 1usize..4,
        ch in 1usize..4,
        out_ch in 1usize..10,
        h in 1usize..8,
        w in 1usize..41,
        pad in 0usize..3,
        epi_kind in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let c = make_case(batch, ch, out_ch, h, w, pad, seed);
        check_forward(&c, epi_kind);
    }

    #[test]
    fn backward_bitwise_vs_im2col(
        batch in 1usize..4,
        ch in 1usize..4,
        out_ch in 1usize..10,
        h in 1usize..8,
        w in 1usize..41,
        pad in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let c = make_case(batch, ch, out_ch, h, w, pad, seed);
        check_dx(&c);
        check_dk(&c, seed);
    }
}

/// Degenerate geometries the strategy ranges only graze: 1×1 spatial
/// output (kernel covers the whole padded input), single-pixel images,
/// batch=1, ch=1, and an out_ch that is not a multiple of the OCB=4
/// channel block.
#[test]
fn degenerate_geometries_bitwise() {
    for (batch, ch, out_ch, h, w, pad) in [
        (1, 1, 1, 1, 1, 1),  // 1×1 input, pad 1 → 1×1 output, all-edge taps
        (1, 1, 5, 1, 1, 1),  // OCB remainder of 1
        (2, 3, 4, 1, 5, 1),  // single-row images
        (2, 3, 4, 5, 1, 1),  // single-column images
        (1, 2, 3, 3, 3, 0),  // pad 0 → 1×1 output from the interior only
        (1, 1, 1, 2, 2, 2),  // pad 2: output wider than the input
        (3, 2, 6, 9, 9, 1),  // ow=9: vector span + scalar remainder lanes
        (2, 2, 5, 3, 29, 1), // ow=29: a 16-pixel span, an 8, an overlapped 8
        (1, 3, 4, 4, 40, 1), // ow=40: two 16-pixel spans and an exact 8
    ] {
        let c = make_case(
            batch,
            ch,
            out_ch,
            h,
            w,
            pad,
            (batch * 31 + h * 7 + w) as u64,
        );
        for epi in 0..4 {
            check_forward(&c, epi);
        }
        check_dx(&c);
        check_dk(&c, 17);
    }
}

/// Signed zeros and NaN where the vector write-back meets them: bias lanes
/// of `-0.0`, `+0.0` and NaN (`Bias`, and `BiasRelu` beside it), a starting
/// output of `-0.0`, `+0.0` and NaN (`Accumulate`), and an all-zero image,
/// whose accumulators are exact `+0.0` so `+0.0 + -0.0` is decided by the
/// write-back alone. Rows of 40 run whole 16-pixel spans and an exact
/// 8-pixel one; 9 channels put two full blocks beside a remainder of one.
#[test]
fn signed_zero_and_nan_lanes_bitwise() {
    let special = [-0.0, 0.0, f32::NAN];
    let mut c = make_case(2, 3, 9, 3, 40, 1, 909);
    c.input.data_mut()[..3 * 3 * 40].fill(0.0);
    for (i, b) in c.bias.data_mut().iter_mut().enumerate() {
        if i % 2 == 0 {
            *b = special[(i / 2) % 3];
        }
    }
    for (i, o) in c.out0.data_mut().iter_mut().enumerate() {
        if i % 5 < 3 {
            *o = special[i % 5];
        }
    }
    for epi in 0..4 {
        check_forward(&c, epi);
    }
}

/// A training-shaped case past `PAR_THRESHOLD`, so the forward and dx
/// kernels take their parallel per-image path; repeated runs must also
/// reproduce identical bytes (run-to-run determinism on the pool).
#[test]
fn parallel_path_bitwise_and_deterministic() {
    let c = make_case(4, 8, 8, 16, 16, 1, 4242);
    check_forward(&c, 2);
    check_dx(&c);
    check_dk(&c, 4242);
    let mut first: Option<Vec<u32>> = None;
    for _ in 0..4 {
        let mut out = vec![0.0f32; 4 * 8 * 16 * 16];
        let mut stage = vec![0.0f32; fwd_scratch_len(4, 8, c.g)];
        conv3x3_forward_pre_into(
            &c.input,
            None,
            &c.kernel,
            c.g,
            &mut out,
            Epilogue::Bias(c.bias.data()),
            &mut stage,
        );
        let b = bits(&out);
        match &first {
            None => first = Some(b),
            Some(f) => assert_eq!(&b, f, "pool run changed the bytes"),
        }
    }
}

/// One staging slot and one dx band per participant, not per image: at
/// every thread cap, with batches below and above the cap, on rows wide
/// enough for the vector spans and on rows narrower than one (`ow < 8`),
/// forward, forward with the prologue and dx stay bitwise the reference —
/// two images sharing a slot at once would corrupt one of them. Both
/// shapes cross `PAR_THRESHOLD` from batch 3 up, so the per-image loop runs
/// on the pool. Scratch sized under one cap and used under another only
/// changes how many threads the call takes.
#[test]
fn slot_sharing_bitwise_across_thread_caps() {
    let shapes = [(8, 8, 16, 16), (32, 32, 7, 7)];
    for cap in [1, 2, 4, 8] {
        let prev = rayon::set_thread_cap(cap);
        for batch in [1, 3, 9] {
            for (ch, out_ch, h, w) in shapes {
                let c = make_case(batch, ch, out_ch, h, w, 1, (cap * 100 + batch + w) as u64);
                check_forward(&c, 2);
                check_dx(&c);
            }
        }
        rayon::set_thread_cap(prev);
    }
    for (size_cap, run_cap) in [(1, 8), (8, 1), (2, 4), (4, 2)] {
        for (ch, out_ch, h, w) in shapes {
            let c = make_case(9, ch, out_ch, h, w, 1, (size_cap * 10 + run_cap) as u64);
            let prev = rayon::set_thread_cap(size_cap);
            let (stage_len, dx_len) = (
                fwd_scratch_len(9, ch, c.g),
                dx_scratch_len(9, ch, out_ch),
            );
            rayon::set_thread_cap(run_cap);
            check_forward_sized(&c, 1, stage_len);
            check_dx_sized(&c, dx_len);
            rayon::set_thread_cap(prev);
        }
    }
}
