//! Property tests: every convolution route — the direct 3×3 stride-1
//! kernels and the 1×1 stride-1 GEMMs on the image layout — vs the
//! im2col+GEMM reference, compared **bitwise**.
//!
//! Each route's contract (see `conv_direct`'s module docs and
//! `ops::conv1x1_forward_into`) is that every output element is the same
//! fused-multiply-add chain in the same order as the lowered route, so
//! these properties never use a tolerance. The reference is the im2col
//! lowering (the `im2col` module here, which only tests use) and the
//! public GEMMs: `im2col` → `matmul_a_bt_epi_into` (forward),
//! `matmul_epi_into` → `col2im_into` (dx), `matmul_at_b_epi_into` with
//! `Accumulate` (dK), plus the pure index permutations between row-major
//! `[rows, oc]` matrices and `[b, oc, oh, ow]` image tensors.
//!
//! The prologue variants (`*_pre_into`) are held to the same reference run
//! on the **materialized** activation: batch-norm affine and ReLU written
//! out as a tensor first (with the expression spelled out here, not
//! borrowed from the kernel), then im2col + GEMM.
//!
//! The random cases reach every 8-lane tile shape: rows up to 40 wide run
//! 16-pixel spans, exact 8-pixel spans and backed-up ones, and up to 9
//! output channels put a full 4-channel block beside each remainder.
//! `check_forward` covers all four epilogues, `Accumulate` onto a random
//! starting output, and `signed_zero_and_nan_lanes_bitwise` feeds the
//! vector write-back's epilogues `±0.0` and NaN operands. The 1×1 cases
//! cover the same four epilogues, a dx chain that underflows to `−0.0`,
//! and a dK that must be one chain over the whole batch.
//!
//! Every direct call runs once per body the host has (`isa::Tier::
//! host_tiers`, each under `isa::with_tier_cap`): the 16-lane body where
//! AVX-512F is present, the 8-lane body under an AVX2 cap, and the
//! portable one, so one case holds every width to the reference — and
//! `deploy/sanitize.sh` runs them all under AddressSanitizer. Rows
//! narrower than a 16-lane vector run the 8-lane body at every vector
//! tier, and rows narrower than 8 the one-lane body the portable tier
//! runs everywhere (the same source body at `F32x1`); rows of 16 to 40 reach the 16-lane full spans and its backed-up
//! tail, odd heights the row its two-row tiles leave over, and up to 9
//! output channels put a full 8-channel block beside a remainder of one.
//! CI also runs this file with
//! `VC_THREADS=1` and `VC_THREADS=4`, so the slot-sharing case reaches
//! four participants and the single-thread path is held as measured.

mod im2col;

use im2col::{col2im_into, im2col};
use proptest::prelude::*;
use vc_tensor::conv_direct::{
    conv3x3_backward_dk_pre_into, conv3x3_backward_dx_into, conv3x3_forward_pre_into,
    dk_scratch_len, dx_scratch_len, fwd_scratch_len, BnRelu,
};
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::ops::{
    conv1x1_backward_dk_into, conv1x1_backward_dx_into, conv1x1_forward_into, matmul_a_bt_epi_into,
    matmul_at_b_epi_into, matmul_epi_into, ConvGeom, Epilogue,
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

/// Runs `f` on every body the host has, widest first — 16-lane, the
/// 8-lane body under an AVX2 cap, the portable body — naming each.
fn on_every_body(mut f: impl FnMut(&str)) {
    for tier in Tier::host_tiers() {
        with_tier_cap(tier, || f(tier.name()));
    }
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
    make_case_in(geom(h, w, pad), batch, ch, out_ch, seed)
}

/// A random case over geometry `g`.
fn make_case_in(g: ConvGeom, batch: usize, ch: usize, out_ch: usize, seed: u64) -> Case {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut s = NormalSampler::seed_from(seed);
    Case {
        input: Tensor::randn(&[batch, ch, g.h, g.w], 0.0, 1.0, &mut s),
        kernel: Tensor::randn(&[out_ch, ch * g.kh * g.kw], 0.0, 0.5, &mut s),
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

impl Case {
    fn epilogue(&self, kind: u8) -> Epilogue<'_> {
        match kind {
            0 => Epilogue::Store,
            1 => Epilogue::Bias(self.bias.data()),
            2 => Epilogue::BiasRelu(self.bias.data()),
            _ => Epilogue::Accumulate,
        }
    }

    fn ohw(&self) -> usize {
        self.g.out_h() * self.g.out_w()
    }

    /// `dy` as the lowered route's `[rows, out_ch]` matrix.
    fn dy_rows(&self) -> Tensor {
        let rows = self.batch * self.ohw();
        Tensor::from_vec(
            images_to_rows(self.dy.data(), self.batch, self.out_ch, self.ohw()),
            &[rows, self.out_ch],
        )
    }

    /// Reference forward of `input`: materialize columns, GEMM against Kᵀ
    /// onto the starting output, permute to images.
    fn ref_forward(&self, input: &Tensor, epi: Epilogue<'_>) -> Vec<f32> {
        let cols = im2col(input, self.ch, self.g);
        let mut flat = images_to_rows(self.out0.data(), self.batch, self.out_ch, self.ohw());
        matmul_a_bt_epi_into(&cols, &self.kernel, &mut flat, epi);
        rows_to_images(&flat, self.batch, self.out_ch, self.ohw())
    }

    /// Reference dx: dy → rows, dcols = dy_rows · K, col2im scatter.
    fn ref_dx(&self) -> Vec<f32> {
        let rows = self.batch * self.ohw();
        let patch = self.kernel.dims()[1];
        let mut dcols = vec![0.0f32; rows * patch];
        matmul_epi_into(&self.dy_rows(), &self.kernel, &mut dcols, Epilogue::Store);
        let mut want = vec![0.0f32; self.batch * self.ch * self.g.h * self.g.w];
        col2im_into(
            &Tensor::from_vec(dcols, &[rows, patch]),
            self.batch,
            self.ch,
            self.g,
            &mut want,
        );
        want
    }

    /// Reference dK of `input`: `dk0 += dy_rowsᵀ · cols`.
    fn ref_dk(&self, dk0: &[f32], input: &Tensor) -> Vec<f32> {
        let cols = im2col(input, self.ch, self.g);
        let mut want = dk0.to_vec();
        matmul_at_b_epi_into(&self.dy_rows(), &cols, &mut want, Epilogue::Accumulate);
        want
    }
}

fn check_forward(c: &Case, epi_kind: u8) {
    check_forward_sized(c, epi_kind, fwd_scratch_len(c.batch, c.ch, c.g));
}

/// [`check_forward`] with `stage_len` floats of staging scratch.
fn check_forward_sized(c: &Case, epi_kind: u8, stage_len: usize) {
    let epi = c.epilogue(epi_kind);
    let want = c.ref_forward(&c.input, epi);
    let pre = Pre::new(c.ch, c.batch as u64);
    let (raw, act) = pre.materialize(c);
    let want_pre = c.ref_forward(&act, epi);
    let mut got = vec![0.0f32; want.len()];
    let mut stage = garbage(stage_len);
    on_every_body(|body| {
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
    let want = c.ref_dx();
    // Direct (fused): no dcols matrix, per-participant band scratch.
    let mut got = vec![0.0f32; want.len()];
    let mut scratch = garbage(scratch_len);
    on_every_body(|body| {
        conv3x3_backward_dx_into(&c.dy, &c.kernel, c.ch, c.g, &mut got, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "dx, {body}");
    });
}

/// A nonzero starting kernel gradient: every dK is checked accumulating
/// onto one, so the `Accumulate` semantics are covered too.
fn dk_start(c: &Case, seed: u64) -> Vec<f32> {
    let mut s = NormalSampler::seed_from(seed ^ 0xdead);
    Tensor::randn(c.kernel.dims(), 0.0, 1.0, &mut s).into_vec()
}

fn check_dk(c: &Case, seed: u64) {
    let dk0 = dk_start(c, seed);
    let want = c.ref_dk(&dk0, &c.input);
    let pre = Pre::new(c.ch, seed);
    let (raw, act) = pre.materialize(c);
    let want_pre = c.ref_dk(&dk0, &act);
    let mut scratch = garbage(dk_scratch_len(c.ch, c.out_ch, c.g));
    on_every_body(|body| {
        let mut got = dk0.clone();
        conv3x3_backward_dk_pre_into(&c.dy, &c.input, None, c.g, &mut got, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "dK, {body}");
        // With the prologue, against the materialized activation.
        let mut got = dk0.clone();
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

/// A random 1×1 stride-1 unpadded case.
fn case_1x1(batch: usize, ch: usize, out_ch: usize, h: usize, w: usize, seed: u64) -> Case {
    let g = ConvGeom {
        h,
        w,
        kh: 1,
        kw: 1,
        stride: 1,
        pad: 0,
    };
    make_case_in(g, batch, ch, out_ch, seed)
}

/// The 1×1 GEMMs on the image layout against the lowering: forward under
/// all four epilogues (`Accumulate` onto the random starting output), dx
/// over a buffer of stale values, and dK accumulating onto a nonzero
/// start — on every GEMM body the host has, against one reference.
fn check_1x1(c: &Case, seed: u64) {
    let want_fwd: Vec<Vec<f32>> = (0..4)
        .map(|kind| c.ref_forward(&c.input, c.epilogue(kind)))
        .collect();
    let want_dx = c.ref_dx();
    let dk0 = dk_start(c, seed);
    let want_dk = c.ref_dk(&dk0, &c.input);
    on_every_body(|body| {
        for (kind, want) in want_fwd.iter().enumerate() {
            let mut got = c.out0.data().to_vec();
            conv1x1_forward_into(&c.input, &c.kernel, &mut got, c.epilogue(kind as u8));
            assert_eq!(bits(&got), bits(want), "1×1 forward epi={kind}, {body}");
        }
        let mut got = garbage(c.input.numel());
        conv1x1_backward_dx_into(&c.dy, &c.kernel, &mut got);
        assert_eq!(bits(&got), bits(&want_dx), "1×1 dx, {body}");
        let mut got = dk0.clone();
        conv1x1_backward_dk_into(&c.dy, &c.input, &mut got);
        assert_eq!(bits(&got), bits(&want_dk), "1×1 dK, {body}");
    });
}

proptest! {
    /// Channel counts up to 9 and `h·w` from 1 to 56, below and above the
    /// GEMM's 16-column panel.
    #[test]
    fn conv1x1_bitwise_vs_im2col(
        batch in 1usize..4,
        ch in 1usize..10,
        out_ch in 1usize..10,
        h in 1usize..8,
        w in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        check_1x1(&case_1x1(batch, ch, out_ch, h, w, seed), seed);
    }

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
/// batch=1, ch=1, out_ch that are not a multiple of either channel block
/// (4 at 8 lanes, 8 at 16), and rows at each width's edges.
#[test]
fn degenerate_geometries_bitwise() {
    for (batch, ch, out_ch, h, w, pad) in [
        (1, 1, 1, 1, 1, 1),   // 1×1 input, pad 1 → 1×1 output, all-edge taps
        (1, 1, 5, 1, 1, 1),   // OCB remainder of 1
        (2, 3, 4, 1, 5, 1),   // single-row images
        (2, 3, 4, 5, 1, 1),   // single-column images
        (1, 2, 3, 3, 3, 0),   // pad 0 → 1×1 output from the interior only
        (1, 1, 1, 2, 2, 2),   // pad 2: output wider than the input
        (3, 2, 6, 9, 9, 1),   // ow=9: vector span + scalar remainder lanes
        (2, 2, 5, 3, 29, 1),  // ow=29: a 16-pixel span, an 8, an overlapped 8
        (1, 3, 4, 4, 40, 1),  // ow=40: two 16-pixel spans and an exact 8
        (1, 2, 9, 2, 16, 1),  // ow=16: one 16-lane span; an 8-block and a 1
        (2, 3, 12, 3, 17, 1), // ow=17: a 16-lane span, one backed up 15 lanes
        (1, 2, 7, 2, 15, 1),  // ow=15: under 16 lanes, the 8-lane body runs
        (1, 1, 8, 3, 24, 0),  // pad 0, ow=22: a 16-lane span backed up 10
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
/// enough for the vector spans and on rows narrower than one (`ow < 8`,
/// the one-lane body),
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
            let (stage_len, dx_len) = (fwd_scratch_len(9, ch, c.g), dx_scratch_len(9, ch, out_ch));
            rayon::set_thread_cap(run_cap);
            check_forward_sized(&c, 1, stage_len);
            check_dx_sized(&c, dx_len);
            rayon::set_thread_cap(prev);
        }
    }
}

/// The lowered dx stores each `oc`-ascending chain, then scatters it onto
/// a zeroed image: `0.0 + chain`. Here every product underflows, so every
/// chain ends at `−0.0`, and the image must still read `+0.0` — a dx GEMM
/// that stored its chains would keep the sign.
#[test]
fn conv1x1_dx_underflow_comes_out_positive_zero() {
    let mut c = case_1x1(2, 3, 5, 4, 5, 31);
    c.dy.data_mut().fill(-1e-30);
    c.kernel.data_mut().fill(1e-30);
    let want = c.ref_dx();
    assert!(
        want.iter().all(|v| v.to_bits() == 0),
        "the oracle reads +0.0"
    );
    let mut got = garbage(c.input.numel());
    conv1x1_backward_dx_into(&c.dy, &c.kernel, &mut got);
    assert_eq!(bits(&got), bits(&want));
}

/// `resnet_lite`'s widening conv at training shape: 16 → 32 channels on
/// 16×16 planes, past `PAR_THRESHOLD` so each image's GEMM runs on the
/// pool, and a batch of 3 whose dK must be one chain over every image —
/// one GEMM per image adding its finished chain would round differently.
#[test]
fn conv1x1_training_shape_bitwise() {
    check_1x1(&case_1x1(3, 16, 32, 16, 16, 77), 77);
}
