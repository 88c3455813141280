//! Direct (implicit-GEMM) kernels for 3×3 stride-1 convolution.
//!
//! Lowering a convolution to GEMM through im2col materializes every 3×3
//! patch as a row — a 9× blow-up of the input that is pure memory traffic
//! (written once by im2col, streamed once by the GEMM's pack, then dead).
//! The kernels here compute the same sums straight from the image tensor:
//! the "column matrix" exists only implicitly, one L1-resident band at a
//! time. Every 3×3 convolution of `small_cnn` and `resnet_lite` runs here;
//! the one 1×1 runs as GEMMs on the image layout
//! ([`crate::ops::conv1x1_forward_into`]). im2col/col2im are no route at
//! all: they are the reference the property tests compare against
//! (`crates/tensor/tests/im2col`).
//!
//! ## Kernel structure
//!
//! * **forward** — each image is staged once into a zero-padded copy
//!   (`[ch, h+2p, w+2p]`, caller scratch), which makes *every* output
//!   column vectorizable and every tap an unconditional in-bounds load,
//!   at every width. The copy lives in a *slot*, one slot per pool
//!   participant (see "Scratch" below). A
//!   vector row kernel covers a row with 16-pixel spans — 2 vectors × 4
//!   output channels = 8 independent FMA chains at 8 lanes, 1 vector × 8
//!   channels × 2 rows = 16 at 16 lanes (fewer than 8 leave two FMA ports
//!   at 4-cycle latency idle; the second row cuts the 16-lane tile's
//!   loads per FMA, see `fwd_rows`) — and finishes it with one-vector spans, the
//!   final one overlapping the previous span when the row is not a whole
//!   number of vectors (recomputed lanes produce identical bits and are
//!   skipped at write-back, so even the `Accumulate` epilogue is safe). A
//!   row narrower than a 16-lane vector runs the 8-lane body, one
//!   narrower than 8 the one-lane body the portable tier runs (one-pixel
//!   spans × 4 channels). An interior-only span would collapse to
//!   all-scalar at `w ≤ 8`.
//! * **backward/dK** — the GEMM `dyᵀ · cols` is tiled by *bands* of 32
//!   column rows: each band is materialized into L1-sized scratch, then a
//!   register tile (4 output channels × 2 vectors at 8 lanes, 8 × 1 at 16:
//!   16 patch columns either way; 4 × 1 column at one lane) loads the
//!   running accumulator once, FMAs all band rows, and stores it back —
//!   instead of streaming the whole `out_ch × patch` accumulator through
//!   memory for every output pixel.
//! * **backward/dx** — per image, bands of 32 gradient-column rows are
//!   computed with a register tile (4 rows × 2 vectors = 16 patch columns
//!   at 8 lanes, on every vector tier; 4 rows × 1 column at one lane)
//!   against a zero-padded copy of the kernel, then scattered in col2im
//!   order.
//!
//! **One body per tile, dispatched by tier.** Each call reads
//! [`isa::tier`] once, on the calling thread, and runs the widest body the
//! host has: AVX-512F, then AVX2+FMA, then portable (`crate::isa` has the
//! argument why the width cannot move a bit). The forward rows, the dK
//! band tile and the dx band tile are each one source body, generic over
//! the vector type (`isa::Lanes`: `F32x16`, `F32x8`, or the portable
//! tier's one-lane `F32x1`) and `#[inline(always)]`. Per vector width a
//! thin `#[target_feature]` entry point (`fwd_image_avx2`,
//! `fwd_image_avx512`, `dk_bands_avx2`, `dk_bands_avx512`,
//! `dx_bands_avx2`) instantiates it, so the lane methods compile into the
//! entry point with no call left; the portable tier calls the `F32x1`
//! instance bare. There is no second, scalar copy of any tile.
//!
//! **Codegen rules.** The vector tiles are written so that they compile to
//! the register-resident FMA chains above, with nothing spilled between
//! FMAs:
//!
//! * *A compile-time tile width.* The forward span and the dK band tile
//!   are generic over their channel count `NOC`, the dx tile over its row
//!   count. The block loop (`fwd_blocks`, `dk_blocks`) dispatches once per
//!   channel block, to its width's block (`Lanes::OCB`) for a full block
//!   and to the remainder's count for the last, and every block runs the
//!   one monomorphised body. A runtime count (`take(noc)`) leaves the
//!   accumulators an array in memory, spilled to the stack between FMAs.
//! * *Hoisted rows.* A block's weight rows (forward) and the band's dy
//!   rows (dK, dx) become raw pointers before the tap loop, so a broadcast
//!   is one load from a base register and a constant offset (folded into
//!   the FMA as an embedded broadcast at 16 lanes).
//! * *One assert per call, then raw loads.* Each tile opens with one
//!   `assert!` covering every index its loops form: the buffer lengths,
//!   and for a forward span its row and column bounds. After that it
//!   loads and stores through raw pointers, and no slice indexing is left
//!   inside a tap loop. Each raw access names that assert in its `SAFETY`
//!   comment.
//!
//! ## Scratch: one slot per participant, not per image
//!
//! The forward staging copy and the dx band live in per-thread *slots*:
//! [`fwd_scratch_len`] and [`dx_scratch_len`] size `min(batch,
//! rayon::current_threads())` of them, and the parallel per-image loop
//! runs on at most that many threads, each image in the slot of the
//! participant that claimed it (`for_each_participant` in the vendored
//! pool: two images that run at the same time never share an index, and
//! the images are still claimed one at a time, so the split balances
//! itself). A batch of 32 on one thread stages through one 74 KB slot
//! instead of 32 of them (2.37 MB at 16 ch × 32²). The kernels take the
//! slot count from the scratch they are handed, not from the pool, so a
//! thread cap changed between sizing and calling costs parallelism, never
//! a shared slot. Slots are padded to a cache line apart, so neighbours
//! never false-share.
//!
//! A slot's zero border is written once per call ([`zero_border`]);
//! [`pack_padded_image`] then only overwrites the interior, image after
//! image. The interior is fully rewritten by every image, so what the
//! previous image left there is never read.
//!
//! ## Bit-identity contract
//!
//! Every output element is produced by the **same fused-multiply-add chain
//! in the same order** as the im2col+GEMM route, so results are
//! *bit-identical*, not approximately equal — switching paths cannot
//! perturb a DST trajectory:
//!
//! * **forward** — `out[b][oc][oy][ox]` reduces over the patch index
//!   `p = (c*3 + ky)*3 + kx` ascending, exactly the GEMM's k-order for
//!   `cols · Kᵀ`. Padded taps are **not skipped**: they contribute
//!   `fma(0.0, k, acc)` via the staged image's literal zeros, just as the
//!   materialized column row contains a literal `0.0`.
//! * **backward/dx** — each column-row gradient `dcols[r][p]` reduces over
//!   `oc` ascending (the GEMM's k-order for `dy · K`; padded kernel
//!   columns only feed padded scratch columns that are never read back),
//!   then scatters onto the image in the reference `col2im_into`'s exact
//!   iteration order.
//! * **backward/dK** — each `dK[oc][p]` reduces over the GEMM row index
//!   `(b, oy, ox)` ascending (the k-order of `dyᵀ · cols`): the register
//!   tile loads the running value, continues the chain through one band,
//!   stores it back, and the total is added to the existing gradient only
//!   once the full chain is done — matching the GEMM's `Accumulate`
//!   epilogue, which also adds a *finished* tile.
//!
//! Lanes of every width compute the same bits, the one-lane `mul_add`
//! included (IEEE-754 specifies one rounding for fused multiply-add). An
//! epilogue is either the GEMM write-back's scalar expression or a lane op
//! proven equal to it (see "Write-back"). The property tests
//! (`conv_direct_props.rs`) enforce all of this bitwise against the im2col
//! reference.
//!
//! ## Write-back
//!
//! A whole span (no lane skipped) is written vector-wide under `Store`,
//! `Bias` and `Accumulate`, at every width (at one lane, `Lanes::add` is
//! the scalar `+` itself). Everything else goes lane by lane through
//! `apply_epi`, which holds the scalar expressions of the GEMM's
//! write-back: backed-up spans and `BiasRelu`. The vector lanes are
//! bit-identical to `apply_epi`:
//!
//! * `Store` writes the accumulator's bits unchanged.
//! * `Bias` is `v + bias[oc]` and `Accumulate` is `out + v` (`*o += v`).
//!   Each is one IEEE-754 addition, issued as `vaddps` with the operands
//!   in the scalar expression's order. Addition is correctly rounded, so a
//!   non-NaN result depends on the operand values alone, and `vaddps` on a
//!   `ymm` or a `zmm` computes per lane what `addss` computes. Signed zeros are part of
//!   that: under round-to-nearest `+0 + −0 = +0` and `−0 + −0 = −0` on
//!   both routes. A NaN operand gives NaN on both routes, and with one NaN
//!   operand x86 returns that NaN quieted, scalar and vector alike. Only a
//!   lane whose two operands are both NaN could keep a different payload,
//!   because Rust leaves the surviving payload unspecified on either route
//!   (the GEMM's own write-back included). The accumulator is NaN only
//!   when the input or the kernel holds a NaN or an infinity.
//! * `BiasRelu` stays scalar. `f32::max(−0.0, 0.0)` may return either zero
//!   (IEEE `maxNum` and Rust both leave it open), while `vmaxps` returns
//!   its second operand, so no lane op is proven equal to it.
//!
//! `conv_direct_props` holds all four epilogues to the im2col reference on
//! every body the host has, with `±0.0` and NaN bias lanes and starting
//! outputs.
//!
//! ## Prologue: the pre-activation unit's BN→ReLU, applied while staging
//!
//! ResNetV2 feeds every 3×3 convolution `relu(bn(x))`. Materialized, that
//! is two more tensors per unit (`x_hat` for BN backward, the activated
//! tensor as the convolution's cached input) plus a byte mask, and three
//! more passes over the activation. The `*_pre_into` entry points take the
//! raw `x` and a [`BnRelu`] — per-channel `μ`, `inv_std`, `γ`, `β` — and
//! the one staging pass both the forward and the dK kernel already make
//! (`pack_padded_image`) writes `max(0, γ·((x−μ)·inv_std)+β)` where it
//! used to copy `x`. Nothing downstream of staging knows: the row kernels,
//! the band fill and the padded zeros are untouched, so the chain-order
//! argument above carries over word for word. The plain entry points are
//! the same body with no prologue.
//!
//! **Why recomputing is bit-identical to materializing.** The value staged
//! for an element is a pure function of five `f32`s — `x` and its
//! channel's four constants — evaluated by one expression,
//! [`BnReluChannel::apply`]: subtract, multiply, multiply, add, `max`.
//!
//! * *Same expression.* The standalone `BatchNorm` computes `x_hat` and
//!   `γ·x̂+β` through the same two methods ([`BnReluChannel::x_hat`],
//!   [`BnReluChannel::affine`]), and the standalone `Relu` is the same
//!   `f32::max(·, 0.0)`; the backward recompute in `vc-nn` calls them
//!   again. There is no second spelling to drift.
//! * *No contraction.* Each step is an individually rounded IEEE-754
//!   operation. Rust never fuses `a * b + c` into an FMA on its own (only
//!   an explicit `mul_add` does), and vectorizing an elementwise loop
//!   changes how many elements go through an instruction, not what the
//!   instruction computes per element.
//! * *The mask needs no storage.* `Relu` records `v > 0` of its input
//!   `v = γ·x̂+β` and backward keeps `dy` where it holds. Recomputing `v`
//!   from `x` gives the same `v`, hence the same comparison.
//! * *NaN.* A NaN `x` (or statistic) makes `v` NaN on both routes.
//!   `f32::max(NaN, 0.0)` is `0.0` and `NaN > 0.0` is false — the same
//!   call and the same comparison on the same operand, so forward stages
//!   `0.0` and backward masks the gradient either way.
//! * *−0.0.* `v` can be `−0.0`, and IEEE `maxNum` leaves the sign of
//!   `max(−0.0, 0.0)` to the implementation. That is harmless here for
//!   one reason only: both routes make the *same call on the same bits*
//!   — there is no path on which one route sees `v` and the other a
//!   separately rounded copy of it — and `−0.0 > 0.0` is false exactly
//!   like `0.0 > 0.0`. The oracle tests feed both zeros through both
//!   routes and compare `to_bits()`.
//!
//! The padded border is literal zeros with or without a prologue: the
//! reference pads the *activated* tensor, it does not activate a padded
//! one (`max(0, β)` is not zero).
//!
//! ## Selection
//!
//! The kernels assert their geometry (3×3, stride 1, any padding). `vc_nn`'s
//! `Conv2d` accepts that geometry and 1×1 stride 1 pad 0 (which runs
//! [`crate::ops::conv1x1_forward_into`] and its gradients) and panics at
//! build time on any other, so each geometry has one route and there is
//! no switch. The lowered route exists only in the tests, as the oracle.

use crate::isa::{self, F32x1, Lanes, Tier};
#[cfg(target_arch = "x86_64")]
use crate::isa::{F32x16, F32x8};
use crate::ops::{ConvGeom, Epilogue, PAR_THRESHOLD};
use crate::tensor::Tensor;
use rayon::prelude::*;

#[doc(hidden)]
pub use crate::bench_compat::{
    conv3x3_backward_dk_into, conv3x3_backward_dx_into, conv3x3_forward_into,
};

/// Pixels in the widest forward span at any width: the size of the
/// lane-by-lane write-back buffer.
const SPAN_MAX: usize = 16;

/// Rows per backward band: 32 column rows × a padded patch row fit in L1
/// for training-shaped channel counts, and give the register tiles a long
/// enough FMA run to amortize their accumulator load/store.
const BAND: usize = 32;

/// Geometry the direct kernels handle: 3×3, stride 1, any symmetric pad.
fn supports(geom: &ConvGeom) -> bool {
    geom.kh == 3 && geom.kw == 3 && geom.stride == 1
}

/// Patch rows in backward scratch are padded to a multiple of 16 floats so
/// the 16-wide register tiles never need a remainder loop; the pad columns
/// hold zeros and are never read back.
fn patch_pad(patch: usize) -> usize {
    patch.div_ceil(16) * 16
}

/// Staging slots a call over `batch` images is sized for: one per pool
/// participant, never more than there are images.
fn slots(batch: usize) -> usize {
    batch.min(rayon::current_threads())
}

/// Scratch length (in floats) callers must provide to
/// [`conv3x3_forward_pre_into`]: one cache-line-padded zero-padded image
/// copy per participant — `min(batch, rayon::current_threads())` slots —
/// so parallel images never share a line of scratch.
pub fn fwd_scratch_len(batch: usize, ch: usize, geom: ConvGeom) -> usize {
    slots(batch) * fwd_slot(ch, geom)
}

fn fwd_slot(ch: usize, geom: ConvGeom) -> usize {
    let (ph, pw) = (geom.h + 2 * geom.pad, geom.w + 2 * geom.pad);
    (ch * ph * pw).div_ceil(16) * 16 + 16
}

/// Scratch length (in floats) callers must provide to
/// [`conv3x3_dx_into`]: a zero-padded kernel copy (shared,
/// read-only) plus one cache-line-padded band slot per participant —
/// `min(batch, rayon::current_threads())` slots.
pub fn dx_scratch_len(batch: usize, ch: usize, out_ch: usize) -> usize {
    out_ch * patch_pad(ch * 9) + slots(batch) * dx_slot(ch, out_ch)
}

fn dx_slot(ch: usize, out_ch: usize) -> usize {
    let pp = patch_pad(ch * 9);
    (BAND * pp + BAND * out_ch).div_ceil(16) * 16 + 16
}

/// Scratch length (in floats) callers must provide to
/// [`conv3x3_backward_dk_pre_into`]: a padded image copy, one column band, one
/// transposed dy band and the padded `out_ch × patch` accumulator.
pub fn dk_scratch_len(ch: usize, out_ch: usize, geom: ConvGeom) -> usize {
    let (ph, pw) = (geom.h + 2 * geom.pad, geom.w + 2 * geom.pad);
    let pp = patch_pad(ch * 9);
    ch * ph * pw + BAND * pp + BAND * out_ch + out_ch * pp
}

/// Per-call geometry bundle threaded through the kernels.
#[derive(Clone, Copy)]
struct Ctx {
    ch: usize,
    h: usize,
    w: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    patch: usize,
}

fn ctx_for(ch: usize, geom: ConvGeom) -> Ctx {
    Ctx {
        ch,
        h: geom.h,
        w: geom.w,
        pad: geom.pad,
        oh: geom.out_h(),
        ow: geom.out_w(),
        patch: ch * 9,
    }
}

/// The tier a forward call runs: the widest the thread may use whose
/// vector fits in an output row (a narrower row takes the next tier down).
fn fwd_tier(ow: usize) -> Tier {
    let cap = isa::tier();
    Tier::ALL
        .into_iter()
        .find(|t| *t <= cap && t.lanes() <= ow)
        .unwrap_or(Tier::Portable)
}

/// The pre-activation prologue: batch-norm statistics and affine of the
/// layer feeding this convolution, applied per input channel — followed by
/// `max(0, ·)` — while an image is staged (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct BnRelu<'a> {
    /// Per-channel mean the input is centred on.
    pub mean: &'a [f32],
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: &'a [f32],
    /// Per-channel scale.
    pub gamma: &'a [f32],
    /// Per-channel shift.
    pub beta: &'a [f32],
}

/// One channel of a [`BnRelu`]. Its three methods are the only spelling of
/// the batch-norm expressions in library code — the standalone layer, the
/// staging pass and the backward recompute all call them — so "same
/// expression" holds by construction, not by review. (The property tests
/// spell them out once more, on purpose.)
#[derive(Clone, Copy, Debug)]
pub struct BnReluChannel {
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
}

impl BnRelu<'_> {
    /// Channel `c`'s constants.
    #[inline(always)]
    pub fn channel(&self, c: usize) -> BnReluChannel {
        BnReluChannel {
            mean: self.mean[c],
            inv_std: self.inv_std[c],
            gamma: self.gamma[c],
            beta: self.beta[c],
        }
    }

    fn assert_channels(&self, ch: usize) {
        let lens = [
            self.mean.len(),
            self.inv_std.len(),
            self.gamma.len(),
            self.beta.len(),
        ];
        assert_eq!(lens, [ch; 4], "prologue channel count");
    }
}

impl BnReluChannel {
    /// The normalized value `x̂ = (x − μ)·inv_std`.
    #[inline(always)]
    pub fn x_hat(&self, x: f32) -> f32 {
        (x - self.mean) * self.inv_std
    }

    /// The pre-activation `γ·x̂ + β`: a multiply, then an add — Rust never
    /// contracts the pair into a fused multiply-add.
    #[inline(always)]
    pub fn affine(&self, x_hat: f32) -> f32 {
        self.gamma * x_hat + self.beta
    }

    /// What the staging pass writes for input `x`: `max(0, γ·x̂ + β)`.
    #[inline(always)]
    pub fn apply(&self, x: f32) -> f32 {
        self.affine(self.x_hat(x)).max(0.0)
    }
}

/// Writes the border of a staging slot `[ch, h+2p, w+2p]`: the literal
/// zeros around each plane are the same explicit zero operands the im2col
/// matrix materializes for padded taps. They stay literal zeros with or
/// without a prologue, because the reference pads the *activated* tensor.
/// Once per slot per call: [`pack_padded_image`] never writes there.
fn zero_border(ctx: Ctx, dst: &mut [f32]) {
    let (ph, pw) = (ctx.h + 2 * ctx.pad, ctx.w + 2 * ctx.pad);
    let (top, bottom) = (ctx.pad * pw, (ctx.pad + ctx.h) * pw);
    for plane in dst[..ctx.ch * ph * pw].chunks_exact_mut(ph * pw) {
        plane[..top].fill(0.0);
        plane[bottom..].fill(0.0);
        for row in plane[top..bottom].chunks_exact_mut(pw) {
            row[..ctx.pad].fill(0.0);
            row[ctx.pad + ctx.w..].fill(0.0);
        }
    }
}

/// Stages one image into the interior of a slot whose border
/// [`zero_border`] has written. With a prologue the interior holds
/// `pre.apply(x)` instead of `x`.
fn pack_padded_image(x: &[f32], pre: Option<BnRelu<'_>>, ctx: Ctx, dst: &mut [f32]) {
    let (ph, pw) = (ctx.h + 2 * ctx.pad, ctx.w + 2 * ctx.pad);
    for c in 0..ctx.ch {
        let chan = pre.map(|p| p.channel(c));
        for y in 0..ctx.h {
            let src = &x[(c * ctx.h + y) * ctx.w..][..ctx.w];
            let row = &mut dst[c * ph * pw + (y + ctx.pad) * pw + ctx.pad..][..ctx.w];
            match chan {
                None => row.copy_from_slice(src),
                Some(chan) => {
                    for (d, &v) in row.iter_mut().zip(src) {
                        *d = chan.apply(v);
                    }
                }
            }
        }
    }
}

/// Applies the GEMM epilogue to one finished accumulator value — the same
/// scalar expressions as `ops::write_back`, so fused bias/ReLU rounding and
/// NaN/sign behaviour are identical across paths by construction.
#[inline(always)]
fn apply_epi(o: &mut f32, v: f32, oc: usize, epi: Epilogue<'_>) {
    match epi {
        Epilogue::Store => *o = v,
        Epilogue::Accumulate => *o += v,
        Epilogue::Bias(bias) => *o = v + bias[oc],
        Epilogue::BiasRelu(bias) => *o = (v + bias[oc]).max(0.0),
    }
}

// ------------------------------------------------------------------ forward

/// Direct 3×3 stride-1 conv forward: `input [batch, ch, h, w]` ×
/// `kernel [out_ch, ch*9]` → `out [batch, out_ch, oh, ow]`, writing the
/// image layout directly (the lowered route needs a separate
/// rows→images permutation pass; this one doesn't). With `pre` it
/// convolves `pre.apply(input)`, which exists only as each image's staged
/// copy. `scratch` holds [`fwd_scratch_len`]`(batch, ch, geom)` floats;
/// any whole number of slots, at least one, works — the call runs on at
/// most as many threads as `scratch` has slots.
pub fn conv3x3_forward_pre_into(
    input: &Tensor,
    pre: Option<BnRelu<'_>>,
    kernel: &[f32],
    geom: ConvGeom,
    out: &mut [f32],
    epi: Epilogue<'_>,
    scratch: &mut [f32],
) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "conv3x3 expects [batch, ch, h, w]");
    let (batch, ch, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(supports(&geom), "conv3x3 geometry {geom:?}");
    assert_eq!((h, w), (geom.h, geom.w));
    geom.validate().expect("invalid conv geometry");
    if let Some(pre) = &pre {
        pre.assert_channels(ch);
    }
    let ctx = ctx_for(ch, geom);
    let out_ch = kernel.len() / ctx.patch;
    assert_eq!(kernel.len(), out_ch * ctx.patch, "kernel patch width");
    let plane = out_ch * ctx.oh * ctx.ow;
    assert_eq!(out.len(), batch * plane, "conv3x3 output buffer length");
    if out.is_empty() {
        return;
    }
    let slot = fwd_slot(ch, geom);
    let parallel = batch > 1 && out.len() >= PAR_THRESHOLD;
    let n_slots = if parallel {
        (scratch.len() / slot).min(batch)
    } else {
        1
    };
    assert!(scratch.len() >= slot, "forward scratch length");
    for s in scratch.chunks_exact_mut(slot).take(n_slots) {
        zero_border(ctx, s);
    }
    let x = input.data();
    let img_len = ch * h * w;
    let tier = fwd_tier(ctx.ow);
    let base = scratch.as_mut_ptr() as usize;
    let run = |who: usize, b: usize, dst: &mut [f32]| {
        // Safety: `who` < n_slots, and no two images that run at the same
        // time share a participant index, so each writes a slot no one else
        // touches meanwhile; slots are disjoint and the scratch borrow
        // outlives the blocking parallel call.
        let pimg =
            unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(who * slot), slot) };
        pack_padded_image(&x[b * img_len..(b + 1) * img_len], pre, ctx, pimg);
        fwd_image(pimg, kernel, out_ch, ctx, dst, epi, tier);
    };
    if parallel {
        out.par_chunks_mut(plane)
            .enumerate()
            .for_each_participant(n_slots, |who, (b, dst)| run(who, b, dst));
    } else {
        for (b, dst) in out.chunks_mut(plane).enumerate() {
            run(0, b, dst);
        }
    }
}

/// All output rows of one staged image at `tier` (at most what
/// [`fwd_tier`] returned for this call): a vector width's entry point, or
/// the same body one lane wide.
fn fwd_image(
    pimg: &[f32],
    kd: &[f32],
    out_ch: usize,
    ctx: Ctx,
    dst: &mut [f32],
    epi: Epilogue<'_>,
    tier: Tier,
) {
    match tier {
        // SAFETY: `fwd_tier` returned at most the host's tier, and only a
        // tier whose vector fits in a row.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { fwd_image_avx512(pimg, kd, out_ch, ctx, dst, epi) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { fwd_image_avx2(pimg, kd, out_ch, ctx, dst, epi) },
        // SAFETY: `F32x1` needs no target feature and fits in any row.
        _ => unsafe { fwd_blocks::<F32x1, 1, 1>(pimg, kd, out_ch, ctx, dst, epi) },
    }
}

/// The 8-lane forward: 4-channel blocks of 2-vector, one-row spans. Needs
/// `ow ≥ 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fwd_image_avx2(
    pimg: &[f32],
    kd: &[f32],
    out_ch: usize,
    ctx: Ctx,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    fwd_blocks::<F32x8, 2, 1>(pimg, kd, out_ch, ctx, dst, epi);
}

/// The 16-lane forward: 8-channel blocks of 1-vector, two-row spans.
/// Needs `ow ≥ 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fwd_image_avx512(
    pimg: &[f32],
    kd: &[f32],
    out_ch: usize,
    ctx: Ctx,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    fwd_blocks::<F32x16, 1, 2>(pimg, kd, out_ch, ctx, dst, epi);
}

/// Every `L::OCB`-channel block of one staged image, each dispatched once
/// to the body monomorphised for its channel count (`out_ch % OCB` for the
/// last; arms past `L::OCB` are dead at that width and compile away).
#[inline(always)]
unsafe fn fwd_blocks<L: Lanes, const V: usize, const R: usize>(
    pimg: &[f32],
    kd: &[f32],
    out_ch: usize,
    ctx: Ctx,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    for oc0 in (0..out_ch).step_by(L::OCB) {
        match (out_ch - oc0).min(L::OCB) {
            1 => fwd_rows::<L, V, R, 1>(pimg, kd, ctx, oc0, dst, epi),
            2 => fwd_rows::<L, V, R, 2>(pimg, kd, ctx, oc0, dst, epi),
            3 => fwd_rows::<L, V, R, 3>(pimg, kd, ctx, oc0, dst, epi),
            4 => fwd_rows::<L, V, R, 4>(pimg, kd, ctx, oc0, dst, epi),
            5 => fwd_rows::<L, V, R, 5>(pimg, kd, ctx, oc0, dst, epi),
            6 => fwd_rows::<L, V, R, 6>(pimg, kd, ctx, oc0, dst, epi),
            7 => fwd_rows::<L, V, R, 7>(pimg, kd, ctx, oc0, dst, epi),
            8 => fwd_rows::<L, V, R, 8>(pimg, kd, ctx, oc0, dst, epi),
            _ => unreachable!("a block holds 1 to 8 channels"),
        }
    }
}

/// Rows of one `NOC`-channel block over the padded image, at width `L`,
/// `R` output rows at a time (the rows left over one by one). Every tap is an
/// in-bounds unaligned load (zeros come from the staging pad), so there is
/// no scalar edge handling at all. Runs under its entry point's target
/// features (see `isa`), which need `ow ≥ L::N`.
///
/// The tile shape per width: a full block runs `NOC · V · R` independent
/// FMA chains, at least the 8 that two FMA ports at 4-cycle latency need
/// to stay busy — 4 channels × 2 vectors × 1 row at 8 lanes, 8 × 1 × 2 at
/// 16. The 16-lane tile takes two rows because it is otherwise bound by
/// loads, not FMAs: an unaligned 64-byte load always straddles two cache
/// lines, and one vector feeds only 8 FMAs beside 8 weight broadcasts.
/// A second row reuses every broadcast: 0.75 load µops per FMA, not 1.25.
#[inline(always)]
unsafe fn fwd_rows<L: Lanes, const V: usize, const R: usize, const NOC: usize>(
    pimg: &[f32],
    kd: &[f32],
    ctx: Ctx,
    oc0: usize,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    let mut oy = 0;
    while oy + R <= ctx.oh {
        fwd_row_group::<L, V, R, NOC>(pimg, kd, ctx, oy, oc0, dst, epi);
        oy += R;
    }
    // Rows the groups of `R > 1` left over, one at a time (`R` is a
    // constant, so a one-row tile compiles no second copy).
    while R > 1 && oy < ctx.oh {
        fwd_row_group::<L, V, 1, NOC>(pimg, kd, ctx, oy, oc0, dst, epi);
        oy += 1;
    }
}

/// Output rows `oy..oy + R` of one block: `V`-vector spans (16 pixels at
/// either width), then one-vector spans for what is left, the last one
/// backed up to end exactly at the row edge: its overlapped lanes
/// re-compute identical bits and are skipped at write-back, so no element
/// is written twice.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal kernel plumbing: pixel coordinates are scalars by design
unsafe fn fwd_row_group<L: Lanes, const V: usize, const R: usize, const NOC: usize>(
    pimg: &[f32],
    kd: &[f32],
    ctx: Ctx,
    oy: usize,
    oc0: usize,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    debug_assert!(ctx.ow >= L::N);
    let mut done = 0usize; // pixels [0, done) already written
    while done + V * L::N <= ctx.ow {
        fwd_span::<L, V, R, NOC>(pimg, kd, ctx, oy, done, 0, oc0, dst, epi);
        done += V * L::N;
    }
    while done < ctx.ow {
        let ox0 = done.min(ctx.ow - L::N);
        fwd_span::<L, 1, R, NOC>(pimg, kd, ctx, oy, ox0, done - ox0, oc0, dst, epi);
        done = ox0 + L::N;
    }
}

/// One span of `V · L::N` output pixels from `ox0` in each of the `R` rows
/// from `oy`, `NOC` channels: each output is its own `p`-ascending FMA
/// chain from zero, whatever the span's shape. Lanes below `skip` were
/// written by the previous span and are left alone.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal kernel plumbing: pixel coordinates are scalars by design
unsafe fn fwd_span<L: Lanes, const V: usize, const R: usize, const NOC: usize>(
    pimg: &[f32],
    kd: &[f32],
    ctx: Ctx,
    oy: usize,
    ox0: usize,
    skip: usize,
    oc0: usize,
    dst: &mut [f32],
    epi: Epilogue<'_>,
) {
    const { assert!(V * L::N <= SPAN_MAX) };
    let n = L::N;
    let pw = ctx.w + 2 * ctx.pad;
    let plane = (ctx.h + 2 * ctx.pad) * pw;
    // The one bounds check: `oy + R ≤ oh` puts tap rows oy..oy+R+2 inside
    // the padded height, `ox0 + V·N ≤ ow` puts tap columns ox0..ox0+V·N+2
    // inside the padded width, and the lengths cover the staged image, the
    // block's `NOC` weight rows and its `NOC` output planes.
    assert!(
        oy + R <= ctx.oh
            && ox0 + n * V <= ctx.ow
            && pimg.len() >= ctx.ch * plane
            && kd.len() >= (oc0 + NOC) * ctx.patch
            && dst.len() >= (oc0 + NOC) * ctx.oh * ctx.ow,
        "conv3x3 forward span out of bounds"
    );
    let krow: [*const f32; NOC] = std::array::from_fn(|jj| kd[(oc0 + jj) * ctx.patch..].as_ptr());
    let mut acc = [[[L::zero(); V]; R]; NOC];
    for c in 0..ctx.ch {
        // Padded row oy+ky holds input row oy+ky-pad; padded column
        // ox+kx holds input column ox+kx-pad — all taps in-bounds.
        // SAFETY: c < ch, oy + r + ky < ph and ox0 + kx + V·N ≤ pw by the
        // assert above, so every load stays inside `pimg`.
        let base = pimg.as_ptr().add(c * plane + oy * pw + ox0);
        for ky in 0..3 {
            for kx in 0..3 {
                let xv: [[L; V]; R] = std::array::from_fn(|r| {
                    let row = base.add((r + ky) * pw + kx);
                    std::array::from_fn(|v| L::loadu(row.add(n * v)))
                });
                let p = (c * 3 + ky) * 3 + kx;
                for (a, k) in acc.iter_mut().zip(&krow) {
                    // SAFETY: p < patch, and the assert above puts all
                    // `NOC` weight rows of the block inside `kd`.
                    let kv = L::splat(*k.add(p));
                    for (ar, xr) in a.iter_mut().zip(&xv) {
                        for (av, x) in ar.iter_mut().zip(xr) {
                            *av = L::fmadd(*x, kv, *av);
                        }
                    }
                }
            }
        }
    }
    // Vector write-back of a whole span: the same IEEE operation per lane
    // as `apply_epi`, operands in the same order (see "Write-back" in the
    // module docs). `BiasRelu` stays lane by lane.
    if skip == 0 && !matches!(epi, Epilogue::BiasRelu(_)) {
        for (jj, a) in acc.iter().enumerate() {
            let bias = match epi {
                Epilogue::Bias(b) => L::splat(b[oc0 + jj]),
                _ => L::zero(),
            };
            for (r, ar) in a.iter().enumerate() {
                // SAFETY: oc0 + jj < oc0 + NOC, oy + r < oh and
                // ox0 + V·N ≤ ow by the assert above, so all `V·N` lanes
                // are inside `dst`.
                let o = dst
                    .as_mut_ptr()
                    .add(((oc0 + jj) * ctx.oh + oy + r) * ctx.ow + ox0);
                for (v, &av) in ar.iter().enumerate() {
                    let o = o.add(n * v);
                    let out = match epi {
                        Epilogue::Store => av,
                        Epilogue::Accumulate => L::add(L::loadu(o), av),
                        Epilogue::Bias(_) => L::add(av, bias),
                        Epilogue::BiasRelu(_) => unreachable!("BiasRelu writes back lane by lane"),
                    };
                    out.storeu(o);
                }
            }
        }
        return;
    }
    // Lane by lane through `apply_epi`: backed-up spans and `BiasRelu`.
    for r in 0..R {
        let mut lanes = [[0.0f32; SPAN_MAX]; NOC];
        for (la, a) in lanes.iter_mut().zip(&acc) {
            for (v, av) in a[r].iter().enumerate() {
                // SAFETY: v·N + N ≤ V·N ≤ SPAN_MAX by the const assert.
                av.storeu(la.as_mut_ptr().add(n * v));
            }
        }
        for l in skip..n * V {
            for (jj, la) in lanes.iter().enumerate() {
                let o = &mut dst[((oc0 + jj) * ctx.oh + oy + r) * ctx.ow + ox0 + l];
                apply_epi(o, la[l], oc0 + jj, epi);
            }
        }
    }
}

// ---------------------------------------------------------------- backward

/// Materializes one im2col row branch-free from a staged image (explicit
/// zeros for padded taps come from its border): each `(c, ky)` pair is
/// three consecutive floats.
#[inline(always)]
fn fill_patch_row_padded(
    pimg: &[f32],
    ctx: Ctx,
    ph: usize,
    pw: usize,
    oy: usize,
    ox: usize,
    dst: &mut [f32],
) {
    let mut p = 0;
    for c in 0..ctx.ch {
        let base = c * ph * pw + oy * pw + ox;
        for ky in 0..3 {
            dst[p..p + 3].copy_from_slice(&pimg[base + ky * pw..][..3]);
            p += 3;
        }
    }
}

/// Scatters one gradient column row onto the image in
/// the reference `col2im_into`'s exact iteration order (`c, ky, kx`
/// ascending; out-of-bounds taps have no destination).
#[inline(always)]
fn scatter_row(img: &mut [f32], ctx: Ctx, oy: usize, ox: usize, drow: &[f32]) {
    let iy0 = oy as isize - ctx.pad as isize;
    let ix0 = ox as isize - ctx.pad as isize;
    let mut p = 0;
    for c in 0..ctx.ch {
        for ky in 0..3 {
            let iy = iy0 + ky as isize;
            let row_ok = iy >= 0 && iy < ctx.h as isize;
            for kx in 0..3 {
                let ix = ix0 + kx as isize;
                if row_ok && ix >= 0 && ix < ctx.w as isize {
                    img[(c * ctx.h + iy as usize) * ctx.w + ix as usize] += drow[p];
                }
                p += 1;
            }
        }
    }
}

/// Gathers one band of `dy` into row-major `[nb, out_ch]` order: within an
/// image, GEMM row `r` *is* output pixel `r`, so this is a strided
/// transpose of the `[out_ch, oh*ow]` plane.
#[inline(always)]
fn gather_dy_band(dyp: &[f32], ohw: usize, out_ch: usize, r0: usize, nb: usize, dyb: &mut [f32]) {
    for (ri, row) in dyb.chunks_mut(out_ch).take(nb).enumerate() {
        for (oc, v) in row.iter_mut().enumerate() {
            *v = dyp[oc * ohw + r0 + ri];
        }
    }
}

/// Direct input-gradient: `dy [batch, out_ch, oh, ow]` ×
/// `kernel [out_ch, ch*9]` → `dx [batch, ch, h, w]`, fusing the
/// `dy · K` GEMM with the col2im scatter so the `[rows, ch*9]` gradient
/// column matrix is never materialized — only one 32-row band per image
/// lives in scratch. `scratch` holds [`dx_scratch_len`]`(batch, ch,
/// out_ch)` floats; any whole number of band slots, at least one, works —
/// the call runs on at most as many threads as it has slots.
pub fn conv3x3_dx_into(
    dy: &Tensor,
    kernel: &[f32],
    ch: usize,
    geom: ConvGeom,
    dx: &mut [f32],
    scratch: &mut [f32],
) {
    let dims = dy.dims();
    assert_eq!(dims.len(), 4, "conv3x3 dy expects [batch, out_ch, oh, ow]");
    let (batch, out_ch) = (dims[0], dims[1]);
    assert!(supports(&geom), "conv3x3 geometry {geom:?}");
    let ctx = ctx_for(ch, geom);
    assert_eq!((dims[2], dims[3]), (ctx.oh, ctx.ow));
    assert_eq!(kernel.len(), out_ch * ctx.patch, "kernel dims");
    let img_len = ch * ctx.h * ctx.w;
    assert_eq!(dx.len(), batch * img_len, "dx buffer length");
    if dx.is_empty() {
        return;
    }
    let dyd = dy.data();
    let dy_plane = out_ch * ctx.oh * ctx.ow;
    let pp = patch_pad(ctx.patch);
    let slot = dx_slot(ch, out_ch);
    assert!(scratch.len() >= out_ch * pp + slot, "dx scratch length");
    let tier = isa::tier();
    let (kpad, slots) = scratch.split_at_mut(out_ch * pp);
    // Images in parallel once the output is past `PAR_THRESHOLD`.
    let parallel = batch > 1 && dx.len() >= PAR_THRESHOLD;
    let n_slots = if parallel {
        (slots.len() / slot).min(batch)
    } else {
        1
    };
    // Pad the kernel once, up front: the band tile loads whole tile
    // columns even past `patch`, and the zero columns only ever feed
    // scratch columns that are never read back.
    kpad.fill(0.0);
    for oc in 0..out_ch {
        kpad[oc * pp..][..ctx.patch].copy_from_slice(&kernel[oc * ctx.patch..][..ctx.patch]);
    }
    let kpad = &*kpad;
    let base = slots.as_mut_ptr() as usize;
    let run = |who: usize, b: usize, img: &mut [f32]| {
        // Safety: `who` < n_slots, and no two images that run at the same
        // time share a participant index, so each writes a slot no one else
        // touches meanwhile; slots are disjoint and the scratch borrow
        // outlives the blocking parallel call.
        let s = unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(who * slot), slot) };
        let dyp = &dyd[b * dy_plane..(b + 1) * dy_plane];
        let (dcols, dyb) = s.split_at_mut(BAND * pp);
        let dyb = &mut dyb[..BAND * out_ch];
        dx_image_banded(dyp, kpad, out_ch, ctx, pp, img, dcols, dyb, tier);
    };
    if parallel {
        dx.par_chunks_mut(img_len)
            .enumerate()
            .for_each_participant(n_slots, |who, (b, img)| run(who, b, img));
    } else {
        for (b, img) in dx.chunks_mut(img_len).enumerate() {
            run(0, b, img);
        }
    }
}

/// Banded dx for one image: compute a band of gradient column rows with
/// the register tile, then scatter them in global row order.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing
fn dx_image_banded(
    dyp: &[f32],
    kpad: &[f32],
    out_ch: usize,
    ctx: Ctx,
    pp: usize,
    img: &mut [f32],
    dcols: &mut [f32],
    dyb: &mut [f32],
    tier: Tier,
) {
    img.fill(0.0);
    let ohw = ctx.oh * ctx.ow;
    let mut r0 = 0;
    while r0 < ohw {
        let nb = BAND.min(ohw - r0);
        gather_dy_band(dyp, ohw, out_ch, r0, nb, dyb);
        match tier {
            // SAFETY: `tier` is at most the host's, and a vector tier has
            // AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 | Tier::Avx2 => unsafe { dx_bands_avx2(dyb, kpad, nb, out_ch, pp, dcols) },
            // SAFETY: `F32x1` needs no target feature.
            _ => unsafe { dx_rows::<F32x1, 1>(dyb, kpad, nb, out_ch, pp, dcols) },
        }
        for ri in 0..nb {
            let r = r0 + ri;
            scatter_row(
                img,
                ctx,
                r / ctx.ow,
                r % ctx.ow,
                &dcols[ri * pp..][..ctx.patch],
            );
        }
        r0 += nb;
    }
}

/// The 8-lane dx band, on every vector tier: 4-row × 2-vector tiles.
///
/// # Safety
///
/// The host has AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dx_bands_avx2(
    dyb: &[f32],
    kpad: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    dcols: &mut [f32],
) {
    dx_rows::<F32x8, 2>(dyb, kpad, nb, out_ch, pp, dcols);
}

/// Every row of one dx band at width `L`: 4-row tiles, then the rows left
/// over one at a time (a constant row count, so each compiles its own
/// register tile).
///
/// # Safety
///
/// The calling code runs under `L`'s target features (see `isa`).
#[inline(always)]
unsafe fn dx_rows<L: Lanes, const V: usize>(
    dyb: &[f32],
    kpad: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    dcols: &mut [f32],
) {
    let mut ri = 0;
    while ri + 4 <= nb {
        dx_tile::<L, V, 4>(dyb, kpad, ri, out_ch, pp, dcols);
        ri += 4;
    }
    while ri < nb {
        dx_tile::<L, V, 1>(dyb, kpad, ri, out_ch, pp, dcols);
        ri += 1;
    }
}

/// Band tile for dx: `Q` column rows from `ri` × `V` vectors of patch
/// columns held in registers, reducing over `oc` ascending. Each
/// `dcols[r][p]` is one contiguous FMA chain from zero — the GEMM's
/// k-order for `dy_rows · K`.
///
/// # Safety
///
/// The calling code runs under `L`'s target features (see `isa`); the
/// tile's own assert covers every index it forms.
#[inline(always)]
unsafe fn dx_tile<L: Lanes, const V: usize, const Q: usize>(
    dyb: &[f32],
    kpad: &[f32],
    ri: usize,
    out_ch: usize,
    pp: usize,
    dcols: &mut [f32],
) {
    let n = L::N;
    // The one bounds check: dy rows and column rows `ri..ri + Q`, `out_ch`
    // padded kernel rows, and `pp` a multiple of the `V·N`-column tile.
    assert!(
        pp.is_multiple_of(n * V)
            && dyb.len() >= (ri + Q) * out_ch
            && kpad.len() >= out_ch * pp
            && dcols.len() >= (ri + Q) * pp,
        "conv3x3 dx band out of bounds"
    );
    // SAFETY: ri + q < ri + Q, so row `ri + q` of `dyb` is inside it by
    // the assert; `oc < out_ch` below keeps each broadcast in its row.
    let rows: [*const f32; Q] = std::array::from_fn(|q| dyb.as_ptr().add((ri + q) * out_ch));
    let mut p0 = 0;
    while p0 < pp {
        let mut t = [[L::zero(); V]; Q];
        for oc in 0..out_ch {
            // SAFETY: oc < out_ch and p0 + V·N ≤ pp by the assert.
            let k = kpad.as_ptr().add(oc * pp + p0);
            let kv: [L; V] = std::array::from_fn(|v| L::loadu(k.add(n * v)));
            for (tq, row) in t.iter_mut().zip(&rows) {
                let dv = L::splat(*row.add(oc));
                for (tv, k) in tq.iter_mut().zip(&kv) {
                    *tv = L::fmadd(*k, dv, *tv);
                }
            }
        }
        for (q, tq) in t.iter().enumerate() {
            // SAFETY: ri + q < ri + Q and p0 + V·N ≤ pp by the assert.
            let d = dcols.as_mut_ptr().add((ri + q) * pp + p0);
            for (v, tv) in tq.iter().enumerate() {
                tv.storeu(d.add(n * v));
            }
        }
        p0 += n * V;
    }
}

/// Direct weight-gradient: `dkernel [out_ch, ch*9] += dyᵀ · cols`, reading
/// patches straight from `input` — one 32-row column band at a time in
/// L1-sized scratch, versus the whole `[rows, ch*9]` matrix the lowered
/// route keeps alive. With `pre` the columns are those of
/// `pre.apply(input)`: the staging pass recomputes the activated image the
/// forward convolved, bit for bit. The padded accumulator holds the
/// complete reduction before it is added to `dkernel`, matching the GEMM's
/// `Accumulate` epilogue, which also adds only finished tiles. `scratch`
/// must hold [`dk_scratch_len`]`(ch, out_ch, geom)` floats.
///
/// Serial by design: for training-shaped problems `out_ch ≤ 64`, the GEMM
/// this replaces had at most one row band in flight, so there is no
/// parallelism to lose.
pub fn conv3x3_backward_dk_pre_into(
    dy: &Tensor,
    input: &Tensor,
    pre: Option<BnRelu<'_>>,
    geom: ConvGeom,
    dkernel: &mut [f32],
    scratch: &mut [f32],
) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "conv3x3 expects [batch, ch, h, w]");
    let (batch, ch) = (dims[0], dims[1]);
    assert!(supports(&geom), "conv3x3 geometry {geom:?}");
    assert_eq!((dims[2], dims[3]), (geom.h, geom.w));
    if let Some(pre) = &pre {
        pre.assert_channels(ch);
    }
    let ctx = ctx_for(ch, geom);
    let out_ch = dy.dims()[1];
    assert_eq!(dy.dims(), &[batch, out_ch, ctx.oh, ctx.ow], "dy dims");
    assert_eq!(dkernel.len(), out_ch * ctx.patch, "dkernel length");
    assert!(
        scratch.len() >= dk_scratch_len(ch, out_ch, geom),
        "dk scratch length"
    );
    let (ph, pw) = (ctx.h + 2 * ctx.pad, ctx.w + 2 * ctx.pad);
    let pp = patch_pad(ctx.patch);
    let (pimg, rest) = scratch.split_at_mut(ch * ph * pw);
    let (band, rest) = rest.split_at_mut(BAND * pp);
    let (dyb, acc) = rest.split_at_mut(BAND * out_ch);
    let acc = &mut acc[..out_ch * pp];
    acc.fill(0.0);
    let xd = input.data();
    let dyd = dy.data();
    let img_len = ch * ctx.h * ctx.w;
    let ohw = ctx.oh * ctx.ow;
    let dy_plane = out_ch * ohw;
    let tier = isa::tier();
    zero_border(ctx, pimg);
    for b in 0..batch {
        pack_padded_image(&xd[b * img_len..(b + 1) * img_len], pre, ctx, pimg);
        let dyp = &dyd[b * dy_plane..(b + 1) * dy_plane];
        let mut r0 = 0;
        while r0 < ohw {
            let nb = BAND.min(ohw - r0);
            for ri in 0..nb {
                let r = r0 + ri;
                let row = &mut band[ri * pp..][..pp];
                fill_patch_row_padded(pimg, ctx, ph, pw, r / ctx.ow, r % ctx.ow, row);
                row[ctx.patch..].fill(0.0);
            }
            gather_dy_band(dyp, ohw, out_ch, r0, nb, dyb);
            let (band, dyb) = (&*band, &*dyb);
            match tier {
                // SAFETY: `tier` is at most the host's.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => unsafe { dk_bands_avx512(band, dyb, nb, out_ch, pp, acc) },
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => unsafe { dk_bands_avx2(band, dyb, nb, out_ch, pp, acc) },
                // SAFETY: `F32x1` needs no target feature.
                _ => unsafe { dk_blocks::<F32x1, 1>(band, dyb, nb, out_ch, pp, acc) },
            }
            r0 += nb;
        }
    }
    for oc in 0..out_ch {
        let arow = &acc[oc * pp..][..ctx.patch];
        for (d, &a) in dkernel[oc * ctx.patch..][..ctx.patch].iter_mut().zip(arow) {
            *d += a;
        }
    }
}

/// The 8-lane dK band: 4-channel blocks × 2 vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dk_bands_avx2(
    band: &[f32],
    dyb: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    acc: &mut [f32],
) {
    dk_blocks::<F32x8, 2>(band, dyb, nb, out_ch, pp, acc);
}

/// The 16-lane dK band: 8-channel blocks × 1 vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dk_bands_avx512(
    band: &[f32],
    dyb: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    acc: &mut [f32],
) {
    dk_blocks::<F32x16, 1>(band, dyb, nb, out_ch, pp, acc);
}

/// Every `L::OCB`-channel block of one band, dispatched as in
/// [`fwd_blocks`].
#[inline(always)]
unsafe fn dk_blocks<L: Lanes, const V: usize>(
    band: &[f32],
    dyb: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    acc: &mut [f32],
) {
    for oc0 in (0..out_ch).step_by(L::OCB) {
        match (out_ch - oc0).min(L::OCB) {
            1 => dk_band::<L, V, 1>(band, dyb, nb, out_ch, pp, oc0, acc),
            2 => dk_band::<L, V, 2>(band, dyb, nb, out_ch, pp, oc0, acc),
            3 => dk_band::<L, V, 3>(band, dyb, nb, out_ch, pp, oc0, acc),
            4 => dk_band::<L, V, 4>(band, dyb, nb, out_ch, pp, oc0, acc),
            5 => dk_band::<L, V, 5>(band, dyb, nb, out_ch, pp, oc0, acc),
            6 => dk_band::<L, V, 6>(band, dyb, nb, out_ch, pp, oc0, acc),
            7 => dk_band::<L, V, 7>(band, dyb, nb, out_ch, pp, oc0, acc),
            8 => dk_band::<L, V, 8>(band, dyb, nb, out_ch, pp, oc0, acc),
            _ => unreachable!("a block holds 1 to 8 channels"),
        }
    }
}

/// Band tile for dK: `NOC` output channels (one block, from `oc0`) × `V`
/// vectors of patch columns (16 at either width) held in registers; the
/// running accumulator is loaded once per band, continued through all band
/// rows (`r` ascending — the global GEMM k-order), and stored back. Runs
/// under its entry point's target features (see `isa`).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal kernel plumbing
unsafe fn dk_band<L: Lanes, const V: usize, const NOC: usize>(
    band: &[f32],
    dyb: &[f32],
    nb: usize,
    out_ch: usize,
    pp: usize,
    oc0: usize,
    acc: &mut [f32],
) {
    let n = L::N;
    // The one bounds check: `nb` band rows of `pp` columns (a multiple of
    // the `V·N`-column tile), `nb` dy rows of `out_ch` values, the block's
    // channels inside `out_ch`, and `out_ch` accumulator rows.
    assert!(
        pp.is_multiple_of(n * V)
            && band.len() >= nb * pp
            && dyb.len() >= nb * out_ch
            && oc0 + NOC <= out_ch
            && acc.len() >= out_ch * pp,
        "conv3x3 dK band out of bounds"
    );
    // Band row `ri`'s dy values for this block start at `dys + ri·out_ch`.
    let dys = dyb[oc0..].as_ptr();
    let mut p0 = 0;
    while p0 < pp {
        let mut t = [[L::zero(); V]; NOC];
        for (jj, tj) in t.iter_mut().enumerate() {
            // SAFETY: oc0 + jj < out_ch and p0 + V·N ≤ pp by the assert.
            let a = acc.as_ptr().add((oc0 + jj) * pp + p0);
            for (v, tv) in tj.iter_mut().enumerate() {
                *tv = L::loadu(a.add(n * v));
            }
        }
        for ri in 0..nb {
            // SAFETY: ri < nb and p0 + V·N ≤ pp by the assert.
            let x = band.as_ptr().add(ri * pp + p0);
            let xv: [L; V] = std::array::from_fn(|v| L::loadu(x.add(n * v)));
            // SAFETY: ri < nb and oc0 + jj < out_ch, so each broadcast
            // reads `dyb[ri·out_ch + oc0 + jj]`, inside it by the assert.
            let d = dys.add(ri * out_ch);
            for (jj, tj) in t.iter_mut().enumerate() {
                let dv = L::splat(*d.add(jj));
                for (tv, x) in tj.iter_mut().zip(&xv) {
                    *tv = L::fmadd(*x, dv, *tv);
                }
            }
        }
        for (jj, tj) in t.iter().enumerate() {
            // SAFETY: as for the load above.
            let a = acc.as_mut_ptr().add((oc0 + jj) * pp + p0);
            for (v, tv) in tj.iter().enumerate() {
                tv.storeu(a.add(n * v));
            }
        }
        p0 += n * V;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_gates_on_geometry() {
        let g3 = ConvGeom {
            h: 8,
            w: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert!(supports(&g3));
        assert!(!supports(&ConvGeom { stride: 2, ..g3 }));
        assert!(!supports(&ConvGeom { kh: 1, kw: 1, ..g3 }));
        assert!(!supports(&ConvGeom { kw: 5, ..g3 }));
    }

    #[test]
    fn scratch_slots_are_line_padded() {
        // Adjacent slots must be ≥ one cache line apart even for the
        // smallest shapes, so parallel images never false-share; there is
        // one per participant, never more than there are images.
        let g = ConvGeom {
            h: 1,
            w: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let threads = rayon::current_threads();
        assert!(fwd_slot(1, g) * 4 >= 9 * 4 + 64);
        assert_eq!(fwd_scratch_len(3, 2, g), 3.min(threads) * fwd_slot(2, g));
        assert_eq!(fwd_scratch_len(1, 2, g), fwd_slot(2, g));
        assert_eq!(fwd_scratch_len(0, 2, g), 0);
        assert!(dx_slot(1, 1) * 4 >= (BAND * 16 + BAND) * 4 + 64);
        assert_eq!(
            dx_scratch_len(3, 2, 5),
            5 * patch_pad(18) + 3.min(threads) * dx_slot(2, 5)
        );
    }

    #[test]
    fn patch_pad_is_16_aligned_cover() {
        assert_eq!(patch_pad(9), 16);
        assert_eq!(patch_pad(16), 16);
        assert_eq!(patch_pad(144), 144);
        for p in 1..300 {
            assert!(patch_pad(p) >= p && patch_pad(p).is_multiple_of(16));
        }
    }
}
