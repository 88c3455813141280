//! Blocked, pool-parallel linear algebra and the 1×1 convolution.
//!
//! The hot kernels of the DL substrate live here. All three matmul variants
//! route through one cache-blocked GEMM in Goto order (see `gemm`):
//!
//! * **k is blocked** by `KC`. B is packed once per (NC, KC) block into
//!   zero-padded micro-panels of `KC × NR` floats, k-major, so one
//!   micro-panel sits in L1 while every row tile of a band streams past it
//!   and the whole block (at most `B_BLOCK_FLOATS`) stays in L2. Pack
//!   scratch is cache-sized however large the weight matrix is. The
//!   block is packed inside its parallel job, each thread claiming
//!   micro-panels no one has claimed yet (`SharedB`), so no thread packs
//!   alone while the others wait.
//! * **A is packed** once per KC block per row band, `MR` rows to a
//!   micro-panel, and reused across every column of the block.
//! * **Two layouts per operand.** An operand whose k-runs are contiguous
//!   is read as image planes `[batch, ch, hw]` (k = `batch·hw`): a
//!   row-major A ([`matmul`]) or a transposed B ([`matmul_a_bt`]) is one
//!   image, the 1×1 convolution's kernel gradient is the real thing. Its
//!   packing interleaves a group of contiguous runs a panel row at a time,
//!   image span by image span. The other layout — a transposed A
//!   ([`matmul_at_b`]), a row-major B — copies contiguous rows of the
//!   panel.
//! * The **register tile** is one source body over `isa::Lanes`
//!   (`micro_tile`), set per tier: 8 rows × 32 columns at 16 lanes on
//!   AVX-512F (16 accumulators), 6 × 16 at 8 lanes on AVX2+FMA (12), and
//!   the AVX2 geometry one lane wide (`f32::mul_add`) on the portable tier.
//!   The tier is detected at runtime, with no special build flags.
//! * **Each output is one fused chain.** The tile reduces over `k` in fixed
//!   ascending order with fused multiply-adds — the order and rounding the
//!   scalar reference uses — and carries each output's `f32` accumulator
//!   from one k-block to the next unrounded by anything else: in the
//!   output itself for `Store`, `Bias` and `BiasRelu` (which overwrite it
//!   anyway, the epilogue applied after the last block), in thread-local
//!   carry scratch for `Accumulate` (whose epilogue adds the *finished*
//!   chain). `k ≤ KC` is one block. So results are **byte-identical** to
//!   the naive triple loop (the oracle in `tests/naive/`) on every tier and
//!   under any thread count: threads only decide *which* disjoint rows
//!   they produce, never the order within a sum. That invariant is what
//!   DST byte-identity rests on.
//! * An [`Epilogue`] is applied at accumulator write-back: plain store,
//!   accumulate (`+=`, for weight-gradient accumulation without a temp
//!   tensor), fused bias add, or fused bias+ReLU — used by `vc_nn` dense
//!   and conv forward passes so the bias/activation never costs an extra
//!   pass over the output.
//!
//! The inner loops are branch-free: skipping work on `a[i][k] == 0.0`
//! mispredicts on the dense activations this codebase produces and defeats
//! vectorization.
//!
//! Parallelism is over disjoint row bands of the output via the persistent
//! worker pool in the vendored `rayon` shim, for every operand layout. The
//! band height adapts to the thread cap (`row_block_for`): at 1 thread it
//! is the cache-friendly `ROW_BLOCK`, at higher caps it shrinks so every
//! thread sees several bands. A band packs its A into the slot of the pool
//! participant that claimed it, in an arena owned by the *submitting*
//! thread: worker threads never allocate, and two slots never share a
//! cache line.
//!
//! The 1×1 stride-1 convolution runs here too, on the image layout
//! ([`conv1x1_forward_into`] and its two gradients): its GEMMs read the
//! `[batch, ch, h·w]` planes through the same packing, with no column
//! matrix. The 3×3 convolutions run in [`crate::conv_direct`]. Neither
//! lowers through im2col: that is the test oracle, under
//! `crates/tensor/tests/`. The `_into` variants of every kernel write into
//! caller-provided buffers so the training workspace can run the whole
//! step without heap allocation.

use crate::isa::{self, F32x1, Lanes, Tier};
#[cfg(target_arch = "x86_64")]
use crate::isa::{F32x16, F32x8};
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Threshold (in output elements) below which kernels run serially; farming
/// tiny matrices out to the pool costs more than the multiply. Shared with
/// the direct conv path (`conv_direct`) so both make the same
/// serial-vs-parallel choice at a given problem size.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64;

/// Reduction depth of one k-block: a `KC × NR` B micro-panel is 32 KiB at
/// the 16-lane tile and 16 KiB at the 8-lane one, inside L1.
const KC: usize = 256;
/// Most floats of one packed (NC, KC) block of B (512 KiB, L2-resident
/// while every row band streams it): NC is the widest whole number of
/// micro-panels that fits, at least one.
const B_BLOCK_FLOATS: usize = 1 << 17;
/// Output rows per parallel task at thread cap 1, rounded down to whole
/// tiles (and the upper bound at any cap): a band's packed A, `ROW_BLOCK ×
/// KC` floats, stays in L2 while the B micro-panels pass through L1.
const ROW_BLOCK: usize = 64;
/// Row bands per thread the parallel driver aims for: enough slack for the
/// atomic-cursor self-balancing to absorb a slow thread, small enough that
/// per-band dispatch overhead stays negligible.
const BANDS_PER_THREAD: usize = 4;

/// Height of one row band for a tile of `mr` rows. Threads only decide
/// *which* disjoint bands they produce — band geometry never changes what
/// an output element computes — so this is free to depend on the live
/// thread cap without breaking bit-identity across caps.
fn row_block_for(m: usize, threads: usize, mr: usize) -> usize {
    let tallest = ROW_BLOCK / mr * mr;
    if threads <= 1 {
        return tallest;
    }
    let per = m.div_ceil(threads * BANDS_PER_THREAD);
    (per.div_ceil(mr) * mr).clamp(mr, tallest)
}

/// What the GEMM does with each finished accumulator tile.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// `out = acc`.
    Store,
    /// `out += acc` — weight-gradient accumulation (`dW += xᵀ·dy`).
    Accumulate,
    /// `out = acc + bias[j]` — fused dense/conv bias.
    Bias(&'a [f32]),
    /// `out = max(acc + bias[j], 0)` — fused bias + ReLU activation.
    BiasRelu(&'a [f32]),
}

impl<'a> Epilogue<'a> {
    /// A layer's forward epilogue: its bias, rectified when `relu`.
    pub fn bias(bias: &'a [f32], relu: bool) -> Self {
        if relu {
            Epilogue::BiasRelu(bias)
        } else {
            Epilogue::Bias(bias)
        }
    }

    /// Writes the finished chain `v` of output channel `c` (a GEMM's
    /// column, a convolution's output plane) into `o`. Every kernel's
    /// write-back goes through these four expressions, so fused bias/ReLU
    /// rounding and NaN/sign behaviour are the same on every path.
    #[inline(always)]
    pub(crate) fn apply(self, o: &mut f32, v: f32, c: usize) {
        match self {
            Epilogue::Store => *o = v,
            Epilogue::Accumulate => *o += v,
            Epilogue::Bias(bias) => *o = v + bias[c],
            Epilogue::BiasRelu(bias) => *o = (v + bias[c]).max(0.0),
        }
    }

    /// Whether the epilogue adds a bias: the part of it left to apply to
    /// a chain stored in place.
    fn has_bias(self) -> bool {
        matches!(self, Epilogue::Bias(_) | Epilogue::BiasRelu(_))
    }
}

/// The logical A operand: `A[i][p]`, `i < m`, `p < k`.
#[derive(Clone, Copy)]
enum AMat<'a> {
    /// Image planes `[batch, ch, hw]` over `p = b·hw + q`:
    /// `A[i][p] = d[((p / hw)·ch + i)·hw + p % hw]`. Row-major `[m, k]`
    /// storage is one image of `m` planes of length `k`.
    Planes { d: &'a [f32], ch: usize, hw: usize },
    /// Transposed view of row-major `[k, m]` storage:
    /// `A[i][p] = d[p*m + i]` (the `matmul_at_b` layout, never materialized).
    Trans { d: &'a [f32], m: usize },
}

/// The logical B operand: `B[p][j]`, `p < k`, `j < n`.
#[derive(Clone, Copy)]
enum BMat<'a> {
    /// Row-major `[k, n]` storage: `B[p][j] = d[p*n + j]`.
    RowMajor(&'a [f32]),
    /// Image planes `[batch, ch, hw]` over `p = b·hw + q`:
    /// `B[p][j] = d[((p / hw)·ch + j)·hw + p % hw]`. The transpose of
    /// row-major `[n, k]` storage (the `matmul_a_bt` layout) is one image
    /// of `n` planes of length `k`.
    Planes { d: &'a [f32], ch: usize, hw: usize },
}

/// Channel `i` of `[batch, ch, hw]` planes at `p0 .. p0+len`, a span
/// inside one image: one contiguous run.
fn plane_run(d: &[f32], (ch, hw): (usize, usize), i: usize, p0: usize, len: usize) -> &[f32] {
    let at = ((p0 / hw) * ch + i) * hw + p0 % hw;
    &d[at..at + len]
}

/// Calls `f(p, len)` for the spans of the k-block `pc .. pc+kc` that one
/// image of `hw` positions each holds, ascending.
fn image_spans(hw: usize, (pc, kc): (usize, usize), mut f: impl FnMut(usize, usize)) {
    let mut p = pc;
    while p < pc + kc {
        let len = (hw - p % hw).min(pc + kc - p);
        f(p, len);
        p += len;
    }
}

/// Interleaves `count` contiguous runs (`run(t)`, one float per panel row
/// each) into the first `count` lanes of a micro-panel of rows `width`
/// floats wide: `panel[p*width + t] = run(t)[p]`. Whole groups of `G` runs
/// are written a panel row at a time — `G` loads, one contiguous `G`-float
/// store — about twice as fast as writing one run at a time down the
/// panel, which the runs past the last whole group do.
fn interleave<'a, const G: usize>(
    panel: &mut [f32],
    width: usize,
    count: usize,
    run: impl Fn(usize) -> &'a [f32],
) {
    let whole = count / G * G;
    for t0 in (0..whole).step_by(G) {
        let runs: [&[f32]; G] = std::array::from_fn(|t| run(t0 + t));
        for (p, row) in panel.chunks_exact_mut(width).enumerate() {
            for (o, r) in row[t0..t0 + G].iter_mut().zip(&runs) {
                *o = r[p];
            }
        }
    }
    for t in whole..count {
        for (o, &v) in panel[t..].iter_mut().step_by(width).zip(run(t)) {
            *o = v;
        }
    }
}

// Pack scratch, thread-local to the *submitting* thread. Capacities persist
// across calls, so after the first step at each problem size the kernels
// allocate nothing. PACK_A is a slotted arena (one line-padded slot per pool
// participant — see `gemm`); PACK_B holds the current (NC, KC) block of B;
// CARRY holds `Accumulate`'s unfinished chains when `k > KC`. Worker
// threads touch none of them: they receive their part by pointer and never
// allocate.
thread_local! {
    static PACK_A: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
    static PACK_B: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
    static CARRY: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Packs micro-panel `(j0, nr)` of B — columns `j0 .. j0+nr`, `nr ≤ NR`
/// — over the `(pc, kc)` k-block into `panel`, `kc × NR` in k-major order,
/// zero-padding the lanes past `nr`: `panel[p*NR + jj] = B[pc + p][j0 + jj]`.
fn pack_b<const NR: usize>(
    b: BMat,
    n: usize,
    (j0, nr): (usize, usize),
    (pc, kc): (usize, usize),
    panel: &mut [f32],
) {
    debug_assert_eq!(panel.len(), kc * NR);
    if nr < NR {
        panel.fill(0.0);
    }
    match b {
        BMat::RowMajor(d) => {
            for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
                let at = (pc + p) * n + j0;
                if nr == NR {
                    // A whole panel's rows copy as fixed-size moves.
                    row.copy_from_slice(&d[at..at + NR]);
                } else {
                    row[..nr].copy_from_slice(&d[at..at + nr]);
                }
            }
        }
        BMat::Planes { d, ch, hw } => image_spans(hw, (pc, kc), |p, len| {
            let span = &mut panel[(p - pc) * NR..(p - pc + len) * NR];
            let run = |jj: usize| plane_run(d, (ch, hw), j0 + jj, p, len);
            interleave::<8>(span, NR, nr, run);
        }),
    }
}

/// The B micro-panels of one (NC, KC) block, packed by the participants
/// of the block's parallel job: each claims panels that no one has
/// claimed yet and packs them, then waits for the ones others are still
/// packing. A claimed panel is always being packed by a running
/// participant, so the wait is at most one panel's packing; a participant
/// that joins after every panel is claimed packs nothing.
struct SharedB {
    /// Base of the block's `panels × kc × NR` floats.
    base: usize,
    panels: usize,
    /// Next panel to claim.
    claimed: AtomicUsize,
    /// Panels finished; `Release` per panel, so reading `panels` here with
    /// `Acquire` sees every panel's floats.
    packed: AtomicUsize,
}

impl SharedB {
    /// The packed block, once every panel is in it.
    ///
    /// # Safety
    ///
    /// `base` holds `panels × kc × NR` floats that nothing else touches
    /// while the block's job runs, and `pack(jp, panel)` writes panel `jp`.
    unsafe fn ready<const NR: usize>(&self, kc: usize, pack: impl Fn(usize, &mut [f32])) -> &[f32] {
        let len = kc * NR;
        while self.claimed.load(Ordering::Relaxed) < self.panels {
            let jp = self.claimed.fetch_add(1, Ordering::Relaxed);
            if jp >= self.panels {
                break;
            }
            // SAFETY: the cursor hands out panel `jp` once, so this is
            // the only reference to its floats until it is counted packed.
            pack(
                jp,
                std::slice::from_raw_parts_mut((self.base as *mut f32).add(jp * len), len),
            );
            self.packed.fetch_add(1, Ordering::Release);
        }
        while self.packed.load(Ordering::Acquire) < self.panels {
            std::hint::spin_loop();
        }
        // SAFETY: every panel is written and published; from here on the
        // block is only read.
        std::slice::from_raw_parts(self.base as *const f32, self.panels * len)
    }
}

/// Packs rows `r0 .. r0+rows` × the `(pc, kc)` k-block of A into `rows.div_ceil(MR)` micro-panels, each `kc × MR`, zero-padding the
/// lanes of the ragged last one:
/// `apack[ip*kc*MR + p*MR + ii] = A[r0 + ip*MR + ii][pc + p]`.
fn pack_a<const MR: usize>(
    a: AMat,
    (r0, rows): (usize, usize),
    (pc, kc): (usize, usize),
    apack: &mut [f32],
) {
    debug_assert_eq!(apack.len(), rows.div_ceil(MR) * kc * MR);
    if kc == 0 {
        return;
    }
    if rows % MR != 0 {
        apack[rows / MR * kc * MR..].fill(0.0);
    }
    match a {
        AMat::Planes { d, ch, hw } => {
            for (ip, panel) in apack.chunks_exact_mut(kc * MR).enumerate() {
                let (i0, mr) = (r0 + ip * MR, MR.min(rows - ip * MR));
                image_spans(hw, (pc, kc), |p, len| {
                    let span = &mut panel[(p - pc) * MR..(p - pc + len) * MR];
                    let run = |ii: usize| plane_run(d, (ch, hw), i0 + ii, p, len);
                    interleave::<MR>(span, MR, mr, run);
                });
            }
        }
        AMat::Trans { d, m } => {
            for p in 0..kc {
                let src = &d[(pc + p) * m + r0..(pc + p) * m + r0 + rows];
                for (ip, chunk) in src.chunks(MR).enumerate() {
                    let at = ip * kc * MR + p * MR;
                    apack[at..at + chunk.len()].copy_from_slice(chunk);
                }
            }
        }
    }
}

/// A tier's register tile entry point (see [`micro_tile`]); its `MR × NR`
/// geometry is the driver's (`blocked`'s const parameters).
type Tile = unsafe fn(&[f32], &[f32], &mut [f32], usize, Chain);

/// Where a tile's chains start and where they go, in the buffer it is
/// handed: from zero or from the chains carried there, and stored there or
/// added to what it holds (`Accumulate`'s `out += acc`, one rounding per
/// element as the scalar `+=` does).
#[derive(Clone, Copy)]
struct Chain {
    carried: bool,
    add: bool,
}

/// The 16-lane tile: 8 rows of two vectors, 16 accumulators.
///
/// # Safety
///
/// The host has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_tile_avx512(apack: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, io: Chain) {
    micro_tile::<F32x16, 8, 2, 32>(apack, bpanel, c, ldc, io);
}

/// The 8-lane tile: 6 rows of two vectors, 12 accumulators — with the two
/// B vectors and the A broadcast, 15 of AVX2's 16 registers.
///
/// # Safety
///
/// The host has AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_tile_avx2(apack: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, io: Chain) {
    micro_tile::<F32x8, 6, 2, 16>(apack, bpanel, c, ldc, io);
}

/// The AVX2 tile's geometry one lane wide, on the portable tier.
///
/// # Safety
///
/// None beyond the tile's: `F32x1` needs no target feature.
unsafe fn micro_tile_portable(apack: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, io: Chain) {
    micro_tile::<F32x1, 6, 16, 16>(apack, bpanel, c, ldc, io);
}

/// The register tile over one k-block: `acc[ii][jj] = fma(apack[p][ii],
/// bpanel[p][jj], acc[ii][jj])` for `p` ascending — the deterministic
/// reduction order — in `MR × V` vectors of width `L`, on the `MR × NR`
/// block of `c` (row stride `ldc`) that `io` starts from and ends in.
///
/// Every update is a **fused** multiply-add. IEEE 754 specifies
/// `fusedMultiplyAdd` exactly (one rounding), so a `vfmadd` lane, scalar
/// `f32::mul_add` and the tests' naive reference loop all produce the same
/// bit pattern — the width and the tile can never change a result, only
/// its speed.
///
/// # Safety
///
/// The calling code runs under `L`'s target features (see `isa`); the
/// tile's own assert covers every pointer it forms.
#[inline(always)]
unsafe fn micro_tile<L: Lanes, const MR: usize, const V: usize, const NR: usize>(
    apack: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    io: Chain,
) {
    const { assert!(V * L::N == NR) };
    let k = apack.len() / MR;
    // The one bounds check: `k` steps of `MR` packed A values and `NR`
    // packed B values, and `MR` rows of `NR` floats at stride `ldc`.
    assert!(
        apack.len() == k * MR && bpanel.len() == k * NR && c.len() >= (MR - 1) * ldc + NR,
        "GEMM micro-tile panel lengths"
    );
    let cp = c.as_mut_ptr();
    // SAFETY (every `cp` offset): `ii < MR` and `v·N + N ≤ NR` by the
    // const assert, inside `c` by the assert.
    let mut acc = [[L::zero(); V]; MR];
    if io.carried {
        for (ii, row) in acc.iter_mut().enumerate() {
            for (v, cv) in row.iter_mut().enumerate() {
                *cv = L::loadu(cp.add(ii * ldc + L::N * v));
            }
        }
    }
    let (mut ap, mut bp) = (apack.as_ptr(), bpanel.as_ptr());
    for _ in 0..k {
        // SAFETY: fewer than `k` steps are behind, so `bp..bp + NR` and
        // `ap..ap + MR` are inside the panels by the assert.
        let mut b = [L::zero(); V];
        for (v, bv) in b.iter_mut().enumerate() {
            *bv = L::loadu(bp.add(L::N * v));
        }
        for (ii, row) in acc.iter_mut().enumerate() {
            let a = L::splat(*ap.add(ii));
            for (cv, bv) in row.iter_mut().zip(&b) {
                *cv = L::fmadd(a, *bv, *cv);
            }
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (ii, row) in acc.iter().enumerate() {
        for (v, cv) in row.iter().enumerate() {
            let p = cp.add(ii * ldc + L::N * v);
            let cv = if io.add {
                L::add(L::loadu(p), *cv)
            } else {
                *cv
            };
            cv.storeu(p);
        }
    }
}

/// Where a tile sits in a row-major buffer: its first element's index and
/// the buffer's row stride.
#[derive(Clone, Copy)]
struct At {
    at: usize,
    ld: usize,
}

/// Copies the valid `mr × nr` region of a tile from `src` into `dst`
/// (both row-major, each at its own [`At`]) through the epilogue.
fn write_back(
    src: &[f32],
    from: At,
    dst: &mut [f32],
    to: At,
    (mr, nr, j): (usize, usize, usize),
    epi: Epilogue<'_>,
) {
    for ii in 0..mr {
        let a = &src[from.at + ii * from.ld..from.at + ii * from.ld + nr];
        let orow = &mut dst[to.at + ii * to.ld..to.at + ii * to.ld + nr];
        for (jj, (o, &v)) in orow.iter_mut().zip(a).enumerate() {
            epi.apply(o, v, j + jj);
        }
    }
}

/// Adds a bias epilogue's bias (and ReLU) to the finished chains of a
/// tile that the micro-tile stored into `out` itself, through
/// [`Epilogue::apply`] as [`write_back`] does.
fn bias_in_place(
    out: &mut [f32],
    At { at, ld }: At,
    (mr, nr, j): (usize, usize, usize),
    epi: Epilogue<'_>,
) {
    for ii in 0..mr {
        for (jj, o) in out[at + ii * ld..at + ii * ld + nr].iter_mut().enumerate() {
            epi.apply(o, *o, j + jj);
        }
    }
}

/// The blocked GEMM: `out[m,n] ⊕= A[m,k] · B[k,n]` where `⊕` is the
/// epilogue. `out.len()` must be `m * n`. Reads the call's tier once, on
/// the submitting thread (so `isa::with_tier_cap` reaches the pool's
/// workers too), and runs that tier's tile.
fn gemm(a: AMat, b: BMat, m: usize, k: usize, n: usize, out: &mut [f32], epi: Epilogue<'_>) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let dims = (m, k, n);
    match isa::tier() {
        // SAFETY: the tier is at most the host's.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { blocked::<8, 32>(a, b, dims, out, epi, micro_tile_avx512) },
        // SAFETY: as above; a vector tier has AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { blocked::<6, 16>(a, b, dims, out, epi, micro_tile_avx2) },
        // SAFETY: the portable tile needs no target feature.
        _ => unsafe { blocked::<6, 16>(a, b, dims, out, epi, micro_tile_portable) },
    }
}

/// `gemm` at one tile geometry, in Goto order: for each (NC, KC) block
/// of B — columns outer, k ascending inside — one parallel job over the
/// row bands. A band packs its A for that k-block, then its participant
/// helps pack the block's B micro-panels ([`SharedB`]) and runs the band's
/// tiles, a B micro-panel outer and the band's row tiles inner. A chain
/// that is not finished after a k-block is carried (see the module docs).
///
/// Scratch is owned by the submitting thread: one A slot per pool
/// participant (not per band), each padded to whole 64-byte lines plus a
/// spacer line, so two slots never share a line however the arena's base
/// is aligned; B's block; and for `Accumulate` past one k-block, an
/// `m × NC` carry.
///
/// # Safety
///
/// `tile` is an `MR × NR` tile that runs on this host (its target
/// features are the host's).
unsafe fn blocked<const MR: usize, const NR: usize>(
    a: AMat,
    b: BMat,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
    epi: Epilogue<'_>,
    tile: Tile,
) {
    let parallel = m * n >= PAR_THRESHOLD && m > 1;
    let threads = if parallel {
        rayon::current_threads()
    } else {
        1
    };
    let band = row_block_for(m, threads, MR);
    let slots = threads.min(m.div_ceil(band));
    let kc_max = k.min(KC);
    let slot = (band.div_ceil(MR) * MR * kc_max).div_ceil(16) * 16 + 16;
    let nc = (B_BLOCK_FLOATS / (kc_max * NR).max(1)).max(1) * NR;
    let k_blocks = k.div_ceil(KC).max(1);
    let ldc = nc.min(n);
    let carried = k_blocks > 1 && matches!(epi, Epilogue::Accumulate);

    let mut bpack = PACK_B.with(|c| c.take());
    let mut arena = PACK_A.with(|c| c.take());
    let mut carry = CARRY.with(|c| c.take());
    let block = ldc.div_ceil(NR) * NR * kc_max;
    if bpack.len() < block {
        bpack.resize(block, 0.0);
    }
    if arena.len() < slots * slot {
        arena.resize(slots * slot, 0.0);
    }
    if carried && carry.len() < m * ldc {
        carry.resize(m * ldc, 0.0);
    }
    let arena_base = arena.as_mut_ptr() as usize;
    let carry_base = carry.as_mut_ptr() as usize;
    for jc in (0..n).step_by(nc) {
        let cols = nc.min(n - jc);
        for kb in 0..k_blocks {
            let (pc, first, last) = (kb * KC, kb == 0, kb + 1 == k_blocks);
            let kc = KC.min(k - pc);
            let shared_b = SharedB {
                base: bpack.as_mut_ptr() as usize,
                panels: cols.div_ceil(NR),
                claimed: AtomicUsize::new(0),
                packed: AtomicUsize::new(0),
            };
            let pack_panel = |jp: usize, panel: &mut [f32]| {
                let j0 = jc + jp * NR;
                pack_b::<NR>(b, n, (j0, NR.min(jc + cols - j0)), (pc, kc), panel);
            };
            out.par_chunks_mut(band * n)
                .enumerate()
                .for_each_participant(slots, |who, (bi, out_band)| {
                    let (r0, rows) = (bi * band, out_band.len() / n);
                    // SAFETY: participant `who < slots` owns slot `who`
                    // while it runs this band, and band `bi` owns carry
                    // rows `r0 .. r0+rows`; the arena and carry outlive
                    // the parallel call, which blocks until done.
                    let apack = std::slice::from_raw_parts_mut(
                        (arena_base as *mut f32).add(who * slot),
                        rows.div_ceil(MR) * MR * kc,
                    );
                    let carry_band = carried.then(|| {
                        std::slice::from_raw_parts_mut(
                            (carry_base as *mut f32).add(r0 * ldc),
                            rows * ldc,
                        )
                    });
                    pack_a::<MR>(a, (r0, rows), (pc, kc), apack);
                    // SAFETY: `bpack` holds the block and outlives the
                    // parallel call; only this job's participants touch it.
                    let bpack = shared_b.ready::<NR>(kc, &pack_panel);
                    band_tiles::<MR, NR>(
                        (apack, bpack, kc),
                        (out_band, n, jc, cols),
                        carry_band,
                        (first, last),
                        epi,
                        tile,
                    );
                });
        }
    }
    PACK_A.with(|c| c.set(arena));
    PACK_B.with(|c| c.set(bpack));
    CARRY.with(|c| c.set(carry));
}

/// One row band's tiles over one packed block: for each B micro-panel,
/// every `MR`-row tile of the band. A tile's chains start from zero on the
/// first k-block and from where they were carried after it; they go
/// through the epilogue after the last, and are carried otherwise — in
/// `carry` (rows × `ldc`, columns from the block's first) when given, in
/// `out` itself when not. A whole tile runs in place; a ragged one, and
/// `Accumulate`'s last block out of `carry`, run in a stack tile and are
/// copied out.
///
/// # Safety
///
/// `tile` is an `MR × NR` tile that runs on this host.
unsafe fn band_tiles<const MR: usize, const NR: usize>(
    (apack, bpack, kc): (&[f32], &[f32], usize),
    (out, n, jc, cols): (&mut [f32], usize, usize, usize),
    mut carry: Option<&mut [f32]>,
    (first, last): (bool, bool),
    epi: Epilogue<'_>,
    tile: Tile,
) {
    let rows = out.len() / n;
    let ldc = carry.as_ref().map_or(0, |c| c.len() / rows);
    let accumulate = matches!(epi, Epilogue::Accumulate);
    let carrying = carry.is_some();
    for jp in 0..cols.div_ceil(NR) {
        let (j, nr) = (jc + jp * NR, NR.min(cols - jp * NR));
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        for ip in 0..rows.div_ceil(MR) {
            let (i, mr) = (ip * MR, MR.min(rows - ip * MR));
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            let in_out = At {
                at: i * n + j,
                ld: n,
            };
            let in_carry = At {
                at: i * ldc + jp * NR,
                ld: ldc,
            };
            let (held, at) = match &mut carry {
                Some(c) => (&mut **c, in_carry),
                None => (&mut *out, in_out),
            };
            let io = Chain {
                carried: !first,
                add: false,
            };
            let whole = mr == MR && nr == NR;
            if whole && !(last && carrying) {
                // The chains run where they are held; a single block's
                // `Accumulate` adds them to `out` as they are stored.
                let add = last && accumulate;
                tile(
                    apanel,
                    bpanel,
                    &mut held[at.at..],
                    at.ld,
                    Chain { add, ..io },
                );
                if last && epi.has_bias() {
                    bias_in_place(out, in_out, (mr, nr, j), epi);
                }
                continue;
            }
            let mut acc = [[0.0f32; NR]; MR];
            let acc = acc.as_flattened_mut();
            let in_acc = At { at: 0, ld: NR };
            if !first {
                write_back(held, at, acc, in_acc, (mr, nr, j), Epilogue::Store);
            }
            tile(apanel, bpanel, acc, NR, io);
            let (dst, to, e) = if last {
                (&mut *out, in_out, epi)
            } else {
                (held, at, Epilogue::Store)
            };
            write_back(acc, in_acc, dst, to, (mr, nr, j), e);
        }
    }
}

/// Matrix multiplication `[m,k] x [k,n] -> [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(
        a.shape().matmul_compatible(b.shape()),
        "matmul shape mismatch: {} x {}",
        a.shape(),
        b.shape()
    );
    let (m, n) = (a.dims()[0], b.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    matmul_epi_into(a, b.data(), &mut out, Epilogue::Store);
    Tensor::from_vec(out, &[m, n])
}

/// `(m, k, n)` of `a` (`[m, k]`) times a `[k, n]` (or `[n, k]`) weight of
/// `b_len` floats into `out_len` floats; both lengths must fit exactly.
fn weight_dims(what: &str, a: &Tensor, b_len: usize, out_len: usize) -> (usize, usize, usize) {
    assert_eq!(a.shape().rank(), 2, "{what}: a is [m, k]");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b_len.checked_div(k).unwrap_or(out_len / m.max(1));
    assert_eq!(b_len, k * n, "{what}: weight length for k = {k}");
    assert_eq!(out_len, m * n, "{what} output buffer length");
    (m, k, n)
}

/// [`matmul`] against a row-major `[k, n]` weight `b`, into a
/// caller-provided buffer with a fused [`Epilogue`].
pub fn matmul_epi_into(a: &Tensor, b: &[f32], out: &mut [f32], epi: Epilogue<'_>) {
    let (m, k, n) = weight_dims("matmul", a, b.len(), out.len());
    gemm(
        AMat::Planes {
            d: a.data(),
            ch: m,
            hw: k,
        },
        BMat::RowMajor(b),
        m,
        k,
        n,
        out,
        epi,
    );
}

/// `a^T x b` without materializing the transpose: `[k,m]^T x [k,n] -> [m,n]`.
/// Used by dense-layer weight gradients (`dW = x^T · dy`).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = at_b_check(a, b);
    let mut out = vec![0.0f32; m * n];
    matmul_at_b_epi_into(a, b, &mut out, Epilogue::Store);
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul_at_b`] into a caller-provided buffer with a fused [`Epilogue`].
/// `Epilogue::Accumulate` turns this into `out += aᵀ·b`, the gradient
/// accumulation the dense and conv backward passes need.
pub fn matmul_at_b_epi_into(a: &Tensor, b: &Tensor, out: &mut [f32], epi: Epilogue<'_>) {
    let (m, n) = at_b_check(a, b);
    let k = a.dims()[0];
    assert_eq!(out.len(), m * n, "matmul_at_b output buffer length");
    gemm(
        AMat::Trans { d: a.data(), m },
        BMat::RowMajor(b.data()),
        m,
        k,
        n,
        out,
        epi,
    );
}

fn at_b_check(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_at_b inner dims {k} vs {k2}");
    (m, n)
}

/// `a x b^T`: `[m,k] x [n,k]^T -> [m,n]`. Used by dense-layer input
/// gradients (`dx = dy · W^T`) and conv forward (`cols · Kᵀ`).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!((a.shape().rank(), b.shape().rank()), (2, 2));
    let (m, n) = (a.dims()[0], b.dims()[0]);
    assert_eq!(a.dims()[1], b.dims()[1], "matmul_a_bt inner dims");
    let mut out = vec![0.0f32; m * n];
    matmul_a_bt_epi_into(a, b.data(), &mut out, Epilogue::Store);
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul_a_bt`] against a row-major `[n, k]` weight `b`, into a
/// caller-provided buffer with a fused [`Epilogue`].
pub fn matmul_a_bt_epi_into(a: &Tensor, b: &[f32], out: &mut [f32], epi: Epilogue<'_>) {
    let (m, k, n) = weight_dims("matmul_a_bt", a, b.len(), out.len());
    gemm(
        AMat::Planes {
            d: a.data(),
            ch: m,
            hw: k,
        },
        BMat::Planes { d: b, ch: n, hw: k },
        m,
        k,
        n,
        out,
        epi,
    );
}

/// Geometry of a 2-D convolution / pooling window over an input plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input height and width.
    pub h: usize,
    pub w: usize,
    /// Kernel height and width.
    pub kh: usize,
    pub kw: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Symmetric zero padding along both axes.
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after convolving.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width after convolving.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Validates the geometry (kernel fits in the padded input).
    pub fn validate(&self) -> Result<(), String> {
        if self.stride == 0 {
            return Err("stride must be positive".into());
        }
        if self.h + 2 * self.pad < self.kh || self.w + 2 * self.pad < self.kw {
            return Err(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh,
                self.kw,
                self.h + 2 * self.pad,
                self.w + 2 * self.pad
            ));
        }
        Ok(())
    }
}

/// `[batch, ch, h·w]`: the image tensor `x` seen as per-image channel
/// planes.
fn planes(x: &Tensor) -> (usize, usize, usize) {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "conv1x1 expects [batch, ch, h, w]");
    (dims[0], dims[1], dims[2] * dims[3])
}

/// Forward of a 1×1 stride-1 unpadded convolution on the image layout:
/// per image, the GEMM `y_b[oc][q] = Σ_c K[oc][c]·x_b[c][q]` of the kernel
/// `[out_ch, in_ch]` against the `[in_ch, h·w]` planes, into `out`
/// (`[batch, out_ch, h, w]`).
///
/// For this geometry the lowered column matrix is only the transpose of
/// `x`, so each element is the `c`-ascending chain from `+0.0` that
/// `cols · Kᵀ` computes, bit for bit (a fused multiply-add does not care
/// which factor comes first). `Bias` and `BiasRelu` add `bias[oc]` per
/// output channel, as the conv kernels' epilogues do, with the GEMM
/// write-back's expressions `acc + bias` and `(acc + bias).max(0.0)`;
/// `Store` and `Accumulate` are the GEMM's own.
pub fn conv1x1_forward_into(x: &Tensor, kernel: &[f32], out: &mut [f32], epi: Epilogue<'_>) {
    let (batch, ch, hw) = planes(x);
    let oc = kernel.len() / ch;
    assert_eq!(kernel.len(), oc * ch, "conv1x1 kernel is [out_ch, in_ch]");
    assert_eq!(out.len(), batch * oc * hw, "conv1x1 output buffer length");
    let gemm_epi = match epi {
        Epilogue::Bias(b) | Epilogue::BiasRelu(b) => {
            assert_eq!(b.len(), oc, "conv1x1 bias length");
            Epilogue::Store
        }
        other => other,
    };
    for (xb, yb) in x
        .data()
        .chunks_exact(ch * hw)
        .zip(out.chunks_exact_mut(oc * hw))
    {
        gemm(
            AMat::Planes {
                d: kernel,
                ch: oc,
                hw: ch,
            },
            BMat::RowMajor(xb),
            oc,
            ch,
            hw,
            yb,
            gemm_epi,
        );
        if epi.has_bias() {
            for (c, row) in yb.chunks_exact_mut(hw).enumerate() {
                row.iter_mut().for_each(|o| epi.apply(o, *o, c));
            }
        }
    }
}

/// Input gradient of [`conv1x1_forward_into`]: per image,
/// `dx_b[c][q] = Σ_oc K[oc][c]·dy_b[oc][q]`, overwriting `dx`
/// (`[batch, in_ch, h, w]`).
///
/// The lowered route stores the `oc`-ascending chain in a column matrix
/// and scatters it onto a zero-filled image, so it writes `0.0 + chain`:
/// a chain that ends at `−0.0` comes out `+0.0`. This zero-fills `dx` and
/// accumulates onto it for the same bits.
pub fn conv1x1_backward_dx_into(dy: &Tensor, kernel: &[f32], dx: &mut [f32]) {
    let (batch, oc, hw) = planes(dy);
    let ch = kernel.len() / oc;
    assert_eq!(kernel.len(), oc * ch, "conv1x1 kernel is [out_ch, in_ch]");
    assert_eq!(dx.len(), batch * ch * hw, "conv1x1 dx buffer length");
    dx.fill(0.0);
    for (dyb, dxb) in dy
        .data()
        .chunks_exact(oc * hw)
        .zip(dx.chunks_exact_mut(ch * hw))
    {
        gemm(
            AMat::Trans { d: kernel, m: ch },
            BMat::RowMajor(dyb),
            ch,
            oc,
            hw,
            dxb,
            Epilogue::Accumulate,
        );
    }
}

/// Kernel gradient of [`conv1x1_forward_into`]: `dk[oc][c] += Σ_(b,q)
/// dy[b][oc][q]·x[b][c][q]`, one GEMM over the whole batch.
///
/// Each element is one chain over `(b, q)` ascending, added to `dk` once
/// it is finished — what the lowered `dyᵀ · cols` with `Accumulate`
/// computes. A GEMM per image would add one finished chain per image and
/// round differently.
pub fn conv1x1_backward_dk_into(dy: &Tensor, x: &Tensor, dk: &mut [f32]) {
    let (batch, oc, hw) = planes(dy);
    let ch = x.dims()[1];
    assert_eq!(planes(x), (batch, ch, hw), "conv1x1 dy and x disagree");
    assert_eq!(dk.len(), oc * ch, "conv1x1 dk buffer length");
    gemm(
        AMat::Planes {
            d: dy.data(),
            ch: oc,
            hw,
        },
        BMat::Planes {
            d: x.data(),
            ch,
            hw,
        },
        oc,
        batch * hw,
        ch,
        dk,
        Epilogue::Accumulate,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::NormalSampler;
    use crate::{approx_eq, TEST_EPS};

    fn randt(dims: &[usize], seed: u64) -> Tensor {
        let mut s = NormalSampler::seed_from(seed);
        Tensor::randn(dims, 0.0, 1.0, &mut s)
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (m, n) = (t.dims()[0], t.dims()[1]);
        let d = t.data();
        Tensor::from_vec(
            (0..n * m).map(|k| d[(k % m) * n + k / m]).collect(),
            &[n, m],
        )
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = randt(&[5, 5], 1);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.data_mut()[i * 5 + i] = 1.0;
        }
        assert!(approx_eq(&matmul(&a, &eye), &a, TEST_EPS));
        assert!(approx_eq(&matmul(&eye, &a), &a, TEST_EPS));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = randt(&[40, 17], 4);
        let b = randt(&[40, 23], 5);
        let via_t = matmul(&transpose(&a), &b);
        assert!(approx_eq(&matmul_at_b(&a, &b), &via_t, 1e-3));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = randt(&[40, 17], 6);
        let b = randt(&[23, 17], 7);
        let via_t = matmul(&a, &transpose(&b));
        assert!(approx_eq(&matmul_a_bt(&a, &b), &via_t, 1e-3));
    }

    #[test]
    fn at_b_parallel_path_matches_transpose() {
        // Large enough to cross PAR_THRESHOLD: exercises the row-block
        // parallel path of the (previously serial) weight-gradient kernel.
        let a = randt(&[90, 130], 14);
        let b = randt(&[90, 75], 15);
        let via_t = matmul(&transpose(&a), &b);
        assert!(approx_eq(&matmul_at_b(&a, &b), &via_t, 1e-2));
    }

    #[test]
    fn epilogues_fuse_bias_and_relu() {
        let a = randt(&[9, 7], 11);
        let b = randt(&[7, 13], 12);
        let bias = randt(&[13], 13);
        let base = matmul(&a, &b);

        let mut with_bias = vec![0.0f32; 9 * 13];
        matmul_epi_into(&a, b.data(), &mut with_bias, Epilogue::Bias(bias.data()));
        let mut expect = base.clone();
        for row in expect.data_mut().chunks_exact_mut(13) {
            row.iter_mut().zip(bias.data()).for_each(|(y, b)| *y += b);
        }
        assert!(approx_eq(
            &Tensor::from_vec(with_bias.clone(), &[9, 13]),
            &expect,
            0.0
        ));

        let mut with_relu = vec![0.0f32; 9 * 13];
        matmul_epi_into(
            &a,
            b.data(),
            &mut with_relu,
            Epilogue::BiasRelu(bias.data()),
        );
        assert!(approx_eq(
            &Tensor::from_vec(with_relu, &[9, 13]),
            &Tensor::from_vec(expect.data().iter().map(|v| v.max(0.0)).collect(), &[9, 13]),
            0.0
        ));

        let mut acc = with_bias;
        matmul_epi_into(&a, b.data(), &mut acc, Epilogue::Accumulate);
        let expect_acc = Tensor::from_vec(
            expect
                .data()
                .iter()
                .zip(base.data())
                .map(|(x, y)| x + y)
                .collect(),
            &[9, 13],
        );
        assert!(approx_eq(
            &Tensor::from_vec(acc, &[9, 13]),
            &expect_acc,
            1e-5
        ));
    }

    #[test]
    fn degenerate_shapes() {
        // k = 0: the sum is empty, the output is all zeros.
        let c = matmul(&Tensor::zeros(&[3, 0]), &Tensor::zeros(&[0, 4]));
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        // m = 0 / n = 0: empty outputs.
        assert_eq!(
            matmul(&Tensor::zeros(&[0, 5]), &Tensor::zeros(&[5, 4])).numel(),
            0
        );
        assert_eq!(
            matmul(&Tensor::zeros(&[4, 5]), &Tensor::zeros(&[5, 0])).numel(),
            0
        );
        // 1×k and k×1: one fused chain, k ascending.
        let a = randt(&[1, 9], 16);
        let b = randt(&[9, 1], 17);
        let dot = (a.data().iter().zip(b.data())).fold(0.0f32, |acc, (x, y)| x.mul_add(*y, acc));
        assert_eq!(matmul(&a, &b).data(), &[dot]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn conv_geom_output_dims() {
        let g = ConvGeom {
            h: 16,
            w: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        let g2 = ConvGeom { stride: 2, ..g };
        assert_eq!((g2.out_h(), g2.out_w()), (8, 8));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn conv_geom_rejects_oversized_kernel() {
        let g = ConvGeom {
            h: 2,
            w: 2,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 0,
        };
        assert!(g.validate().is_err());
    }
}
