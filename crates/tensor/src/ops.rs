//! Blocked, pool-parallel linear algebra and the 1×1 convolution.
//!
//! The hot kernels of the DL substrate live here. All three matmul variants
//! route through one cache-blocked GEMM in the GotoBLAS style:
//!
//! * **B is packed** into zero-padded column panels of [`NR`] columns,
//!   k-major, so the microkernel streams it linearly — one *group* of
//!   panels (at most [`B_GROUP_FLOATS`]) at a time, with the group loop
//!   outermost: pack scratch stays cache-sized however large the weight
//!   matrix is, and every row quad reuses the group while it is hot.
//! * **A is packed** per 4-row quad into a `[k][`[`MR`]`]` micro-panel, so
//!   packing costs the same whether A is given row-major ([`matmul`]) or
//!   transposed ([`matmul_at_b`]). Each parallel row band packs into its
//!   own cache-line-separated slot of a scratch arena owned by the
//!   *submitting* thread (see [`gemm`]): worker threads never allocate, and
//!   two bands never share a line of pack scratch.
//! * The **microkernel** keeps an `MR × NR` register accumulator tile and
//!   reduces over `k` in fixed ascending order with fused multiply-adds —
//!   the same order and rounding the scalar reference uses — so results are
//!   **byte-identical** to the naive triple loop (the oracle in
//!   `tests/naive/`) and run-to-run deterministic
//!   under any thread count (each output element is one sequential fused
//!   `f32` chain; threads only decide *which* disjoint rows they produce,
//!   never the order within a sum). The tile is one source body over
//!   `isa::Lanes` (`micro_tile`): on any vector tier — detected at runtime,
//!   no special build flags — it runs 8 lanes wide as 256-bit `vfmadd`s,
//!   on the portable tier one lane wide as `f32::mul_add`, and both compute
//!   the identical bits. That invariant is what DST byte-identity rests on.
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
//! worker pool in the vendored `rayon` shim; `matmul_at_b` (the
//! weight-gradient path, previously serial) parallelizes the same way
//! because packing makes its transposed A layout a non-issue. The band
//! height adapts to the thread cap ([`row_block_for`]): at 1 thread it is
//! the cache-friendly [`ROW_BLOCK`], at higher caps it shrinks so every
//! thread sees several bands — the first `VC_THREADS` sweep showed the
//! fixed 64-row band leaving most of an 8-thread pool idle on the 128–512
//! row matrices training actually produces (m=256 is just 4 bands).
//!
//! The 1×1 stride-1 convolution runs here too, on the image layout
//! ([`conv1x1_forward_into`] and its two gradients): its GEMMs read the
//! `[batch, ch, h·w]` planes through the same packing, with no column
//! matrix. The 3×3 convolutions run in [`crate::conv_direct`]. Neither
//! lowers through im2col: that is the test oracle, under
//! `crates/tensor/tests/`. The `_into` variants of every kernel write into
//! caller-provided buffers so the training workspace can run the whole
//! step without heap allocation.

#[cfg(target_arch = "x86_64")]
use crate::isa::F32x8;
use crate::isa::{self, F32x1, Lanes, Tier};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Threshold (in output elements) below which kernels run serially; farming
/// tiny matrices out to the pool costs more than the multiply. Shared with
/// the direct conv path (`conv_direct`) so both make the same
/// serial-vs-parallel choice at a given problem size.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64;

/// Rows per register tile of the microkernel.
const MR: usize = 4;
/// Columns per register tile / packed B panel width: two 8-lane vectors per
/// row on AVX2, giving the kernel 8 independent FMA chains — enough to hide
/// the FMA latency and saturate both FMA ports.
const NR: usize = 16;
/// Output rows per parallel task at thread cap 1 (and the upper bound at
/// any cap — taller bands stop paying off once A rows stream from L2).
const ROW_BLOCK: usize = 64;
/// Row bands per thread the parallel driver aims for: enough slack for the
/// atomic-cursor self-balancing to absorb a slow thread, small enough that
/// per-band dispatch overhead stays negligible.
const BANDS_PER_THREAD: usize = 4;

/// Height of one parallel row band. Threads only decide *which* disjoint
/// bands they produce — band geometry never changes what an output element
/// computes — so this is free to depend on the live thread cap without
/// breaking bit-identity across caps.
fn row_block_for(m: usize, threads: usize) -> usize {
    if threads <= 1 {
        return ROW_BLOCK;
    }
    let per = m.div_ceil(threads * BANDS_PER_THREAD);
    (per.div_ceil(MR) * MR).clamp(MR, ROW_BLOCK)
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
}

/// The logical A operand: `A[i][p]`, `i < m`, `p < k`.
#[derive(Clone, Copy)]
enum AMat<'a> {
    /// Row-major `[m, k]` storage: `A[i][p] = d[i*k + p]`.
    RowMajor(&'a [f32]),
    /// Transposed view of row-major `[k, m]` storage:
    /// `A[i][p] = d[p*m + i]` (the `matmul_at_b` layout, never materialized).
    Trans { d: &'a [f32], m: usize },
    /// Image planes `[batch, ch, hw]` over `p = b·hw + q`:
    /// `A[i][p] = d[((p / hw)·ch + i)·hw + p % hw]`.
    Planes { d: &'a [f32], ch: usize, hw: usize },
}

/// The logical B operand: `B[p][j]`, `p < k`, `j < n`.
#[derive(Clone, Copy)]
enum BMat<'a> {
    /// Row-major `[k, n]` storage: `B[p][j] = d[p*n + j]`.
    RowMajor(&'a [f32]),
    /// Transposed view of row-major `[n, k]` storage:
    /// `B[p][j] = d[j*k + p]` (the `matmul_a_bt` layout).
    Trans { d: &'a [f32], k: usize },
    /// Image planes `[batch, ch, hw]` over `p = b·hw + q`:
    /// `B[p][j] = d[((p / hw)·ch + j)·hw + p % hw]`.
    Planes { d: &'a [f32], ch: usize, hw: usize },
}

/// Channel `i` of `[batch, ch, hw]` planes, image after image: the `p`
/// ascending sequence of a [`AMat::Planes`] row or a [`BMat::Planes`]
/// column.
fn plane_lane(d: &[f32], ch: usize, hw: usize, i: usize) -> impl Iterator<Item = &f32> {
    d.chunks_exact(ch * hw)
        .flat_map(move |img| &img[i * hw..(i + 1) * hw])
}

// Pack scratch, thread-local to the *submitting* thread. Capacities persist
// across calls, so after the first step at each problem size the kernels
// allocate nothing. PACK_A is a slotted arena (one line-padded `k × MR`
// slot per parallel row band — see `gemm`); PACK_B holds the current group
// of packed B panels. Worker threads touch neither: they receive their
// slot by pointer and never allocate.
thread_local! {
    static PACK_A: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
    static PACK_B: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Most floats of packed B held at once (1 MiB, L2-resident across the row
/// quads that stream it): a 3072×512 weight costs that much pack scratch
/// per submitting thread, not a 6 MiB mirror of itself, at the price of
/// re-packing A's quads once per group. A panel deeper than this
/// (`k > 16384`) is a group of its own.
const B_GROUP_FLOATS: usize = 1 << 18;

/// Packs columns `j0 .. j0+cols` of B into `cols.div_ceil(NR)` column
/// panels, each `k × NR` in k-major order, zero-padding the ragged last
/// panel: `bpack[jp*k*NR + p*NR + jj] = B[p][j0 + jp*NR + jj]`.
fn pack_b(b: BMat, k: usize, n: usize, j0: usize, cols: usize, bpack: &mut Vec<f32>) {
    bpack.clear();
    bpack.resize(cols.div_ceil(NR) * k * NR, 0.0);
    match b {
        BMat::RowMajor(d) => {
            for p in 0..k {
                let brow = &d[p * n + j0..p * n + j0 + cols];
                for (jp, chunk) in brow.chunks(NR).enumerate() {
                    let dst = &mut bpack[jp * k * NR + p * NR..jp * k * NR + p * NR + chunk.len()];
                    dst.copy_from_slice(chunk);
                }
            }
        }
        BMat::Trans { d, k: kk } => {
            debug_assert_eq!(k, kk);
            for j in 0..cols {
                let bcol = &d[(j0 + j) * k..(j0 + j + 1) * k]; // contiguous in p
                let (jp, jj) = (j / NR, j % NR);
                let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
                for (p, &v) in bcol.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
        }
        BMat::Planes { d, ch, hw } => {
            debug_assert_eq!(ch, n);
            for j in 0..cols {
                let (jp, jj) = (j / NR, j % NR);
                let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
                for (p, &v) in plane_lane(d, ch, hw, j0 + j).enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
        }
    }
}

/// Packs rows `i0 .. i0+mr` of A into a `[k][MR]` micro-panel, zero-padding
/// lanes past `mr`: `apack[p*MR + ii] = A[i0+ii][p]`.
fn pack_a(a: AMat, i0: usize, mr: usize, k: usize, apack: &mut [f32]) {
    debug_assert_eq!(apack.len(), k * MR);
    if mr < MR {
        apack.fill(0.0);
    }
    match a {
        AMat::RowMajor(d) => {
            for ii in 0..mr {
                let row = &d[(i0 + ii) * k..(i0 + ii + 1) * k];
                for (p, &v) in row.iter().enumerate() {
                    apack[p * MR + ii] = v;
                }
            }
        }
        AMat::Trans { d, m } => {
            for p in 0..k {
                let src = &d[p * m + i0..p * m + i0 + mr];
                apack[p * MR..p * MR + mr].copy_from_slice(src);
            }
        }
        AMat::Planes { d, ch, hw } => {
            for ii in 0..mr {
                for (p, &v) in plane_lane(d, ch, hw, i0 + ii).enumerate() {
                    apack[p * MR + ii] = v;
                }
            }
        }
    }
}

/// One `MR × NR` register tile at `tier` (the call's tier, read once by
/// [`gemm`] on the submitting thread, so `isa::with_tier_cap` reaches the
/// pool's workers too): the 8-lane entry point on any vector tier, the
/// same body one lane wide on the portable one.
#[inline(always)]
fn micro_kernel(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR], tier: Tier) {
    match tier {
        // SAFETY: `tier` is at most the host's, and a vector tier has AVX2
        // and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 | Tier::Avx2 => unsafe { micro_tile_avx2(apack, bpanel, acc) },
        // SAFETY: `F32x1` needs no target feature.
        _ => unsafe { micro_tile::<F32x1, NR>(apack, bpanel, acc) },
    }
}

/// The 8-lane tile, on every vector tier: two vectors per row.
///
/// # Safety
///
/// The host has AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_tile_avx2(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    micro_tile::<F32x8, 2>(apack, bpanel, acc);
}

/// The register tile: `acc[ii][jj] = fma(apack[p][ii], bpanel[p][jj],
/// acc[ii][jj])` from zero for `p` ascending — the deterministic reduction
/// order — in `MR × V` vectors of width `L`. At 8 lanes that is 8
/// independent FMA chains, enough to hide the ~4-cycle FMA latency.
///
/// Every update is a **fused** multiply-add. IEEE 754 specifies
/// `fusedMultiplyAdd` exactly (one rounding), so a `vfmadd` lane, scalar
/// `f32::mul_add` and the tests' naive reference loop all produce the same
/// bit pattern — the width can never change a result, only its speed.
///
/// # Safety
///
/// The calling code runs under `L`'s target features (see `isa`); the
/// tile's own assert covers every pointer it forms.
#[inline(always)]
unsafe fn micro_tile<L: Lanes, const V: usize>(
    apack: &[f32],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    const { assert!(V * L::N == NR) };
    let k = apack.len() / MR;
    // The one bounds check: `k` steps of `MR` packed A values and `NR`
    // packed B values.
    assert!(bpanel.len() == k * NR, "GEMM micro-tile panel lengths");
    let mut c = [[L::zero(); V]; MR];
    let (mut ap, mut bp) = (apack.as_ptr(), bpanel.as_ptr());
    for _ in 0..k {
        // SAFETY: fewer than `k` steps are behind, so `bp..bp + NR` and
        // `ap..ap + MR` are inside the panels by the assert.
        let b: [L; V] = std::array::from_fn(|v| L::loadu(bp.add(L::N * v)));
        for (ii, ci) in c.iter_mut().enumerate() {
            let a = L::splat(*ap.add(ii));
            for (cv, bv) in ci.iter_mut().zip(&b) {
                *cv = L::fmadd(a, *bv, *cv);
            }
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (ci, row) in c.iter().zip(acc.iter_mut()) {
        for (v, cv) in ci.iter().enumerate() {
            // SAFETY: `v·N + N ≤ NR` by the const assert.
            cv.storeu(row.as_mut_ptr().add(L::N * v));
        }
    }
}

/// Applies the epilogue to the valid `mr × nr` region of a finished tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal kernel plumbing: tile coordinates are scalars by design
fn write_back(
    acc: &[[f32; NR]; MR],
    out_block: &mut [f32],
    local_row: usize,
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    epi: Epilogue<'_>,
) {
    for ii in 0..mr {
        let orow = &mut out_block[(local_row + ii) * n + j0..(local_row + ii) * n + j0 + nr];
        match epi {
            Epilogue::Store => orow.copy_from_slice(&acc[ii][..nr]),
            Epilogue::Accumulate => {
                for (o, &v) in orow.iter_mut().zip(&acc[ii][..nr]) {
                    *o += v;
                }
            }
            Epilogue::Bias(bias) => {
                for (jj, o) in orow.iter_mut().enumerate() {
                    *o = acc[ii][jj] + bias[j0 + jj];
                }
            }
            Epilogue::BiasRelu(bias) => {
                for (jj, o) in orow.iter_mut().enumerate() {
                    *o = (acc[ii][jj] + bias[j0 + jj]).max(0.0);
                }
            }
        }
    }
}

/// Computes columns `j0 .. j0+cols` of rows `r0 .. r0+rows` of the output
/// into `out_block` (a `rows × n` slice), reading the packed group `bpack`
/// of those columns. `apack` is this band's private `k × MR` pack scratch
/// (a slot of the submitter's arena — see [`gemm`]).
#[allow(clippy::too_many_arguments)] // internal kernel plumbing: tile coordinates are scalars by design
fn gemm_block(
    a: AMat,
    bpack: &[f32],
    k: usize,
    n: usize,
    (j0, cols): (usize, usize),
    r0: usize,
    rows: usize,
    out_block: &mut [f32],
    epi: Epilogue<'_>,
    apack: &mut [f32],
    tier: Tier,
) {
    let mut iq = 0;
    while iq < rows {
        let mr = MR.min(rows - iq);
        pack_a(a, r0 + iq, mr, k, apack);
        for jp in 0..cols.div_ceil(NR) {
            let nr = NR.min(cols - jp * NR);
            let mut acc = [[0.0f32; NR]; MR];
            micro_kernel(
                apack,
                &bpack[jp * k * NR..(jp + 1) * k * NR],
                &mut acc,
                tier,
            );
            write_back(&acc, out_block, iq, n, j0 + jp * NR, mr, nr, epi);
        }
        iq += MR;
    }
}

/// Floats per A-pack arena slot for reduction depth `k`: the `k × MR`
/// panel rounded up to a whole number of 64-byte lines, plus one spacer
/// line, so two bands' slots can never share a cache line no matter how
/// the arena's base pointer is aligned.
fn apack_slot(k: usize) -> usize {
    (k * MR).div_ceil(16) * 16 + 16
}

/// The shared blocked GEMM driver: `out[m,n] ⊕= A[m,k] · B[k,n]` where `⊕`
/// is the epilogue. `out.len()` must be `m * n`.
///
/// A-pack scratch is an arena owned by the submitting thread's
/// thread-local, grown once per problem size and handed out as one
/// line-padded slot per row band. The previous design let each *worker*
/// thread lazily allocate its own pack buffer the first time it claimed a
/// band — a heap allocation on the hot path of whichever thread got there
/// first, and unwarmable by the zero-alloc training step (warm-up can't
/// control which worker claims a band). Submitter-side slots make the
/// allocation pattern deterministic and worker threads allocation-free.
fn gemm(a: AMat, b: BMat, m: usize, k: usize, n: usize, out: &mut [f32], epi: Epilogue<'_>) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let tier = isa::tier();
    let mut bpack = PACK_B.with(|c| c.take());
    let mut arena = PACK_A.with(|c| c.take());
    let parallel = m * n >= PAR_THRESHOLD && m > 1;
    let row_block = if parallel {
        row_block_for(m, rayon::current_threads())
    } else {
        m
    };
    let slot = apack_slot(k);
    if arena.len() < m.div_ceil(row_block) * slot {
        arena.resize(m.div_ceil(row_block) * slot, 0.0);
    }
    // Which group a column falls in never changes the `k`-ascending chain
    // that computes it.
    let group_cols = (B_GROUP_FLOATS / (k * NR).max(1)).max(1) * NR;
    for j0 in (0..n).step_by(group_cols) {
        let cols = group_cols.min(n - j0);
        pack_b(b, k, n, j0, cols, &mut bpack);
        let bp = &bpack;
        if parallel {
            let base = arena.as_mut_ptr() as usize;
            out.par_chunks_mut(row_block * n)
                .enumerate()
                .for_each(|(bi, block)| {
                    // Safety: band `bi` writes only its own arena slot; slots
                    // are disjoint (stride `slot` ≥ k*MR) and the arena Vec
                    // outlives the parallel call, which blocks until done.
                    let apack = unsafe {
                        std::slice::from_raw_parts_mut((base as *mut f32).add(bi * slot), k * MR)
                    };
                    let rows = block.len() / n;
                    gemm_block(
                        a,
                        bp,
                        k,
                        n,
                        (j0, cols),
                        bi * row_block,
                        rows,
                        block,
                        epi,
                        apack,
                        tier,
                    );
                });
        } else {
            gemm_block(
                a,
                bp,
                k,
                n,
                (j0, cols),
                0,
                m,
                out,
                epi,
                &mut arena[..k * MR],
                tier,
            );
        }
    }
    PACK_A.with(|c| c.set(arena));
    PACK_B.with(|c| c.set(bpack));
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
        AMat::RowMajor(a.data()),
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
        AMat::RowMajor(a.data()),
        BMat::Trans { d: b, k },
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
            AMat::RowMajor(kernel),
            BMat::RowMajor(xb),
            oc,
            ch,
            hw,
            yb,
            gemm_epi,
        );
        let rows = yb.chunks_exact_mut(hw);
        match epi {
            Epilogue::Bias(bias) => {
                for (row, &b) in rows.zip(bias) {
                    row.iter_mut().for_each(|o| *o += b);
                }
            }
            Epilogue::BiasRelu(bias) => {
                for (row, &b) in rows.zip(bias) {
                    row.iter_mut().for_each(|o| *o = (*o + b).max(0.0));
                }
            }
            Epilogue::Store | Epilogue::Accumulate => {}
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
