//! Blocked, pool-parallel linear algebra and convolution transforms.
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
//!   **byte-identical** to [`matmul_naive`] and run-to-run deterministic
//!   under any thread count (each output element is one sequential fused
//!   `f32` chain; threads only decide *which* disjoint rows they produce,
//!   never the order within a sum). On x86-64 with AVX2+FMA — detected at
//!   runtime, no special build flags — the tile is computed with 256-bit
//!   `vfmadd` intrinsics; elsewhere a portable `f32::mul_add` loop computes
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
//! [`im2col`] / [`col2im`] lower 2-D convolution to matmul; the `_into`
//! variants of every kernel write into caller-provided buffers so the
//! training workspace can run the whole step without heap allocation.

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Threshold (in output elements) below which kernels run serially; farming
/// tiny matrices out to the pool costs more than the multiply. Shared with
/// the direct conv path (`conv_direct`) so both lowerings make the same
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

/// The logical A operand: `A[i][p]`, `i < m`, `p < k`.
#[derive(Clone, Copy)]
enum AMat<'a> {
    /// Row-major `[m, k]` storage: `A[i][p] = d[i*k + p]`.
    RowMajor(&'a [f32]),
    /// Transposed view of row-major `[k, m]` storage:
    /// `A[i][p] = d[p*m + i]` (the `matmul_at_b` layout, never materialized).
    Trans { d: &'a [f32], m: usize },
}

/// The logical B operand: `B[p][j]`, `p < k`, `j < n`.
#[derive(Clone, Copy)]
enum BMat<'a> {
    /// Row-major `[k, n]` storage: `B[p][j] = d[p*n + j]`.
    RowMajor(&'a [f32]),
    /// Transposed view of row-major `[n, k]` storage:
    /// `B[p][j] = d[j*k + p]` (the `matmul_a_bt` layout).
    Trans { d: &'a [f32], k: usize },
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
    }
}

/// The register-tile kernel: `acc[ii][jj] = fma(apack[p][ii], bpanel[p][jj],
/// acc[ii][jj])` for `p` ascending — the deterministic reduction order.
///
/// Every update is a **fused** multiply-add. IEEE 754 specifies
/// `fusedMultiplyAdd` exactly (one rounding), so the AVX2 `vfmadd`
/// intrinsics, scalar `f32::mul_add`, and [`matmul_naive`]'s reference loop
/// all produce the same bit pattern — the dispatch below can never change a
/// result, only its speed.
#[inline(always)]
fn micro_kernel(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the required CPU features were just detected.
        unsafe { micro_kernel_avx2(apack, bpanel, acc) };
        return;
    }
    micro_kernel_generic(apack, bpanel, acc);
}

/// Portable microkernel. `mul_add` keeps it bit-compatible with the AVX2
/// path (and fast on targets whose baseline ISA has fused ops, e.g.
/// aarch64); x86 CPUs old enough to lack AVX2 fall back to libm's `fmaf`.
fn micro_kernel_generic(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (bp, ap) in bpanel.chunks_exact(NR).zip(apack.chunks_exact(MR)) {
        for ii in 0..MR {
            let a = ap[ii];
            for jj in 0..NR {
                acc[ii][jj] = a.mul_add(bp[jj], acc[ii][jj]);
            }
        }
    }
}

/// The 4×16 AVX2+FMA microkernel: 8 accumulator vectors (two per row of the
/// tile) make 8 independent FMA dependency chains, hiding the ~4-cycle FMA
/// latency so the loop runs at the FMA ports' throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let k = apack.len() / MR;
    debug_assert_eq!(bpanel.len(), k * NR);
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    let mut ap = apack.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..k {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (ii, ci) in c.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*ap.add(ii));
            ci[0] = _mm256_fmadd_ps(a, b0, ci[0]);
            ci[1] = _mm256_fmadd_ps(a, b1, ci[1]);
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (ii, ci) in c.iter().enumerate() {
        _mm256_storeu_ps(acc[ii].as_mut_ptr(), ci[0]);
        _mm256_storeu_ps(acc[ii].as_mut_ptr().add(8), ci[1]);
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
) {
    let mut iq = 0;
    while iq < rows {
        let mr = MR.min(rows - iq);
        pack_a(a, r0 + iq, mr, k, apack);
        for jp in 0..cols.div_ceil(NR) {
            let nr = NR.min(cols - jp * NR);
            let mut acc = [[0.0f32; NR]; MR];
            micro_kernel(apack, &bpack[jp * k * NR..(jp + 1) * k * NR], &mut acc);
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
            );
        }
    }
    PACK_A.with(|c| c.set(arena));
    PACK_B.with(|c| c.set(bpack));
}

/// Matrix multiplication `[m,k] x [k,n] -> [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = matmul_check(a, b);
    let mut out = vec![0.0f32; m * n];
    matmul_epi_into(a, b, &mut out, Epilogue::Store);
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul`] into a caller-provided buffer with a fused [`Epilogue`].
pub fn matmul_epi_into(a: &Tensor, b: &Tensor, out: &mut [f32], epi: Epilogue<'_>) {
    let (m, n) = matmul_check(a, b);
    let k = a.dims()[1];
    assert_eq!(out.len(), m * n, "matmul output buffer length");
    gemm(
        AMat::RowMajor(a.data()),
        BMat::RowMajor(b.data()),
        m,
        k,
        n,
        out,
        epi,
    );
}

fn matmul_check(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert!(
        a.shape().matmul_compatible(b.shape()),
        "matmul shape mismatch: {} x {}",
        a.shape(),
        b.shape()
    );
    (a.dims()[0], b.dims()[1])
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
    let (m, n) = a_bt_check(a, b);
    let mut out = vec![0.0f32; m * n];
    matmul_a_bt_epi_into(a, b, &mut out, Epilogue::Store);
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul_a_bt`] into a caller-provided buffer with a fused [`Epilogue`].
pub fn matmul_a_bt_epi_into(a: &Tensor, b: &Tensor, out: &mut [f32], epi: Epilogue<'_>) {
    let (m, n) = a_bt_check(a, b);
    let k = a.dims()[1];
    assert_eq!(out.len(), m * n, "matmul_a_bt output buffer length");
    gemm(
        AMat::RowMajor(a.data()),
        BMat::Trans { d: b.data(), k },
        m,
        k,
        n,
        out,
        epi,
    );
}

fn a_bt_check(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_a_bt inner dims {k} vs {k2}");
    (m, n)
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

/// Lowers an input image batch `[batch, ch, h, w]` to a matrix
/// `[batch * out_h * out_w, ch * kh * kw]` so convolution becomes a matmul
/// against the reshaped kernel.
pub fn im2col(input: &Tensor, ch: usize, geom: ConvGeom) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    let rows = input.dims()[0] * oh * ow;
    let mut out = vec![0.0f32; rows * patch];
    im2col_into(input, ch, geom, &mut out);
    Tensor::from_vec(out, &[rows, patch])
}

/// [`im2col`] into a caller-provided buffer of length
/// `batch * out_h * out_w * ch * kh * kw`.
pub fn im2col_into(input: &Tensor, ch: usize, geom: ConvGeom, out: &mut [f32]) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects [batch, ch, h, w]");
    let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, ch);
    assert_eq!(h, geom.h);
    assert_eq!(w, geom.w);
    geom.validate().expect("invalid conv geometry");

    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    let rows = batch * oh * ow;
    assert_eq!(out.len(), rows * patch, "im2col output buffer length");
    let data = input.data();

    let fill_row = |row_idx: usize, dst: &mut [f32]| {
        let b = row_idx / (oh * ow);
        let rest = row_idx % (oh * ow);
        let oy = rest / ow;
        let ox = rest % ow;
        let iy0 = (oy * geom.stride) as isize - geom.pad as isize;
        let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
        let mut k = 0;
        for c in 0..ch {
            let plane = &data[(b * ch + c) * h * w..(b * ch + c + 1) * h * w];
            for ky in 0..geom.kh {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kw {
                    let ix = ix0 + kx as isize;
                    dst[k] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        plane[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    };
                    k += 1;
                }
            }
        }
    };

    if rows * patch >= PAR_THRESHOLD {
        out.par_chunks_mut(patch)
            .enumerate()
            .for_each(|(i, dst)| fill_row(i, dst));
    } else {
        for (i, dst) in out.chunks_mut(patch).enumerate() {
            fill_row(i, dst);
        }
    }
}

/// The adjoint of [`im2col`]: scatters a column matrix back onto an image
/// batch of shape `[batch, ch, h, w]`, summing overlapping contributions.
/// Used to compute input gradients of convolutions.
pub fn col2im(cols: &Tensor, batch: usize, ch: usize, geom: ConvGeom) -> Tensor {
    let mut out = vec![0.0f32; batch * ch * geom.h * geom.w];
    col2im_into(cols, batch, ch, geom, &mut out);
    Tensor::from_vec(out, &[batch, ch, geom.h, geom.w])
}

/// [`col2im`] into a caller-provided buffer; the buffer is overwritten (the
/// scatter-sum starts from zero).
pub fn col2im_into(cols: &Tensor, batch: usize, ch: usize, geom: ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    assert_eq!(cols.dims(), &[batch * oh * ow, patch], "col2im shape");
    let (h, w) = (geom.h, geom.w);
    assert_eq!(out.len(), batch * ch * h * w, "col2im output buffer length");
    out.fill(0.0);
    let data = cols.data();

    // Scatter is a reduction into the output image, so parallelize over the
    // batch axis: rows of a given image never collide with another image's.
    let per_image = |b: usize, img: &mut [f32]| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (b * oh + oy) * ow + ox;
                let src = &data[row * patch..(row + 1) * patch];
                let iy0 = (oy * geom.stride) as isize - geom.pad as isize;
                let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
                let mut k = 0;
                for c in 0..ch {
                    for ky in 0..geom.kh {
                        let iy = iy0 + ky as isize;
                        for kx in 0..geom.kw {
                            let ix = ix0 + kx as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                img[(c * h + iy as usize) * w + ix as usize] += src[k];
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
    };

    if batch > 1 && batch * ch * h * w >= PAR_THRESHOLD {
        out.par_chunks_mut(ch * h * w)
            .enumerate()
            .for_each(|(b, img)| per_image(b, img));
    } else {
        for (b, img) in out.chunks_mut(ch * h * w).enumerate() {
            per_image(b, img);
        }
    }
}

/// Reference (naive, serial) matmul used by tests to validate the blocked
/// kernels. Reduces over `k` ascending with fused multiply-adds — the same
/// order and rounding the microkernel uses, so the blocked kernels match it
/// *bitwise*, not just approximately.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a.data()[i * k + p].mul_add(b.data()[p * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
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
    fn parallel_matches_naive_large() {
        let a = randt(&[130, 70], 2);
        let b = randt(&[70, 90], 3);
        assert!(approx_eq(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-3));
    }

    #[test]
    fn blocked_kernel_is_bitwise_naive() {
        // The microkernel reduces over k in the same ascending order as the
        // scalar reference, so equality is exact, not approximate.
        let a = randt(&[97, 61], 20);
        let b = randt(&[61, 83], 21);
        let blocked = matmul(&a, &b);
        let naive = matmul_naive(&a, &b);
        assert_eq!(
            blocked
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            naive.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = randt(&[40, 17], 4);
        let b = randt(&[40, 23], 5);
        let via_t = matmul(&a.transpose(), &b);
        assert!(approx_eq(&matmul_at_b(&a, &b), &via_t, 1e-3));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = randt(&[40, 17], 6);
        let b = randt(&[23, 17], 7);
        let via_t = matmul(&a, &b.transpose());
        assert!(approx_eq(&matmul_a_bt(&a, &b), &via_t, 1e-3));
    }

    #[test]
    fn at_b_parallel_path_matches_transpose() {
        // Large enough to cross PAR_THRESHOLD: exercises the row-block
        // parallel path of the (previously serial) weight-gradient kernel.
        let a = randt(&[90, 130], 14);
        let b = randt(&[90, 75], 15);
        let via_t = matmul(&a.transpose(), &b);
        assert!(approx_eq(&matmul_at_b(&a, &b), &via_t, 1e-2));
    }

    #[test]
    fn epilogues_fuse_bias_and_relu() {
        let a = randt(&[9, 7], 11);
        let b = randt(&[7, 13], 12);
        let bias = randt(&[13], 13);
        let base = matmul(&a, &b);

        let mut with_bias = vec![0.0f32; 9 * 13];
        matmul_epi_into(&a, &b, &mut with_bias, Epilogue::Bias(bias.data()));
        let expect = base.add_row_broadcast(&bias);
        assert!(approx_eq(
            &Tensor::from_vec(with_bias.clone(), &[9, 13]),
            &expect,
            0.0
        ));

        let mut with_relu = vec![0.0f32; 9 * 13];
        matmul_epi_into(&a, &b, &mut with_relu, Epilogue::BiasRelu(bias.data()));
        assert!(approx_eq(
            &Tensor::from_vec(with_relu, &[9, 13]),
            &expect.map(|v| v.max(0.0)),
            0.0
        ));

        let mut acc = with_bias;
        matmul_epi_into(&a, &b, &mut acc, Epilogue::Accumulate);
        let expect_acc = expect.add(&base);
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
        // 1×k and k×1.
        let a = randt(&[1, 9], 16);
        let b = randt(&[9, 1], 17);
        assert!(approx_eq(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-5));
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

    #[test]
    fn im2col_identity_kernel_1x1() {
        // A 1x1 kernel with stride 1 and no padding is a pure reshuffle.
        let input = randt(&[2, 3, 4, 4], 8);
        let g = ConvGeom {
            h: 4,
            w: 4,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let cols = im2col(&input, 3, g);
        assert_eq!(cols.dims(), &[2 * 16, 3]);
        // Element [b, c, y, x] must appear at cols[(b*16 + y*4 + x), c].
        assert_eq!(cols.at(&[0, 0]), input.at(&[0, 0, 0, 0]));
        assert_eq!(cols.at(&[5, 2]), input.at(&[0, 2, 1, 1]));
        assert_eq!(cols.at(&[16 + 3, 1]), input.at(&[1, 1, 0, 3]));
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let g = ConvGeom {
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let cols = im2col(&input, 1, g);
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output position: only the bottom-right 2x2 of the kernel
        // overlaps real pixels.
        let row0: Vec<f32> = cols.data()[0..9].to_vec();
        assert_eq!(row0, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y: the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let g = ConvGeom {
            h: 5,
            w: 4,
            kh: 3,
            kw: 2,
            stride: 1,
            pad: 1,
        };
        let x = randt(&[2, 3, 5, 4], 9);
        let cols_shape = [2 * g.out_h() * g.out_w(), 3 * g.kh * g.kw];
        let y = randt(&cols_shape, 10);
        let lhs: f32 = im2col(&x, 3, g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, 2, 3, g).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_into_overwrites_stale_contents() {
        let g = ConvGeom {
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        };
        let cols = randt(&[4, 4], 18);
        let fresh = col2im(&cols, 1, 1, g);
        let mut buf = vec![99.0f32; 9];
        col2im_into(&cols, 1, 1, g, &mut buf);
        assert_eq!(buf, fresh.data());
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Convolve a single 3x3 input with a single 2x2 kernel by hand and
        // via the im2col-matmul lowering.
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
        let kernel = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 4]); // [out_ch, ch*kh*kw]
        let g = ConvGeom {
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        };
        let cols = im2col(&input, 1, g);
        let out = matmul_a_bt(&cols, &kernel); // [4, 1]
                                               // direct: out[y][x] = in[y][x] - in[y+1][x+1]
        let expect = [1.0 - 5.0, 2.0 - 6.0, 4.0 - 8.0, 5.0 - 9.0];
        for (o, e) in out.data().iter().zip(expect) {
            assert!((o - e).abs() < 1e-6);
        }
    }
}
