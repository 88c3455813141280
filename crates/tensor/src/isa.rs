//! Instruction-set tiers, and the vector widths the register tiles are
//! written over.
//!
//! ## One tier per kernel call
//!
//! A kernel reads `tier` once per call, on the calling thread, before it
//! fans out, and runs the widest body the host has: AVX-512F (16 lanes),
//! then AVX2+FMA (8 lanes), then the portable body. There is no switch, no
//! environment variable and no configuration field — the bodies produce
//! the same bits, so which one ran is invisible to every caller.
//! [`with_tier_cap`] is the one test hook: it caps what this thread's calls
//! may use, so a host with AVX-512 runs the 8-lane and the portable bodies
//! under the same property suites (and under a sanitizer).
//!
//! ## Why the width cannot change a bit
//!
//! Every output of a conv tile or a GEMM tile is its own fused
//! multiply-add chain from zero, reduced in a fixed index order. A lane
//! never sums with another lane, so a wider vector changes how many chains
//! run side by side, never what any one chain computes. IEEE-754
//! `fusedMultiplyAdd` is one rounding of the exact `a·b + c`: `vfmadd` on
//! a `zmm`, a `ymm` and scalar `f32::mul_add` give the same bits per lane.
//! The epilogue additions are single correctly rounded operations too.
//!
//! ## One source body per tile, the portable tier included
//!
//! `Lanes` is the vector type a tile is generic over: `F32x16` is an
//! `__m512`, `F32x8` an `__m256`, and `F32x1` one `f32` whose `fmadd` is
//! `f32::mul_add` — the portable tier runs the same bodies one lane wide.
//! The vector methods are `#[inline(always)]` wrappers of one intrinsic
//! each. A tile body is written once, generic over `L: Lanes`, and marked
//! `#[inline(always)]` too; a thin `#[target_feature]` entry point per
//! vector width instantiates it, and the portable tier calls the `F32x1`
//! instance bare. Inlined into the entry point, the intrinsics run under
//! that entry point's features, so each width compiles to its own
//! straight-line register code with no calls left in the tap loop.
//!
//! This is the only file of the workspace that names a `std::arch` item or
//! detects a CPU feature; kernels elsewhere name a tier, a `Lanes` width
//! or a `#[target_feature]` attribute, nothing below that.

use std::cell::Cell;

/// What a kernel call may use, narrowest first (so `min` caps a tier).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// One lane (`F32x1`): `f32::mul_add` per element, no target feature.
    Portable,
    /// AVX2 and FMA: 8 lanes.
    Avx2,
    /// AVX-512F: 16 lanes (the 8-lane bodies run here too).
    Avx512,
}

impl Tier {
    /// Every tier, widest first: the dispatch order.
    pub const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

    /// The widest tier this host's CPU runs.
    pub fn detected() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                return if has!("avx512f") {
                    Tier::Avx512
                } else {
                    Tier::Avx2
                };
            }
        }
        Tier::Portable
    }

    /// Every tier this host runs, widest first: what the bitwise suites
    /// hold to their oracles.
    pub fn host_tiers() -> impl Iterator<Item = Tier> {
        let top = Tier::detected();
        Tier::ALL.into_iter().filter(move |t| *t <= top)
    }

    /// `f32` lanes per vector.
    pub(crate) fn lanes(self) -> usize {
        match self {
            Tier::Portable => 1,
            Tier::Avx2 => 8,
            Tier::Avx512 => 16,
        }
    }

    /// The tier's name as reports and test messages print it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2+fma",
            Tier::Avx512 => "avx512f",
        }
    }
}

thread_local! {
    /// The widest tier this thread's kernel calls may use.
    static CAP: Cell<Tier> = const { Cell::new(Tier::Avx512) };
}

/// The tier a kernel call on this thread runs: the host's, capped by any
/// enclosing [`with_tier_cap`]. Read once per call, on the calling thread.
#[inline]
pub(crate) fn tier() -> Tier {
    Tier::detected().min(CAP.with(Cell::get))
}

/// The cap [`with_tier_cap`] holds on this thread. A caller that hands
/// kernel work to a thread of its own wraps it in `with_tier_cap` at this
/// cap there, so the work follows the same cap as its own kernels.
#[doc(hidden)]
pub fn tier_cap() -> Tier {
    CAP.with(Cell::get)
}

/// Runs `f` with every kernel called from this thread capped at `cap`, so
/// one host can test (and sanitize) every body it has. A test hook, not a
/// switch: every tier produces the same bits. Kernels read the cap on the
/// calling thread before they fan out, so the pool's workers follow it.
#[doc(hidden)]
pub fn with_tier_cap<R>(cap: Tier, f: impl FnOnce() -> R) -> R {
    struct Restore(Tier);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CAP.with(|c| c.replace(cap)));
    f()
}

/// A vector of `f32` lanes. Each method is one intrinsic (one scalar
/// operation at `F32x1`); the caller must run under the target features of
/// the implementing width (see the module docs), and pointers must be valid
/// for `N` floats.
pub(crate) trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    /// Output channels per forward and dK block: at 8 and 16 lanes enough
    /// that a 16-pixel span or tile column runs 8 independent FMA chains.
    const OCB: usize;
    unsafe fn zero() -> Self;
    unsafe fn loadu(p: *const f32) -> Self;
    unsafe fn splat(x: f32) -> Self;
    /// `a·b + c`, one rounding per lane.
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn storeu(self, p: *mut f32);
}

/// 1 lane: the portable tier, one `f32` and no target feature.
#[derive(Clone, Copy)]
pub(crate) struct F32x1(f32);

/// 8 lanes: an AVX2 `__m256`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct F32x8(std::arch::x86_64::__m256);

/// 16 lanes: an AVX-512F `__m512`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct F32x16(std::arch::x86_64::__m512);

impl Lanes for F32x1 {
    const N: usize = 1;
    const OCB: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x1(0.0)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> Self {
        F32x1(*p)
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x1(x)
    }
    #[inline(always)]
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
        F32x1(a.0.mul_add(b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        F32x1(a.0 + b.0)
    }
    #[inline(always)]
    unsafe fn storeu(self, p: *mut f32) {
        *p = self.0
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x8 {
    const N: usize = 8;
    const OCB: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x8(std::arch::x86_64::_mm256_setzero_ps())
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> Self {
        F32x8(std::arch::x86_64::_mm256_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x8(std::arch::x86_64::_mm256_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
        F32x8(std::arch::x86_64::_mm256_fmadd_ps(a.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        F32x8(std::arch::x86_64::_mm256_add_ps(a.0, b.0))
    }
    #[inline(always)]
    unsafe fn storeu(self, p: *mut f32) {
        std::arch::x86_64::_mm256_storeu_ps(p, self.0)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x16 {
    const N: usize = 16;
    const OCB: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x16(std::arch::x86_64::_mm512_setzero_ps())
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> Self {
        F32x16(std::arch::x86_64::_mm512_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x16(std::arch::x86_64::_mm512_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
        F32x16(std::arch::x86_64::_mm512_fmadd_ps(a.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        F32x16(std::arch::x86_64::_mm512_add_ps(a.0, b.0))
    }
    #[inline(always)]
    unsafe fn storeu(self, p: *mut f32) {
        std::arch::x86_64::_mm512_storeu_ps(p, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_is_scoped_and_restored() {
        let host = tier();
        assert_eq!(host, Tier::detected());
        with_tier_cap(Tier::Portable, || {
            assert_eq!(tier(), Tier::Portable);
            with_tier_cap(Tier::Avx512, || assert_eq!(tier(), host));
            assert_eq!(tier(), Tier::Portable);
        });
        assert_eq!(tier(), host);
        let r = std::panic::catch_unwind(|| with_tier_cap(Tier::Portable, || panic!("inside")));
        assert!(r.is_err());
        assert_eq!(
            tier(),
            host,
            "a panic inside the hook must not leak the cap"
        );
    }

    #[test]
    fn host_tiers_are_widest_first_down_to_portable() {
        let tiers: Vec<Tier> = Tier::host_tiers().collect();
        assert_eq!(tiers.first(), Some(&Tier::detected()));
        assert_eq!(tiers.last(), Some(&Tier::Portable));
        assert!(tiers.windows(2).all(|w| w[0] > w[1]));
    }
}
