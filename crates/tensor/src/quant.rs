//! Quantize / dequantize kernels for the parameter-transfer codec layer.
//!
//! These are the numeric primitives behind `vc-ps`'s `Int8` update codec:
//! symmetric int8 quantization. Everything here operates on caller-owned
//! slices so the wire layer can drive them from its own buffers without
//! allocating in steady state.
//!
//! ## One body per int8 kernel, one set of bits
//!
//! Each int8 kernel — max-abs scale, quantize, dequantize, dequantize-add,
//! and the fused quantize → dequantize → residual pass that shapes a delta
//! in place — is one branch-free scalar loop, `#[inline(always)]`. The
//! portable tier runs it as it stands; any vector tier of `isa::tier`
//! runs it inlined into one `#[target_feature(enable = "avx2")]` entry
//! point, where LLVM vectorizes it 8 lanes wide. Vectorizing a loop
//! changes how many elements go through an instruction, never what the
//! instruction computes per element, so the two tiers are one set of bits
//! by construction; `tests/quant_kernels.rs` holds every tier the host has
//! to the `f32::round` definition the kernels replaced, `to_bits()`, on
//! every length, alignment and special value.
//! `isa::with_tier_cap(Tier::Portable, ..)` is the test hook that pins a
//! thread to the portable tier; it is not a runtime switch.
//!
//! What keeps a loop vectorizable is that nothing in it branches or calls:
//! the optional inputs and outputs are const parameters, not per-element
//! `Option` tests, and the scale folds the *bits* of `|x|` with an integer
//! `max` (a float maximum is not associative to LLVM, an integer one is).
//!
//! ## Rounding without `f32::round`
//!
//! A code is `round(x · inv)` clamped to `±127`, ties away from zero. On
//! the baseline x86-64 target `f32::round` (and `trunc`) is a libm call
//! per element, which is why the loop this replaced ran at 14 cycles a
//! float and never vectorized. The body uses four exact steps instead:
//! zero a NaN `v = x · inv` and clamp it to `[-127, 127]` (rounding is
//! monotonic and fixes the integers ±127, so clamp-then-round equals
//! round-then-clamp); truncate by converting to `i32`; form `d = c − t`;
//! step away from zero where `|d| ≥ 0.5`. `d` is exact: `t` has `c`'s sign
//! and `|t| ≤ |c|`, so `c − t` is the fraction of `c` — a multiple of
//! `ulp(c)` smaller than one, which `f32` holds without rounding. NaN
//! becomes 0, ±Inf saturates, and a code leaves as an integer, so `-0.0`
//! dequantizes to `+0.0` (DESIGN.md §12c has the full argument). The
//! truncation is `to_int_unchecked`, not `as`: the saturating `as` cast
//! keeps its NaN and range checks, and LLVM leaves that loop scalar.
//!
//! Determinism matters more than speed here: every kernel is a pure
//! function of its inputs, so the discrete-event simulator replays
//! bit-identically per seed.

use crate::isa::{self, Tier};

/// Runs an int8 body at the calling thread's tier: inlined into the AVX2
/// entry point on any vector tier, as it stands on the portable one. Each
/// kernel hands its body over as an `#[inline(always)]` closure: a closure
/// LLVM declined to inline would stay a call out of the entry point, and
/// compile without AVX2.
#[inline(always)]
fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if isa::tier() >= Tier::Avx2 {
        // SAFETY: `isa::tier` is at most the host's, and a vector tier has
        // AVX2.
        return unsafe { avx2(body) };
    }
    body()
}

/// The one vector entry point: the int8 body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Symmetric int8 scale for a slice: `max|x| / 127`, or 0.0 for an
/// all-zero (or empty) slice. Non-finite inputs are ignored when sizing the
/// scale so one hostile NaN cannot zero out the whole shard.
pub fn int8_scale(src: &[f32]) -> f32 {
    dispatch(
        #[inline(always)]
        || scale(src.iter().copied()),
    )
}

/// The body of both scale kernels: `max|x| / 127` over the finite `x`.
/// For non-negative floats the order of the bit patterns is the order of
/// the values, so the integer maximum of the bits of `|x|` is the bits of
/// the float maximum, in any order it is taken; a non-finite `|x|` (bits
/// at or above +Inf's) counts as 0.
#[inline(always)]
fn scale(xs: impl Iterator<Item = f32>) -> f32 {
    let inf = f32::INFINITY.to_bits();
    let mut max = 0u32;
    for x in xs {
        let a = x.abs().to_bits();
        max = max.max(if a < inf { a } else { 0 });
    }
    f32::from_bits(max) / 127.0
}

/// The inverse scale every quantizer multiplies by; 0 for a zero scale, so
/// an all-zero update quantizes to all-zero codes.
#[inline]
fn inverse(scale: f32) -> f32 {
    if scale == 0.0 {
        0.0
    } else {
        1.0 / scale
    }
}

/// `round(x · inv)` clamped to `[-127, 127]`, ties away from zero, NaN → 0
/// (the module header has the argument).
#[inline(always)]
fn int8_code(x: f32, inv: f32) -> i32 {
    let v = x * inv;
    let c = if v.is_nan() { 0.0 } else { v }.clamp(-127.0, 127.0);
    // SAFETY: NaN was zeroed and the clamp bounds ±Inf and everything else
    // to [-127, 127], so `c` is finite and its truncation fits in `i32`.
    let t: i32 = unsafe { c.to_int_unchecked() };
    let d = c - t as f32;
    t + i32::from(d >= 0.5) - i32::from(d <= -0.5)
}

/// The wire form of a run of codes: one two's-complement byte each.
pub fn int8_codes_as_bytes(codes: &[i8]) -> &[u8] {
    // SAFETY: `i8` and `u8` have the same size and alignment and every bit
    // pattern is valid for both; the lifetime is the argument's.
    unsafe { std::slice::from_raw_parts(codes.as_ptr().cast(), codes.len()) }
}

/// Wire bytes read back as codes; the inverse of [`int8_codes_as_bytes`].
pub fn int8_codes_from_bytes(bytes: &[u8]) -> &[i8] {
    // SAFETY: as in `int8_codes_as_bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len()) }
}

/// Quantize `src` into `[-127, 127]` codes with the given scale. A zero
/// scale maps everything to 0.
pub fn int8_quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len());
    let inv = inverse(scale);
    dispatch(
        #[inline(always)]
        || {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = int8_code(s, inv) as i8;
            }
        },
    )
}

/// `dst[i] = codes[i] * scale`.
pub fn int8_dequantize_slice(codes: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len());
    dispatch(
        #[inline(always)]
        || dequantize::<false>(codes, scale, dst),
    )
}

/// `dst[i] += codes[i] * scale`: a quantized delta applied straight onto
/// the vector it updates.
pub fn int8_dequantize_add(codes: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len());
    dispatch(
        #[inline(always)]
        || dequantize::<true>(codes, scale, dst),
    )
}

#[inline(always)]
fn dequantize<const ADD: bool>(codes: &[i8], scale: f32, dst: &mut [f32]) {
    for (d, &c) in dst.iter_mut().zip(codes) {
        let y = f32::from(c) * scale;
        *d = if ADD { *d + y } else { y };
    }
}

/// [`int8_scale`] of the update `x = (new − base) + residual` (`residual`
/// `None`: `x = new − base`), without storing `x`.
pub fn int8_delta_scale(new: &[f32], base: &[f32], residual: Option<&[f32]>) -> f32 {
    assert_eq!(new.len(), base.len());
    let delta = new.iter().zip(base).map(|(&n, &b)| n - b);
    match residual {
        Some(r) => {
            assert_eq!(r.len(), new.len());
            dispatch(
                #[inline(always)]
                || scale(delta.zip(r).map(|(x, &r)| x + r)),
            )
        }
        None => dispatch(
            #[inline(always)]
            || scale(delta),
        ),
    }
}

/// The fused pass of a quantized delta: with `x` as in
/// [`int8_delta_scale`] and `scale` what that returned, each element's
/// code is quantized, dequantized to `y = code · scale`, and `params`
/// becomes `base + y` — what a receiver holding `base` reconstructs. With
/// a `residual` it then holds `x − y`, the quantization error to feed the
/// next update, or 0 where `x` is not finite (a NaN or Inf coordinate must
/// not live on in the residual). With `codes` the codes are written out
/// too, for the caller to put on the wire.
pub fn int8_delta_roundtrip(
    base: &[f32],
    params: &mut [f32],
    residual: Option<&mut [f32]>,
    scale: f32,
    codes: Option<&mut [i8]>,
) {
    let n = params.len();
    assert_eq!(base.len(), n);
    let inv = inverse(scale);
    let (r, c) = (residual.is_some(), codes.is_some());
    let (residual, codes) = (residual.unwrap_or_default(), codes.unwrap_or_default());
    assert!(!r || residual.len() == n, "residual length");
    assert!(!c || codes.len() == n, "codes length");
    let (b, p) = (base, params);
    dispatch(
        #[inline(always)]
        || match (r, c) {
            (true, true) => roundtrip::<true, true>(b, p, residual, scale, inv, codes),
            (true, false) => roundtrip::<true, false>(b, p, residual, scale, inv, codes),
            (false, true) => roundtrip::<false, true>(b, p, residual, scale, inv, codes),
            (false, false) => roundtrip::<false, false>(b, p, residual, scale, inv, codes),
        },
    )
}

/// The body of [`int8_delta_roundtrip`]; `RES` and `CODES` say whether
/// `residual` and `codes` take part (each is empty when it does not).
#[inline(always)]
fn roundtrip<const RES: bool, const CODES: bool>(
    base: &[f32],
    params: &mut [f32],
    residual: &mut [f32],
    scale: f32,
    inv: f32,
    codes: &mut [i8],
) {
    // Every slice the loop indexes is `n` long in this function, where the
    // vectorizer can see it, so no bounds check is left in the loop.
    let n = params.len();
    let base = &base[..n];
    let residual = if RES { &mut residual[..n] } else { residual };
    let codes = if CODES { &mut codes[..n] } else { codes };
    for i in 0..n {
        let b = base[i];
        let mut x = params[i] - b;
        if RES {
            x += residual[i];
        }
        let code = int8_code(x, inv);
        let y = code as f32 * scale;
        params[i] = b + y;
        if RES {
            residual[i] = if x.is_finite() { x - y } else { 0.0 };
        }
        if CODES {
            codes[i] = code as i8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_roundtrip_error_half_scale() {
        let src: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let scale = int8_scale(&src);
        let mut codes = vec![0i8; src.len()];
        int8_quantize_slice(&src, scale, &mut codes);
        let mut back = vec![0.0f32; src.len()];
        int8_dequantize_slice(&codes, scale, &mut back);
        for (&x, &y) in src.iter().zip(&back) {
            assert!((x - y).abs() <= scale * 0.5 + 1e-7, "|{x} - {y}| > scale/2");
        }
        assert!(codes.iter().all(|&c| c != i8::MIN), "-128 is reserved");
    }

    #[test]
    fn int8_zero_scale_and_hostile_values() {
        let mut codes = vec![1i8; 4];
        int8_quantize_slice(&[0.0; 4], 0.0, &mut codes);
        assert_eq!(codes, vec![0; 4]);
        // NaN/Inf do not poison the scale of the rest of the shard.
        let src = [1.0f32, f32::NAN, f32::INFINITY, -2.0];
        let scale = int8_scale(&src);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
    }
}
