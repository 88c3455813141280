//! Quantize / dequantize kernels for the parameter-transfer codec layer.
//!
//! These are the numeric primitives behind `vc-ps`'s `Int8` update codec:
//! symmetric int8 quantization. Everything here operates on caller-owned
//! slices so the wire layer can drive them from its own buffers without
//! allocating in steady state.
//!
//! ## Two bodies per int8 kernel, one set of bits
//!
//! Each int8 kernel — max-abs scale, quantize, dequantize, dequantize-add,
//! and the fused quantize → dequantize → residual pass that shapes a delta
//! in place — has a portable body in safe Rust and, on x86-64, an AVX2
//! body that any vector tier of `isa::tier` runs (AVX2+FMA or wider;
//! the int8 kernels stay at 8 lanes). The portable body is the
//! definition: the AVX2 body handles whole 8-lane groups and hands the
//! tail to the portable one, and `tests/quant_kernels.rs` holds the two to
//! the same `to_bits()` on every length, alignment and special value, and
//! both to the `f32::round` definition they replaced.
//! `isa::with_tier_cap(Tier::Portable, ..)` is the test hook that pins a
//! thread to the portable body; it is not a runtime switch.
//!
//! ## Rounding without `f32::round`
//!
//! A code is `round(x · inv)` clamped to `±127`, ties away from zero. On
//! the baseline x86-64 target `f32::round` (and `trunc`) is a libm call
//! per element, which is why the loop this replaced ran at 14 cycles a
//! float and never vectorized. Both bodies use the same four exact steps
//! instead: clamp `v = x · inv` to `[-127, 127]` first (rounding is
//! monotonic and fixes the integers ±127, so clamp-then-round equals
//! round-then-clamp); truncate by converting to `i32`; form `d = c − t`;
//! step away from zero where `|d| ≥ 0.5`. `d` is exact: `t` has `c`'s sign
//! and `|t| ≤ |c|`, so `c − t` is the fraction of `c` — a multiple of
//! `ulp(c)` smaller than one, which `f32` holds without rounding. NaN
//! becomes 0, ±Inf saturates, and a code leaves as an integer, so `-0.0`
//! dequantizes to `+0.0` (DESIGN.md §12c has the full argument).
//!
//! Determinism matters more than speed here: every kernel is a pure
//! function of its inputs, so the discrete-event simulator replays
//! bit-identically per seed.

use crate::isa::{self, Tier};

/// Whether the AVX2 bodies run: any vector tier (see `isa`).
#[inline]
fn use_avx2() -> bool {
    isa::tier() >= Tier::Avx2
}

/// Symmetric int8 scale for a slice: `max|x| / 127`, or 0.0 for an
/// all-zero (or empty) slice. Non-finite inputs are ignored when sizing the
/// scale so one hostile NaN cannot zero out the whole shard.
pub fn int8_scale(src: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::scale(src, None, None) };
    }
    scale_portable(src, None, None)
}

/// The portable body of both scale kernels: [`int8_scale`] of
/// `x = (new − base) + residual` — the difference first, as every delta
/// kernel forms it — either of the two optional, without storing `x`.
fn scale_portable(new: &[f32], base: Option<&[f32]>, residual: Option<&[f32]>) -> f32 {
    let mut max = 0.0f32;
    for (i, &x) in new.iter().enumerate() {
        let x = base.map_or(x, |b| x - b[i]);
        let a = residual.map_or(x, |r| x + r[i]).abs();
        if a.is_finite() && a > max {
            max = a;
        }
    }
    max / 127.0
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
/// (the module header has the argument). NaN needs no branch: it survives
/// the clamp, truncates to 0 (`as` saturates) and fails both comparisons.
#[inline]
fn int8_code(x: f32, inv: f32) -> i32 {
    let c = (x * inv).clamp(-127.0, 127.0);
    let t = c as i32;
    let d = c - t as f32;
    t + i32::from(d >= 0.5) - i32::from(d <= -0.5)
}

/// Quantize one value to a `[-127, 127]` code given the *inverse* scale
/// (`round(x · inv)`, clamped). The code `-128` is never produced — the
/// wire layer reserves it as an escape byte. NaN maps to 0.
#[inline]
pub fn int8_quantize_one(x: f32, inv_scale: f32) -> i8 {
    int8_code(x, inv_scale) as i8
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
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::quantize(src, inv, dst) };
    }
    quantize_portable(src, inv, dst);
}

fn quantize_portable(src: &[f32], inv: f32, dst: &mut [i8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = int8_quantize_one(s, inv);
    }
}

/// `dst[i] = codes[i] * scale`.
pub fn int8_dequantize_slice(codes: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::dequantize::<false>(codes, scale, dst) };
    }
    dequantize_portable::<false>(codes, scale, dst);
}

/// `dst[i] += codes[i] * scale`: a quantized delta applied straight onto
/// the vector it updates.
pub fn int8_dequantize_add(codes: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::dequantize::<true>(codes, scale, dst) };
    }
    dequantize_portable::<true>(codes, scale, dst);
}

fn dequantize_portable<const ADD: bool>(codes: &[i8], scale: f32, dst: &mut [f32]) {
    for (d, &c) in dst.iter_mut().zip(codes) {
        let y = f32::from(c) * scale;
        *d = if ADD { *d + y } else { y };
    }
}

/// [`int8_scale`] of the update `x = (new − base) + residual` (`residual`
/// `None`: `x = new − base`), without storing `x`.
pub fn int8_delta_scale(new: &[f32], base: &[f32], residual: Option<&[f32]>) -> f32 {
    assert_eq!(new.len(), base.len());
    if let Some(r) = residual {
        assert_eq!(r.len(), new.len());
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::scale(new, Some(base), residual) };
    }
    scale_portable(new, Some(base), residual)
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
    assert_eq!(base.len(), params.len());
    if let Some(r) = &residual {
        assert_eq!(r.len(), params.len());
    }
    if let Some(c) = &codes {
        assert_eq!(c.len(), params.len());
    }
    let inv = inverse(scale);
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 was just detected.
        return unsafe { avx2::delta_roundtrip(base, params, residual, scale, inv, codes) };
    }
    delta_roundtrip_portable(base, params, residual, scale, inv, codes);
}

fn delta_roundtrip_portable(
    base: &[f32],
    params: &mut [f32],
    mut residual: Option<&mut [f32]>,
    scale: f32,
    inv: f32,
    mut codes: Option<&mut [i8]>,
) {
    for (i, (p, &b)) in params.iter_mut().zip(base).enumerate() {
        let x = residual.as_deref().map_or(*p - b, |r| (*p - b) + r[i]);
        let code = int8_quantize_one(x, inv);
        let y = f32::from(code) * scale;
        *p = b + y;
        if let Some(r) = residual.as_deref_mut() {
            r[i] = if x.is_finite() { x - y } else { 0.0 };
        }
        if let Some(c) = codes.as_deref_mut() {
            c[i] = code;
        }
    }
}

/// The AVX2 bodies. Each walks whole 8-lane groups and gives the tail to
/// the portable body; every lane computes the portable body's expression
/// with the same operations in the same order.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Loads the 8 floats of a `chunks_exact(8)` item.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(lanes: &[f32]) -> __m256 {
        assert_eq!(lanes.len(), 8);
        // SAFETY: `lanes` is 8 readable floats; `loadu` needs no alignment.
        unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(lanes: &mut [f32], v: __m256) {
        assert_eq!(lanes.len(), 8);
        // SAFETY: `lanes` is 8 writable floats; `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) }
    }

    /// Sign-extends the 8 codes of a `chunks_exact(8)` item to `f32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_codes(lanes: &[i8]) -> __m256 {
        assert_eq!(lanes.len(), 8);
        // SAFETY: `lanes` is 8 readable bytes, the 64 bits `loadl` reads.
        let bytes = unsafe { _mm_loadl_epi64(lanes.as_ptr().cast()) };
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes))
    }

    /// Narrows 8 `i32` codes (each within `i8`) into a `chunks_exact(8)`
    /// item.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_codes(lanes: &mut [i8], codes: __m256i) {
        assert_eq!(lanes.len(), 8);
        let halves = _mm_packs_epi32(
            _mm256_castsi256_si128(codes),
            _mm256_extracti128_si256::<1>(codes),
        );
        let bytes = _mm_packs_epi16(halves, halves);
        // SAFETY: `lanes` is 8 writable bytes, the 64 bits `storel` writes.
        unsafe { _mm_storel_epi64(lanes.as_mut_ptr().cast(), bytes) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn abs(v: __m256) -> __m256 {
        _mm256_andnot_ps(_mm256_set1_ps(-0.0), v)
    }

    /// Lanes where `v` is neither NaN nor infinite.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn finite(v: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_LT_OQ>(abs(v), _mm256_set1_ps(f32::INFINITY))
    }

    /// `super::int8_code` on 8 lanes. NaN is zeroed up front: unlike `as`,
    /// `cvttps` turns it into `i32::MIN`, and `max_ps` into its bound.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn codes(x: __m256, inv: __m256) -> __m256i {
        let v = _mm256_mul_ps(x, inv);
        let v = _mm256_and_ps(v, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
        let c = _mm256_min_ps(
            _mm256_max_ps(v, _mm256_set1_ps(-127.0)),
            _mm256_set1_ps(127.0),
        );
        let t = _mm256_cvttps_epi32(c);
        let d = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
        // A comparison mask is -1 as an integer where it holds.
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(d, _mm256_set1_ps(0.5)));
        let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(d, _mm256_set1_ps(-0.5)));
        _mm256_add_epi32(_mm256_sub_epi32(t, up), down)
    }

    /// `super::scale_portable` on 8 lanes.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale(new: &[f32], base: Option<&[f32]>, residual: Option<&[f32]>) -> f32 {
        let main = new.len() - new.len() % 8;
        let mut max = _mm256_setzero_ps();
        for i in (0..main).step_by(8) {
            let mut x = load(&new[i..i + 8]);
            if let Some(b) = base {
                x = _mm256_sub_ps(x, load(&b[i..i + 8]));
            }
            if let Some(r) = residual {
                x = _mm256_add_ps(x, load(&r[i..i + 8]));
            }
            // Every operand is finite and non-negative, so the order the
            // maximum is taken in cannot change it.
            max = _mm256_max_ps(max, _mm256_and_ps(abs(x), finite(x)));
        }
        let mut lanes = [0.0f32; 8];
        store(&mut lanes, max);
        // Dividing by 127 is monotonic: the larger of the two scales is the
        // scale of the larger maximum.
        let head = lanes.into_iter().fold(0.0, f32::max) / 127.0;
        head.max(super::scale_portable(
            &new[main..],
            base.map(|b| &b[main..]),
            residual.map(|r| &r[main..]),
        ))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn quantize(src: &[f32], inv: f32, dst: &mut [i8]) {
        let main = src.len() - src.len() % 8;
        let vinv = _mm256_set1_ps(inv);
        for (d, s) in dst[..main].chunks_exact_mut(8).zip(src.chunks_exact(8)) {
            store_codes(d, codes(load(s), vinv));
        }
        super::quantize_portable(&src[main..], inv, &mut dst[main..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dequantize<const ADD: bool>(codes: &[i8], scale: f32, dst: &mut [f32]) {
        let main = codes.len() - codes.len() % 8;
        let vscale = _mm256_set1_ps(scale);
        for (d, c) in dst[..main].chunks_exact_mut(8).zip(codes.chunks_exact(8)) {
            let mut y = _mm256_mul_ps(load_codes(c), vscale);
            if ADD {
                y = _mm256_add_ps(load(d), y);
            }
            store(d, y);
        }
        super::dequantize_portable::<ADD>(&codes[main..], scale, &mut dst[main..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn delta_roundtrip(
        base: &[f32],
        params: &mut [f32],
        mut residual: Option<&mut [f32]>,
        scale: f32,
        inv: f32,
        mut codes_out: Option<&mut [i8]>,
    ) {
        let main = params.len() - params.len() % 8;
        let (vscale, vinv) = (_mm256_set1_ps(scale), _mm256_set1_ps(inv));
        for i in (0..main).step_by(8) {
            let lanes = i..i + 8;
            let b = load(&base[lanes.clone()]);
            let mut x = _mm256_sub_ps(load(&params[lanes.clone()]), b);
            if let Some(r) = residual.as_deref() {
                x = _mm256_add_ps(x, load(&r[lanes.clone()]));
            }
            let code = codes(x, vinv);
            let y = _mm256_mul_ps(_mm256_cvtepi32_ps(code), vscale);
            store(&mut params[lanes.clone()], _mm256_add_ps(b, y));
            if let Some(r) = residual.as_deref_mut() {
                let err = _mm256_and_ps(_mm256_sub_ps(x, y), finite(x));
                store(&mut r[lanes.clone()], err);
            }
            if let Some(c) = codes_out.as_deref_mut() {
                store_codes(&mut c[lanes], code);
            }
        }
        super::delta_roundtrip_portable(
            &base[main..],
            &mut params[main..],
            residual.map(|r| &mut r[main..]),
            scale,
            inv,
            codes_out.map(|c| &mut c[main..]),
        );
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
