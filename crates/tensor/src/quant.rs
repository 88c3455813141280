//! Quantize / dequantize kernels for the parameter-transfer codec layer.
//!
//! These are the numeric primitives behind `vc-ps`'s update codecs: IEEE
//! half-precision conversion, symmetric int8 affine quantization, and
//! top-k magnitude selection. Everything here operates on caller-owned
//! slices so the wire layer can drive them from pooled
//! [`Workspace`](crate::workspace::Workspace) buffers without allocating in
//! steady state.
//!
//! The loops are written as straight chunk-free scalar passes over slices —
//! bounds-check-eliminated, branch-light bodies that LLVM auto-vectorizes on
//! every target we build for. No intrinsics, no `unsafe`.
//!
//! Determinism matters more than speed here: every kernel is a pure
//! function of its inputs with a total order on ties (`f32::total_cmp`),
//! so the discrete-event simulator replays bit-identically per seed.

/// Round a finite `f32` to IEEE 754 binary16, round-to-nearest-even,
/// returned as the raw 16-bit pattern.
///
/// Handles the full range: values over `f16::MAX` clamp to infinity,
/// subnormal halves are produced for tiny magnitudes, NaN maps to a quiet
/// NaN pattern. Hand-rolled because the codec layer cannot take new
/// dependencies.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN. Keep a mantissa bit set for NaN so it stays NaN.
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    // Unbiased exponent, re-biased for f16 (bias 15 vs f32's 127).
    let e = exp - 127 + 15;
    if e >= 0x1f {
        // Overflow: round to infinity.
        return sign | 0x7c00;
    }
    if e <= 0 {
        // Subnormal half (or underflow to zero). The implicit leading 1
        // becomes explicit, then the whole significand shifts right.
        if e < -10 {
            return sign; // too small for even a subnormal: signed zero
        }
        let man = man | 0x0080_0000; // make the implicit bit explicit
        let shift = 14 - e; // 14..=24
        let half = man >> shift;
        // Round to nearest even on the bits shifted out.
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && (half & 1) == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    // Normal half: keep the top 10 mantissa bits, round-to-nearest-even.
    let half = (e as u32) << 10 | man >> 13;
    let rem = man & 0x1fff;
    let rounded = if rem > 0x1000 || (rem == 0x1000 && (half & 1) == 1) {
        half + 1 // may carry into the exponent; that is exactly correct
    } else {
        half
    };
    sign | rounded as u16
}

/// Expand a raw binary16 bit pattern back to `f32`. Exact (f16 ⊂ f32).
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = (h as u32 & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = h as u32 & 0x03ff;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal half (value = man × 2⁻²⁴): normalize into an
                // f32 normal. The MSB of `man` sits at bit `10 − shift`;
                // shifting by `shift` parks it at bit 10 where the mask
                // drops it as the implicit leading 1.
                let shift = man.leading_zeros() - 21;
                let man = (man << shift) & 0x03ff;
                let e = 127 - 14 - shift;
                sign | e << 23 | man << 13
            }
        }
        0x1f => sign | 0x7f80_0000 | man << 13, // Inf / NaN
        _ => sign | (exp as u32 + 127 - 15) << 23 | man << 13,
    };
    f32::from_bits(bits)
}

/// Symmetric int8 scale for a slice: `max|x| / 127`, or 0.0 for an
/// all-zero (or empty) slice. Non-finite inputs are ignored when sizing the
/// scale so one hostile NaN cannot zero out the whole shard.
pub fn int8_scale(src: &[f32]) -> f32 {
    int8_scale_of(src.iter().copied())
}

/// [`int8_scale`] over values the caller computes on the fly instead of
/// storing.
#[inline]
pub fn int8_scale_of(values: impl Iterator<Item = f32>) -> f32 {
    let mut max = 0.0f32;
    for x in values {
        let a = x.abs();
        if a.is_finite() && a > max {
            max = a;
        }
    }
    max / 127.0
}

/// Quantize one value to a `[-127, 127]` code given the *inverse* scale
/// (`round(x · inv)`, clamped). The code `-128` is never produced — the
/// wire layer reserves it as an escape byte. NaN maps to 0.
#[inline]
pub fn int8_quantize_one(x: f32, inv_scale: f32) -> i8 {
    let q = (x * inv_scale).round();
    if q.is_nan() {
        0
    } else {
        q.clamp(-127.0, 127.0) as i8
    }
}

/// Quantize `src` into `[-127, 127]` codes with the given scale. A zero
/// scale maps everything to 0.
pub fn int8_quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len());
    if scale == 0.0 {
        dst.fill(0);
        return;
    }
    let inv = 1.0 / scale;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = int8_quantize_one(s, inv);
    }
}

/// `dst[i] = codes[i] * scale`.
pub fn int8_dequantize_slice(codes: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len());
    for (d, &c) in dst.iter_mut().zip(codes) {
        *d = c as f32 * scale;
    }
}

/// Indices of the `k` largest-magnitude elements of `src`, returned sorted
/// ascending. Deterministic: ties break toward the lower index, NaN sorts
/// below every finite magnitude (`total_cmp` on `|x|`). `k` is clamped to
/// `src.len()`.
pub fn topk_indices(src: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(src.len());
    let mut idx: Vec<u32> = (0..src.len() as u32).collect();
    if k < src.len() {
        // NaN magnitudes rank below every finite one (total_cmp would
        // rank them above +inf), so poisoned inputs never crowd out real
        // updates.
        let mag = |v: f32| {
            let a = v.abs();
            if a.is_nan() {
                -1.0
            } else {
                a
            }
        };
        idx.select_nth_unstable_by(k.saturating_sub(1).min(src.len() - 1), |&a, &b| {
            let ma = mag(src[a as usize]);
            let mb = mag(src[b as usize]);
            mb.total_cmp(&ma).then(a.cmp(&b))
        });
        idx.truncate(k);
    }
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrips_exact_halves() {
        for x in [0.0f32, -0.0, 1.0, -1.5, 0.5, 65504.0, -65504.0, 6.1e-5] {
            let y = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(
                f32_to_f16_bits(y),
                f32_to_f16_bits(x),
                "re-encode of {x} unstable"
            );
        }
        // Values exactly representable in f16 survive untouched.
        for x in [1.0f32, 2.0, 0.25, -3.0, 1024.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(x)), x);
        }
    }

    #[test]
    fn f16_relative_error_bounded() {
        // 2^-11 relative error for normal halves.
        let mut x = 1.0e-4f32;
        while x < 6.0e4 {
            let y = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!(
                (y - x).abs() <= x * 4.9e-4 + 6.0e-8,
                "f16({x}) = {y}, error too large"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn f16_specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(1.0e9), 0x7c00, "overflow clamps to inf");
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16_bits(1.0e-12), 0, "underflow to signed zero");
        // Subnormal halves exist between 2^-24 and 2^-14.
        let tiny = 3.0e-6f32;
        let y = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert!(y > 0.0 && (y - tiny).abs() < 6.0e-8);
    }

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

    #[test]
    fn topk_picks_largest_magnitudes_deterministically() {
        let src = [0.1f32, -5.0, 3.0, 3.0, -0.2, 4.0];
        assert_eq!(topk_indices(&src, 3), vec![1, 2, 5]);
        // Tie between indices 2 and 3 (both |3.0|) resolves to the lower.
        assert_eq!(topk_indices(&src, 4), vec![1, 2, 3, 5]);
        assert_eq!(topk_indices(&src, 0), Vec::<u32>::new());
        assert_eq!(topk_indices(&src, 99).len(), 6, "k clamps to len");
    }

    #[test]
    fn topk_handles_nan_without_panicking() {
        let src = [f32::NAN, 2.0, -3.0, f32::NAN];
        let idx = topk_indices(&src, 2);
        assert_eq!(idx, vec![1, 2], "NaN magnitudes sort below finite ones");
    }
}
