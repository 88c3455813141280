//! The int8 kernels against their oracle, on every tier.
//!
//! Each kernel in `vc_tensor::quant` is one scalar body: the portable tier
//! runs it as written, every vector tier runs it compiled under AVX2, and
//! both promise the bits of the `f32::round` definition the body replaced.
//! Every check here runs a kernel once per tier the host has — each under
//! `isa::with_tier_cap`, the portable tier last — and compares every
//! result, `to_bits()`, with that definition written out below. On a host
//! without AVX2 only the portable tier runs; the oracle still holds it.

use proptest::prelude::*;
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::quant::{
    int8_delta_roundtrip, int8_delta_scale, int8_dequantize_add, int8_dequantize_slice,
    int8_quantize_slice, int8_scale,
};

/// The code as it was defined before the kernels: libm `round`, then clamp.
fn oracle_code(x: f32, inv: f32) -> i8 {
    let q = (x * inv).round();
    if q.is_nan() {
        0
    } else {
        q.clamp(-127.0, 127.0) as i8
    }
}

fn oracle_scale(values: impl Iterator<Item = f32>) -> f32 {
    let mut max = 0.0f32;
    for x in values {
        let a = x.abs();
        if a.is_finite() && a > max {
            max = a;
        }
    }
    max / 127.0
}

fn inverse(scale: f32) -> f32 {
    if scale == 0.0 {
        0.0
    } else {
        1.0 / scale
    }
}

/// `f` under every tier the host has: the body compiled under AVX2 at each
/// vector tier, then as written at the portable tier.
fn on_every_tier<R>(f: impl Fn() -> R) -> Vec<R> {
    Tier::host_tiers().map(|t| with_tier_cap(t, &f)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Holds every kernel to the oracle on one `(src, scale)` input; `src`
/// doubles as the trained vector of the delta kernels, against a base and
/// a residual derived from it.
fn check_all_kernels(src: &[f32], scale: f32) {
    let n = src.len();
    let inv = inverse(scale);

    let want_scale = oracle_scale(src.iter().copied());
    for got in on_every_tier(|| int8_scale(src)) {
        assert_eq!(got.to_bits(), want_scale.to_bits(), "int8_scale, n {n}");
    }

    let want_codes: Vec<i8> = src.iter().map(|&x| oracle_code(x, inv)).collect();
    for got in on_every_tier(|| {
        let mut codes = vec![1i8; n];
        int8_quantize_slice(src, scale, &mut codes);
        codes
    }) {
        assert_eq!(got, want_codes, "int8_quantize_slice, n {n}, scale {scale}");
    }

    let want_deq: Vec<f32> = want_codes.iter().map(|&c| c as f32 * scale).collect();
    for got in on_every_tier(|| {
        let mut out = vec![f32::NAN; n];
        int8_dequantize_slice(&want_codes, scale, &mut out);
        out
    }) {
        assert_eq!(bits(&got), bits(&want_deq), "int8_dequantize_slice, n {n}");
    }
    let acc: Vec<f32> = (0..n).map(|i| (i as f32 - 3.0) * 0.37).collect();
    let want_acc: Vec<f32> = acc.iter().zip(&want_deq).map(|(a, y)| a + y).collect();
    for got in on_every_tier(|| {
        let mut out = acc.clone();
        int8_dequantize_add(&want_codes, scale, &mut out);
        out
    }) {
        assert_eq!(bits(&got), bits(&want_acc), "int8_dequantize_add, n {n}");
    }

    // Delta kernels: `src` is the trained vector.
    let base: Vec<f32> = (0..n)
        .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.125)
        .collect();
    let residual: Vec<f32> = (0..n).map(|i| ((i * 5 % 13) as f32 - 6.0) * 1e-3).collect();
    for ef in [false, true] {
        let x: Vec<f32> = (0..n)
            .map(|i| {
                let d = src[i] - base[i];
                if ef {
                    d + residual[i]
                } else {
                    d
                }
            })
            .collect();
        let want_scale = oracle_scale(x.iter().copied());
        for got in on_every_tier(|| int8_delta_scale(src, &base, ef.then_some(&residual[..]))) {
            assert_eq!(got.to_bits(), want_scale.to_bits(), "delta scale, ef {ef}");
        }
        // Shape with the caller's scale, not the delta's own, so the ties
        // and saturations `scale` was chosen for reach the fused kernel too.
        let codes: Vec<i8> = x.iter().map(|&x| oracle_code(x, inv)).collect();
        let y: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
        let want_params: Vec<f32> = base.iter().zip(&y).map(|(b, y)| b + y).collect();
        let want_residual: Vec<f32> = x
            .iter()
            .zip(&y)
            .map(|(&x, &y)| if x.is_finite() { x - y } else { 0.0 })
            .collect();
        for with_codes in [false, true] {
            for (params, res, got_codes) in on_every_tier(|| {
                let mut params = src.to_vec();
                let mut res = residual.clone();
                let mut got_codes = vec![1i8; n];
                int8_delta_roundtrip(
                    &base,
                    &mut params,
                    ef.then_some(&mut res[..]),
                    scale,
                    with_codes.then_some(&mut got_codes[..]),
                );
                (params, res, got_codes)
            }) {
                assert_eq!(
                    bits(&params),
                    bits(&want_params),
                    "roundtrip params, ef {ef}"
                );
                if ef {
                    assert_eq!(bits(&res), bits(&want_residual), "roundtrip residual");
                } else {
                    assert_eq!(bits(&res), bits(&residual), "residual left alone");
                }
                if with_codes {
                    assert_eq!(got_codes, codes, "roundtrip codes, ef {ef}");
                }
            }
        }
    }
}

/// A deterministic vector with codes all over `[-127, 127]` at its own
/// scale, zeros and sign changes included.
fn ramp(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.0213)
        .collect()
}

#[test]
fn every_length_and_every_tail() {
    for n in 0..=67 {
        let src = ramp(n);
        check_all_kernels(&src, int8_scale(&src));
        check_all_kernels(&src, 0.01);
    }
}

#[test]
fn misaligned_sub_slices() {
    let backing = ramp(96);
    for offset in 0..9 {
        for len in [0, 1, 7, 8, 9, 31, 64] {
            let src = &backing[offset..offset + len];
            check_all_kernels(src, int8_scale(&backing));
        }
    }
}

#[test]
fn ties_round_away_from_zero_and_clamp() {
    // scale 0.5 has the exactly representable inverse 2, so x·inv = ±(k + ½)
    // with no rounding on the way in.
    let mut src = Vec::new();
    let mut want = Vec::new();
    for k in 0..=127 {
        for sign in [1.0f32, -1.0] {
            src.push(sign * (k as f32 + 0.5) * 0.5);
            want.push((sign * (k as f32 + 1.0).min(127.0)) as i8);
        }
    }
    for got in on_every_tier(|| {
        let mut codes = vec![0i8; src.len()];
        int8_quantize_slice(&src, 0.5, &mut codes);
        codes
    }) {
        assert_eq!(got, want);
    }
    check_all_kernels(&src, 0.5);
}

#[test]
fn just_below_a_tie_rounds_down() {
    // The float before k + ½ (0.49999997 for k = 0): `floor(v + ½)` gets
    // these wrong, `round` does not.
    let mut src = Vec::new();
    let mut want = Vec::new();
    for k in 0..=127 {
        let below = f32::from_bits((k as f32 + 0.5).to_bits() - 1);
        for sign in [1.0f32, -1.0] {
            src.push(sign * below);
            want.push((sign * k as f32) as i8);
        }
    }
    assert_eq!(src[0], 0.49999997);
    for got in on_every_tier(|| {
        let mut codes = vec![1i8; src.len()];
        int8_quantize_slice(&src, 1.0, &mut codes);
        codes
    }) {
        assert_eq!(got, want);
    }
    check_all_kernels(&src, 1.0);
}

#[test]
fn specials_in_every_lane() {
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(3),
        f32::MIN_POSITIVE / 2.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0e-30,
        8_388_608.0,
        -8_388_609.0,
        2.5,
    ];
    // Rotate the specials through every lane of a 35-element vector (four
    // vector groups and a tail), over scales normal, huge, subnormal
    // (infinite inverse) and zero.
    for shift in 0..specials.len() {
        let src: Vec<f32> = (0..35)
            .map(|i| specials[(i + shift) % specials.len()])
            .collect();
        for scale in [1.0, 0.02, 1.0e30, f32::from_bits(2), f32::MIN_POSITIVE, 0.0] {
            check_all_kernels(&src, scale);
        }
        check_all_kernels(&src, int8_scale(&src));
    }
}

#[test]
fn negative_zero_codes_dequantize_to_positive_zero() {
    let src = vec![-0.0f32, -1.0e-9, 0.0, 1.0e-9, -0.0, -0.0, 0.0, -0.0, -0.0];
    for got in on_every_tier(|| {
        let mut params = src.clone();
        int8_delta_roundtrip(&[0.0; 9], &mut params, None, 1.0, None);
        params
    }) {
        assert_eq!(
            bits(&got),
            vec![0u32; 9],
            "0 · scale is +0.0, and 0 + 0 too"
        );
    }
}

#[test]
fn all_zero_input_has_scale_zero_and_zero_codes() {
    for n in [0, 5, 8, 40] {
        let src = vec![0.0f32; n];
        for got in on_every_tier(|| int8_scale(&src)) {
            assert_eq!(got.to_bits(), 0);
        }
        check_all_kernels(&src, 0.0);
    }
}

#[test]
fn a_single_outlier_sets_the_scale() {
    for at in [0, 7, 8, 33, 40] {
        let mut src = vec![1.0e-4f32; 41];
        src[at] = -250.0;
        for got in on_every_tier(|| int8_scale(&src)) {
            assert_eq!(got.to_bits(), (250.0f32 / 127.0).to_bits());
        }
        check_all_kernels(&src, int8_scale(&src));
    }
}

proptest! {
    /// Random vectors at random magnitudes, quantized at their own scale
    /// and at an unrelated one (saturating or collapsing most codes).
    #[test]
    fn random_vectors_match_the_oracle(
        src in prop::collection::vec(-1.0f32..1.0, 0..200),
        magnitude in prop_oneof![Just(1.0e-6f32), Just(1.0e-3), Just(1.0), Just(1.0e4)],
        other_scale in 1.0e-4f32..10.0,
    ) {
        let src: Vec<f32> = src.iter().map(|v| v * magnitude).collect();
        check_all_kernels(&src, int8_scale(&src));
        check_all_kernels(&src, other_scale);
    }
}
