//! The chunked finite scans against the per-element loop they replace:
//! `first_non_finite` and `FiniteBlobValidator` must give the same verdict
//! and name the same first index, with NaN (any payload, either sign) and
//! ±Inf placed on and around the 256-value chunk boundaries.

use proptest::prelude::*;
use vc_middleware::{first_non_finite, FiniteBlobValidator, ValidationVerdict, Validator};

/// The oracle: the loop the scans replaced.
fn per_element(values: &[f32]) -> Option<usize> {
    values.iter().position(|v| !v.is_finite())
}

fn blob(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0x5643_5031u32.to_le_bytes());
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// A finite value from any bit pattern: one whose exponent is all ones
/// gets exponent 0xfe instead (±huge, finite); zeros, subnormals and
/// `±f32::MAX` come through as drawn.
fn finite(bits: u32) -> f32 {
    let v = f32::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f32::from_bits(bits & 0xff7f_ffff)
    }
}

/// ±Inf or a NaN with any payload and sign, from any bit pattern.
fn non_finite(bits: u32) -> f32 {
    f32::from_bits(bits | 0x7f80_0000)
}

/// An index of a vector `len` long on or next to chunk boundary `k` (from
/// the front) or next to its last element.
fn near_boundary(len: usize, k: usize, off: i64, from_end: bool) -> usize {
    let at = if from_end {
        len as i64 - 1 - off
    } else {
        (256 * k) as i64 + off - 2
    };
    at.clamp(0, len as i64 - 1) as usize
}

proptest! {
    #[test]
    fn scans_match_the_per_element_loop(
        bits in prop::collection::vec(any::<u32>(), 1..1100),
        bad in prop::collection::vec((0usize..5, 0i64..5, 0u8..2, any::<u32>()), 0..4),
    ) {
        let mut values: Vec<f32> = bits.iter().map(|&b| finite(b)).collect();
        for (k, off, from_end, b) in bad {
            let at = near_boundary(values.len(), k, off, from_end == 1);
            values[at] = non_finite(b);
        }
        let want = per_element(&values);
        prop_assert_eq!(first_non_finite(&values), want);
        let verdict = FiniteBlobValidator::with_len(values.len()).validate(&blob(&values));
        match want {
            None => prop_assert_eq!(verdict, ValidationVerdict::Valid),
            Some(i) => prop_assert_eq!(verdict, ValidationVerdict::Invalid {
                reason: format!("non-finite parameter at index {i}"),
            }),
        }
    }
}

#[test]
fn every_boundary_position_and_kind_is_found() {
    let kinds = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7f80_0001),
    ];
    for len in [1, 255, 256, 257, 511, 512, 513, 1024] {
        for at in [0, 254, 255, 256, 257, 511, 512, 513, len - 1] {
            if at >= len {
                continue;
            }
            for bad in kinds {
                let mut values = vec![f32::MAX; len];
                values[at] = bad;
                assert_eq!(
                    first_non_finite(&values),
                    Some(at),
                    "len {len} at {at} {bad}"
                );
                // A second bad value later in the same or the next chunk
                // does not move the first.
                if at + 3 < len {
                    values[at + 3] = f32::INFINITY;
                }
                assert_eq!(first_non_finite(&values), Some(at), "len {len} at {at}");
            }
        }
        assert_eq!(first_non_finite(&vec![-f32::MAX; len]), None);
    }
    assert_eq!(first_non_finite(&[]), None);
}
