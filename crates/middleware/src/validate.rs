//! Result validation (BOINC's validator service).

use serde::{Deserialize, Serialize};

/// Verdict on an uploaded result.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationVerdict {
    /// The result may be assimilated.
    Valid,
    /// The result must be discarded and the workunit re-issued.
    Invalid {
        /// Human-readable cause for logs and metrics.
        reason: String,
    },
}

/// Values per chunk of the finite scans. Each chunk is one branch-free
/// fold the compiler vectorizes; only a chunk that fails it is searched
/// for its first bad index.
const FINITE_CHUNK: usize = 256;

/// Index of the first NaN or ±Inf in `values`, `None` when every value is
/// finite: the criterion every result upload is screened by, one
/// branch-free fold per `FINITE_CHUNK` (256) values.
pub fn first_non_finite(values: &[f32]) -> Option<usize> {
    first_non_finite_by(values, |v| v.to_bits())
}

/// [`first_non_finite`] over items that `bits` reads as `f32` bit patterns.
/// A value is non-finite exactly when its magnitude bits reach the
/// all-ones exponent (`0x7f80_0000`: ±Inf, then every NaN above it), so a
/// chunk's verdict is an unsigned max over its magnitudes.
fn first_non_finite_by<T>(items: &[T], bits: impl Fn(&T) -> u32) -> Option<usize> {
    const MAGNITUDE: u32 = 0x7fff_ffff;
    const INF: u32 = 0x7f80_0000;
    let bad = |x: &T| bits(x) & MAGNITUDE >= INF;
    items
        .chunks(FINITE_CHUNK)
        .enumerate()
        .find(|(_, chunk)| chunk.iter().fold(0, |m, x| m.max(bits(x) & MAGNITUDE)) >= INF)
        .and_then(|(c, chunk)| Some(c * FINITE_CHUNK + chunk.iter().position(bad)?))
}

/// A validator inspects a result blob before it reaches the assimilator.
pub trait Validator: Send + Sync {
    /// Judges one uploaded result payload.
    fn validate(&self, payload: &[u8]) -> ValidationVerdict;
}

/// Validates that a payload parses as a `vc-tensor` parameter blob of the
/// expected length with only finite values — the checks a DL validator must
/// make before trusting a volunteer's parameter upload (a diverged or
/// corrupted client otherwise poisons the server copy).
pub struct FiniteBlobValidator {
    /// Expected parameter count; `None` skips the length check.
    pub expected_len: Option<usize>,
}

impl FiniteBlobValidator {
    /// Header length of the vc-tensor blob framing.
    const HEADER: usize = 12;

    /// A validator expecting `len` parameters.
    pub fn with_len(len: usize) -> Self {
        FiniteBlobValidator {
            expected_len: Some(len),
        }
    }
}

impl Validator for FiniteBlobValidator {
    fn validate(&self, payload: &[u8]) -> ValidationVerdict {
        if payload.len() < Self::HEADER {
            return ValidationVerdict::Invalid {
                reason: format!("payload too short: {} bytes", payload.len()),
            };
        }
        // Frame check mirrors vc_tensor::codec without depending on it:
        // magic, little-endian u64 count, then f32 values.
        let magic = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        if magic != 0x5643_5031 {
            return ValidationVerdict::Invalid {
                reason: format!("bad magic 0x{magic:08x}"),
            };
        }
        let claimed = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        // The count is attacker-controlled: compute the implied byte length
        // with checked arithmetic so a hostile header is rejected instead of
        // wrapping the multiply (release) or panicking (debug).
        let Some(body_end) = usize::try_from(claimed)
            .ok()
            .and_then(|n| n.checked_mul(4))
            .and_then(|bytes| bytes.checked_add(Self::HEADER))
        else {
            return ValidationVerdict::Invalid {
                reason: format!("implausible value count {claimed}"),
            };
        };
        let n = claimed as usize;
        if payload.len() < body_end {
            return ValidationVerdict::Invalid {
                reason: format!("truncated: header claims {n} values"),
            };
        }
        if let Some(expected) = self.expected_len {
            if n != expected {
                return ValidationVerdict::Invalid {
                    reason: format!("wrong parameter count {n}, expected {expected}"),
                };
            }
        }
        let (values, _) = payload[Self::HEADER..body_end].as_chunks::<4>();
        match first_non_finite_by(values, |b| u32::from_le_bytes(*b)) {
            Some(i) => ValidationVerdict::Invalid {
                reason: format!("non-finite parameter at index {i}"),
            },
            None => ValidationVerdict::Valid,
        }
    }
}

/// Decides whether two already-validated result payloads agree for quorum
/// purposes (BOINC's `check_pair`). Payloads are screened by a [`Validator`]
/// before they get here, so implementations may assume finite values.
pub trait ResultComparator: Send + Sync {
    /// True when the two payloads count as the same result.
    fn matches(&self, a: &[f32], b: &[f32]) -> bool;
}

/// Exact agreement: same length, bit-identical values. The right choice for
/// deterministic clients — ours are, since subtask training is a pure
/// function of (snapshot, epoch, shard).
pub struct BitwiseComparator;

impl ResultComparator for BitwiseComparator {
    fn matches(&self, a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

/// Tolerance-based agreement for clients with benign numeric divergence
/// (fused-math kernels, different SIMD widths): every element within
/// `atol + rtol·|b|`.
pub struct ToleranceComparator {
    /// Absolute tolerance.
    pub atol: f32,
    /// Relative tolerance, scaled by the second operand's magnitude.
    pub rtol: f32,
}

impl ResultComparator for ToleranceComparator {
    fn matches(&self, a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= self.atol + self.rtol * y.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(values: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&0x5643_5031u32.to_le_bytes());
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn accepts_well_formed_blob() {
        let v = FiniteBlobValidator::with_len(3);
        assert_eq!(
            v.validate(&blob(&[1.0, -2.0, 0.5])),
            ValidationVerdict::Valid
        );
    }

    #[test]
    fn rejects_nan_and_inf() {
        let v = FiniteBlobValidator { expected_len: None };
        assert_ne!(
            v.validate(&blob(&[1.0, f32::NAN])),
            ValidationVerdict::Valid
        );
        assert_ne!(
            v.validate(&blob(&[f32::INFINITY])),
            ValidationVerdict::Valid
        );
    }

    #[test]
    fn rejects_wrong_length() {
        let v = FiniteBlobValidator::with_len(2);
        let verdict = v.validate(&blob(&[1.0, 2.0, 3.0]));
        assert!(matches!(
            verdict,
            ValidationVerdict::Invalid { ref reason } if reason.contains("wrong parameter count")
        ));
    }

    #[test]
    fn rejects_garbage() {
        let v = FiniteBlobValidator { expected_len: None };
        assert_ne!(v.validate(b"not a blob"), ValidationVerdict::Valid);
        assert_ne!(v.validate(&[]), ValidationVerdict::Valid);
        let mut truncated = blob(&[1.0, 2.0]);
        truncated.truncate(truncated.len() - 3);
        assert_ne!(v.validate(&truncated), ValidationVerdict::Valid);
    }

    /// A hostile header whose count overflows `4 * n + HEADER` must come
    /// back `Invalid`, not wrap into a bogus bound or panic the server.
    #[test]
    fn rejects_overflowing_counts_in_hostile_headers() {
        let v = FiniteBlobValidator { expected_len: None };
        for n in [
            u64::MAX,
            u64::MAX / 4,
            u64::MAX / 4 + 1,
            (usize::MAX as u64).saturating_add(1),
            u64::MAX - 2, // 4*n wraps to a tiny value in release builds
        ] {
            let mut payload = Vec::new();
            payload.extend_from_slice(&0x5643_5031u32.to_le_bytes());
            payload.extend_from_slice(&n.to_le_bytes());
            payload.extend_from_slice(&[0u8; 64]);
            let verdict = v.validate(&payload);
            assert!(
                matches!(
                    verdict,
                    ValidationVerdict::Invalid { ref reason }
                        if reason.contains("implausible") || reason.contains("truncated")
                ),
                "count {n}: {verdict:?}"
            );
        }
    }

    #[test]
    fn bitwise_comparator_demands_exact_bits() {
        let c = BitwiseComparator;
        assert!(c.matches(&[1.0, -2.5], &[1.0, -2.5]));
        assert!(!c.matches(&[1.0], &[1.0 + f32::EPSILON]));
        assert!(!c.matches(&[1.0], &[1.0, 2.0]));
        assert!(c.matches(&[], &[]));
    }

    #[test]
    fn tolerance_comparator_admits_benign_divergence() {
        let c = ToleranceComparator {
            atol: 1e-6,
            rtol: 1e-4,
        };
        assert!(c.matches(&[100.0, -3.0], &[100.005, -3.0]));
        assert!(!c.matches(&[100.0], &[101.0]));
        assert!(!c.matches(&[1.0, 2.0], &[1.0]));
    }

    mod adversarial {
        use super::*;
        use proptest::prelude::*;

        /// Stretch a raw draw across the regions that matter: tiny counts,
        /// counts near the `4·n` overflow edge, and full-width garbage.
        fn stretch_count(raw: u64, scheme: u64) -> u64 {
            match scheme % 4 {
                0 => raw % 64,                  // plausibly small
                1 => u64::MAX - (raw % 64),     // wraps 4·n
                2 => u64::MAX / 4 + (raw % 64), // straddles the edge
                _ => raw,                       // anywhere
            }
        }

        proptest! {
            /// Adversarial headers — well-formed magic, hostile count —
            /// never panic the validator, and any `Valid` verdict implies
            /// the payload really carries the claimed body.
            #[test]
            fn validator_never_panics_on_adversarial_headers(
                raw in 0u64..u64::MAX,
                scheme in 0u64..4,
                tail in prop::collection::vec(0u8..255, 0..128),
            ) {
                let count = stretch_count(raw, scheme);
                let mut payload = Vec::new();
                payload.extend_from_slice(&0x5643_5031u32.to_le_bytes());
                payload.extend_from_slice(&count.to_le_bytes());
                payload.extend_from_slice(&tail);
                let v = FiniteBlobValidator { expected_len: None };
                if v.validate(&payload) == ValidationVerdict::Valid {
                    // Valid ⇒ the header was honest about the body length.
                    prop_assert!(count as usize <= tail.len() / 4);
                }
            }

            /// Raw garbage (arbitrary magic, no framing) never panics
            /// either.
            #[test]
            fn validator_never_panics_on_raw_bytes(
                bytes in prop::collection::vec(0u8..255, 0..64),
            ) {
                let _ = FiniteBlobValidator { expected_len: None }.validate(&bytes);
            }
        }
    }
}
