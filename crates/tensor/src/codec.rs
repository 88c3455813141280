//! Binary codec for parameter vectors.
//!
//! The paper ships model parameters between clients and the server as
//! compressed `.h5` files (21.2 MB for the 4.97 M-parameter ResNetV2). We
//! encode parameter vectors as little-endian `f32` blobs with a small header;
//! the resulting byte length is what `vc-simnet` charges against the
//! instance-bandwidth model, and the blob itself is the value stored in
//! `vc-kvstore` (a Redis value / MySQL LONGBLOB analog).

use bytes::{Buf, Bytes};

/// Magic tag identifying a parameter blob (guards against feeding arbitrary
/// bytes to the decoder).
const MAGIC: u32 = 0x5643_5031; // "VCP1"

/// Errors produced when decoding a parameter blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The blob is shorter than its header claims.
    Truncated { expected: usize, got: usize },
    /// The magic tag did not match.
    BadMagic(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "blob truncated: expected {expected} bytes, got {got}")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes of a blob before its values: the magic tag and the count.
pub const HEADER_LEN: usize = 12;

/// A blob for `n` values with its header written and every value zero, for
/// a caller that produces the values in place: little-endian `f32`s from
/// [`HEADER_LEN`] on (see [`write_le_values`]).
pub fn zeroed_blob(n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; encoded_len(n)];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..HEADER_LEN].copy_from_slice(&(n as u64).to_le_bytes());
    buf
}

/// Writes `values` as little-endian bytes over `out` (`4 × values.len()`
/// long).
pub fn write_le_values(values: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 4);
    for (b, v) in out.chunks_exact_mut(4).zip(values) {
        b.copy_from_slice(&v.to_le_bytes());
    }
}

/// Reads little-endian value bytes (`4 × out.len()` long) into `out`.
pub fn read_le_values(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4);
    for (o, v) in out.iter_mut().zip(le_values(bytes)) {
        *o = v;
    }
}

/// Encodes a flat `f32` slice into a framed little-endian blob.
pub fn encode_f32s(values: &[f32]) -> Bytes {
    let mut buf = zeroed_blob(values.len());
    write_le_values(values, &mut buf[HEADER_LEN..]);
    Bytes::from(buf)
}

/// Validates a blob's header and returns its value bytes (`4 × count`).
pub fn value_bytes(mut blob: &[u8]) -> Result<&[u8], CodecError> {
    if blob.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN,
            got: blob.len(),
        });
    }
    let magic = blob.get_u32_le();
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let n = blob.get_u64_le() as usize;
    match n.checked_mul(4) {
        Some(len) if len <= blob.len() => Ok(&blob[..len]),
        _ => Err(CodecError::Truncated {
            expected: 12usize.saturating_add(n.saturating_mul(4)),
            got: 12 + blob.len(),
        }),
    }
}

fn le_values(body: &[u8]) -> impl Iterator<Item = f32> + '_ {
    body.chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Decodes into a caller-owned buffer, reusing its capacity: the hot fetch
/// path decodes every parameter read, and with a warm `out` this performs
/// no heap allocation at all. `out` is cleared first; on error it is left
/// empty.
pub fn decode_f32s_into(blob: &[u8], out: &mut Vec<f32>) -> Result<(), CodecError> {
    out.clear();
    out.extend(le_values(value_bytes(blob)?));
    Ok(())
}

/// Decodes a blob that must hold exactly `out.len()` values straight into
/// `out` — a shard into its range of an assembled parameter vector, with no
/// temporary. `out` is untouched unless the whole blob is valid.
pub fn decode_f32s_into_slice(blob: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let body = value_bytes(blob)?;
    if body.len() != out.len() * 4 {
        return Err(CodecError::Truncated {
            expected: encoded_len(out.len()),
            got: blob.len(),
        });
    }
    read_le_values(body, out);
    Ok(())
}

/// Size in bytes of an encoded parameter vector of `n` values.
pub fn encoded_len(n: usize) -> usize {
    HEADER_LEN + 4 * n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_f32s(blob: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::new();
        decode_f32s_into(blob, &mut out)?;
        Ok(out)
    }

    #[test]
    fn roundtrip_preserves_values() {
        let vals = vec![0.0, -1.5, 3.25, f32::MIN_POSITIVE, 1e30];
        let blob = encode_f32s(&vals);
        assert_eq!(decode_f32s(&blob).unwrap(), vals);
    }

    #[test]
    fn roundtrip_empty() {
        let blob = encode_f32s(&[]);
        assert_eq!(decode_f32s(&blob).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn encoded_len_matches() {
        let vals = vec![1.0; 100];
        assert_eq!(encode_f32s(&vals).len(), encoded_len(100));
    }

    #[test]
    fn decode_into_reuses_capacity_and_clears_on_error() {
        let blob = encode_f32s(&[1.0, 2.0, 3.0]);
        let mut out = Vec::with_capacity(16);
        decode_f32s_into(&blob, &mut out).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        let ptr = out.as_ptr();
        decode_f32s_into(&blob, &mut out).unwrap();
        assert_eq!(out.as_ptr(), ptr, "warm decode must not reallocate");
        assert!(decode_f32s_into(&blob[..5], &mut out).is_err());
        assert!(out.is_empty(), "error leaves the buffer empty");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut blob = encode_f32s(&[1.0]).to_vec();
        blob[0] ^= 0xff;
        assert!(matches!(decode_f32s(&blob), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn rejects_truncation() {
        let blob = encode_f32s(&[1.0, 2.0, 3.0]);
        let cut = &blob[..blob.len() - 2];
        assert!(matches!(
            decode_f32s(cut),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            decode_f32s(&blob[..5]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn paper_scale_blob_size() {
        // The paper's parameter file holds 4,972,746 parameters; our framed
        // f32 encoding of that vector is ~19 MB, the same order as the
        // paper's 21.2 MB compressed .h5 file.
        let bytes = encoded_len(4_972_746);
        assert!(bytes > 18 << 20 && bytes < 22 << 20, "{bytes}");
    }

    #[test]
    fn nan_and_inf_survive_roundtrip() {
        let vals = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let got = decode_f32s(&encode_f32s(&vals)).unwrap();
        assert!(got[0].is_nan());
        assert_eq!(got[1], f32::INFINITY);
        assert_eq!(got[2], f32::NEG_INFINITY);
    }
}
