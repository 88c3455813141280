//! Update codecs: quantized, delta-encoded parameter transfer.
//!
//! The paper's modeled cost is dominated by shipping the full parameter
//! file between server and volunteers every round. This module cuts that
//! cost the way DeDLOC does for open collaborations: each shard moves as a
//! **delta against the version the peer already holds**, quantized to
//! int8, with an error-feedback residual keeping the upload stream
//! unbiased over time. [`Codec`] is the choice between that and the
//! paper's full-precision transfer — the two shapes of traffic the system
//! runs.
//!
//! ## Blob formats (all little-endian)
//!
//! | codec | layout | size |
//! |-------|--------|------|
//! | `Raw`  | VCP1 (`vc-tensor::codec`) | `12 + 4n` |
//! | `Int8` | `[n u32][scale f32][tokens]` | `≤ 8 + n` |
//!
//! `Int8` tokens are literal `i8` codes except the reserved byte `0x80`
//! (`-128`, never produced by quantization) which escapes a zero run:
//! `[0x80][run u16]`. Quantized deltas are mostly zeros — a weight whose
//! update rounds below `scale/2` encodes as 0 — so run suppression is what
//! pushes `Int8` past the 4× floor of plain byte-per-weight quantization.
//!
//! ## Error feedback
//!
//! With `Q` the int8 quantizer, the sender keeps a residual `r` per element
//! and transmits `ŷ = Q(x + r)` for update `x`, then sets `r ← (x + r) − ŷ`.
//! The quantization error is re-injected into the next update instead of
//! being lost, so the *accumulated* transmitted signal tracks the true
//! accumulated updates — compression error stays bounded instead of
//! compounding (Stich et al.; the DeDLOC averaging argument).
//!
//! The two directions differ. The service's publish path needs no explicit
//! residual: its reference only advances by what was transmitted, so the
//! lag *is* the feedback — and the reference is nothing but the `Shard`
//! payloads of the previous publish, which `advance_reference` reads and
//! rewrites in one fused pass per moved shard. A worker's upload does need
//! one — its base re-syncs every round — and [`apply_update_roundtrip`] is
//! that shaping: the residual lives with the worker (cleared wherever the
//! update is not finite, so one NaN cannot live in it for good), the
//! upload is priced at [`Codec::blob_len`], and the shaped replica goes to
//! the scheduler. Nothing is pushed to the parameter service.
//!
//! The `Int8` arithmetic — scale, quantize, dequantize, and the fused
//! quantize → dequantize → residual pass — is `vc_tensor::quant`'s
//! kernels, AVX2 where the host has it; this module owns the wire form
//! around them: the token stream, its validation, and the order the
//! passes run in.
//!
//! Every decode path here is hostile-input-safe: truncated, oversized,
//! bit-flipped or internally inconsistent blobs return an error, never
//! panic, never over-allocate beyond the declared element count already
//! validated by the caller.

use serde::{Deserialize, Serialize};
use vc_tensor::codec::{read_le_values, write_le_values};
use vc_tensor::quant::{
    int8_codes_as_bytes, int8_codes_from_bytes, int8_delta_roundtrip, int8_delta_scale,
    int8_dequantize_add, int8_dequantize_slice, int8_quantize_slice, int8_scale,
};

/// Length of the codec descriptor appended to `FetchReq` payloads and
/// embedded in delta frames: `[id u8][flags u8][reserved u32]`. The four
/// reserved bytes are written 0 and ignored on read; they stay so that no
/// frame changes size.
pub const DESC_LEN: usize = 6;

/// Flag bit: sender maintains an error-feedback residual for this stream.
const FLAG_ERROR_FEEDBACK: u8 = 0b0000_0001;

/// Int8 escape byte opening a `[0x80][run u16]` zero-run token.
const INT8_ZERO_ESCAPE: u8 = 0x80;
/// Zero runs shorter than this encode as literal zero bytes (the escape
/// token itself costs 3 bytes).
const INT8_MIN_RUN: usize = 4;
/// Elements the Int8 paths quantize at a time: the codes of one block sit
/// on the stack between the kernel that produces them and the token
/// writer, so no path holds a shard's worth of codes.
const INT8_BLOCK: usize = 1024;

/// Folds a stream of int8 codes into wire tokens, a block at a time: runs
/// of at least [`INT8_MIN_RUN`] zeros (and at most `u16::MAX`, the longest
/// one token can carry) become `[0x80][run u16]`, everything else goes out
/// as literal bytes. A run may span blocks; [`finish`](Self::finish) emits
/// the one still open.
struct Int8TokenWriter<'a> {
    out: &'a mut Vec<u8>,
    zeros: usize,
}

impl<'a> Int8TokenWriter<'a> {
    /// Appends the blob header — `[n u32][scale f32]` — to `out`, sized for
    /// the worst case, and returns the writer of the tokens that follow.
    fn begin(out: &'a mut Vec<u8>, n: usize, scale: f32) -> Self {
        assert!(n <= u32::MAX as usize, "update too large for wire header");
        out.reserve(8 + n);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&scale.to_le_bytes());
        Int8TokenWriter { out, zeros: 0 }
    }

    fn push(&mut self, mut codes: &[i8]) {
        const MAX_RUN: usize = u16::MAX as usize;
        while !codes.is_empty() {
            let mut zeros = codes.iter().position(|&c| c != 0).unwrap_or(codes.len());
            codes = &codes[zeros..];
            while self.zeros + zeros >= MAX_RUN {
                zeros -= MAX_RUN - self.zeros;
                self.zeros = MAX_RUN;
                self.flush_zeros();
            }
            self.zeros += zeros;
            let literals = codes.iter().position(|&c| c == 0).unwrap_or(codes.len());
            if literals > 0 {
                self.flush_zeros();
                self.out
                    .extend_from_slice(int8_codes_as_bytes(&codes[..literals]));
            }
            codes = &codes[literals..];
        }
    }

    fn flush_zeros(&mut self) {
        if self.zeros >= INT8_MIN_RUN {
            self.out.push(INT8_ZERO_ESCAPE);
            self.out
                .extend_from_slice(&(self.zeros as u16).to_le_bytes());
        } else {
            self.out.extend(std::iter::repeat_n(0u8, self.zeros));
        }
        self.zeros = 0;
    }

    fn finish(mut self) {
        self.flush_zeros();
    }
}

/// One token of an Int8 blob, as the elements it stands for.
enum Int8Token<'a> {
    /// Literal codes, one element each.
    Codes(&'a [i8]),
    /// A run of this many zero codes.
    Zeros(usize),
}

/// Walks the tokens of an Int8 blob body that must cover exactly `n`
/// elements.
#[derive(Clone)]
struct Int8Tokens<'a> {
    bytes: &'a [u8],
    emitted: usize,
    n: usize,
}

impl<'a> Int8Tokens<'a> {
    /// The next token and the element offset it starts at; `None` once
    /// the body has covered its `n` elements, an error at the first token
    /// that is malformed or does not fit.
    fn next(&mut self) -> Result<Option<(usize, Int8Token<'a>)>, &'static str> {
        let at = self.emitted;
        let left = self.n - at;
        let Some(&first) = self.bytes.first() else {
            return if left == 0 {
                Ok(None)
            } else {
                Err("int8 blob short")
            };
        };
        if first == INT8_ZERO_ESCAPE {
            let Some(&[_, lo, hi]) = self.bytes.first_chunk::<3>() else {
                return Err("int8 zero-run truncated");
            };
            let run = u16::from_le_bytes([lo, hi]) as usize;
            if run == 0 || run > left {
                return Err("int8 zero-run out of range");
            }
            self.bytes = &self.bytes[3..];
            self.emitted += run;
            return Ok(Some((at, Int8Token::Zeros(run))));
        }
        // A literal run ends at the next escape; one longer than `left`
        // is an error, so the scan looks no further than `left + 1` bytes.
        let window = &self.bytes[..self.bytes.len().min(left + 1)];
        let len = find_escape(window).unwrap_or(window.len());
        if len > left {
            return Err("int8 blob overlong");
        }
        let (codes, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        self.emitted += len;
        Ok(Some((at, Int8Token::Codes(int8_codes_from_bytes(codes)))))
    }
}

/// Index of the first [`INT8_ZERO_ESCAPE`] in `bytes`, eight bytes a step:
/// XOR makes an escape byte zero, and `(x − 0x01…01) & !x & 0x80…80` flags
/// the zero bytes of `x`. Bytes below the first zero borrow nothing, so the
/// lowest flag is exact (a flag above it may be a borrow's, and is never
/// read).
fn find_escape(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const ESCAPES: u64 = ONES * INT8_ZERO_ESCAPE as u64;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ ESCAPES;
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| b == INT8_ZERO_ESCAPE)
        .map(|p| at + p)
}

/// Checks an Int8 blob's header against the `n` elements the caller
/// expects — before anything is sized by the count it declares — and
/// returns its scale and token stream.
fn int8_parse(blob: &[u8], n: usize) -> Result<(f32, Int8Tokens<'_>), &'static str> {
    let Some((header, body)) = blob.split_first_chunk::<8>() else {
        return Err("int8 blob truncated");
    };
    let [n0, n1, n2, n3, s0, s1, s2, s3] = *header;
    if u32::from_le_bytes([n0, n1, n2, n3]) as usize != n {
        return Err("update blob element count mismatch");
    }
    let scale = f32::from_le_bytes([s0, s1, s2, s3]);
    if !scale.is_finite() {
        return Err("int8 scale not finite");
    }
    let tokens = Int8Tokens {
        bytes: body,
        emitted: 0,
        n,
    };
    Ok((scale, tokens))
}

/// How a parameter update crosses the wire: `Raw` is the paper's
/// full-precision transfer, bit-exact; `Int8` quantizes deltas and relies on
/// error feedback (where enabled) plus the quorum tolerance comparator to
/// stay in the clean accuracy band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Codec {
    /// Full-precision VCP1 blobs; byte-identical to the pre-codec protocol.
    #[default]
    Raw,
    /// Symmetric int8 with zero-run suppression: ≥4× smaller on update
    /// deltas.
    Int8 {
        /// Keep a residual so quantization error feeds the next update.
        error_feedback: bool,
    },
}

impl Codec {
    /// Stable wire identifier. Ids are never reused: ids 1 and 3 are
    /// retired (DESIGN §12a) and a new codec would append.
    pub(crate) fn id(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Int8 { .. } => 2,
        }
    }

    /// True for the mode that loses bits on the wire.
    pub fn is_lossy(self) -> bool {
        self != Codec::Raw
    }

    /// Whether the sender maintains an error-feedback residual.
    fn error_feedback(self) -> bool {
        self == Codec::Int8 {
            error_feedback: true,
        }
    }

    /// Worst-case encoded size of one `n`-element update under this codec.
    /// Used both to size scratch buffers and as the modeled upload cost in
    /// the coordinator's byte accounting (`Raw` matches the legacy VCP1
    /// size exactly).
    pub fn blob_len(self, n: usize) -> usize {
        match self {
            Codec::Raw => vc_tensor::codec::encoded_len(n),
            Codec::Int8 { .. } => 8 + n,
        }
    }

    /// `(atol, rtol)` for the quorum comparator when replicas of the same
    /// workunit diverge only by codec noise. Raw needs none (bitwise).
    ///
    /// `rtol` is always 0: a relative term scales with the *uploaded*
    /// values, so an adversary who poisons with large magnitudes widens
    /// its own acceptance band until two differently-salted poisons agree.
    /// Honest replica divergence is codec noise on O(1) parameters, which
    /// an absolute band covers.
    pub fn quorum_tolerance(self) -> (f32, f32) {
        match self {
            Codec::Raw => (0.0, 0.0),
            Codec::Int8 { .. } => (1e-1, 0.0),
        }
    }

    /// Append the 6-byte wire descriptor.
    pub(crate) fn write_desc(self, out: &mut Vec<u8>) {
        let flags = if self.error_feedback() {
            FLAG_ERROR_FEEDBACK
        } else {
            0
        };
        out.extend_from_slice(&[self.id(), flags, 0, 0, 0, 0]);
    }

    /// Parse a 6-byte descriptor. `Err(id)` reports an id this build does
    /// not speak — unassigned or retired — so the caller can answer with a
    /// structured `Error` frame.
    pub(crate) fn read_desc(desc: &[u8]) -> Result<Codec, u8> {
        assert_eq!(desc.len(), DESC_LEN, "descriptor must be exactly 6 bytes");
        match desc[0] {
            0 => Ok(Codec::Raw),
            2 => Ok(Codec::Int8 {
                error_feedback: desc[1] & FLAG_ERROR_FEEDBACK != 0,
            }),
            id => Err(id),
        }
    }

    /// Quantize update `x` into `out` (cleared first). `Raw` writes a VCP1
    /// blob so both modes are drivable through one entry point.
    pub fn encode_update(self, x: &[f32], out: &mut Vec<u8>) {
        out.clear();
        match self {
            Codec::Raw => out.extend_from_slice(&vc_tensor::codec::encode_f32s(x)),
            Codec::Int8 { .. } => {
                let scale = int8_scale(x);
                // Quantize a block at a time and fold zero runs over its
                // bytes, so the steady-state path never allocates beyond
                // `out`'s retained capacity.
                let mut tokens = Int8TokenWriter::begin(out, x.len(), scale);
                let mut codes = [0i8; INT8_BLOCK];
                for block in x.chunks(INT8_BLOCK) {
                    let codes = &mut codes[..block.len()];
                    int8_quantize_slice(block, scale, codes);
                    tokens.push(codes);
                }
                tokens.finish();
            }
        }
    }

    /// Decode an update blob into `out`, replacing what it held with the
    /// `n` decoded elements. `n` is the shard length the *caller* expects —
    /// a blob declaring any other element count is rejected before any
    /// allocation happens, so a hostile length field cannot balloon memory.
    /// On error `out` is left empty.
    pub fn decode_update_into(
        self,
        blob: &[u8],
        n: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), &'static str> {
        let mut decode = || match self {
            Codec::Raw => {
                vc_tensor::codec::decode_f32s_into(blob, out).map_err(|_| "bad raw blob")?;
                if out.len() != n {
                    return Err("raw blob length mismatch");
                }
                Ok(())
            }
            Codec::Int8 { .. } => {
                let (scale, mut tokens) = int8_parse(blob, n)?;
                // Every element is written below, so what a reused `out`
                // still holds needs no clearing first.
                out.resize(n, 0.0);
                while let Some((at, token)) = tokens.next()? {
                    match token {
                        Int8Token::Codes(codes) => {
                            int8_dequantize_slice(codes, scale, &mut out[at..at + codes.len()]);
                        }
                        Int8Token::Zeros(run) => out[at..at + run].fill(0.0),
                    }
                }
                Ok(())
            }
        };
        let decoded = decode();
        if decoded.is_err() {
            out.clear();
        }
        decoded
    }

    /// Adds the quantized delta in `blob` onto `dst`, the shard it updates:
    /// `dst[i] += y[i]` for the `y`
    /// [`decode_update_into`](Self::decode_update_into) would produce,
    /// element for element. All or nothing — `dst` is untouched unless the
    /// whole token stream is valid for `dst.len()` elements; it is
    /// validated first and then dequantize-added in place, so nothing is
    /// allocated. A `Raw` blob is a shard's values, not an update to them,
    /// and is an error.
    pub fn add_update_to(self, blob: &[u8], dst: &mut [f32]) -> Result<(), &'static str> {
        let Codec::Int8 { .. } = self else {
            return Err("a raw blob is not a delta");
        };
        let (scale, mut tokens) = int8_parse(blob, dst.len())?;
        let mut check = tokens.clone();
        while check.next()?.is_some() {}
        while let Some((at, token)) = tokens.next().expect("validated above") {
            match token {
                Int8Token::Codes(codes) => {
                    int8_dequantize_add(codes, scale, &mut dst[at..at + codes.len()]);
                }
                // Adding the run's `+0.0` is not a no-op: it turns a
                // `-0.0` into `+0.0`, as adding the decoded vector does.
                Int8Token::Zeros(run) => {
                    for p in &mut dst[at..at + run] {
                        *p += 0.0;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Worker-side upload shaping: replace `params` with what the server will
/// reconstruct after this worker's update crosses the `Int8` wire (`Raw`
/// loses nothing and leaves everything as it is).
///
/// `base` is the parameter vector the worker fetched (which the server can
/// reconstruct from its snapshot history); the transmitted update is
/// `params − base` plus the worker's residual. After the call `params`
/// equals `base + decode(encode(update))` — exactly the value the server
/// will merge — and the residual carries the quantization error forward.
///
/// Bit-identical to [`Codec::encode_update`] → [`Codec::decode_update_into`]
/// → `params = base + y` (the `encode_delta` oracle in
/// `tests/codec_props.rs`), but no blob is materialized: nothing reads it
/// (uploads are charged [`Codec::blob_len`], nothing is pushed over the
/// wire), and an element's decode depends only on its own
/// quantized code and the shard-wide scale. So it takes two passes over the
/// caller's own vectors — the scale of `x = params − base + residual`
/// ([`int8_delta_scale`]), then the same `x` recomputed, quantized and
/// written back ([`int8_delta_roundtrip`]) — and allocates nothing.
///
/// `residual` must be empty (treated as all-zero) or exactly `params.len()`;
/// without error feedback it is left untouched. Where `x` is not finite the
/// residual is cleared rather than set to `x − y`: the NaN or Inf would
/// otherwise come back in every later round's `x`.
pub fn apply_update_roundtrip(
    codec: Codec,
    base: &[f32],
    params: &mut [f32],
    residual: &mut Vec<f32>,
) {
    assert_eq!(base.len(), params.len());
    let Codec::Int8 { error_feedback } = codec else {
        return;
    };
    if error_feedback && residual.len() != params.len() {
        residual.clear();
        residual.resize(params.len(), 0.0);
    }
    let scale = int8_delta_scale(params, base, error_feedback.then_some(&residual[..]));
    let residual = error_feedback.then_some(&mut residual[..]);
    int8_delta_roundtrip(base, params, residual, scale, None);
}

/// Publish-side counterpart of [`apply_update_roundtrip`]: advances the
/// reference every delta-tracking worker holds, read and written in wire
/// form. `prev` is the `Shard` payload of the previous publish (a VCP1
/// blob) — it *is* the reference — and `values` the shard's new
/// full-precision values, as the VCP1 blob the store holds them in. The
/// update `values − reference` is appended to `blob` as an `Int8` blob, and
/// the returned VCP1 blob holds `reference + decode(update)`: the next
/// `Shard` payload, and exactly what a worker that applies the update to
/// its copy of `prev` ends up with.
///
/// Two passes over the shard, a block at a time — the scale of the update
/// (the largest of the blocks' scales: dividing by 127 is monotonic), then
/// [`int8_delta_roundtrip`] writing the advanced reference into the new
/// payload while the block's codes fold into tokens — reading both blobs
/// through stack blocks and keeping nothing shard-sized besides the two
/// payloads, and giving the bits of the compose-from-primitives sequence
/// `tests/codec_props.rs` keeps as the oracle.
pub(crate) fn advance_reference(values: &[u8], prev: &[u8], blob: &mut Vec<u8>) -> Vec<u8> {
    let values = vc_tensor::codec::value_bytes(values).expect("own shard blobs are valid");
    let prev = vc_tensor::codec::value_bytes(prev).expect("own shard blobs are valid");
    assert_eq!(prev.len(), values.len(), "reference length");
    let n = values.len() / 4;
    let mut next = vc_tensor::codec::zeroed_blob(n);
    let next_values = &mut next[vc_tensor::codec::HEADER_LEN..];
    let (mut base, mut cur) = ([0.0f32; INT8_BLOCK], [0.0f32; INT8_BLOCK]);
    let mut codes = [0i8; INT8_BLOCK];
    let mut scale = 0.0f32;
    for (v, prev) in values
        .chunks(4 * INT8_BLOCK)
        .zip(prev.chunks(4 * INT8_BLOCK))
    {
        let (base, cur) = (&mut base[..v.len() / 4], &mut cur[..v.len() / 4]);
        read_le_values(prev, base);
        read_le_values(v, cur);
        scale = scale.max(int8_delta_scale(cur, base, None));
    }
    let mut tokens = Int8TokenWriter::begin(blob, n, scale);
    let blocks = values
        .chunks(4 * INT8_BLOCK)
        .zip(prev.chunks(4 * INT8_BLOCK))
        .zip(next_values.chunks_mut(4 * INT8_BLOCK));
    for ((v, prev), next) in blocks {
        let len = v.len() / 4;
        let (base, cur, codes) = (&mut base[..len], &mut cur[..len], &mut codes[..len]);
        read_le_values(prev, base);
        read_le_values(v, cur);
        int8_delta_roundtrip(base, cur, None, scale, Some(codes));
        write_le_values(cur, next);
        tokens.push(codes);
    }
    tokens.finish();
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.02)
            .collect()
    }

    /// The word-at-a-time escape scan finds what a byte-at-a-time one
    /// does: every offset in and past the first words, among the byte
    /// values next to the escape (a borrow's false flags sit above a true
    /// zero), and none at all.
    #[test]
    fn escape_scan_matches_bytewise() {
        let fill = [0x7f, 0x81, 0x00, 0x01, 0xff, 0x7e];
        for len in 0..40 {
            for esc in (0..len).map(Some).chain([None]) {
                for f in 0..fill.len() {
                    let mut bytes: Vec<u8> = (0..len).map(|i| fill[(i + f) % fill.len()]).collect();
                    if let Some(at) = esc {
                        bytes[at] = INT8_ZERO_ESCAPE;
                        // A second escape after the first must not move it.
                        if at + 3 < len {
                            bytes[at + 3] = INT8_ZERO_ESCAPE;
                        }
                    }
                    let want = bytes.iter().position(|&b| b == INT8_ZERO_ESCAPE);
                    assert_eq!(find_escape(&bytes), want, "{bytes:02x?}");
                }
            }
        }
    }

    #[test]
    fn descriptor_roundtrips_every_mode() {
        for codec in [
            Codec::Raw,
            Codec::Int8 {
                error_feedback: true,
            },
            Codec::Int8 {
                error_feedback: false,
            },
        ] {
            let mut d = Vec::new();
            codec.write_desc(&mut d);
            assert_eq!(d.len(), DESC_LEN);
            assert_eq!(d[2..], [0; 4], "reserved bytes are written 0");
            assert_eq!(Codec::read_desc(&d), Ok(codec));
            // ... and ignored on read.
            d[2..].copy_from_slice(&1234u32.to_le_bytes());
            assert_eq!(Codec::read_desc(&d), Ok(codec));
        }
        // Unassigned and retired ids alike.
        for id in [1, 3, 9] {
            assert_eq!(Codec::read_desc(&[id, 1, 0, 0, 0, 0]), Err(id));
        }
    }

    #[test]
    fn raw_update_roundtrips_bitwise() {
        let x = ramp(513);
        let (mut blob, mut y) = (Vec::new(), Vec::new());
        Codec::Raw.encode_update(&x, &mut blob);
        assert_eq!(blob.len(), Codec::Raw.blob_len(x.len()));
        Codec::Raw
            .decode_update_into(&blob, x.len(), &mut y)
            .unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn int8_update_within_half_scale_and_compresses_zeros() {
        let mut x = vec![0.0f32; 1000];
        for i in (0..1000).step_by(10) {
            x[i] = ((i % 13) as f32 - 6.0) * 0.1;
        }
        let codec = Codec::Int8 {
            error_feedback: false,
        };
        let (mut blob, mut y) = (Vec::new(), Vec::new());
        codec.encode_update(&x, &mut blob);
        assert!(
            blob.len() < 8 + 1000 / 2,
            "zero runs must collapse: got {} bytes",
            blob.len()
        );
        codec.decode_update_into(&blob, x.len(), &mut y).unwrap();
        let scale = int8_scale(&x);
        for (&a, &b) in x.iter().zip(&y) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-7);
        }
    }

    #[test]
    fn hostile_blobs_error_instead_of_panicking() {
        let codec = Codec::Int8 {
            error_feedback: false,
        };
        let x = ramp(64);
        let mut blob = Vec::new();
        codec.encode_update(&x, &mut blob);
        let mut out = Vec::new();
        // Truncations at every length.
        for cut in 0..blob.len() {
            let _ = codec.decode_update_into(&blob[..cut], 64, &mut out);
        }
        // Wrong expected length.
        assert!(codec.decode_update_into(&blob, 63, &mut out).is_err());
        // Oversize run.
        let mut evil = Vec::new();
        evil.extend_from_slice(&64u32.to_le_bytes());
        evil.extend_from_slice(&1.0f32.to_le_bytes());
        evil.push(INT8_ZERO_ESCAPE);
        evil.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(codec.decode_update_into(&evil, 64, &mut out).is_err());
        assert!(out.is_empty(), "failed decode leaves out empty");
    }

    /// Simulates a worker's upload stream: each round the sender's base
    /// is re-synced to the receiver's state (as `ShardCache::sync` does),
    /// so the small steps Int8 rounds to zero — one large coordinate sets
    /// the scale — would be lost forever without an explicit residual.
    /// With EF the dropped mass rides along until it crosses half a
    /// quantization step and ships. Error, mass and residual norm are over
    /// the small coordinates.
    fn run_upload_stream(ef: bool) -> (f32, f32, f32) {
        let n = 32;
        let codec = Codec::Int8 { error_feedback: ef };
        let mut acc = vec![0.0f32; n + 1]; // receiver state == re-synced base
        let mut sum_u = vec![0.0f32; n]; // total true update mass
        let mut new = vec![0.0f32; n + 1];
        let mut residual = Vec::new();
        for step in 0..200 {
            for i in 0..n {
                let u = 0.001 * ((i + 1) as f32) * if step % 2 == 0 { 1.0 } else { 0.9 };
                sum_u[i] += u;
                new[i] = acc[i] + u;
            }
            // Scale 10/127: every small step is below half of it.
            new[n] = acc[n] + 10.0;
            apply_update_roundtrip(codec, &acc, &mut new, &mut residual);
            acc.copy_from_slice(&new);
        }
        let err: f32 = sum_u.iter().zip(&acc).map(|(a, b)| (a - b).abs()).sum();
        let mass: f32 = sum_u.iter().map(|t| t.abs()).sum();
        let rnorm: f32 = residual.iter().take(n).map(|r| r * r).sum::<f32>().sqrt();
        (err, mass, rnorm)
    }

    #[test]
    fn error_feedback_transmits_dropped_mass_eventually() {
        let (err, mass, rnorm) = run_upload_stream(true);
        assert!(
            err < mass * 0.10,
            "EF receiver should track total update mass: err {err} vs mass {mass}"
        );
        // The residual itself stays bounded (no blow-up).
        assert!(rnorm.is_finite() && rnorm < mass, "residual norm bounded");
        // Without EF, mass below half a quantization step is dropped forever.
        let (err_no_ef, _, _) = run_upload_stream(false);
        assert!(
            err_no_ef > mass * 0.3,
            "without EF most sub-threshold mass is lost: err {err_no_ef} vs mass {mass}"
        );
    }
}
