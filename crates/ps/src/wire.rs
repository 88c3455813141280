//! Length-prefixed binary frames for the parameter service.
//!
//! Every message between a worker and the parameter service is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     len       u32 LE — bytes after this field (17 + payload)
//! 4       1     kind      FrameKind discriminant
//! 5       4     shard_id  u32 LE
//! 9       8     version   u64 LE — shard version, epoch, or error code
//! 17      4     crc32     u32 LE — IEEE CRC-32 of kind..version + payload
//! 21      len-17  payload
//! ```
//!
//! There is one encoder, [`SealedFrame::write_to`], and one decoder,
//! [`read_frame`], and both run on a byte stream: a TCP socket, or the
//! in-process loopback stream of [`crate::MemClient`]. `Frame::encode_into`
//! and `Frame::decode` are thin wrappers over them for tests and probes.
//!
//! The decoder is hostile-input safe: it rejects a frame whose declared
//! length exceeds [`MAX_PAYLOAD`] *before* allocating its payload (a
//! forged 4 GiB length cannot OOM the server), grows the payload as its
//! bytes arrive (a peer that declares a long frame and stalls holds one
//! 4 MiB `READ_STEP`, not the declared length), and verifies the checksum
//! before the payload is interpreted. Shard payloads reuse the `vc-tensor`
//! `VCP1` parameter-blob codec, so a frame's payload is exactly the value
//! stored in the kvstore — no re-encoding on either side of the wire.

use crate::codec::{Codec, DESC_LEN};
use bytes::{Buf, BufMut, Bytes};
use std::io::{Read, Write};

/// Hard ceiling on a frame payload (64 MiB — three times the paper's
/// 21.2 MB full parameter file, and shards are strictly smaller).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Payload bytes [`read_frame`] requests at a time: more than any shard
/// frame a workload ships (`mlp_transfer`'s are ≈ 1.58 MB), so such a
/// frame is read into one allocation of exactly its length.
const READ_STEP: usize = 4 << 20;

/// Bytes after the length prefix that belong to the header
/// (kind + shard_id + version + crc32).
pub const HEADER_LEN: usize = 17;

/// What a frame means. Discriminants are the on-wire `kind` byte.
///
/// Ids 4, 5 and 8 are retired, never to be reused: they carried a
/// worker → store write path (push, its ack, quantized push) that no
/// validator guarded. A trained replica reaches the store through the
/// scheduler's validator and the assimilator only, so those bytes now
/// fail like any unknown kind and the connection is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → service: request shards for an epoch snapshot. `version`
    /// carries the epoch; the payload lists `(shard_id, cached_version)`
    /// pairs so the service can skip shards the worker already holds.
    Fetch = 1,
    /// Service → worker: one shard's parameter blob. `version` is the
    /// shard's snapshot version.
    Shard = 2,
    /// Service → worker: fetch complete. `version` echoes the epoch; the
    /// payload counts shards sent and shards skipped (cache hits).
    FetchDone = 3,
    /// Service → worker: request failed; payload is a UTF-8 message and
    /// `version` carries a structured [error code](err_code) (0 = generic).
    Error = 6,
    /// Service → worker: one shard's parameter update, quantized and
    /// delta-encoded against a snapshot the worker already holds.
    /// `version` is the shard's new snapshot version; the payload is
    /// `[base_version u64][codec descriptor][blob]`.
    ShardDelta = 7,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => FrameKind::Fetch,
            2 => FrameKind::Shard,
            3 => FrameKind::FetchDone,
            6 => FrameKind::Error,
            7 => FrameKind::ShardDelta,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Message type.
    pub kind: FrameKind,
    /// Shard the message concerns (0 for epoch-level messages).
    pub shard_id: u32,
    /// Kind-dependent: shard version, epoch, or error code.
    pub version: u64,
    /// Kind-dependent body (shared, not copied, when cloned).
    pub payload: Bytes,
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes ended inside a frame; `need` is the frame's total size,
    /// or the 21-byte length + header while that is still unread.
    Incomplete {
        /// Total bytes the frame occupies (or the header, if cut short).
        need: usize,
    },
    /// The declared length is impossibly small or exceeds [`MAX_PAYLOAD`].
    BadLength(u32),
    /// Checksum mismatch: the frame was corrupted in flight.
    BadCrc {
        /// Checksum carried by the frame.
        expect: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The frame decoded but its payload does not fit its kind.
    BadPayload(&'static str),
    /// The frame names a codec id this build does not speak. The service
    /// answers with a structured `Error` frame instead of dropping the
    /// connection; a worker rejects the delta before reading its blob.
    UnsupportedCodec(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Incomplete { need } => write!(f, "incomplete frame: need {need} bytes"),
            WireError::BadLength(len) => write!(f, "bad frame length {len}"),
            WireError::BadCrc { expect, got } => {
                write!(
                    f,
                    "crc mismatch: frame says {expect:#010x}, got {got:#010x}"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::UnsupportedCodec(id) => write!(f, "unsupported codec id {id}"),
        }
    }
}

impl std::error::Error for WireError {}

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), the Ethernet/zip
/// polynomial. Table-driven (slicing-by-8), streaming via [`Crc32`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

/// Slicing-by-8 tables: `T[0]` is the classic byte table, `T[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum, eight bytes per table round (the
    /// byte-at-a-time loop it replaced is the oracle in `wire_props.rs`).
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

impl Frame {
    /// Total bytes this frame occupies on the wire.
    pub fn encoded_len(&self) -> usize {
        4 + HEADER_LEN + self.payload.len()
    }

    fn crc(&self) -> u32 {
        let mut c = Crc32::new();
        c.update(&self.head(0)[4..17]); // kind + shard_id + version
        c.update(&self.payload);
        c.finish()
    }

    /// The 21 bytes before the payload, with `crc` as the checksum.
    fn head(&self, crc: u32) -> [u8; 4 + HEADER_LEN] {
        assert!(
            self.payload.len() <= MAX_PAYLOAD,
            "payload over MAX_PAYLOAD"
        );
        let mut h = [0u8; 4 + HEADER_LEN];
        h[..4].copy_from_slice(&((HEADER_LEN + self.payload.len()) as u32).to_le_bytes());
        h[4] = self.kind as u8;
        h[5..9].copy_from_slice(&self.shard_id.to_le_bytes());
        h[9..17].copy_from_slice(&self.version.to_le_bytes());
        h[17..].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Appends the encoded frame to `out`: [`SealedFrame::write_to`] with
    /// a checksum computed now. For tests and the frozen probes; the
    /// transports write frames whose checksum was banked at publish.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        SealedFrame::from(self.clone())
            .write_to(out)
            .expect("a Vec write cannot fail");
    }

    /// [`read_frame`] over a byte slice: the frame at the front of `buf`
    /// and the bytes it took. For tests and the frozen probes; the
    /// transports read their streams with `read_frame` itself.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        let mut rest = buf;
        match read_frame(&mut rest) {
            Ok(frame) => Ok((frame, buf.len() - rest.len())),
            Err(FrameReadError::Wire(e)) => Err(e),
            // An empty slice (a slice read cannot fail otherwise).
            Err(FrameReadError::Eof | FrameReadError::Io(_)) => Err(WireError::Incomplete {
                need: 4 + HEADER_LEN,
            }),
        }
    }
}

/// The payload length a length prefix declares, bounds-checked.
fn payload_len(len_bytes: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(len_bytes);
    match (len as usize).checked_sub(HEADER_LEN) {
        Some(n) if n <= MAX_PAYLOAD => Ok(n),
        _ => Err(WireError::BadLength(len)),
    }
}

/// Checks a received header's checksum, then its kind; returns its fields.
fn verify(header: &[u8], payload: &[u8]) -> Result<(FrameKind, u32, u64), WireError> {
    let mut h = header;
    let kind_byte = h.get_u8();
    let shard_id = h.get_u32_le();
    let version = h.get_u64_le();
    let expect = h.get_u32_le();
    let mut c = Crc32::new();
    c.update(&header[..13]); // kind + shard_id + version
    c.update(payload);
    let got = c.finish();
    if got != expect {
        return Err(WireError::BadCrc { expect, got });
    }
    Ok((FrameKind::from_byte(kind_byte)?, shard_id, version))
}

/// A frame whose checksum is already known: what [`crate::PsService`]
/// hands the transports. A shard blob is checksummed once, when its
/// snapshot is published, not once per fetch that ships it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedFrame {
    frame: Frame,
    crc: u32,
}

impl From<Frame> for SealedFrame {
    fn from(frame: Frame) -> Self {
        let crc = frame.crc();
        SealedFrame { frame, crc }
    }
}

impl std::ops::Deref for SealedFrame {
    type Target = Frame;
    fn deref(&self) -> &Frame {
        &self.frame
    }
}

impl SealedFrame {
    /// Writes the frame to a stream — header from the stack, payload from
    /// its shared buffer, no staging copy. Returns the bytes written.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<usize> {
        w.write_all(&self.head(self.crc))?;
        w.write_all(&self.payload)?;
        Ok(self.encoded_len())
    }
}

/// A frame read from a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The stream ended cleanly between frames.
    Eof,
    /// The stream errored.
    Io(std::io::Error),
    /// The bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "connection closed"),
            FrameReadError::Io(e) => write!(f, "io error: {e}"),
            FrameReadError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<WireError> for FrameReadError {
    fn from(e: WireError) -> Self {
        FrameReadError::Wire(e)
    }
}

/// Reads one frame from a blocking stream, the payload straight into the
/// buffer the returned frame owns. The declared length is validated
/// *before* that buffer is allocated, and the buffer grows by at most
/// `READ_STEP` (4 MiB) ahead of the bytes that have arrived.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameReadError> {
    let mut head = [0u8; 4 + HEADER_LEN];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameReadError::Eof),
            Ok(0) => return Err(WireError::Incomplete { need: head.len() }.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = payload_len([head[0], head[1], head[2], head[3]])?;
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        let end = len.min(start + READ_STEP);
        payload.reserve_exact(end - start);
        payload.resize(end, 0);
        r.read_exact(&mut payload[start..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                let need = head.len() + len;
                FrameReadError::Wire(WireError::Incomplete { need })
            } else {
                FrameReadError::Io(e)
            }
        })?;
    }
    let (kind, shard_id, version) = verify(&head[4..], &payload)?;
    Ok(Frame {
        kind,
        shard_id,
        version,
        payload: Bytes::from(payload),
    })
}

/// Payload of a [`FrameKind::Fetch`] frame: which shards the worker wants
/// and what it already holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchReq {
    /// Epoch snapshot to fetch from.
    pub epoch: u64,
    /// `(shard_id, cached_version)` pairs; version 0 means "not cached".
    pub wants: Vec<(u32, u64)>,
    /// Codec the worker can decode shard deltas in. `Raw` encodes exactly
    /// the legacy payload (no descriptor trailer), so old and new peers
    /// interoperate bit-for-bit on the default path.
    pub codec: Codec,
}

impl FetchReq {
    /// Encodes as a frame. Non-`Raw` codecs append the 6-byte descriptor
    /// after the want list; `Raw` stays byte-identical to the pre-codec
    /// protocol.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::with_capacity(4 + self.wants.len() * 12 + DESC_LEN);
        payload.put_u32_le(self.wants.len() as u32);
        for &(id, ver) in &self.wants {
            payload.put_u32_le(id);
            payload.put_u64_le(ver);
        }
        if self.codec != Codec::Raw {
            self.codec.write_desc(&mut payload);
        }
        Frame {
            kind: FrameKind::Fetch,
            shard_id: 0,
            version: self.epoch,
            payload: Bytes::from(payload),
        }
    }

    /// Parses a [`FrameKind::Fetch`] frame's payload. The codec trailer is
    /// recognized by length: `count·12` bytes after the count is a legacy
    /// `Raw` request, `count·12 + 6` carries a descriptor, anything else
    /// is rejected. An unknown codec id surfaces as
    /// [`WireError::UnsupportedCodec`] so the service can answer with a
    /// structured error instead of dropping the connection.
    pub(crate) fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        if frame.kind != FrameKind::Fetch {
            return Err(WireError::BadPayload("not a Fetch frame"));
        }
        let mut p: &[u8] = &frame.payload;
        if p.len() < 4 {
            return Err(WireError::BadPayload("fetch payload too short"));
        }
        let count = p.get_u32_le() as usize;
        let codec = if p.len() == count * 12 {
            Codec::Raw
        } else if p.len() == count * 12 + DESC_LEN {
            let desc = &p[count * 12..];
            Codec::read_desc(desc).map_err(WireError::UnsupportedCodec)?
        } else {
            return Err(WireError::BadPayload("fetch want-list length mismatch"));
        };
        let mut wants = Vec::with_capacity(count);
        for _ in 0..count {
            let id = p.get_u32_le();
            let ver = p.get_u64_le();
            wants.push((id, ver));
        }
        Ok(FetchReq {
            epoch: frame.version,
            wants,
            codec,
        })
    }
}

/// Payload of a [`FrameKind::ShardDelta`] frame: which shard version the
/// update is relative to, how it is encoded, and the quantized blob — a
/// view into the frame it was parsed from, so applying a delta copies
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPayload<'a> {
    /// Shard version the delta applies on top of.
    pub base: u64,
    /// How the blob is encoded.
    pub codec: Codec,
    /// The quantized update bytes (codec-specific layout).
    pub blob: &'a [u8],
}

impl<'a> DeltaPayload<'a> {
    /// Bytes before the blob: base (8) + codec descriptor (6).
    pub const PREFIX_LEN: usize = 8 + DESC_LEN;

    /// Appends the bytes that precede the blob, for a caller that encodes
    /// the blob straight into the payload after them.
    pub(crate) fn write_prefix(base: u64, codec: Codec, payload: &mut Vec<u8>) {
        payload.put_u64_le(base);
        codec.write_desc(payload);
    }

    /// Encodes as a [`FrameKind::ShardDelta`] frame.
    pub fn to_frame(&self, shard_id: u32, version: u64) -> Frame {
        let mut payload = Vec::with_capacity(Self::PREFIX_LEN + self.blob.len());
        Self::write_prefix(self.base, self.codec, &mut payload);
        payload.extend_from_slice(self.blob);
        Frame {
            kind: FrameKind::ShardDelta,
            shard_id,
            version,
            payload: Bytes::from(payload),
        }
    }

    /// Parses a [`FrameKind::ShardDelta`] frame's payload. Unknown codec
    /// ids surface as [`WireError::UnsupportedCodec`]; the blob itself is
    /// validated by the codec at apply time.
    pub(crate) fn from_frame(frame: &'a Frame) -> Result<Self, WireError> {
        if frame.kind != FrameKind::ShardDelta {
            return Err(WireError::BadPayload("not a ShardDelta frame"));
        }
        let Some((prefix, blob)) = frame.payload.split_at_checked(Self::PREFIX_LEN) else {
            return Err(WireError::BadPayload("delta payload too short"));
        };
        let base = u64::from_le_bytes(prefix[..8].try_into().expect("length checked"));
        let codec = Codec::read_desc(&prefix[8..]).map_err(WireError::UnsupportedCodec)?;
        Ok(DeltaPayload { base, codec, blob })
    }
}

/// Payload of a [`FrameKind::FetchDone`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSummary {
    /// Shards whose blobs were sent.
    pub sent: u32,
    /// Shards skipped because the worker's cached version matched.
    pub skipped: u32,
}

impl FetchSummary {
    /// Encodes as a frame echoing `epoch`.
    pub(crate) fn to_frame(self, epoch: u64) -> Frame {
        let mut payload = Vec::with_capacity(8);
        payload.put_u32_le(self.sent);
        payload.put_u32_le(self.skipped);
        Frame {
            kind: FrameKind::FetchDone,
            shard_id: 0,
            version: epoch,
            payload: Bytes::from(payload),
        }
    }

    /// Parses a [`FrameKind::FetchDone`] frame's payload.
    pub(crate) fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        if frame.kind != FrameKind::FetchDone {
            return Err(WireError::BadPayload("not a FetchDone frame"));
        }
        let mut p: &[u8] = &frame.payload;
        if p.len() != 8 {
            return Err(WireError::BadPayload("fetch summary must be 8 bytes"));
        }
        Ok(FetchSummary {
            sent: p.get_u32_le(),
            skipped: p.get_u32_le(),
        })
    }
}

/// Structured error codes carried in an `Error` frame's `version` field.
/// Code 0 is the generic failure every pre-codec peer already emits; the
/// others let a client react without parsing the message text.
pub mod err_code {
    /// Unclassified failure; payload text is the only detail.
    pub const GENERIC: u64 = 0;
    /// The request named a codec id the service does not speak
    /// (unassigned or retired). The connection stays usable.
    pub const UNSUPPORTED_CODEC: u64 = 1;
}

/// Builds a generic error frame with a UTF-8 message.
pub(crate) fn error_frame(msg: &str) -> Frame {
    error_frame_code(err_code::GENERIC, msg)
}

/// Builds an error frame carrying a structured [`err_code`].
pub(crate) fn error_frame_code(code: u64, msg: &str) -> Frame {
    Frame {
        kind: FrameKind::Error,
        shard_id: 0,
        version: code,
        payload: Bytes::copy_from_slice(msg.as_bytes()),
    }
}

#[cfg(test)]
impl Frame {
    /// [`Frame::encode_into`] a fresh buffer.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            kind: FrameKind::Shard,
            shard_id: 7,
            version: 42,
            payload: Bytes::copy_from_slice(b"hello shard"),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_streams_like_one_shot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn frame_roundtrip() {
        let f = sample();
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn decode_reports_incomplete_not_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(WireError::Incomplete { need }) => assert!(need > cut),
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_fail_crc() {
        let bytes = sample().encode();
        // Flip each byte after the length prefix: header flips break the
        // CRC (or the CRC field itself), payload flips break the CRC.
        for i in 4..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                matches!(Frame::decode(&corrupt), Err(WireError::BadCrc { .. })),
                "flip at {i} must be caught"
            );
        }
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        // A forged length of 4 GiB must be rejected up front.
        let mut bytes = sample().encode();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadLength(u32::MAX))
        ));
        // A length smaller than the header is equally impossible.
        bytes[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadLength(3))
        ));
    }

    #[test]
    fn unknown_kind_rejected_after_crc() {
        let mut f = sample();
        f.payload = Bytes::new();
        let mut bytes = f.encode();
        bytes[4] = 0xEE; // kind byte
                         // Fix up the CRC so only the kind is wrong.
        let mut c = Crc32::new();
        c.update(&bytes[4..17]);
        let crc = c.finish();
        bytes[17..21].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::UnknownKind(0xEE))
        ));
    }

    #[test]
    fn fetch_req_roundtrip() {
        let req = FetchReq {
            epoch: 9,
            wants: vec![(0, 0), (3, 17), (15, 2)],
            codec: Codec::Raw,
        };
        let frame = req.to_frame();
        let bytes = frame.encode();
        let (back, _) = Frame::decode(&bytes).unwrap();
        assert_eq!(FetchReq::from_frame(&back).unwrap(), req);
    }

    #[test]
    fn fetch_req_codec_trailer_roundtrips() {
        let req = FetchReq {
            epoch: 4,
            wants: vec![(0, 7), (2, 0)],
            codec: Codec::Int8 {
                error_feedback: true,
            },
        };
        let frame = req.to_frame();
        assert_eq!(
            frame.payload.len(),
            4 + 2 * 12 + DESC_LEN,
            "non-Raw requests carry the descriptor trailer"
        );
        assert_eq!(FetchReq::from_frame(&frame).unwrap(), req);
        // Raw stays byte-identical to the legacy layout (no trailer).
        let raw = FetchReq {
            codec: Codec::Raw,
            ..req.clone()
        };
        assert_eq!(raw.to_frame().payload.len(), 4 + 2 * 12);
    }

    #[test]
    fn fetch_req_unknown_codec_id_is_structured() {
        let mut frame = FetchReq {
            epoch: 4,
            wants: vec![(0, 7)],
            codec: Codec::Int8 {
                error_feedback: false,
            },
        }
        .to_frame();
        // An unassigned id and the three retired ones.
        for id in [200, 1, 2, 3] {
            let mut bytes = frame.payload.to_vec();
            bytes[4 + 12] = id;
            frame.payload = Bytes::from(bytes);
            assert_eq!(
                FetchReq::from_frame(&frame),
                Err(WireError::UnsupportedCodec(id))
            );
        }
    }

    #[test]
    fn fetch_req_rejects_length_mismatch() {
        let mut frame = FetchReq {
            epoch: 1,
            wants: vec![(0, 0)],
            codec: Codec::Raw,
        }
        .to_frame();
        let mut bad = frame.payload.to_vec();
        bad.truncate(bad.len() - 1);
        frame.payload = Bytes::from(bad);
        assert!(FetchReq::from_frame(&frame).is_err());
    }

    #[test]
    fn delta_payload_roundtrips_both_kinds() {
        let d = DeltaPayload {
            base: 31,
            codec: Codec::Int8 {
                error_feedback: true,
            },
            blob: &[1, 2, 3, 4],
        };
        for d in [
            d,
            DeltaPayload {
                codec: Codec::Raw,
                ..d
            },
        ] {
            let f = d.to_frame(3, 99);
            assert_eq!(f.kind, FrameKind::ShardDelta);
            assert_eq!(f.version, 99);
            assert_eq!(f.shard_id, 3);
            let bytes = f.encode();
            let (back, _) = Frame::decode(&bytes).unwrap();
            assert_eq!(DeltaPayload::from_frame(&back).unwrap(), d);
        }
        // Truncated prefix and unknown id both error gracefully.
        let mut f = d.to_frame(0, 1);
        f.payload = Bytes::copy_from_slice(&f.payload[..10]);
        assert!(DeltaPayload::from_frame(&f).is_err());
        let mut f = d.to_frame(0, 1);
        let mut bytes = f.payload.to_vec();
        bytes[8] = 77;
        f.payload = Bytes::from(bytes);
        assert_eq!(
            DeltaPayload::from_frame(&f),
            Err(WireError::UnsupportedCodec(77))
        );
    }

    #[test]
    fn error_frame_codes() {
        let f = error_frame("plain");
        assert_eq!(f.version, err_code::GENERIC);
        let f = error_frame_code(err_code::UNSUPPORTED_CODEC, "no such codec");
        assert_eq!(f.version, err_code::UNSUPPORTED_CODEC);
        assert_eq!(&f.payload[..], b"no such codec");
    }

    #[test]
    fn fetch_summary_roundtrip() {
        let s = FetchSummary {
            sent: 3,
            skipped: 13,
        };
        assert_eq!(FetchSummary::from_frame(&s.to_frame(5)).unwrap(), s);
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = vec![
            sample(),
            FetchReq {
                epoch: 2,
                wants: vec![(1, 0)],
                codec: Codec::Raw,
            }
            .to_frame(),
            error_frame("nope"),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            let n = SealedFrame::from(f.clone()).write_to(&mut wire).unwrap();
            assert_eq!(n, f.encoded_len());
            assert_eq!(&wire[wire.len() - n..], &f.encode()[..]);
        }
        let mut r: &[u8] = &wire;
        for f in &frames {
            let got = read_frame(&mut r).unwrap();
            assert_eq!(&got, f);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameReadError::Eof)));
    }

    #[test]
    fn stream_read_rejects_hostile_length() {
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 64]);
        let mut r: &[u8] = &wire;
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameReadError::Wire(WireError::BadLength(_)))
        ));
    }
}
