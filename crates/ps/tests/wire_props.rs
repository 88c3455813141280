//! Property tests over the wire codec — one decoder, `read_frame`, which
//! `Frame::decode` wraps for byte slices: any frame round-trips
//! bit-exactly, back-to-back frames decode the same however a stream
//! splits its reads, and *no* mangled byte stream — truncated,
//! bit-flipped, or carrying a hostile length prefix — ever panics,
//! allocates unboundedly, or decodes to a different frame silently. The
//! table-sliced CRC-32 is held to the byte-at-a-time loop it replaced, and
//! the checksums banked at publish to `Frame::encode_into`'s fresh ones.

use proptest::prelude::*;
use std::io::{ErrorKind, Read};
use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::wire::read_frame;
use vc_ps::{
    crc32, Codec, Crc32, FetchReq, Frame, FrameKind, FrameReadError, PsService, SealedFrame,
    ShardedAssimilator, WireError, HEADER_LEN, MAX_PAYLOAD,
};

/// A frame's bytes with a checksum computed now.
fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame.encode_into(&mut out);
    out
}

/// The oracle: IEEE CRC-32 one byte per table lookup, exactly the loop
/// `Crc32::update` ran before it was sliced by eight.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Every frame `svc` answers `req` with, written by the copy-free stream
/// writer, must be byte-for-byte what `encode` (which checksums the
/// frame from scratch) produces — and must read back as the same frame.
fn assert_socket_bytes_match_encode(svc: &PsService, req: &Frame, want_kind: FrameKind) {
    let mut responses: Vec<SealedFrame> = Vec::new();
    svc.handle(req, &mut responses);
    assert!(
        responses.iter().any(|r| r.kind == want_kind),
        "no {want_kind:?} in response"
    );
    let mut wire = Vec::new();
    for resp in &responses {
        let start = wire.len();
        let n = resp.write_to(&mut wire).expect("vec write");
        assert_eq!(&wire[start..], &encode(resp)[..], "{:?} frame", resp.kind);
        assert_eq!(n, resp.encoded_len());
    }
    let mut r: &[u8] = &wire;
    for resp in &responses {
        assert_eq!(read_frame(&mut r).expect("own bytes read back"), **resp);
    }
}

/// A stream that hands out its bytes in the given chunk sizes (cycled)
/// and fails every `interrupt_every`-th read with `Interrupted`, the
/// retry-me error a signal causes on a socket.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: std::iter::Cycle<std::vec::IntoIter<usize>>,
    interrupt_every: usize,
    since_interrupt: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.since_interrupt += 1;
        if self.since_interrupt == self.interrupt_every {
            self.since_interrupt = 0;
            return Err(ErrorKind::Interrupted.into());
        }
        let n = self.sizes.next().expect("non-empty cycle");
        (&mut self.bytes).take(n as u64).read(buf)
    }
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Fetch),
        Just(FrameKind::Shard),
        Just(FrameKind::FetchDone),
        Just(FrameKind::Error),
        Just(FrameKind::ShardDelta),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_kind(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(kind, shard_id, version, payload)| Frame {
            kind,
            shard_id,
            version,
            payload: payload.into(),
        })
}

proptest! {
    /// encode → decode is the identity, and the consumed length is exact.
    #[test]
    fn frame_roundtrips(frame in arb_frame()) {
        let bytes = encode(&frame);
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let (back, used) = Frame::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.kind, frame.kind);
        prop_assert_eq!(back.shard_id, frame.shard_id);
        prop_assert_eq!(back.version, frame.version);
        prop_assert_eq!(back.payload.as_ref(), frame.payload.as_ref());
    }

    /// Every proper prefix is `Incomplete` with an honest byte count —
    /// never a panic, never a bogus frame.
    #[test]
    fn truncation_reports_incomplete(frame in arb_frame(), cut in 1usize..64) {
        let bytes = encode(&frame);
        let cut = cut.min(bytes.len());
        match Frame::decode(&bytes[..bytes.len() - cut]) {
            Err(WireError::Incomplete { need }) => {
                prop_assert!(need > 0, "incomplete must ask for more bytes");
            }
            other => prop_assert!(false, "truncated decode returned {other:?}"),
        }
    }

    /// Any single flipped bit after the length prefix is caught by the CRC
    /// (or, for the kind byte, by the kind check after the CRC).
    #[test]
    fn bit_flips_never_pass(frame in arb_frame(), bit in 0usize..64) {
        let mut bytes = encode(&frame);
        let pos = 4 + bit % (bytes.len() - 4);
        bytes[pos] ^= 1 << (bit % 8);
        match Frame::decode(&bytes) {
            Err(WireError::BadCrc { .. }) | Err(WireError::UnknownKind(_)) => {}
            Ok(_) => prop_assert!(false, "flipped bit at {pos} decoded cleanly"),
            Err(e) => prop_assert!(false, "unexpected error for flip at {pos}: {e:?}"),
        }
    }

    /// A forged length prefix is rejected *before* any allocation: lengths
    /// past `MAX_PAYLOAD` are `BadLength`, lengths shorter than a header
    /// too. Nothing in between decodes without the bytes to back it.
    #[test]
    fn hostile_lengths_rejected(frame in arb_frame(), len in any::<u32>()) {
        let mut bytes = encode(&frame);
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let r = Frame::decode(&bytes);
        let max = (MAX_PAYLOAD + HEADER_LEN) as u32;
        if len < HEADER_LEN as u32 || len > max {
            prop_assert!(
                matches!(r, Err(WireError::BadLength(_))),
                "len {len} gave {r:?}"
            );
        } else {
            // In-range forged lengths either ask for more bytes or fail
            // the CRC — they never yield a frame with the wrong size.
            match r {
                Ok((f, _)) => prop_assert_eq!(f.payload.len(), len as usize - HEADER_LEN),
                Err(WireError::Incomplete { .. })
                | Err(WireError::BadCrc { .. })
                | Err(WireError::UnknownKind(_)) => {}
                Err(e) => prop_assert!(false, "len {len} gave {e:?}"),
            }
        }
    }

    /// The sliced CRC equals the bytewise oracle at every length and
    /// alignment, one-shot and streamed across an arbitrary split.
    #[test]
    fn crc32_matches_bytewise_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        skip in 0usize..9,
        split in 0usize..300,
    ) {
        let data = &bytes[skip.min(bytes.len())..];
        let want = crc32_bytewise(data);
        prop_assert_eq!(crc32(data), want);
        let (head, tail) = data.split_at(split.min(data.len()));
        let mut c = Crc32::new();
        c.update(head);
        c.update(tail);
        prop_assert_eq!(c.finish(), want);
    }

    /// The stream writer emits exactly `encode()`'s bytes, and the stream
    /// reader returns the frame that went in.
    #[test]
    fn stream_write_is_encode(frame in arb_frame()) {
        let mut wire = Vec::new();
        let n = SealedFrame::from(frame.clone()).write_to(&mut wire).expect("vec write");
        prop_assert_eq!(n, frame.encoded_len());
        prop_assert_eq!(&wire, &encode(&frame));
        let mut r: &[u8] = &wire;
        prop_assert_eq!(read_frame(&mut r).expect("own bytes"), frame);
    }

    /// Back-to-back frames read through a stream that splits them
    /// anywhere, down to one byte per read and with interrupted reads in
    /// between, decode to the frames that went in, then to a clean EOF.
    #[test]
    fn split_reads_decode_back_to_back_frames(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        sizes in proptest::collection::vec(prop_oneof![1usize..4, 1usize..600], 1..12),
        interrupt_every in 2usize..9,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode(f));
        }
        let sizes = sizes.into_iter().cycle();
        let mut r = Chunked { bytes: &wire, sizes, interrupt_every, since_interrupt: 0 };
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut r).expect("split frame reads back"), f);
        }
        prop_assert!(matches!(read_frame(&mut r), Err(FrameReadError::Eof)));
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&bytes);
    }
}

/// The retired worker → store kinds (4 push, 5 push ack, 8 quantized
/// push) are unknown to the decoder, on a slice and on a stream alike: a
/// frame carrying one is rejected on its kind byte once the checksum has
/// passed, and on the checksum before that — its payload is never
/// interpreted.
#[test]
fn retired_push_kinds_decode_to_unknown_kind() {
    for kind in [4u8, 5, 8] {
        let mut bytes = encode(&Frame {
            kind: FrameKind::Shard,
            shard_id: 0,
            version: 1,
            payload: vec![0xAB; 40].into(),
        });
        bytes[4] = kind;
        assert!(
            matches!(Frame::decode(&bytes), Err(WireError::BadCrc { .. })),
            "kind {kind}: the CRC is checked first"
        );
        let sum = crc32(&[&bytes[4..17], &bytes[21..]].concat());
        bytes[17..21].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::UnknownKind(kind)
        );
        let streamed = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(
            matches!(streamed, FrameReadError::Wire(WireError::UnknownKind(k)) if k == kind),
            "kind {kind}: {streamed:?}"
        );
    }
}

/// The checksums banked at snapshot publish — `Shard` frames under `Raw`,
/// `Shard` and `ShardDelta` frames under `Int8` — put the same bytes on a
/// socket as checksumming each frame at send time would.
#[test]
fn published_frames_write_encode_bytes() {
    let n = 1000;
    for codec in [
        Codec::Raw,
        Codec::Int8 {
            error_feedback: true,
        },
    ] {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            4,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        ));
        let w0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        assim.seed_params(&w0);
        let svc = PsService::new(assim.clone()).with_codec(codec);
        svc.publish_snapshot(1, &w0, &assim.versions());
        let cold = FetchReq {
            epoch: 1,
            wants: (0..4).map(|i| (i, 0)).collect(),
            codec,
        };
        assert_socket_bytes_match_encode(&svc, &cold.to_frame(), FrameKind::Shard);

        // Move every shard and republish: a worker tracking epoch 1 under a
        // lossy codec is answered with the banked delta frames.
        let held = assim.versions();
        let w1: Vec<f32> = w0.iter().map(|v| v + 0.01).collect();
        for (i, range) in assim.layout().iter() {
            assim.merge_shard(i, &w1[range], 1);
        }
        let (params, manifest) = assim.read_params();
        svc.publish_snapshot(2, &params, &manifest);
        let warm = FetchReq {
            epoch: 2,
            wants: held
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u32, v))
                .collect(),
            codec,
        };
        let want = if codec == Codec::Raw {
            FrameKind::Shard
        } else {
            FrameKind::ShardDelta
        };
        assert_socket_bytes_match_encode(&svc, &warm.to_frame(), want);
    }
}
