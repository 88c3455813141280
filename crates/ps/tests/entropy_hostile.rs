//! Hostile Int8 blobs against the entropy stage (DESIGN §12a): code
//! lengths over 12 bits, a Kraft sum over 1, an empty table, a lookup slot
//! no value fills, stream sizes past the blob, a token count past the
//! shard, streams that run out, non-zero padding, trailing bytes and every
//! truncation. Each is an `Err`, never a panic; a worker's cache keeps
//! every bit and version it held and allocates nothing, and
//! `decode_update_into` allocates nothing a declared field sized — at
//! most the caller's element count.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::wire::DeltaPayload;
use vc_ps::{
    Codec, FetchSink, FetchSummary, Frame, MemClient, PsClient, PsError, PsService, ShardCache,
    ShardedAssimilator,
};

/// Records the largest allocation the current thread makes.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// `f`'s result and the largest allocation it made.
fn largest_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|m| m.set(0));
    let r = f();
    (r, LARGEST.with(|m| m.get()))
}

const INT8: Codec = Codec::Int8 {
    error_feedback: true,
};
/// The one shard's length: 60 tokens make four 15-token streams, so a
/// one-bit code leaves a stream one padding bit.
const N: usize = 60;
/// Offsets in an Int8 blob: `[n u32][scale f32][tokens u32][lengths
/// 128 B][size0..2 u32 ×3][streams]`.
const TOKENS_AT: usize = 8;
const TABLE_AT: usize = 12;
const SIZES_AT: usize = 140;
const STREAMS_AT: usize = 152;

/// A cache holding the one shard of a published epoch 1.
fn cache() -> (ShardCache, Vec<f32>) {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        N,
        1,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(INT8));
    let params: Vec<f32> = (0..N).map(|i| i as f32 * 0.25 - 3.0).collect();
    svc.publish_snapshot(1, &params, &[1]);
    let mut cache = ShardCache::new(*assim.layout()).with_codec(INT8);
    cache
        .sync(1, &[1], &mut MemClient::new(svc))
        .expect("cold sync");
    (cache, params)
}

/// Hands its one frame to the sink.
struct Once(Option<Frame>);

impl PsClient for Once {
    fn fetch(
        &mut self,
        _epoch: u64,
        _wants: &[(u32, u64)],
        _codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError> {
        sink(self.0.take().expect("one fetch per frame"));
        Ok(FetchSummary {
            sent: 1,
            skipped: 0,
        })
    }
}

/// Offers `blob` to a cache holding epoch 1 as the delta to epoch 2 and
/// to `decode_update_into`: the result of each, with the checks every
/// refusal must meet when it is one.
fn offer(what: &str, blob: &[u8]) -> (bool, bool) {
    let (mut cache, params) = cache();
    let frame = DeltaPayload {
        base: 1,
        codec: INT8,
        blob,
    }
    .to_frame(0, 2);
    let mut once = Once(Some(frame));
    let (applied, largest) = largest_in(|| cache.sync(2, &[2], &mut once).is_ok());
    if !applied {
        assert_eq!(largest, 0, "{what}: a refused delta allocated {largest} B");
        assert!(cache.params() == params, "{what}: params moved");
        assert_eq!(cache.versions(), &[1], "{what}: versions moved");
    }
    let mut out = Vec::new();
    let (decoded, largest) = largest_in(|| INT8.decode_update_into(blob, N, &mut out).is_ok());
    if !decoded {
        assert!(out.is_empty(), "{what}: a failed decode left output");
        assert!(
            largest <= 4 * N,
            "{what}: a {largest} B allocation for {N} elements"
        );
    }
    (applied, decoded)
}

fn refused(what: &str, blob: &[u8]) {
    assert_eq!(offer(what, blob), (false, false), "{what}: accepted");
}

/// A blob built field by field.
fn blob(tokens: u32, lengths: &[u8; 256], streams: [&[u8]; 4]) -> Vec<u8> {
    let mut b = (N as u32).to_le_bytes().to_vec();
    b.extend_from_slice(&0.5f32.to_le_bytes());
    b.extend_from_slice(&tokens.to_le_bytes());
    b.extend(lengths.chunks_exact(2).map(|p| p[0] | p[1] << 4));
    for s in &streams[..3] {
        b.extend_from_slice(&(s.len() as u32).to_le_bytes());
    }
    for s in streams {
        b.extend_from_slice(s);
    }
    b
}

/// Values 0 and 1 at one bit each: code `1` is the literal token 1.
fn one_bit_code() -> [u8; 256] {
    let mut lengths = [0u8; 256];
    lengths[..2].fill(1);
    lengths
}

/// `N` literal 1s under [`one_bit_code`]: each stream is fifteen 1 bits
/// and one zero padding bit.
const ONES: [u8; 2] = [0xFF, 0xFE];

/// A library-encoded delta with both token kinds: zero runs and literals.
fn encoded() -> Vec<u8> {
    let update: Vec<f32> = (0..N)
        .map(|i| {
            if i % 10 < 5 {
                0.0
            } else {
                (i % 7) as f32 * 0.01
            }
        })
        .collect();
    let mut b = Vec::new();
    INT8.encode_update(&update, &mut b);
    b
}

fn set_nibble(b: &mut [u8], value: usize, len: u8) {
    let byte = &mut b[TABLE_AT + value / 2];
    *byte = if value.is_multiple_of(2) {
        *byte & 0xF0 | len
    } else {
        *byte & 0x0F | len << 4
    };
}

fn nibble(b: &[u8], value: usize) -> u8 {
    b[TABLE_AT + value / 2] >> (4 * (value % 2)) & 0xF
}

#[test]
fn the_hand_built_and_encoded_blobs_apply() {
    // So that each refusal below is about what it changed.
    assert_eq!(
        offer("ones", &blob(N as u32, &one_bit_code(), [&ONES; 4])),
        (true, true)
    );
    assert_eq!(offer("encoded", &encoded()), (true, true));
}

#[test]
fn hostile_tables_are_refused() {
    let good = encoded();
    let used: Vec<usize> = (0..256).filter(|&v| nibble(&good, v) > 0).collect();
    let unused = (0..256)
        .find(|&v| nibble(&good, v) == 0)
        .expect("a value without a code");
    for len in 13..=15 {
        for v in [used[0], unused] {
            let mut b = good.clone();
            set_nibble(&mut b, v, len);
            refused(&format!("length {len} for value {v}"), &b);
        }
    }
    let mut over = good.clone();
    set_nibble(&mut over, unused, 1);
    refused("Kraft sum over 1", &over);
    let mut empty = good.clone();
    empty[TABLE_AT..SIZES_AT].fill(0);
    refused("empty table", &empty);
    // One code a bit longer, or gone: half its slots, or all, name no value.
    for v in &used {
        let len = nibble(&good, *v);
        for new in [len + 1, 0] {
            if new <= 12 {
                let mut b = good.clone();
                set_nibble(&mut b, *v, new);
                refused(&format!("value {v} at {new} bits: slots unfilled"), &b);
            }
        }
    }
    let mut lone = [0u8; 256];
    lone[1] = 1;
    refused("one one-bit code", &blob(N as u32, &lone, [&ONES; 4]));
}

#[test]
fn hostile_counts_and_sizes_are_refused() {
    let good = encoded();
    let body = good.len() - STREAMS_AT;
    for tokens in [N as u32 + 1, u32::MAX] {
        let mut b = good.clone();
        b[TOKENS_AT..TABLE_AT].copy_from_slice(&tokens.to_le_bytes());
        refused(&format!("token count {tokens}"), &b);
    }
    let size = |k: usize| SIZES_AT + 4 * k..SIZES_AT + 4 * k + 4;
    for (k, declared) in [(0, u32::MAX), (0, body as u32 + 1), (2, body as u32 + 1)] {
        let mut b = good.clone();
        b[size(k)].copy_from_slice(&declared.to_le_bytes());
        refused(&format!("size{k} = {declared}"), &b);
    }
    // Together past the end, each within it.
    let mut b = good.clone();
    for k in 0..3 {
        b[size(k)].copy_from_slice(&(body as u32 / 2).to_le_bytes());
    }
    refused("sizes summing past the end", &b);
}

#[test]
fn hostile_streams_are_refused() {
    let code = one_bit_code();
    let n = N as u32;
    refused(
        "streams run out",
        &blob(n, &code, [&ONES, &ONES, &ONES, &[0xFF]]),
    );
    refused("empty streams", &blob(n, &code, [&[], &[], &[], &[]]));
    refused(
        "padding not zero",
        &blob(n, &code, [&ONES, &[0xFF, 0xFF], &ONES, &ONES]),
    );
    refused(
        "trailing byte in stream 0",
        &blob(n, &code, [&[0xFF, 0xFE, 0], &ONES, &ONES, &ONES]),
    );
    refused(
        "trailing byte at the end",
        &blob(n, &code, [&ONES, &ONES, &ONES, &[0xFF, 0xFE, 0]]),
    );
    let mut good = encoded();
    good.push(0);
    refused("trailing byte after an encoded blob", &good);
}

#[test]
fn every_truncation_is_refused() {
    let good = encoded();
    for cut in 0..good.len() {
        refused(&format!("cut at {cut}"), &good[..cut]);
    }
}

proptest! {
    /// Any byte of the header, table, sizes or streams substituted: an
    /// `Err` meets every refusal check (in `offer`), and nothing panics.
    #[test]
    fn substituted_bytes_never_panic(at in 0usize..4096, value in any::<u8>()) {
        let mut b = encoded();
        let at = TOKENS_AT + at % (b.len() - TOKENS_AT);
        b[at] = value;
        offer(&format!("byte {at} = {value:#04x}"), &b);
    }
}
