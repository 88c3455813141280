//! Counting-allocator proof that `read_frame` asks for memory as bytes
//! arrive, not as the length prefix declares: a peer that declares a
//! `MAX_PAYLOAD` frame, sends a few bytes and closes makes the reader
//! allocate one 4 MiB step at most, and a shard-sized frame (below one
//! step) is read into one allocation of exactly its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use vc_ps::wire::read_frame;
use vc_ps::{Frame, FrameKind, FrameReadError, WireError, HEADER_LEN, MAX_PAYLOAD};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// The largest single request while counting.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Requests of at least `BIG` bytes while counting.
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
const BIG: usize = 64 << 10;

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests share the process-wide counters: one runs at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The step `read_frame` grows a payload by.
const STEP: usize = 4 << 20;

/// Runs `f` with the counters reset; returns its result, the largest
/// single allocation and the number of allocations of at least `BIG`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        LARGEST.load(Ordering::SeqCst),
        BIG_ALLOCS.load(Ordering::SeqCst),
    )
}

#[test]
fn stalled_max_length_frame_holds_one_step() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A valid length prefix for a `MAX_PAYLOAD` frame, a header, then a
    // few payload bytes and the end of the stream.
    let mut wire = ((HEADER_LEN + MAX_PAYLOAD) as u32).to_le_bytes().to_vec();
    wire.push(FrameKind::Shard as u8);
    wire.extend_from_slice(&[0u8; HEADER_LEN - 1]);
    wire.extend_from_slice(&[0xAB; 100]);
    let mut r: &[u8] = &wire;

    let (got, largest, _) = counted(|| read_frame(&mut r));
    assert!(
        matches!(
            got,
            Err(FrameReadError::Wire(WireError::Incomplete { need }))
                if need == 4 + HEADER_LEN + MAX_PAYLOAD
        ),
        "{got:?}"
    );
    assert!(
        largest <= STEP,
        "one allocation of {largest} B for 100 B received (step {STEP} B)"
    );
}

#[test]
fn shard_sized_frame_is_one_exact_allocation() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // About one `mlp_transfer` shard.
    let len = 1_580_000;
    let frame = Frame {
        kind: FrameKind::Shard,
        shard_id: 3,
        version: 7,
        payload: vec![0x5A; len].into(),
    };
    let mut wire = Vec::new();
    frame.encode_into(&mut wire);
    let mut r: &[u8] = &wire;

    let (got, largest, big) = counted(|| read_frame(&mut r));
    assert_eq!(got.expect("a whole frame"), frame);
    assert_eq!(largest, len, "the payload is the largest allocation");
    assert_eq!(big, 1, "and the only large one");
}
