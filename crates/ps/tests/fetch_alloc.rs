//! Counting-allocator proof of the hot fetch path's zero-alloc claim: a
//! worker whose sticky cache already matches the workunit's manifest gets
//! its parameter slice back without touching the heap — no blob clone, no
//! frame encode, no transport call. This is the per-assignment steady
//! state: parameters only move when an assimilation actually bumped a
//! shard's version. And when they do move under `Int8`, applying the delta
//! frames allocates nothing either: the payload is parsed in place,
//! validated, and dequantize-added straight onto the assembled vector —
//! or refused on its descriptor before its blob is looked at.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests share the process-wide counter, and everything a test
/// allocates while another counts would be counted: one runs at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn cache_hit_sync_does_not_allocate() {
    use std::sync::Arc;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::{MemClient, PsService, ShardCache, ShardedAssimilator};

    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4096;
    let store = Arc::new(VersionedStore::new());
    let assim = Arc::new(ShardedAssimilator::new(
        store,
        n,
        4,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let params: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    assim.seed_params(&params);
    let svc = Arc::new(PsService::new(assim.clone()));
    let manifest = assim.versions();
    svc.publish_snapshot(1, &params, &manifest);

    let mut client = MemClient::new(svc.clone());
    let mut cache = ShardCache::new(*assim.layout());
    // Cold sync fills the cache (allocates freely: blobs, frames, buffers).
    let got = cache.sync(1, &manifest, &mut client).expect("cold sync");
    assert_eq!(got, params.as_slice());
    let ops_before = svc.ops();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..32 {
        let got = cache.sync(1, &manifest, &mut client).expect("warm sync");
        assert_eq!(got.len(), n);
    }
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "a fully-cached sync must not touch the heap"
    );
    assert_eq!(
        svc.ops(),
        ops_before,
        "a fully-cached sync must not even reach the service"
    );
    assert_eq!(
        cache.params(),
        params.as_slice(),
        "cache still serves the snapshot"
    );
}

#[test]
fn warm_int8_delta_sync_does_not_allocate() {
    use std::sync::Arc;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::{
        Codec, FetchReq, FetchSink, FetchSummary, Frame, FrameKind, MemClient, PsClient, PsError,
        PsService, ShardCache, ShardedAssimilator,
    };

    /// Hands the sink frames read earlier: the transport's own allocations
    /// (socket buffers, the frames themselves) are not the cache's.
    struct Replay(Vec<Frame>);
    impl PsClient for Replay {
        fn fetch(
            &mut self,
            _epoch: u64,
            _wants: &[(u32, u64)],
            _codec: Codec,
            sink: &mut FetchSink<'_>,
        ) -> Result<FetchSummary, PsError> {
            for f in &self.0 {
                sink(f.clone());
            }
            Ok(FetchSummary {
                sent: self.0.len() as u32,
                skipped: 0,
            })
        }
    }

    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let n = 6000;
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        4,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(codec));
    let params: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    svc.publish_snapshot(1, &params, &[1; 4]);
    let mut cache = ShardCache::new(*assim.layout()).with_codec(codec);
    cache
        .sync(1, &[1; 4], &mut MemClient::new(svc.clone()))
        .expect("cold sync");

    // Every shard moves: dense steps, with stretches that round to zero
    // runs, so both token kinds are applied.
    let moved: Vec<f32> = params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p + if i % 40 < 25 {
                0.01 * (i % 7) as f32
            } else {
                0.0
            }
        })
        .collect();
    svc.publish_snapshot(2, &moved, &[2; 4]);
    let mut response = Vec::new();
    let req = FetchReq {
        epoch: 2,
        wants: (0..4).map(|i| (i, 1)).collect(),
        codec,
    };
    svc.handle(&req.to_frame(), &mut response);
    response.pop(); // the summary
    let frames: Vec<Frame> = response.iter().map(|f| Frame::clone(f)).collect();
    assert_eq!(frames.len(), 4);
    assert!(frames.iter().all(|f| f.kind == FrameKind::ShardDelta));
    let mut replay = Replay(frames);

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let synced = cache.sync(2, &[2; 4], &mut replay).map(|p| p.len());
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(synced, Ok(n));
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "applying Int8 delta frames must not touch the heap"
    );
    // The deltas landed: the cache holds what a cold fetch of epoch 2 gets.
    let mut cold = ShardCache::new(*assim.layout());
    let want = cold
        .sync(2, &[2; 4], &mut MemClient::new(svc.clone()))
        .expect("cold sync");
    assert_eq!(cache.params(), want);
    assert_ne!(cache.params(), params.as_slice());
}

/// A `ShardDelta` frame whose descriptor does not say `Int8` — `Raw`, or
/// one of the retired ids 1 and 3 — is refused on its descriptor: no
/// shard-sized scratch vector is decoded first, nothing touches the heap.
#[test]
fn rejected_delta_descriptors_do_not_allocate() {
    use std::sync::Arc;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::wire::DeltaPayload;
    use vc_ps::{
        Codec, FetchSink, FetchSummary, Frame, MemClient, PsClient, PsError, PsService, ShardCache,
        ShardedAssimilator,
    };

    /// Hands its one frame to the sink by value.
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

    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let n = 6000;
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        1,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(codec));
    let params: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    svc.publish_snapshot(1, &params, &[1]);
    let mut cache = ShardCache::new(*assim.layout()).with_codec(codec);
    cache
        .sync(1, &[1], &mut MemClient::new(svc.clone()))
        .expect("cold sync");

    // A well-formed full-length blob under each descriptor.
    let raw_blob = vc_tensor::codec::encode_f32s(&params);
    for desc in [[0u8; 6], [1, 0, 0, 0, 0, 0], [3, 0, 1, 0, 0, 0]] {
        let mut frame = DeltaPayload {
            base: 1,
            codec,
            blob: &raw_blob,
        }
        .to_frame(0, 2);
        let mut payload = frame.payload.to_vec();
        payload[8..14].copy_from_slice(&desc);
        frame.payload = payload.into();
        let mut once = Once(Some(frame));

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let refused = cache.sync(2, &[2], &mut once).is_err();
        COUNTING.store(false, Ordering::SeqCst);
        assert!(refused, "descriptor {desc:?} applied");
        assert_eq!(
            ALLOCS.load(Ordering::SeqCst),
            0,
            "descriptor {desc:?}: a refused delta must not touch the heap"
        );
        assert_eq!(cache.params(), params.as_slice(), "descriptor {desc:?}");
        assert_eq!(cache.versions(), &[1], "descriptor {desc:?}");
    }
}

/// A primed cache is a fetched one that never met the transport: priming
/// and the syncs against the primed versions allocate nothing and call
/// nothing, and an `Int8` delta applied on the primed base is bitwise the
/// result on a fetched base.
#[test]
fn primed_cache_hits_without_transport_and_takes_deltas_like_a_fetched_one() {
    use std::sync::Arc;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_ps::{
        Codec, FetchSink, FetchSummary, MemClient, PsClient, PsError, PsService, ShardCache,
        ShardedAssimilator,
    };

    /// Counts calls and serves none.
    struct Refusing(u32);
    impl PsClient for Refusing {
        fn fetch(
            &mut self,
            _epoch: u64,
            _wants: &[(u32, u64)],
            _codec: Codec,
            _sink: &mut FetchSink<'_>,
        ) -> Result<FetchSummary, PsError> {
            self.0 += 1;
            Err(PsError::Transport("no transport".into()))
        }
    }

    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let n = 6000;
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        4,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(codec));
    let params: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    svc.publish_snapshot(1, &params, &[1; 4]);

    let mut primed = ShardCache::new(*assim.layout()).with_codec(codec);
    let mut refusing = Refusing(0);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    primed.prime(&[1; 4], &params);
    let mut hits = Ok(());
    for _ in 0..32 {
        hits = hits.and(primed.sync(1, &[1; 4], &mut refusing).map(|_| ()));
    }
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(hits, Ok(()));
    assert_eq!(refusing.0, 0, "a primed hit must not reach the transport");
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "priming and primed hits must not touch the heap"
    );
    assert_eq!(svc.ops().fetches, 0);

    let mut fetched = ShardCache::new(*assim.layout()).with_codec(codec);
    fetched
        .sync(1, &[1; 4], &mut MemClient::new(svc.clone()))
        .expect("cold sync");
    let moved: Vec<f32> = params
        .iter()
        .enumerate()
        .map(|(i, p)| p + 0.003 * (i % 11) as f32)
        .collect();
    svc.publish_snapshot(2, &moved, &[2; 4]);
    let mut client = MemClient::new(svc.clone());
    let before = svc.ops();
    let a = primed
        .sync(2, &[2; 4], &mut client)
        .expect("primed delta sync");
    let a: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
    let after = svc.ops();
    assert_eq!(after.shards_sent - before.shards_sent, 4);
    assert!(
        after.bytes_tx - before.bytes_tx < 2 * n as u64,
        "shipped as one-byte deltas, not f32 shards"
    );
    let b = fetched
        .sync(2, &[2; 4], &mut client)
        .expect("fetched delta sync");
    let b: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b, "a delta on the primed base lands on the fetched bits");
}
