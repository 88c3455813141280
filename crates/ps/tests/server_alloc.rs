//! Counting-allocator proof that the server side keeps one copy of the
//! parameters: the store's shard blobs.
//!
//! - A warm `Raw` epoch publish — [`ShardedAssimilator::read_blobs`] into
//!   [`PsService::publish`], the coordinator's epoch barrier — allocates no
//!   buffer as large as one shard: the snapshot's frames share the stored
//!   blobs.
//! - One assimilation, in either mode, allocates exactly one shard-sized
//!   buffer per shard — the new stored value of that shard — and nothing
//!   model-sized: the stored values are blended into the upload it is
//!   handed, and an eventual read holds the store's blobs, not a decoded
//!   copy.
//!
//! Before the server held one copy, each of the two allocated one
//! model-sized vector (the decoded read) plus four shard-sized blobs.
//!
//! One test in this binary on purpose: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::{PsService, ShardedAssimilator};

struct SizeCountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations at least this large are counted.
static SHARD_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
/// ... and those at least this large are counted again.
static MODEL_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static SHARD_SIZED: AtomicUsize = AtomicUsize::new(0);
static MODEL_SIZED: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        if size >= SHARD_BYTES.load(Ordering::Relaxed) {
            SHARD_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        if size >= MODEL_BYTES.load(Ordering::Relaxed) {
            MODEL_SIZED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for SizeCountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above; `p` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: SizeCountingAlloc = SizeCountingAlloc;

/// `(shard-sized, model-sized)` allocations `f` makes.
fn sized_allocs(f: impl FnOnce()) -> (usize, usize) {
    SHARD_SIZED.store(0, Ordering::SeqCst);
    MODEL_SIZED.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        SHARD_SIZED.load(Ordering::SeqCst),
        MODEL_SIZED.load(Ordering::SeqCst),
    )
}

#[test]
fn the_server_allocates_only_new_store_values() {
    let n = 1 << 16;
    let ps_shards = 4;
    for mode in [Consistency::Eventual, Consistency::Strong] {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            ps_shards,
            mode,
            AlphaSchedule::Const(0.6),
        ));
        let layout = *assim.layout();
        let smallest = (0..ps_shards).map(|i| layout.len(i)).min().unwrap();
        SHARD_BYTES.store(4 * smallest, Ordering::SeqCst);
        MODEL_BYTES.store(4 * n, Ordering::SeqCst);

        let w0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).cos()).collect();
        let svc = PsService::new(assim.clone());
        svc.publish(1, &assim.seed_params(&w0));
        let upload = |k: usize| -> Vec<f32> { (0..n).map(|i| (i + k) as f32 * 1e-4).collect() };
        let epoch_publish = |epoch: u64| {
            svc.publish(epoch, &assim.read_blobs());
            svc.retire_snapshots_before(epoch - 1);
        };
        // Warm-up: the snapshot map and the store reach their steady size.
        for epoch in 2..5 {
            assim.finish(assim.begin(), upload(epoch as usize), 1);
            epoch_publish(epoch);
        }

        for epoch in 5..8 {
            let client = upload(epoch as usize);
            let mut updated = Vec::new();
            let (shard_sized, model_sized) = sized_allocs(|| {
                updated = assim.finish(assim.begin(), client, 1);
            });
            assert_eq!(
                (shard_sized, model_sized),
                (ps_shards, 0),
                "{mode:?}: one assimilation allocates the {ps_shards} new store values and \
                 nothing model-sized"
            );
            assert_eq!(updated, assim.read_params().0, "{mode:?}");

            let (shard_sized, model_sized) = sized_allocs(|| epoch_publish(epoch));
            assert_eq!(
                (shard_sized, model_sized),
                (0, 0),
                "{mode:?}: a warm Raw epoch publish shares the store's blobs"
            );
            assert_eq!(
                svc.snapshot_blobs(epoch).unwrap(),
                assim.read_blobs(),
                "{mode:?}"
            );
        }
    }
}
