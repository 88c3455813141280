//! Counting-allocator proof that a workunit on a warm `TrainWorkspace` pays
//! for its optimizer state and its upload and nothing else: the replica is
//! resident (no build, no He-normal draw, no layer buffers), the pools are
//! warm, the shuffle order and label batch are reused. Adam's `m` and `v`
//! plus the returned vector make three allocations, for `mlp` and for
//! `resnet_lite` at the paper's 32×32×3 alike.
//!
//! `vc-optim`'s `zero_alloc` sweep proves the steps in between allocate
//! nothing; it cannot call `train_client_replica_ws` (this crate depends on
//! that one), so the workunit-level count lives here. The kernel pool is held
//! to one thread, as the contract benchmark holds it: with helpers, which of
//! them first meets a GEMM shape — and grows its own pack arena for it — is
//! up to the scheduler, and that sweep is `zero_alloc`'s subject. This file
//! must stay a single-test binary: the counter is process-wide and
//! `VC_THREADS` is read once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vc_asgd::{train_client_replica_ws, JobConfig};
use vc_data::ShardSet;
use vc_nn::spec::{mlp, resnet_lite};
use vc_optim::TrainWorkspace;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above; `p` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Adam's `m` and `v`, and the upload.
const WARM_WORKUNIT_ALLOCS: u64 = 3;

#[test]
fn warm_workunit_allocates_only_optimizer_state_and_the_upload() {
    // Before the pool's first use.
    std::env::set_var("VC_THREADS", "1");
    let img = [3, 32, 32];
    for model in [mlp(&img, 64, 10), resnet_lite(&img, 2, 10)] {
        let mut cfg = JobConfig::test_small(9);
        cfg.data.img = img;
        cfg.data.train_n = 80;
        cfg.shards = 2;
        cfg.batch_size = 16; // 40 per shard: two full steps and a short one
        cfg.local_epochs = 1;
        cfg.model = model;
        let (train, _, _) = cfg.data.generate();
        let shards = ShardSet::split(&train, cfg.shards);
        let snapshot = cfg.model.build(cfg.seed).params_flat();
        let mut tws = TrainWorkspace::new();

        // The first workunit builds the replica and warms the pools (and,
        // the first time round, starts the kernel thread pool).
        let first =
            train_client_replica_ws(&cfg, &snapshot, &shards.shard(0).data, 1, 0, &mut tws, None);

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let second =
            train_client_replica_ws(&cfg, &first, &shards.shard(1).data, 1, 1, &mut tws, None);
        COUNTING.store(false, Ordering::SeqCst);

        assert_ne!(second, first, "the counted workunit must train");
        assert_eq!(
            ALLOCS.load(Ordering::SeqCst),
            WARM_WORKUNIT_ALLOCS,
            "`{}`: a warm workunit allocates Adam's two moment vectors and the upload",
            cfg.model.name
        );
    }
}
