//! Copy budget of the parameter path, held by a peak-live-bytes allocator.
//!
//! A worker needs its replica's `w`, `dw`, Adam `m` and `v`, the shard
//! cache's assembled vector, the replica it returns and one payload being
//! read (≈ 6¼ model-sized buffers); the server needs the store's blobs, the
//! retained epoch snapshots, the scoring replica's `w`, an upload in flight
//! with its quorum candidate, and a merge result. This run measures 18–19
//! buffers at its peak (which phases overlap is up to the scheduler); the
//! bound is `(8·Cn + 8) × param_bytes` plus a fixed allowance for data
//! sets, activations and thread stacks. Before the path was given one owner
//! per buffer the same run peaked at 36.7 — flat mirrors in the trainer,
//! retained responses, whole-matrix GEMM packs, a staging buffer per
//! connection — and any two of those coming back no longer fit.
//! (DESIGN.md §9 has the table.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vc_nn::spec::mlp;
use vc_ps::Codec;
use vc_runtime::{run_runtime, RuntimeConfig};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    // Relaxed: statistics, they publish no other data.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        grow(l.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        grow(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if new_size >= l.size() {
            grow(new_size - l.size());
        } else {
            LIVE.fetch_sub(l.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: as above; `p` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Everything that is not a parameter buffer: three small data sets and
/// their shards, a batch of activations per worker, channels, thread stacks.
const FIXED_SLACK: usize = 6 << 20;

#[test]
fn two_worker_tcp_run_stays_inside_the_copy_budget() {
    let mut cfg = RuntimeConfig::test_small(5);
    cfg.job.data.img = [3, 32, 32];
    cfg.job.model = mlp(&cfg.job.data.img, 256, cfg.job.data.classes);
    cfg.job.data.train_n = 64;
    cfg.job.data.val_n = 32;
    cfg.job.data.test_n = 32;
    cfg.job.val_eval_n = 32;
    cfg.job.shards = 4;
    cfg.job.ps_shards = 4;
    cfg.job.batch_size = 16;
    cfg.job.local_epochs = 1;
    cfg.job.epochs = 2;
    cfg.job.cn = 2;
    cfg.job.pn = 1;
    cfg.job.tn = 1;
    cfg.ps_tcp = true;
    cfg.codec = Codec::Raw;
    let param_bytes = 4 * cfg.job.model.build(cfg.job.seed).param_count();
    assert!(param_bytes > 3 << 20, "the model must dwarf the slack");
    let budget = (8 * cfg.job.cn + 8) * param_bytes + FIXED_SLACK;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_runtime(cfg).expect("run");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(!report.halted_early);
    assert_eq!(report.epochs.len(), 2);
    let buffers = peak as f64 / param_bytes as f64;
    eprintln!("peak live {peak} B = {buffers:.1} model-sized buffers (budget {budget} B)");
    assert!(
        peak <= budget,
        "peak live heap {peak} B is {buffers:.1} model-sized buffers; the parameter path \
         budgets (8·Cn + 8) = 24 plus {FIXED_SLACK} B — a model-sized copy came back"
    );
}
