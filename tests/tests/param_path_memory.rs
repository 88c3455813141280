//! Copy budget of the parameter path, held by a peak-live-bytes allocator.
//!
//! A worker needs its resident replica's `w` and `dw`, Adam `m` and `v` and
//! the shard cache's assembled vector while it trains, and one payload being
//! read while it fetches (≈ 5¼ model-sized buffers); the upload it returns is
//! allocated after the optimizer state is dropped, so it is no sixth. Under
//! `Int8` with error feedback it also keeps the upload residual — and nothing
//! else: the upload is shaped in place, and a delta frame is dequantize-added
//! straight onto the assembled vector. The server needs the store's blobs,
//! the retained epoch snapshots — whose `Shard` frames under `Raw` *are*
//! blobs the store held at publish, and under a lossy codec the delta
//! reference, not a copy beside either — the scoring replica's `w` (the
//! run's one built model) and an upload in flight, banked a second time only
//! while its quorum is open; the assimilation blends the stored values into
//! that upload, so there is no merge result beside it.
//!
//! Both runs are held to `(7·Cn + 8) × param_bytes` plus a fixed allowance
//! for data sets, activations and thread stacks. The Raw run measures
//! 17.3–18.4 buffers at its peak (which phases overlap is up to the
//! scheduler; the top of the range is both workers training while both their
//! previous uploads are still being assimilated); the Int8 run 20.6–21.5,
//! the two residuals more. With the server's decoded reads, merge results,
//! re-encoded snapshots and second model (PR 24) they measured 18.3–19.5
//! and 20.8–21.6. Until PR 22 the Int8 run had a bound of its own,
//! `(8·Cn + 8)`, and measured 23.3–24.3: the service kept a full-precision
//! reference vector beside its frames and shaped each publish through two
//! pooled shard-sized vectors and a blob it then copied, and each worker's
//! cache decoded deltas through a shard-sized scratch — 2.1 buffers that no
//! longer exist, so that tree's usual peak does not fit this bound. Earlier
//! still, with three model-sized scratch vectors on the upload and the upload
//! allocated beside the optimizer state, the same run peaked at 26.7–27.7;
//! and before the path was given one owner per buffer the Raw run peaked at
//! 36.7 — flat mirrors in the trainer, retained responses, whole-matrix GEMM
//! packs, a staging buffer per connection. (DESIGN.md §9 has the tables.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vc_nn::spec::mlp;
use vc_ps::Codec;
use vc_runtime::{Runtime, RuntimeConfig};

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

/// Buffers budgeted per worker: the ≈ 5¼ it needs (6¼ with the upload
/// residual of Int8 + error feedback) plus room for the uploads it has in
/// flight on the server side.
const PER_WORKER: usize = 7;

/// The two runs share one process-wide peak counter.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Peak live heap of a two-worker TCP run under `codec`, in bytes and in
/// model-sized buffers, asserted against `PER_WORKER·Cn + 8` buffers plus
/// [`FIXED_SLACK`].
fn assert_run_stays_inside(codec: Codec) {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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
    cfg.codec = codec;
    let param_bytes = 4 * cfg.job.model.build(cfg.job.seed).param_count();
    assert!(param_bytes > 3 << 20, "the model must dwarf the slack");
    let buffers_allowed = PER_WORKER * cfg.job.cn + 8;
    let budget = buffers_allowed * param_bytes + FIXED_SLACK;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = Runtime::new(cfg).expect("build").run().expect("run");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(!report.halted_early);
    assert_eq!(report.epochs.len(), 2);
    let buffers = peak as f64 / param_bytes as f64;
    eprintln!(
        "{codec:?}: peak live {peak} B = {buffers:.1} model-sized buffers (budget {budget} B)"
    );
    assert!(
        peak <= budget,
        "{codec:?}: peak live heap {peak} B is {buffers:.1} model-sized buffers; the parameter \
         path budgets ({PER_WORKER}·Cn + 8) = {buffers_allowed} plus {FIXED_SLACK} B — a \
         model-sized copy came back"
    );
}

#[test]
fn two_worker_tcp_run_stays_inside_the_copy_budget() {
    assert_run_stays_inside(Codec::Raw);
}

#[test]
fn two_worker_int8_run_stays_inside_the_copy_budget() {
    assert_run_stays_inside(Codec::Int8 {
        error_feedback: true,
    });
}
