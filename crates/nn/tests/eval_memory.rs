//! Memory bound of the final evaluation's transient, held by a peak-live-
//! bytes allocator: `metrics::evaluate` of `resnet_lite` (32×32×3, 10
//! classes) over 128 images with the runtime's batch cap of 256 — four
//! passes of 32 (`metrics::pass_batch`), the shape of the scoring pass that
//! closes a run — may hold at most [`BOUND`] of live heap above the model
//! and its inputs.
//!
//! An inference pass keeps nothing for backward, so what it holds is its
//! pool: the pool never shrinks within the pass, and a buffer it hands out
//! may not be twice the request or more (`vc_tensor::workspace`), so the
//! peak is every buffer the pass ever had to allocate. Before per-thread
//! staging and copy-free skips, that included a staging buffer with a slot
//! per image (9.5 MB at batch 128) and each block's pooled copy of its
//! input (8.4 MB in the first stage):
//!
//! | what the pass stages and copies                        | 1 thread | 8 threads |
//! |--------------------------------------------------------|----------|-----------|
//! | a slot per image, a pooled copy of each skip           | 55.0 MB  | 55.0 MB   |
//! | a slot per pool thread, the skip read from its unit    | 43.8 MB  | 44.4 MB   |
//! | the 1×1 conv on the image layout, no column matrix     | 41.6 MB  | 42.2 MB   |
//! | passes of 32 images, 2 MiB of hidden activation each   | 10.5 MB  | 10.6 MB   |
//!
//! (Less than the two sizes added: the bounded pool used to let an idle
//! staging buffer serve an activation.) The last row is the widening 1×1
//! convolution run as GEMMs on the image planes instead of through im2col:
//! it no longer takes a `[rows, in_ch]` column matrix and a `[rows,
//! out_ch]` staging matrix beside its output. The rows above it ran the
//! 128 images as one batch; the last runs them in passes whose widest
//! activation, the first convolution's output, is 2 MiB.
//!
//! This file must stay a single-test binary: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vc_nn::metrics::evaluate;
use vc_tensor::{NormalSampler, Tensor};

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

/// The largest peak measured at one to eight pool threads (11.00 MB at
/// seven; eight read 10.56 MB, one 10.47 MB), with the same 0.1 MB of slack
/// as the bounds before it.
const BOUND: usize = 11_100_000;

#[test]
fn final_evaluation_stays_inside_its_memory_bound() {
    let mut model = vc_nn::spec::resnet_lite(&[3, 32, 32], 2, 10).build(7);
    let mut s = NormalSampler::seed_from(3);
    let images = Tensor::randn(&[128, 3, 32, 32], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..128).map(|i| i % 10).collect();
    // Fuse before measuring: `evaluate` does it too, but the peephole's
    // bookkeeping belongs to the model, not to the pass.
    model.fuse_relu();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let acc = evaluate(&mut model, &images, &labels, 256);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    println!(
        "resnet_lite evaluate, 128 images at a batch cap of 256: peak live heap {:.2} MB ({} pool threads)",
        peak as f64 / 1e6,
        rayon::current_threads()
    );
    assert!((0.0..=1.0).contains(&acc));
    assert!(
        peak <= BOUND,
        "the final evaluation peaked at {:.1} MB of live heap, bound {:.1} MB",
        peak as f64 / 1e6,
        BOUND as f64 / 1e6
    );
    // Not vacuous: kept at 8 MiB from the single-batch pass, above the
    // 4 MiB a 32-image pass must hold at once (a first-stage block's input
    // and output) and below the 10.5 MB it measures.
    assert!(
        peak > 8 << 20,
        "measured {peak} B: the counter is not wired"
    );
}
