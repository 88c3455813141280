//! Memory budget of one training replica, held by a peak-live-bytes
//! allocator: a warm `resnet_lite` replica at the paper's 32×32×3, batch
//! 32 with one short batch of 12 in between, may hold at most [`BUDGET`] of
//! live heap above its inputs while it trains.
//!
//! A volunteer client runs up to T8 subtasks at once, so this number is
//! paid Tn times per host, and BOINC only sends a job to hosts whose RAM
//! covers its bound. What the budget pins down (48 490 parameters; the rest
//! is activations; read at `VC_THREADS=1`):
//!
//! | what a replica holds                                   | full batches | + the short one |
//! |--------------------------------------------------------|--------------|-----------------|
//! | layer-by-layer units, unbounded best-fit pool (PR 16)  | 52.9 MB      | 52.9 MB         |
//! | fused pre-activation units alone                       | 47.7 MB      | 47.7 MB         |
//! | bounded best-fit pool alone                            | 44.6 MB      | 54.8 MB         |
//! | fused units + bounded best-fit pool                    | 28.7 MB      | 34.3 MB         |
//! | + per-thread staging, copy-free skips, byte argmax     | 26.9 MB      | 30.4 MB         |
//! | + a unit's input released by its backward              | 23.7 MB      | 25.2 MB         |
//! | + the 1×1 conv on the image layout (this test)          | 23.2 MB      | 24.9 MB         |
//!
//! A pre-activation unit run layer by layer keeps `x_hat`, the ReLU's byte
//! mask and the convolution's input (2.25 activations); fused it keeps its
//! input (`vc_nn`'s `preact` module). The pool bound is what turns buffers
//! no longer cached into memory no longer held (`vc_tensor::workspace`):
//! on full batches the two are worth 5 MB and 8 MB apart and 24 MB
//! together. The bound has a price, and the short batch is there to charge
//! it: a batch under half the usual size may use none of the pooled
//! buffers, so it brings a set of its own that stays (5.5 MB here; 10 MB,
//! more than the bound saves, without the fusion).
//!
//! The last two rows stage each image in a slot per pool thread instead of
//! one per image, read a residual block's skip operand from the unit that
//! heads its body instead of a pooled copy, keep the max-pool argmax as a
//! byte, and give a unit's cached input back to the pool as soon as its
//! backward has read it, so the gradients of the layers below reuse it.
//! Each cut lowered the peak on its own: 34.3 → 32.1 → 31.3 → 30.4 → 25.2
//! MB with the short batch, at one pool thread. The last row runs the
//! widening 1×1 convolution as GEMMs on the image planes: its forward no
//! longer takes a column matrix and a staging matrix, its backward no
//! longer takes a row-major `dy` and a column gradient (25.2 → 24.9 MB).
//! Eight threads' staging slots add 0.6 MB (25.5 MB).
//!
//! This file must stay a single-test binary: the counters are process-wide.

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};
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

/// The measured peak at eight pool threads (25.48 MB; 24.92 MB at one)
/// plus about 10 %; every other row of the table above but the one before
/// last is over it.
const BUDGET: usize = 28_100_000;

#[test]
fn warm_resnet_replica_stays_inside_its_memory_budget() {
    let mut model = vc_nn::spec::resnet_lite(&[3, 32, 32], 2, 10).build(7);
    let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
    let mut s = NormalSampler::seed_from(3);
    let images = Tensor::randn(&[32, 3, 32, 32], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    // A shard rarely divides into full batches: its last step is short.
    let short_images = Tensor::randn(&[12, 3, 32, 32], 0.0, 1.0, &mut s);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    // Everything above is input; the replica's working set starts here.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut tws = TrainWorkspace::new();
    // One step to warm the pools, then the four the budget is about. The
    // pool serves no request from a buffer twice its size or more, so the
    // short batch brings buffers of its own and they stay pooled under the
    // full steps that follow: the budget covers both sets.
    for x in [&images, &images, &short_images, &images, &images] {
        let n = x.dims()[0];
        let stats = train_minibatch(
            &mut model,
            &mut opt,
            x,
            &labels[..n],
            32,
            1,
            5.0,
            &mut rng,
            &mut tws,
            None,
        );
        assert_eq!(stats.steps, 1);
        assert!(stats.mean_loss.is_finite());
    }
    let peak = PEAK.load(Ordering::Relaxed) - before;
    println!(
        "warm resnet_lite replica: peak live heap {:.2} MB ({} pool threads)",
        peak as f64 / 1e6,
        rayon::current_threads()
    );
    assert!(
        peak <= BUDGET,
        "a warm resnet_lite replica peaked at {:.1} MB of live heap, budget {:.1} MB",
        peak as f64 / 1e6,
        BUDGET as f64 / 1e6
    );
    // The bound is not vacuous: the eight cached unit inputs alone are 12 MB.
    assert!(
        peak > 12 << 20,
        "measured {peak} B: the counter is not wired"
    );
}
