//! A scoring replica holds its parameters and no gradients, held by a
//! peak-live-bytes allocator: the `mlp_transfer` model shape (`mlp` on
//! 32×32×3, 512 hidden, 10 classes: 1 578 506 parameters, 6.3 MB) is built
//! blank, loaded with `set_params_flat` and scores the 32 images an
//! assimilation scores (`val_eval_n`), the way the parameter server's
//! scoring replica does after every merge.
//!
//! The `resnet_lite` shape (`resnet_lite` on 32×32×3, 2 blocks a stage:
//! 48 490 parameters, 194 KB) is held to the same rule after a blank build
//! and a load: its live heap is its parameter vector plus the layers'
//! structure. A build that sized a gradient per convolution and
//! normalization would hold about 190 KB more.
//!
//! What the pass holds above the loaded parameters is its pool (one batch
//! copy and the hidden activation) and the GEMM's packing buffers: 1.50 MB
//! at one pool thread, 1.84 MB at two to eight. A gradient vector sized on
//! the way (by a load or a scoring pass) would add a second 6.3 MB buffer
//! per scorer, which `peak_rss_mb` would see; the bound is half of one
//! parameter vector.
//!
//! This file must stay a single-test binary: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vc_nn::metrics::evaluate;
use vc_nn::spec::{mlp, resnet_lite};
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

/// What a blank `resnet_lite` may hold besides its parameter vector: its
/// boxed layers, their offsets and the buffer list (5.2 KB measured), far
/// below the 190 KB a gradient per layer would add.
const STRUCTURE_BYTES: usize = 32 << 10;

#[test]
fn loaded_scorer_holds_no_gradients() {
    let spec = mlp(&[3, 32, 32], 512, 10);
    let params = spec.build(7).params_flat();
    let param_bytes = params.len() * std::mem::size_of::<f32>();
    let mut s = NormalSampler::seed_from(3);
    let images = Tensor::randn(&[32, 3, 32, 32], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut scorer = spec.build_blank();
    scorer.set_params_flat(&params);
    let acc = evaluate(&mut scorer, &images, &labels, 256);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    println!(
        "mlp_transfer scorer: peak live heap {:.2} MB, parameters {:.2} MB ({} pool threads)",
        peak as f64 / 1e6,
        param_bytes as f64 / 1e6,
        rayon::current_threads()
    );
    assert!((0.0..=1.0).contains(&acc));
    // Not vacuous: the blank build allocates its parameters in the window.
    assert!(
        peak >= param_bytes,
        "measured {peak} B: the counter is not wired"
    );
    let above = peak - param_bytes;
    assert!(
        above <= param_bytes / 2,
        "the scorer peaked {:.2} MB above its {:.2} MB of parameters",
        above as f64 / 1e6,
        param_bytes as f64 / 1e6
    );
    drop(scorer);

    let spec = resnet_lite(&[3, 32, 32], 2, 10);
    let params = spec.build(7).params_flat();
    let param_bytes = params.len() * std::mem::size_of::<f32>();
    let before = LIVE.load(Ordering::Relaxed);
    let mut scorer = spec.build_blank();
    scorer.set_params_flat(&params);
    let live = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "resnet_lite scorer: live heap {:.1} KB, parameters {:.1} KB",
        live as f64 / 1e3,
        param_bytes as f64 / 1e3
    );
    assert!(
        live >= param_bytes,
        "measured {live} B: the counter is not wired"
    );
    assert!(
        live - param_bytes <= STRUCTURE_BYTES,
        "the blank resnet_lite holds {} B above its {param_bytes} B of parameters",
        live - param_bytes
    );
    assert_eq!(scorer.param_count(), params.len());
}
