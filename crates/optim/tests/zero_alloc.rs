//! Counting-allocator proof of the workspace trainer's zero-alloc claim:
//! after one warm-up pass, steady-state `train_minibatch` steps perform
//! **no heap allocation at all** — forward caches, direct-conv scratch,
//! gradient flats, batch assembly and optimizer state all live in reused
//! buffers.
//!
//! The claim is asserted at **every** thread cap, not just serially:
//! `VC_THREADS=8` is set before the pool's first use (this file must stay
//! a single-test binary so no other test races the env var), then the cap
//! sweeps 8 → 4 → 2 → 1 with a warm-up and a counted pass at each, over
//! `small_cnn` and over `resnet_lite` at the paper's 32×32×3, batch 32. This
//! covers the pool's stack-job dispatch path (jobs live on the submitter's
//! stack, the queue is pre-reserved, helpers touch no heap) and the
//! submitter-side GEMM A-pack arena, whose high-water mark is reached at
//! the widest cap — which is why the sweep starts at 8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};
use vc_tensor::{NormalSampler, Tensor};

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

/// Sweeps the thread cap 8 → 4 → 2 → 1 over `model`, with a warm-up pass
/// and a counted pass at each cap.
fn sweep(name: &str, mut model: vc_nn::Sequential, images: &Tensor, classes: usize, batch: usize) {
    use rand::SeedableRng;
    let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
    let labels: Vec<usize> = (0..images.dims()[0]).map(|i| i % classes).collect();
    let mut tws = TrainWorkspace::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    // Widest cap first: the A-pack arena and the model's pool hit their
    // high-water marks at 8 threads, so later (narrower) caps reuse them.
    for cap in [8usize, 4, 2, 1] {
        rayon::set_thread_cap(cap);
        // Warm-up at this cap: fills the model's buffer pool, the flat
        // param/grad vectors and the optimizer state — and, on the first
        // iteration, spawns the pool's worker threads.
        train_minibatch(
            &mut model, &mut opt, images, &labels, batch, 2, 5.0, &mut rng, &mut tws, None,
        );

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let stats = train_minibatch(
            &mut model, &mut opt, images, &labels, batch, 3, 5.0, &mut rng, &mut tws, None,
        );
        COUNTING.store(false, Ordering::SeqCst);

        assert!(stats.mean_loss.is_finite());
        assert_eq!(
            ALLOCS.load(Ordering::SeqCst),
            0,
            "{name} cap {cap}: steady-state train_minibatch steps must not touch the heap"
        );
    }
    rayon::set_thread_cap(usize::MAX);
}

#[test]
fn steady_state_training_steps_do_not_allocate() {
    // Before the pool's OnceLock initializes: ask for 8 workers even on a
    // smaller box, so every cap in the sweep is actually exercised.
    std::env::set_var("VC_THREADS", "8");
    assert_eq!(rayon::max_threads(), 8, "VC_THREADS must size the pool");

    let mut s = NormalSampler::seed_from(3);
    let images = Tensor::randn(&[16, 1, 8, 8], 0.0, 1.0, &mut s);
    sweep(
        "small_cnn",
        vc_nn::spec::small_cnn(&[1, 8, 8], 4).build(7),
        &images,
        4,
        4,
    );
    // The paper-shaped flagship: residual blocks and batch norm draw every
    // buffer from the same pool.
    let images = Tensor::randn(&[32, 3, 32, 32], 0.0, 1.0, &mut s);
    sweep(
        "resnet_lite",
        vc_nn::spec::resnet_lite(&[3, 32, 32], 2, 10).build(7),
        &images,
        10,
        32,
    );
}
