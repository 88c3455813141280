//! Training-throughput benchmark of the compute substrate (blocked kernels
//! + persistent pool + zero-alloc workspace + direct 3×3 conv).
//!
//! Four sections, all written to `results/BENCH_train.json` (the committed
//! copy also carries the `legacy_*` columns of the seed kernels and seed
//! layer path, measured before that code was deleted — the "before" of
//! every later speedup claim):
//!
//! 1. **Kernels** — GFLOP/s of the three matmul shapes at 128³/256³/512³.
//! 2. **End-to-end** — optimizer steps/sec of
//!    [`vc_optim::train_minibatch_ws`] training the paper's `small_cnn` on
//!    `[1, 28, 28]` inputs.
//! 3. **Scaling** — blocked-matmul GFLOP/s *and* `small_cnn` ws steps/s as
//!    the persistent pool's thread cap sweeps {1, 2, 4, 8}, plus a scaling
//!    efficiency for each curve. The pool is forced to 8 workers (via
//!    `VC_THREADS`, unless the caller already set it) so the full curve
//!    exists even on a single-core host — there the curve measures dispatch
//!    overhead, not speedup, which is exactly what the `--check` floor
//!    guards (see below).
//! 4. **Conv** — forward+backward wall time of the direct 3×3 kernels vs
//!    the im2col+GEMM lowering on the `small_cnn` conv shapes, both timed at
//!    kernel level (`Conv2d` itself dispatches on geometry alone).
//!
//! `--smoke` runs the whole thing on tiny shapes in well under a second,
//! asserts the results are finite/sane, and writes nothing — the CI guard.
//!
//! `--check` additionally gates on performance, not just sanity:
//!
//! * **Scaling floor** — at the widest cap the GEMM curve must retain at
//!   least `GEMM_EFF_FLOOR` of ideal. Efficiency is normalized by the
//!   *achievable* parallelism `min(cap, host cores)`, so on a 1-core host
//!   the widest point degenerates to `perf(8 threads)/perf(1 thread)` — a
//!   pure dispatch-overhead bound. The floors are set from measurement on
//!   the 1-core reference container (see DESIGN.md §13): oversubscribed
//!   8-worker dispatch sustains ≥ 0.9× serial throughput for the GEMM and
//!   ≥ 0.8× for the full training step, so the floors sit a noise margin
//!   below at 0.70 (GEMM) / 0.60 (e2e, full mode only).
//! * **Conv floor** — the direct path must beat im2col on every full-run
//!   conv shape (`speedup ≥ 1.0`); the smoke shapes are too small to clear
//!   kernel-launch noise, so they only gate at ≥ 0.7.

use serde::Serialize;
use std::time::Instant;
use vc_nn::spec::small_cnn;
use vc_optim::{train_minibatch_ws, OptimizerSpec, TrainWorkspace};
use vc_tensor::conv_direct::{
    conv3x3_backward_dk_into, conv3x3_backward_dx_into, conv3x3_forward_into, dk_scratch_len,
    dx_scratch_len, fwd_scratch_len,
};
use vc_tensor::ops::{
    col2im_into, im2col_into, matmul, matmul_a_bt, matmul_a_bt_epi_into, matmul_at_b,
    matmul_at_b_epi_into, matmul_epi_into, ConvGeom, Epilogue,
};
use vc_tensor::{NormalSampler, Tensor};

/// Widest-cap GEMM scaling-efficiency floor enforced by `--check`.
const GEMM_EFF_FLOOR: f64 = 0.70;
/// Widest-cap e2e scaling-efficiency floor (full runs only).
const E2E_EFF_FLOOR: f64 = 0.60;
/// Direct-conv speedup floors: full shapes must win outright.
const CONV_SPEEDUP_FLOOR_FULL: f64 = 1.0;
const CONV_SPEEDUP_FLOOR_SMOKE: f64 = 0.7;

/// Minimum wall-clock time over `reps` runs of `f` (after one warmup call).
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup (first-touch, pool spawn, page faults)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[derive(Serialize)]
struct KernelRow {
    /// Which matmul variant (`matmul` = A·B, `at_b` = Aᵀ·B, `a_bt` = A·Bᵀ).
    op: String,
    /// Square problem size (m = n = k).
    n: usize,
    /// Blocked micro-kernel throughput, GFLOP/s.
    blocked_gflops: f64,
}

#[derive(Serialize)]
struct E2e {
    /// Model + data shape the steps ran on.
    model: String,
    batch_size: usize,
    timed_steps: usize,
    /// [`train_minibatch_ws`] (fused ReLU epilogues, pooled buffers).
    ws_steps_per_s: f64,
}

#[derive(Serialize)]
struct Scaling {
    /// Square matrix size the GEMM points used.
    gemm_n: usize,
    /// Cores the host actually has; the pool itself may be wider (the
    /// `VC_THREADS=8` override), in which case caps past this point
    /// measure oversubscribed dispatch overhead rather than speedup.
    hw_threads: usize,
    /// Thread caps swept, ascending.
    threads: Vec<usize>,
    /// Blocked `matmul` GFLOP/s per cap.
    gflops: Vec<f64>,
    /// `small_cnn` workspace-trainer optimizer steps/s per cap.
    steps_per_s: Vec<f64>,
    /// `(gflops.last / gflops[0]) / min(threads.last, hw_threads)`.
    gemm_scaling_efficiency: f64,
    /// Same normalization for the steps/s curve.
    e2e_scaling_efficiency: f64,
}

#[derive(Serialize)]
struct ConvRow {
    /// Human label, e.g. `conv1 1->16 28x28 b32`.
    case: String,
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    /// Forward + dK + dx through im2col, GEMM and col2im, milliseconds.
    im2col_ms: f64,
    /// The same three results from the direct 3×3 kernels, milliseconds.
    direct_ms: f64,
    /// im2col / direct.
    speedup: f64,
}

#[derive(Serialize)]
struct BenchTrain {
    /// Persistent-pool worker count the numbers used.
    pool_threads: usize,
    kernels: Vec<KernelRow>,
    e2e: E2e,
    scaling: Scaling,
    conv: Vec<ConvRow>,
}

fn gflops(n: usize, secs: f64) -> f64 {
    2.0 * (n as f64).powi(3) / secs / 1e9
}

fn bench_kernels(sizes: &[usize], reps: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    let mut s = NormalSampler::seed_from(7);
    for &n in sizes {
        let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut s);
        let b = Tensor::randn(&[n, n], 0.0, 1.0, &mut s);
        let ops: [(&'static str, f64); 3] = [
            ("matmul", time_best(reps, || drop(matmul(&a, &b)))),
            ("at_b", time_best(reps, || drop(matmul_at_b(&a, &b)))),
            ("a_bt", time_best(reps, || drop(matmul_a_bt(&a, &b)))),
        ];
        for (op, secs) in ops {
            let row = KernelRow {
                op: op.to_string(),
                n,
                blocked_gflops: gflops(n, secs),
            };
            println!("kernel {op:>6} n={n:<4} {:8.2} GFLOP/s", row.blocked_gflops);
            rows.push(row);
        }
    }
    rows
}

/// Steps/s of the trainer on `small_cnn` for the given shape: fresh
/// model/optimizer, one warm-up epoch (fills the pools), then
/// `timed_epochs` timed. Used for both the e2e section and the per-cap
/// scaling curve.
fn ws_steps_per_s(input: [usize; 3], samples: usize, batch: usize, timed_epochs: usize) -> f64 {
    use rand::SeedableRng;
    let classes = 10;
    let mut s = NormalSampler::seed_from(11);
    let dims = [samples, input[0], input[1], input[2]];
    let images = Tensor::randn(&dims, 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..samples).map(|i| i % classes).collect();
    let timed_steps = timed_epochs * samples.div_ceil(batch);
    let mut model = small_cnn(&input, classes).build(42);
    let mut opt = OptimizerSpec::Sgd { lr: 0.01 }.build(model.params_flat().len());
    let mut tws = TrainWorkspace::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let stats = train_minibatch_ws(
        &mut model, &mut opt, &images, &labels, batch, 1, 5.0, &mut rng, &mut tws, None,
    );
    assert!(stats.mean_loss.is_finite(), "ws path diverged");
    let t0 = Instant::now();
    train_minibatch_ws(
        &mut model,
        &mut opt,
        &images,
        &labels,
        batch,
        timed_epochs,
        5.0,
        &mut rng,
        &mut tws,
        None,
    );
    timed_steps as f64 / t0.elapsed().as_secs_f64()
}

fn bench_e2e(input: [usize; 3], samples: usize, batch: usize, timed_epochs: usize) -> E2e {
    let classes = 10;
    let e2e = E2e {
        model: format!("small_cnn {:?} classes={classes}", input),
        batch_size: batch,
        timed_steps: timed_epochs * samples.div_ceil(batch),
        ws_steps_per_s: ws_steps_per_s(input, samples, batch, timed_epochs),
    };
    println!(
        "e2e {} batch={batch}: {:8.2} steps/s",
        e2e.model, e2e.ws_steps_per_s
    );
    e2e
}

/// The caps to sweep: {1, 2, 4, 8} clamped to the pool width, plus the
/// pool width itself when it is not a power of two.
fn sweep_caps(max: usize) -> Vec<usize> {
    let mut caps: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max)
        .collect();
    if caps.last() != Some(&max) {
        caps.push(max);
    }
    caps
}

fn bench_scaling(
    n: usize,
    reps: usize,
    input: [usize; 3],
    samples: usize,
    batch: usize,
) -> Scaling {
    let mut s = NormalSampler::seed_from(13);
    let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut s);
    let b = Tensor::randn(&[n, n], 0.0, 1.0, &mut s);
    let max = rayon::max_threads();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let caps = sweep_caps(max);
    let (mut gf, mut sps) = (Vec::new(), Vec::new());
    for &t in &caps {
        rayon::set_thread_cap(t);
        let secs = time_best(reps, || drop(matmul(&a, &b)));
        let g = gflops(n, secs);
        let e = ws_steps_per_s(input, samples, batch, 1);
        println!("scaling threads={t}: gemm(n={n}) {g:.2} GFLOP/s  small_cnn {e:.2} steps/s");
        gf.push(g);
        sps.push(e);
    }
    rayon::set_thread_cap(max);
    let ideal = (*caps.last().expect("non-empty sweep")).min(hw) as f64;
    Scaling {
        gemm_n: n,
        hw_threads: hw,
        gemm_scaling_efficiency: gf.last().expect("point") / gf[0] / ideal,
        e2e_scaling_efficiency: sps.last().expect("point") / sps[0] / ideal,
        threads: caps,
        gflops: gf,
        steps_per_s: sps,
    }
}

fn bench_conv(cases: &[(usize, usize, usize, usize, usize)], reps: usize) -> Vec<ConvRow> {
    let mut rows = Vec::new();
    let mut s = NormalSampler::seed_from(17);
    for (i, &(batch, in_ch, out_ch, h, w)) in cases.iter().enumerate() {
        let geom = ConvGeom {
            h,
            w,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (rows_n, patch) = (batch * h * w, in_ch * 9);
        let x = Tensor::randn(&[batch, in_ch, h, w], 0.0, 1.0, &mut s);
        let dy = Tensor::randn(&[batch, out_ch, h, w], 0.0, 1.0, &mut s);
        let kernel = Tensor::randn(&[out_ch, patch], 0.0, 1.0, &mut s);
        let mut y = vec![0.0f32; batch * out_ch * h * w];
        let mut dk = vec![0.0f32; out_ch * patch];
        let mut dx = vec![0.0f32; batch * in_ch * h * w];

        // The lowering `Conv2d` runs for general geometry: im2col, forward
        // GEMM, the two backward GEMMs, col2im. `dy` stands in for its
        // row-major permutation (same size, same work).
        let dy_rows = Tensor::from_vec(dy.data().to_vec(), &[rows_n, out_ch]);
        let mut cols = Tensor::zeros(&[rows_n, patch]);
        let mut dcols = Tensor::zeros(&[rows_n, patch]);
        let t_lowered = time_best(reps, || {
            im2col_into(&x, in_ch, geom, cols.data_mut());
            matmul_a_bt_epi_into(&cols, &kernel, &mut y, Epilogue::Store);
            matmul_at_b_epi_into(&dy_rows, &cols, &mut dk, Epilogue::Accumulate);
            matmul_epi_into(&dy_rows, &kernel, dcols.data_mut(), Epilogue::Store);
            col2im_into(&dcols, batch, in_ch, geom, &mut dx);
        });

        let mut fwd_scratch = vec![0.0f32; fwd_scratch_len(batch, in_ch, geom)];
        let mut dk_scratch = vec![0.0f32; dk_scratch_len(in_ch, out_ch, geom)];
        let mut dx_scratch = vec![0.0f32; dx_scratch_len(batch, in_ch, out_ch)];
        let t_direct = time_best(reps, || {
            conv3x3_forward_into(&x, &kernel, geom, &mut y, Epilogue::Store, &mut fwd_scratch);
            conv3x3_backward_dk_into(&dy, &x, geom, &mut dk, &mut dk_scratch);
            conv3x3_backward_dx_into(&dy, &kernel, in_ch, geom, &mut dx, &mut dx_scratch);
        });

        let row = ConvRow {
            case: format!("conv{} {in_ch}->{out_ch} {h}x{w} b{batch}", i + 1),
            batch,
            in_ch,
            out_ch,
            h,
            w,
            im2col_ms: t_lowered * 1e3,
            direct_ms: t_direct * 1e3,
            speedup: t_lowered / t_direct,
        };
        println!(
            "conv {:<22} im2col {:8.3} ms  direct {:8.3} ms  ({:.2}x)",
            row.case, row.im2col_ms, row.direct_ms, row.speedup
        );
        rows.push(row);
    }
    rows
}

fn main() {
    // Before the pool exists: a 1-core CI box would otherwise produce a
    // single-point scaling curve. An explicit VC_THREADS wins.
    if std::env::var("VC_THREADS").is_err() {
        std::env::set_var("VC_THREADS", "8");
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    #[allow(clippy::type_complexity)]
    let (sizes, reps, input, samples, batch, epochs, scaling_n, conv_cases): (
        Vec<usize>,
        usize,
        [usize; 3],
        usize,
        usize,
        usize,
        usize,
        Vec<(usize, usize, usize, usize, usize)>,
    ) = if smoke {
        (
            vec![32, 64],
            2,
            [1, 8, 8],
            32,
            8,
            1,
            128,
            vec![(4, 2, 8, 12, 12), (2, 4, 8, 8, 8)],
        )
    } else {
        (
            vec![128, 256, 512],
            3,
            [1, 28, 28],
            256,
            32,
            2,
            256,
            // The small_cnn conv shapes at [1, 28, 28] plus a wider
            // ResNet-ish block.
            vec![
                (32, 1, 16, 28, 28),
                (32, 16, 32, 14, 14),
                (32, 32, 32, 8, 8),
            ],
        )
    };

    let kernels = bench_kernels(&sizes, reps);
    let e2e = bench_e2e(input, samples, batch, epochs);
    let scaling = bench_scaling(scaling_n, reps, input, samples, batch);
    let conv = bench_conv(&conv_cases, reps.max(3));

    let content = BenchTrain {
        pool_threads: rayon::max_threads(),
        kernels,
        e2e,
        scaling,
        conv,
    };

    for row in &content.kernels {
        assert!(
            row.blocked_gflops.is_finite() && row.blocked_gflops > 0.0,
            "degenerate kernel measurement: {} n={}",
            row.op,
            row.n
        );
    }
    assert!(content.e2e.ws_steps_per_s > 0.0);
    assert!(
        content.scaling.threads.len() >= 2,
        "scaling curve needs at least two caps (pool came up {}-wide)",
        content.scaling.threads.len()
    );
    assert!(content.scaling.gemm_scaling_efficiency.is_finite());
    assert!(content.scaling.e2e_scaling_efficiency.is_finite());

    if check {
        assert!(
            content.scaling.gemm_scaling_efficiency >= GEMM_EFF_FLOOR,
            "GEMM scaling efficiency {:.3} below floor {GEMM_EFF_FLOOR} \
             (threads {:?}, gflops {:?})",
            content.scaling.gemm_scaling_efficiency,
            content.scaling.threads,
            content.scaling.gflops,
        );
        if !smoke {
            assert!(
                content.scaling.e2e_scaling_efficiency >= E2E_EFF_FLOOR,
                "e2e scaling efficiency {:.3} below floor {E2E_EFF_FLOOR} \
                 (threads {:?}, steps/s {:?})",
                content.scaling.e2e_scaling_efficiency,
                content.scaling.threads,
                content.scaling.steps_per_s,
            );
        }
        let floor = if smoke {
            CONV_SPEEDUP_FLOOR_SMOKE
        } else {
            CONV_SPEEDUP_FLOOR_FULL
        };
        for row in &content.conv {
            assert!(
                row.speedup >= floor,
                "direct conv {} speedup {:.2} below floor {floor}",
                row.case,
                row.speedup
            );
        }
        println!("check OK: scaling + conv floors hold");
    }

    if smoke {
        println!(
            "smoke OK: {} kernel rows, e2e + scaling + conv sane",
            content.kernels.len()
        );
        return;
    }
    vc_bench::write_results(
        "BENCH_train.json",
        &serde_json::to_string_pretty(&content).expect("serialize"),
    );
}
