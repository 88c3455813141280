//! The two scaling curves the contract benchmark (`benchmark/run.sh`)
//! cannot express: it pins `VC_THREADS=1` and drives four hosts, so it has
//! no thread axis and no fleet-size axis. Everything else about kernel and
//! scheduler speed is a probe there (`tensor.*`, `optim.step_s_p50.*`,
//! `middleware.*_s`), at the workloads' own shapes.
//!
//! * **threads** — pool cap ∈ {1, 2, 4, 8} × {256³ blocked `matmul`
//!   GFLOP/s, [`train_minibatch`] steps/s on `resnet_lite [3, 32, 32]`
//!   at batch 32 under Adam: the `resnet_compute` workunit shape, so the
//!   curve is the `VC_THREADS` axis of `optim.step_s_p50.resnet`}. The pool
//!   is forced 8 wide (`VC_THREADS`, unless the caller set it) so the curve
//!   exists on any host; efficiency is `(last / first) / min(cap, hw_threads)`
//!   — past the host's cores it bounds oversubscribed dispatch overhead,
//!   it does not claim speedup, and `hw_threads` is written beside it.
//! * **hosts** — 1k / 10k / 100k [`generated_fleet`] hosts against one
//!   [`BoincServer`]: µs per assigning `request_work` and per no-op
//!   `scan_timeouts` (every armed deadline in the future). Each cycle also
//!   expires, reissues and reports the work, untimed, to recycle the slots.
//!
//! * **eval** — `metrics::evaluate` of `resnet_lite [3, 32, 32]` over 128
//!   images at the runtime's batch cap of 256, one pool thread: the scoring
//!   pass that closes a run, in the passes it really runs (32 images each,
//!   `metrics::pass_batch`; the row records the batch). Beside its total,
//!   each fused BN→ReLU→3×3 unit shape's direct forward kernel is timed
//!   alone at the pass batch and counted exactly,
//!   `2·out_ch·ch·9·oh·ow·batch` flop, for GFLOP/s.
//!   One row per instruction-set tier the host has (`isa::Tier`, each
//!   under `isa::with_tier_cap`, widest first), so a 16-lane host records
//!   its 8-lane and portable rows beside its own (the portable row is one
//!   pass, ~15 s of the run). Reported, not gated.
//!
//! `--smoke` runs all three at toy sizes (an 8×8 one-block model, 200 / 1k
//! hosts), asserts every number finite and positive, writes nothing.
//! `--check` gates GEMM efficiency ≥ [`GEMM_EFF_FLOOR`], training efficiency
//! ≥ [`TRAIN_EFF_FLOOR`] (full runs only: the smoke model is too small to
//! amortise a dispatch) and per-poll cost at the largest fleet within
//! [`FLAT_COST_LIMIT`]× of the smallest. A full run writes
//! `results/BENCH_scale.json`.

use serde::Serialize;
use std::time::Instant;
use vc_middleware::server::{BoincServer, MiddlewareConfig};
use vc_middleware::{HostId, ReportStatus, ShardManifest};
use vc_nn::metrics::{evaluate, pass_batch};
use vc_nn::spec::resnet_lite;
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};
use vc_simnet::{generated_fleet, SimTime};
use vc_tensor::conv_direct::{conv3x3_forward_pre_into, fwd_scratch_len, BnRelu};
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::ops::{matmul, ConvGeom, Epilogue};
use vc_tensor::{NormalSampler, Tensor};

/// Widest-cap GEMM efficiency floor (0.71 / 0.76 / 0.79 in the three full
/// runs below).
const GEMM_EFF_FLOOR: f64 = 0.70;
/// Widest-cap training-step efficiency floor (full runs only): a fifth
/// under the lowest of three full runs on the 2-vCPU reference box (Xeon @
/// 2.1 GHz, `hw_threads` 2, avx2+fma; steps/s at caps 1/2/4/8 → efficiency):
/// 7.41 7.01 7.65 7.61 → 0.51; 4.60 6.31 7.01 8.34 → 0.91; 6.63 8.12 7.67
/// 8.80 → 0.66. The spread is the box — a shared host whose 1-thread step
/// swings 4.6–7.4 steps/s between runs — not the pool.
const TRAIN_EFF_FLOOR: f64 = 0.40;
/// Largest-fleet / smallest-fleet per-poll cost bound.
const FLAT_COST_LIMIT: f64 = 4.0;

#[derive(Serialize)]
struct Threads {
    /// Cores the host has; caps past this measure oversubscribed dispatch.
    hw_threads: usize,
    /// The ISA tier this CPU dispatches to (`isa::Tier::name`); the GEMM
    /// runs its 8-lane tile on any vector tier.
    isa: String,
    gemm_n: usize,
    model: String,
    batch_size: usize,
    /// Thread caps swept, ascending.
    caps: Vec<usize>,
    gemm_gflops: Vec<f64>,
    train_steps_per_s: Vec<f64>,
    gemm_efficiency: f64,
    train_efficiency: f64,
}

#[derive(Serialize)]
struct HostsRow {
    hosts: usize,
    cycles: usize,
    /// Mean cost of a `request_work` that issues an assignment.
    request_work_us: f64,
    /// Mean cost of a `scan_timeouts` with nothing due; the first scan of a
    /// cycle drops the last cycle's dead timers, amortised over the rest.
    scan_timeouts_us: f64,
}

/// One fused BN→ReLU→3×3 unit shape of the evaluated model (`ch` in and
/// out, `side × side` images), its direct forward kernel timed alone over
/// one pass batch.
#[derive(Serialize)]
struct EvalUnit {
    ch: usize,
    side: usize,
    /// Calls of this shape in the evaluation: units in the model × passes.
    count: usize,
    /// `2·out_ch·ch·9·oh·ow·batch`: two flop per FMA the kernel issues.
    flop: f64,
    ms: f64,
    gflops: f64,
}

#[derive(Serialize)]
struct Eval {
    model: String,
    images: usize,
    /// The cap `evaluate` was handed.
    batch_size: usize,
    /// The batch its passes ran at.
    pass_batch: usize,
    thread_cap: usize,
    cpu_model: String,
    hw_threads: usize,
    isa: String,
    /// Best-of wall time of the whole `evaluate` call.
    total_ms: f64,
    units: Vec<EvalUnit>,
    /// `Σ count·ms / total_ms`: the share of the pass the units' kernels take.
    unit_share: f64,
}

#[derive(Serialize)]
struct BenchScale {
    threads: Threads,
    hosts: Vec<HostsRow>,
    /// One row per tier the host has, widest first.
    eval: Vec<Eval>,
}

/// `(last / first) / min(widest cap, hw)`: the share of the achievable
/// parallelism the widest point of `curve` retains.
fn efficiency(curve: &[f64], caps: &[usize], hw: usize) -> f64 {
    let ideal = (*caps.last().expect("non-empty sweep")).min(hw) as f64;
    curve.last().expect("non-empty sweep") / curve[0] / ideal
}

/// The flat-cost claim: per-poll cost at the largest fleet over the
/// smallest, `Err` when it exceeds [`FLAT_COST_LIMIT`].
fn flat_cost(rows: &[HostsRow]) -> Result<f64, String> {
    let (small, large) = (rows.first().expect("a row"), rows.last().expect("a row"));
    let ratio = large.request_work_us / small.request_work_us;
    if ratio <= FLAT_COST_LIMIT {
        return Ok(ratio);
    }
    Err(format!(
        "per-poll cost must stay flat with fleet size: {:.3} µs at {} hosts vs {:.3} µs at {} \
         hosts ({ratio:.2}×, limit {FLAT_COST_LIMIT}×)",
        large.request_work_us, large.hosts, small.request_work_us, small.hosts
    ))
}

/// Minimum wall-clock time over `reps` runs of `f` (after one warmup call).
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup (first-touch, pool spawn, workspace growth)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bench_threads(smoke: bool) -> Threads {
    use rand::SeedableRng;
    // 256³ in smoke too: a 128³ GEMM (~85 µs) cannot amortise a dispatch
    // (≤ 0.57 on two real cores). Timed over 20× the reps of a step, which
    // is ~200× longer: a best-of that outlasts a neighbour's burst.
    let gemm_n = 256;
    let (input, blocks, batch, reps) = if smoke {
        ([3, 8, 8], 1, 8, 2)
    } else {
        ([3, 32, 32], 2, 32, 5)
    };
    let mut s = NormalSampler::seed_from(13);
    let a = Tensor::randn(&[gemm_n, gemm_n], 0.0, 1.0, &mut s);
    let b = Tensor::randn(&[gemm_n, gemm_n], 0.0, 1.0, &mut s);
    // One batch stepped over and over, as `optim.step_s_p50.resnet` does.
    let images = Tensor::randn(&[batch, input[0], input[1], input[2]], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();

    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pool = rayon::max_threads();
    let caps: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|&t| t <= pool).collect();
    let (mut gflops, mut steps_per_s) = (Vec::new(), Vec::new());
    for &t in &caps {
        rayon::set_thread_cap(t);
        let secs = time_best(20 * reps, || drop(matmul(&a, &b)));
        let g = 2.0 * (gemm_n as f64).powi(3) / secs / 1e9;

        let mut model = resnet_lite(&input, blocks, 10).build(42);
        let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
        let mut tws = TrainWorkspace::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let secs = time_best(reps, || {
            let stats = train_minibatch(
                &mut model, &mut opt, &images, &labels, batch, 1, 5.0, &mut rng, &mut tws, None,
            );
            assert!(stats.mean_loss.is_finite(), "training diverged");
        });
        println!(
            "threads cap={t}: gemm(n={gemm_n}) {g:.2} GFLOP/s  train {:.2} steps/s",
            1.0 / secs
        );
        gflops.push(g);
        steps_per_s.push(1.0 / secs);
    }
    rayon::set_thread_cap(pool);
    Threads {
        hw_threads: hw,
        isa: Tier::detected().name().to_string(),
        gemm_n,
        model: format!("resnet_lite {input:?} blocks={blocks} classes=10, Adam"),
        batch_size: batch,
        gemm_efficiency: efficiency(&gflops, &caps, hw),
        train_efficiency: efficiency(&steps_per_s, &caps, hw),
        caps,
        gemm_gflops: gflops,
        train_steps_per_s: steps_per_s,
    }
}

/// The host's CPU model name, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The closing evaluation's shape on one pool thread, with every kernel
/// capped at `tier`: the whole pass, then each fused unit shape's forward
/// kernel (prologue, bias epilogue) alone.
fn bench_eval(smoke: bool, tier: Tier) -> Eval {
    let (input, blocks, images, reps) = if smoke {
        ([3, 8, 8], 1, 16, 2)
    } else {
        ([3, 32, 32], 2, 128, 10)
    };
    // The portable body runs ~100× slower: one pass is seconds long, and a
    // best-of over more would add nothing but wall time.
    let reps = if tier == Tier::Portable { 1 } else { reps };
    let batch_size = 256;
    let prev = rayon::set_thread_cap(1);
    let mut s = NormalSampler::seed_from(17);
    let x = Tensor::randn(&[images, input[0], input[1], input[2]], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..images).map(|i| i % 10).collect();
    let mut model = resnet_lite(&input, blocks, 10).build(42);
    let pass = pass_batch(&model, &input, batch_size).min(images);
    let passes = images.div_ceil(pass);
    let total = time_best(reps, || {
        evaluate(&mut model, &x, &labels, batch_size);
    });

    // Stage 1 runs at the input side with 16 channels, stage 2 at half the
    // side with 32; each stage has two units per block.
    let units: Vec<EvalUnit> = [(16, input[1]), (32, input[1] / 2)]
        .into_iter()
        .map(|(ch, side)| {
            let geom = ConvGeom {
                h: side,
                w: side,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            };
            let xin = Tensor::randn(&[pass, ch, side, side], 0.0, 1.0, &mut s);
            let kernel = Tensor::randn(&[ch, ch * 9], 0.0, 0.1, &mut s);
            let (zeros, ones, bias) = (vec![0.0; ch], vec![1.0; ch], vec![0.1; ch]);
            let pre = BnRelu {
                mean: &zeros,
                inv_std: &ones,
                gamma: &ones,
                beta: &zeros,
            };
            let mut out = vec![0.0f32; pass * ch * side * side];
            let mut stage = vec![0.0f32; fwd_scratch_len(pass, ch, geom)];
            let secs = time_best(reps, || {
                conv3x3_forward_pre_into(
                    &xin,
                    Some(pre),
                    &kernel,
                    geom,
                    &mut out,
                    Epilogue::Bias(&bias),
                    &mut stage,
                )
            });
            let flop = 2.0 * (ch * ch * 9 * side * side * pass) as f64;
            EvalUnit {
                ch,
                side,
                count: 2 * blocks * passes,
                flop,
                ms: secs * 1e3,
                gflops: flop / secs / 1e9,
            }
        })
        .collect();
    rayon::set_thread_cap(prev);
    let unit_ms: f64 = units.iter().map(|u| u.count as f64 * u.ms).sum();
    for u in &units {
        println!(
            "eval [{}] unit {}ch @{}²: {:.2} ms × {}  {:.2} GFLOP/s",
            tier.name(),
            u.ch,
            u.side,
            u.ms,
            u.count,
            u.gflops
        );
    }
    println!(
        "eval [{}] {images} images (batch cap {batch_size}, passes of {pass}, 1 thread): {:.2} ms, units {:.0} %",
        tier.name(),
        total * 1e3,
        100.0 * unit_ms / (total * 1e3)
    );
    Eval {
        model: format!("resnet_lite {input:?} blocks={blocks} classes=10"),
        images,
        batch_size,
        pass_batch: pass,
        thread_cap: 1,
        cpu_model: cpu_model(),
        hw_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        isa: tier.name().to_string(),
        total_ms: total * 1e3,
        unit_share: unit_ms / (total * 1e3),
        units,
    }
}

/// `cycles` rounds of: enqueue `n` workunits, one assigning poll per host
/// (timed), 1 000 deadline scans with nothing due (timed), then — untimed —
/// expire everything, reissue it and report it through quorum.
fn bench_hosts(n: usize, cycles: usize) -> HostsRow {
    let noop_scans = 1_000;
    let fleet = generated_fleet(n, 42)
        .into_iter()
        .map(|spec| (spec, 2usize))
        .collect();
    // Fetch backoff off: a timed-out host must poll again immediately in
    // the reissue phase, not sit out a simulated backoff window.
    let cfg = MiddlewareConfig {
        backoff_base_s: 0.0,
        backoff_max_s: 0.0,
        ..Default::default()
    };
    let mut server = BoincServer::new(cfg, fleet);
    let (mut assign_s, mut scan_s) = (0.0f64, 0.0f64);
    for cycle in 0..cycles {
        // Far enough apart that every adaptive deadline (≤ 3600 s) of the
        // previous cycle is long gone.
        let t0 = SimTime::from_secs(cycle as f64 * 10_000.0);
        for i in 0..n {
            server.add_workunit_sharded(cycle + 1, i % 256, ShardManifest::single(1), t0);
            // 256 shards
        }
        let t = Instant::now();
        for h in 0..n as u32 {
            let a = server.request_work(HostId(h), t0);
            assert!(a.is_some(), "queued work must be assignable");
        }
        assign_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for _ in 0..noop_scans {
            assert!(server.scan_timeouts(t0 + 10.0).is_empty());
        }
        scan_s += t.elapsed().as_secs_f64();

        let td = t0 + 5_000.0;
        assert_eq!(
            server.scan_timeouts(td).len(),
            n,
            "every assignment must expire"
        );
        for h in (0..n as u32).map(HostId) {
            let a = server.request_work(h, td).expect("requeued work reissues");
            let st = server.report_result(a.wu.id, h, &[1.0], td + 1.0);
            assert_eq!(st, ReportStatus::Accepted);
        }
        assert!(server.all_done(), "cycle must complete every workunit");
    }
    HostsRow {
        hosts: n,
        cycles,
        request_work_us: assign_s / (n * cycles) as f64 * 1e6,
        scan_timeouts_us: scan_s / (noop_scans * cycles) as f64 * 1e6,
    }
}

fn main() {
    // Before the pool exists: a 1-core CI box would otherwise produce a
    // single-point curve. An explicit VC_THREADS wins.
    if std::env::var("VC_THREADS").is_err() {
        std::env::set_var("VC_THREADS", "8");
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");

    let threads = bench_threads(smoke);
    // Cycles scale inversely with fleet size so every row measures a
    // comparable number of operations.
    let sizes: &[(usize, usize)] = if smoke {
        &[(200, 5), (1_000, 2)]
    } else {
        &[(1_000, 50), (10_000, 5), (100_000, 1)]
    };
    let hosts: Vec<HostsRow> = sizes
        .iter()
        .map(|&(n, cycles)| {
            let row = bench_hosts(n, cycles);
            println!(
                "hosts {:>7}: request_work {:>7.3} µs  scan_timeouts (no-op) {:>7.3} µs",
                row.hosts, row.request_work_us, row.scan_timeouts_us
            );
            row
        })
        .collect();
    let eval: Vec<Eval> = Tier::host_tiers()
        .map(|t| with_tier_cap(t, || bench_eval(smoke, t)))
        .collect();
    let out = BenchScale {
        threads,
        hosts,
        eval,
    };

    let t = &out.threads;
    assert!(
        t.caps.len() >= 2,
        "a curve needs two caps (pool came up {} wide)",
        t.caps.len()
    );
    let mut numbers = [&t.gemm_gflops[..], &t.train_steps_per_s[..]].concat();
    numbers.extend([t.gemm_efficiency, t.train_efficiency]);
    numbers.extend(
        out.hosts
            .iter()
            .flat_map(|r| [r.request_work_us, r.scan_timeouts_us]),
    );
    for e in &out.eval {
        numbers.push(e.total_ms);
        numbers.extend(e.units.iter().flat_map(|u| [u.ms, u.gflops]));
    }
    for v in numbers {
        assert!(v.is_finite() && v > 0.0, "degenerate measurement {v}");
    }

    if check {
        let ratio = flat_cost(&out.hosts).unwrap_or_else(|e| panic!("{e}"));
        let floor = |what: &str, eff: f64, floor: f64, curve: &[f64]| {
            let (caps, hw) = (&t.caps, t.hw_threads);
            assert!(
                eff >= floor,
                "{what} efficiency {eff:.3} below {floor} (caps {caps:?}, curve {curve:?}, hw {hw})"
            );
        };
        floor("GEMM", t.gemm_efficiency, GEMM_EFF_FLOOR, &t.gemm_gflops);
        if !smoke {
            let curve = &t.train_steps_per_s;
            floor("training", t.train_efficiency, TRAIN_EFF_FLOOR, curve);
        }
        println!(
            "check OK: gemm eff {:.2}, train eff {:.2}, per-poll {ratio:.2}× across fleets",
            t.gemm_efficiency, t.train_efficiency
        );
    }
    if smoke {
        println!("smoke OK (nothing written)");
        return;
    }
    vc_bench::write_results(
        "BENCH_scale.json",
        &serde_json::to_string_pretty(&out).expect("serialize"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_normalises_by_the_cores_the_host_has() {
        let (caps, flat) = ([1, 2, 4, 8], [10.0, 10.0, 10.0, 10.0]);
        // One core: eight oversubscribed threads keeping serial speed is all
        // that can be asked. Eight cores: the same curve did not scale.
        assert_eq!(efficiency(&flat, &caps, 1), 1.0);
        assert_eq!(efficiency(&flat, &caps, 8), 0.125);
        assert!(efficiency(&flat, &caps, 8) < GEMM_EFF_FLOOR);
        // The cap, not the host, bounds the ideal when the host is wider.
        assert_eq!(efficiency(&[10.0, 20.0], &[1, 2], 8), 1.0);
    }

    fn row(hosts: usize, request_work_us: f64) -> HostsRow {
        HostsRow {
            hosts,
            cycles: 1,
            request_work_us,
            scan_timeouts_us: 0.05,
        }
    }

    #[test]
    fn flat_cost_rejects_per_poll_cost_linear_in_hosts() {
        let flat = [row(1_000, 0.9), row(10_000, 1.1), row(100_000, 2.0)];
        assert!(flat_cost(&flat).is_ok());
        let linear = [row(1_000, 1.0), row(10_000, 10.0), row(100_000, 100.0)];
        let err = flat_cost(&linear).unwrap_err();
        assert!(
            err.contains("100000 hosts") && err.contains("100.00×"),
            "{err}"
        );
    }
}
