//! The per-layer probe pass: timed calls into each crate's public
//! functions at the workloads' own shapes (layer = crate, prefix = crate
//! short name). Models, data and shard sizes are read off the workload
//! configs; kernel-level shapes are those of the layers these models
//! contain.
//!
//! Each probe makes one untimed warm-up call, then at least [`MIN_ITERS`]
//! timed calls and as many more as its slice of the budget allows; the
//! metric is the median. Every probe runs inside a harness span.

use crate::alloc;
use crate::run::Metric;
use crate::stats::median;
use crate::trace::Spans;
use crate::workloads::{Workload, BATCH, IMG, MLP_HIDDEN, PS_SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vc_asgd::{result_is_valid, train_client_replica_ws, FleetKind, JobConfig};
use vc_data::{Dataset, ShardSet};
use vc_kvstore::{Consistency, VersionedStore};
use vc_middleware::{
    BitwiseComparator, BoincServer, FiniteBlobValidator, HostId, ResultComparator, ShardManifest,
    ToleranceComparator, Validator, WallClock,
};
use vc_nn::metrics::evaluate;
use vc_nn::{BatchNorm, Conv2d, Dense, LayerSpec, MaxPool2, Relu, Residual, Sequential};
use vc_optim::{train_minibatch_ws, TrainWorkspace};
use vc_ps::{
    crc32, Codec, Frame, FrameKind, MemClient, PsClient, PsOps, PsService, ShardCache,
    ShardedAssimilator, TcpClient, TcpPsServer,
};
use vc_tensor::conv_direct::{
    conv3x3_backward_dk_into, conv3x3_backward_dx_into, conv3x3_forward_into, dk_scratch_len,
    dx_scratch_len, fwd_scratch_len,
};
use vc_tensor::ops::{matmul, matmul_a_bt, matmul_at_b, ConvGeom, Epilogue};
use vc_tensor::quant::{int8_dequantize_slice, int8_quantize_slice, int8_scale};
use vc_tensor::{encode_f32s, NormalSampler, Tensor, Workspace};

const MIN_ITERS: usize = 3;
const MAX_ITERS: usize = 400;
/// Probes in the pass, for slicing the budget (an estimate is enough: the
/// floor of [`MIN_ITERS`] calls applies regardless).
const PROBE_COUNT: f64 = 70.0;

/// What the probe pass found.
pub struct Probed {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Probed {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(f64::NAN)
    }

    /// `core.replica_s` of the model `w` trains, for `runtime.efficiency`.
    pub fn replica_s(&self, w: Workload) -> f64 {
        self.value(w.replica_metric())
    }
}

struct Prober<'a> {
    spans: &'a mut Spans,
    parent: usize,
    slice_s: f64,
    /// Timed calls every probe makes at least (one in a smoke pass).
    min_iters: usize,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Prober<'_> {
    /// Runs `f` — which times itself and returns `K` durations — once to
    /// warm up, then repeatedly; returns the `K` sample vectors.
    fn sample<const K: usize>(
        &mut self,
        span: &str,
        mut f: impl FnMut() -> [f64; K],
    ) -> [Vec<f64>; K] {
        let id = self.spans.open(span, Some(self.parent));
        if self.min_iters >= MIN_ITERS {
            f(); // warm-up; a smoke pass only checks that the probe runs
        }
        let mut out: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
        let t0 = Instant::now();
        let mut iters = 0;
        while iters < self.min_iters
            || (iters < MAX_ITERS && t0.elapsed().as_secs_f64() < self.slice_s)
        {
            for (v, d) in out.iter_mut().zip(f()) {
                v.push(d);
            }
            iters += 1;
        }
        self.spans.close(id);
        out
    }

    fn push(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }

    /// Median seconds of one call to `f`.
    fn secs(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let [s] = self.sample(name, || {
            let t0 = Instant::now();
            f();
            [t0.elapsed().as_secs_f64()]
        });
        let m = median(&s);
        self.push(name, m, "s", s.len());
        m
    }

    /// `amount` per median call, e.g. MB/s.
    fn rate(&mut self, name: &str, unit: &str, amount: f64, mut f: impl FnMut()) {
        let [s] = self.sample(name, || {
            let t0 = Instant::now();
            f();
            [t0.elapsed().as_secs_f64()]
        });
        self.push(name, amount / median(&s), unit, s.len());
    }

    /// Forward and backward seconds of `model` on `x` through the workspace
    /// pipeline the trainer uses (`dy` is all-ones; only its shape matters
    /// for timing).
    fn fwd_bwd(&mut self, fwd: &str, bwd: &str, model: &mut Sequential, x: &Tensor) {
        let mut ws = Workspace::new();
        model.fuse_relu();
        let [f, b] = self.sample(fwd, || {
            let mut buf = ws.take(x.numel());
            buf.copy_from_slice(x.data());
            let input = Tensor::from_vec(buf, x.dims());
            let t0 = Instant::now();
            let mut y = model.forward_pipeline_ws(input, true, &mut ws);
            let f = t0.elapsed().as_secs_f64();
            y.data_mut().fill(1.0);
            model.zero_grads_all();
            let t1 = Instant::now();
            let dx = model.backward_pipeline_ws(y, &mut ws);
            let b = t1.elapsed().as_secs_f64();
            ws.recycle(black_box(dx).into_vec());
            [f, b]
        });
        self.push(fwd, median(&f), "s", f.len());
        self.push(bwd, median(&b), "s", b.len());
    }
}

fn randn(dims: &[usize], sampler: &mut NormalSampler) -> Tensor {
    Tensor::randn(dims, 0.0, 1.0, sampler)
}

/// A one-layer `Sequential` from a `LayerSpec` (the variants the flagship
/// models use; `ModelSpec::build` only builds whole classifiers).
fn single(spec: &LayerSpec, sampler: &mut NormalSampler) -> Sequential {
    fn add(model: &mut Sequential, spec: &LayerSpec, sampler: &mut NormalSampler) {
        match spec {
            LayerSpec::Conv {
                in_ch,
                out_ch,
                k,
                stride,
                pad,
            } => model.push_boxed(Box::new(Conv2d::new(
                *in_ch, *out_ch, *k, *stride, *pad, sampler,
            ))),
            LayerSpec::Dense { input, output } => {
                model.push_boxed(Box::new(Dense::new(*input, *output, sampler)))
            }
            LayerSpec::BatchNorm { ch } => model.push_boxed(Box::new(BatchNorm::new(*ch, 0.9))),
            LayerSpec::Relu => model.push_boxed(Box::new(Relu::new())),
            LayerSpec::MaxPool2 => model.push_boxed(Box::new(MaxPool2::new())),
            LayerSpec::Residual { body } => {
                let mut inner = Sequential::new();
                for l in body {
                    add(&mut inner, l, sampler);
                }
                model.push_boxed(Box::new(Residual::new(inner)));
            }
            other => panic!("no single-layer probe for {other:?}"),
        }
    }
    let mut model = Sequential::new();
    add(&mut model, spec, sampler);
    model
}

fn conv3(ch: usize) -> LayerSpec {
    LayerSpec::Conv {
        in_ch: ch,
        out_ch: ch,
        k: 3,
        stride: 1,
        pad: 1,
    }
}

// ------------------------------------------------------------------ tensor

fn tensor_probes(p: &mut Prober<'_>, mlp_params: usize, sampler: &mut NormalSampler) {
    // The MLP's first layer: x[32,3072]·W[3072,512], dW = xᵀ·dy, dx = dy·Wᵀ.
    let (m, k, n) = (BATCH, IMG.iter().product::<usize>(), MLP_HIDDEN);
    let x = randn(&[m, k], sampler);
    let w = randn(&[k, n], sampler);
    let dy = randn(&[m, n], sampler);
    let flops = 3.0 * 2.0 * (m * k * n) as f64;
    p.rate("tensor.gemm_gflops.mlp", "GFLOP/s", flops / 1e9, || {
        black_box(matmul(&x, &w));
        black_box(matmul_at_b(&x, &dy));
        black_box(matmul_a_bt(&dy, &w));
    });

    // ResNet-lite's two 3×3 shapes: 16 channels at 32×32, and after its
    // pooling stage 32 channels at 16×16.
    for (ch, side, tag) in [(16, 32, "c16_32"), (32, 16, "c32_16")] {
        let geom = ConvGeom {
            h: side,
            w: side,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let input = randn(&[BATCH, ch, side, side], sampler);
        let kernel = randn(&[ch, ch * 9], sampler);
        let dy = randn(&[BATCH, ch, side, side], sampler);
        let mut out = vec![0.0f32; BATCH * ch * side * side];
        let mut scratch = vec![0.0f32; fwd_scratch_len(BATCH, ch, geom)];
        p.secs(&format!("tensor.conv3x3_fwd_s.{tag}"), || {
            conv3x3_forward_into(
                &input,
                &kernel,
                geom,
                &mut out,
                Epilogue::Store,
                &mut scratch,
            );
            black_box(&out);
        });
        let mut dx = vec![0.0f32; BATCH * ch * side * side];
        let mut scratch = vec![0.0f32; dx_scratch_len(BATCH, ch, ch)];
        p.secs(&format!("tensor.conv3x3_dx_s.{tag}"), || {
            conv3x3_backward_dx_into(&dy, &kernel, ch, geom, &mut dx, &mut scratch);
            black_box(&dx);
        });
        let mut dk = vec![0.0f32; ch * ch * 9];
        let mut scratch = vec![0.0f32; dk_scratch_len(ch, ch, geom)];
        p.secs(&format!("tensor.conv3x3_dk_s.{tag}"), || {
            conv3x3_backward_dk_into(&dy, &input, geom, &mut dk, &mut scratch);
            black_box(&dk);
        });
    }

    let src: Vec<f32> = (0..mlp_params).map(|_| sampler.sample() * 0.01).collect();
    let mb = (mlp_params * 4) as f64 / 1e6;
    let scale = int8_scale(&src);
    let mut codes = vec![0i8; mlp_params];
    p.rate("tensor.quant_int8_enc_mb_s", "MB/s", mb, || {
        int8_quantize_slice(&src, black_box(int8_scale(&src)), &mut codes);
    });
    let mut back = vec![0.0f32; mlp_params];
    p.rate("tensor.quant_int8_dec_mb_s", "MB/s", mb, || {
        int8_dequantize_slice(&codes, scale, &mut back);
        black_box(&back);
    });
}

// ---------------------------------------------------------------------- nn

fn nn_probes(p: &mut Prober<'_>, resnet: &JobConfig, mlp: &JobConfig, sampler: &mut NormalSampler) {
    let x16 = randn(&[BATCH, 16, 32, 32], sampler);
    let x32 = randn(&[BATCH, 32, 16, 16], sampler);
    let layers: [(&str, LayerSpec, &Tensor); 6] = [
        ("conv", conv3(16), &x16),
        ("bn", LayerSpec::BatchNorm { ch: 16 }, &x16),
        ("relu", LayerSpec::Relu, &x16),
        ("maxpool", LayerSpec::MaxPool2, &x16),
        ("resblock", res_block(resnet, 16), &x16),
        ("resblock", res_block(resnet, 32), &x32),
    ];
    for (name, spec, x) in layers {
        let suffix = match (&spec, x.dims()[1]) {
            (LayerSpec::Residual { .. }, c) => format!(".c{c}"),
            _ => String::new(),
        };
        let mut model = single(&spec, sampler);
        p.fwd_bwd(
            &format!("nn.{name}_fwd_s{suffix}"),
            &format!("nn.{name}_bwd_s{suffix}"),
            &mut model,
            x,
        );
    }
    let features: usize = IMG.iter().product();
    let xflat = randn(&[BATCH, features], sampler);
    let mut dense = single(
        &LayerSpec::Dense {
            input: features,
            output: MLP_HIDDEN,
        },
        sampler,
    );
    p.fwd_bwd("nn.dense_fwd_s", "nn.dense_bwd_s", &mut dense, &xflat);

    let ximg = randn(&[BATCH, IMG[0], IMG[1], IMG[2]], sampler);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    for (tag, job) in [("resnet", resnet), ("mlp", mlp)] {
        let mut model = job.model.build(job.seed);
        p.fwd_bwd(
            &format!("nn.model_fwd_s.{tag}"),
            &format!("nn.model_bwd_s.{tag}"),
            &mut model,
            &ximg,
        );
        // What each assimilation pays to score the merged parameters.
        let mut model = job.model.build(job.seed);
        p.secs(&format!("nn.eval_s.{tag}"), || {
            black_box(evaluate(&mut model, &ximg, &labels, 256));
        });
    }
    let mut model = mlp.model.build(mlp.seed);
    let params = model.params_flat();
    p.secs("nn.set_params_s.mlp", || {
        model.set_params_flat(black_box(&params));
    });
}

/// The residual block of `job`'s model with `ch` channels.
fn res_block(job: &JobConfig, ch: usize) -> LayerSpec {
    job.model
        .layers
        .iter()
        .find(|l| match l {
            LayerSpec::Residual { body } => body.first() == Some(&LayerSpec::BatchNorm { ch }),
            _ => false,
        })
        .cloned()
        .expect("resnet_lite has a residual block at this width")
}

// ------------------------------------------------------------ optim + core

/// One batch of `job`'s training data.
fn one_batch(train: &Dataset) -> Dataset {
    train.select(&(0..BATCH).collect::<Vec<_>>())
}

/// Warm-step time, exact allocation count and the loss after eight
/// fixed-seed steps on one repeated batch (three in a smoke pass). Returns
/// the median step time.
fn optim_probe(p: &mut Prober<'_>, tag: &str, job: &JobConfig, batch: &Dataset) -> f64 {
    let id = p.spans.open(format!("optim.step.{tag}"), Some(p.parent));
    let mut model = job.model.build(job.seed);
    let mut opt = job.optimizer.build(model.param_count());
    let mut rng = StdRng::seed_from_u64(job.seed);
    let mut tws = TrainWorkspace::new();
    let mut losses = Vec::new();
    let mut step_s = Vec::new();
    let mut allocs = 0;
    let steps = if p.min_iters < MIN_ITERS { 3 } else { 8 };
    for step in 0..steps {
        let t0 = Instant::now();
        let (stats, n) = alloc::count(|| {
            train_minibatch_ws(
                &mut model,
                &mut opt,
                &batch.images,
                &batch.labels,
                BATCH,
                1,
                5.0,
                &mut rng,
                &mut tws,
                None,
            )
        });
        // The first step grows every pool; the rest are warm.
        if step > 0 {
            step_s.push(t0.elapsed().as_secs_f64());
            allocs = n;
        }
        losses.push(stats.mean_loss);
    }
    p.spans.close(id);
    let (first, last) = (losses[0], losses[steps - 1]);
    if !(last.is_finite() && last < first) {
        p.problems.push(format!(
            "{tag}: loss did not decrease over {steps} steps ({first} -> {last})"
        ));
    }
    let m = median(&step_s);
    p.push(&format!("optim.step_s_p50.{tag}"), m, "s", step_s.len());
    p.push(
        &format!("optim.step_allocs.{tag}"),
        allocs as f64,
        "count",
        1,
    );
    // The f32 loss widened to f64 prints with every digit: two builds
    // agree on this number exactly iff the eighth loss is bitwise equal.
    p.push(
        &format!("optim.loss_bits.{tag}"),
        f64::from(last),
        "nat",
        steps,
    );
    m
}

fn core_probes(p: &mut Prober<'_>, tag: &str, job: &JobConfig, shards: &ShardSet) -> f64 {
    let data = &shards.shard(0).data;
    let snapshot = job.model.build(job.seed).params_flat();
    let mut tws = TrainWorkspace::new();
    p.secs(&format!("core.replica_s.{tag}"), || {
        black_box(train_client_replica_ws(
            job, &snapshot, data, 1, 0, &mut tws, None,
        ));
    })
}

// ---------------------------------------------------------------------- ps

/// The service counters after one cold Raw sync of `params` over loopback
/// TCP, with the listener-per-shard-group layout the runtime binds. The
/// closed form `wire_bytes_per_wu` is checked against: every sync a
/// Raw-codec worker makes moves exactly these bytes in these requests.
pub fn raw_sync_ops(job: &JobConfig, params: &[f32]) -> PsOps {
    let svc = ps_service(params, job.consistency, Codec::Raw, job);
    let server = TcpPsServer::bind(svc.clone(), job.ps_shards.min(4)).expect("bind loopback");
    let mut client = TcpClient::connect(server.addrs(), server.groups()).expect("connect loopback");
    ShardCache::new(*svc.assimilator().layout())
        .sync(1, &svc.assimilator().versions(), &mut client)
        .expect("cold sync");
    drop(client);
    server.shutdown();
    svc.ops()
}

fn ps_service(params: &[f32], mode: Consistency, codec: Codec, job: &JobConfig) -> Arc<PsService> {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        params.len(),
        job.ps_shards,
        mode,
        job.alpha,
    ));
    assim.seed_params(params);
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(codec));
    svc.publish_snapshot(1, params, &assim.versions());
    svc
}

fn ps_probes(p: &mut Prober<'_>, job: &JobConfig, params: &[f32], sampler: &mut NormalSampler) {
    let n = params.len();
    let mb = (n * 4) as f64 / 1e6;
    let blob = encode_f32s(params);
    p.rate("ps.crc32_mb_s", "MB/s", blob.len() as f64 / 1e6, || {
        black_box(crc32(&blob));
    });
    let frame = Frame {
        kind: FrameKind::Shard,
        shard_id: 0,
        version: 1,
        payload: blob.clone(),
    };
    let mut wire = Vec::new();
    p.rate(
        "ps.frame_encode_mb_s",
        "MB/s",
        blob.len() as f64 / 1e6,
        || {
            wire.clear();
            frame.encode_into(&mut wire);
            black_box(&wire);
        },
    );
    p.rate(
        "ps.frame_decode_mb_s",
        "MB/s",
        blob.len() as f64 / 1e6,
        || {
            black_box(Frame::decode(&wire).expect("own frame decodes"));
        },
    );

    // Cold fetch: a fresh cache, so all four shards cross the transport.
    let svc = ps_service(params, Consistency::Eventual, Codec::Raw, job);
    let layout = *svc.assimilator().layout();
    let manifest = svc.assimilator().versions();
    let server = TcpPsServer::bind(svc.clone(), PS_SHARDS).expect("bind loopback");
    let mut tcp = TcpClient::connect(server.addrs(), server.groups()).expect("connect loopback");
    let mut mem = MemClient::new(svc.clone());
    let clients: [(&str, &mut dyn PsClient); 2] = [("tcp", &mut tcp), ("mem", &mut mem)];
    for (tag, client) in clients {
        p.rate(&format!("ps.fetch_cold_mb_s.{tag}"), "MB/s", mb, || {
            let mut cache = ShardCache::new(layout);
            black_box(cache.sync(1, &manifest, client).expect("cold sync").len());
        });
    }
    let mut cache = ShardCache::new(layout);
    cache.sync(1, &manifest, &mut tcp).expect("warm-up sync");
    p.secs("ps.fetch_warm_s", || {
        black_box(cache.sync(1, &manifest, &mut tcp).expect("warm sync").len());
    });
    drop(tcp);
    server.shutdown();

    // One trained-update-sized delta through each codec.
    let update: Vec<f32> = (0..n).map(|_| sampler.sample() * 1e-3).collect();
    let int8 = Codec::Int8 {
        error_feedback: true,
    };
    for (tag, codec) in [("raw", Codec::Raw), ("int8", int8)] {
        let mut blob = Vec::new();
        p.rate(&format!("ps.codec_enc_mb_s.{tag}"), "MB/s", mb, || {
            codec.encode_update(&update, &mut blob);
            black_box(&blob);
        });
        let mut back = Vec::new();
        p.rate(&format!("ps.codec_dec_mb_s.{tag}"), "MB/s", mb, || {
            codec
                .decode_update_into(&blob, n, &mut back)
                .expect("own blob decodes");
            black_box(&back);
        });
    }

    // Publish + the bytes one worker's fetch of the new snapshot costs.
    let moved: Vec<f32> = params.iter().zip(&update).map(|(a, b)| a + b).collect();
    for (tag, codec) in [("raw", Codec::Raw), ("int8", int8)] {
        let svc = ps_service(params, Consistency::Eventual, codec, job);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(layout).with_codec(codec);
        cache.sync(1, &manifest, &mut client).expect("base sync");
        let mut epoch = 1u64;
        let mut versions = manifest.clone();
        let mut flip = false;
        p.secs(&format!("ps.publish_snapshot_s.{tag}"), || {
            epoch += 1;
            flip = !flip;
            for v in &mut versions {
                *v += 1;
            }
            svc.publish_snapshot(epoch, if flip { &moved } else { params }, &versions);
            svc.retire_snapshots_before(epoch);
        });
        // One more publish on top of a current cache: the fetch that
        // follows moves what a worker's per-epoch fetch moves (full blobs
        // under Raw, quantized deltas under Int8).
        cache
            .sync(epoch, &versions, &mut client)
            .expect("catch-up sync");
        epoch += 1;
        for v in &mut versions {
            *v += 1;
        }
        svc.publish_snapshot(epoch, if flip { params } else { &moved }, &versions);
        let before = svc.ops();
        cache
            .sync(epoch, &versions, &mut client)
            .expect("delta sync");
        let after = svc.ops();
        let bytes = (after.bytes_rx - before.bytes_rx) + (after.bytes_tx - before.bytes_tx);
        p.push(&format!("ps.bytes_per_fetch.{tag}"), bytes as f64, "B", 1);
    }

    // Merge paths: one shard, then the whole vector under each mode.
    let svc = ps_service(params, Consistency::Eventual, Codec::Raw, job);
    let assim = svc.assimilator().clone();
    let part = &moved[layout.range(0)];
    p.secs("ps.merge_shard_s", || {
        black_box(assim.merge_shard(0, part, 1));
    });
    p.secs("ps.assimilate_s.eventual", || {
        let snap = assim.begin_eventual();
        black_box(assim.commit_eventual(snap, &moved, 1));
    });
    let strong = ps_service(params, Consistency::Strong, Codec::Raw, job);
    p.secs("ps.assimilate_s.strong", || {
        black_box(strong.assimilator().assimilate_strong(&moved, 1));
    });
}

// -------------------------------------------------------------- middleware

fn middleware_probes(p: &mut Prober<'_>, churn: &JobConfig, mlp_params: &[f32]) {
    let payload = churn.model.build(churn.seed).params_flat();
    let clock = WallClock::start();
    let fleet = FleetKind::Uniform.build(3);
    let mut server = BoincServer::new(
        churn.middleware.clone(),
        fleet.iter().map(|s| (s.clone(), churn.tn)).collect(),
    );
    let manifest = ShardManifest(vec![1; PS_SHARDS]);
    let mut epoch = 0usize;
    // One epoch of six workunits per call, replication 2 / quorum 2: every
    // workunit is requested and reported by two hosts.
    let [req, rep] = p.sample("middleware.request_report", || {
        epoch += 1;
        server.add_epoch_sharded(epoch, churn.shards, &manifest, clock.now());
        let (mut req_s, mut rep_s, mut calls) = (0.0, 0.0, 0u32);
        let mut guard = 0;
        while !server.all_done() {
            guard += 1;
            assert!(guard < 1000, "probe epoch does not drain");
            for h in 0..3 {
                let t0 = Instant::now();
                let asg = server.request_work(HostId(h), clock.now());
                req_s += t0.elapsed().as_secs_f64();
                if let Some(a) = asg {
                    let t1 = Instant::now();
                    black_box(server.report_result(a.wu.id, HostId(h), &payload, clock.now()));
                    rep_s += t1.elapsed().as_secs_f64();
                    calls += 1;
                }
            }
        }
        // Per call: three polls per round, one report per hand-off.
        [req_s / f64::from(calls), rep_s / f64::from(calls)]
    });
    p.push("middleware.request_work_s", median(&req), "s", req.len());
    p.push("middleware.report_result_s", median(&rep), "s", rep.len());

    // Six open workunits, three of them in flight, none due.
    server.add_epoch_sharded(epoch + 1, churn.shards, &manifest, clock.now());
    for h in 0..3 {
        server.request_work(HostId(h), clock.now());
    }
    p.secs("middleware.scan_timeouts_s", || {
        black_box(server.scan_timeouts(clock.now()));
    });

    let blob = encode_f32s(mlp_params);
    let validator = FiniteBlobValidator::with_len(mlp_params.len());
    p.secs("middleware.validate_s.mlp", || {
        black_box(validator.validate(&blob));
    });
    // The scan the threaded coordinator actually runs on every upload.
    p.secs("core.result_is_valid_s.mlp", || {
        black_box(result_is_valid(black_box(mlp_params)));
    });
    let other = payload.clone();
    p.secs("middleware.compare_s.bitwise", || {
        black_box(BitwiseComparator.matches(&payload, black_box(&other)));
    });
    let (atol, rtol) = Codec::Int8 {
        error_feedback: true,
    }
    .quorum_tolerance();
    let tolerant = ToleranceComparator { atol, rtol };
    p.secs("middleware.compare_s.tolerance", || {
        black_box(tolerant.matches(&payload, black_box(&other)));
    });
}

/// Runs every probe. `budget_s` bounds the timed loops; the fixed floor of
/// warm-up + [`MIN_ITERS`] calls applies regardless.
pub fn run_all(seed: u64, budget_s: f64, smoke: bool, spans: &mut Spans) -> Probed {
    let parent = spans.open("probe_pass", None);
    let mut p = Prober {
        spans,
        parent,
        slice_s: if smoke { 0.0 } else { budget_s / PROBE_COUNT },
        min_iters: if smoke { 1 } else { MIN_ITERS },
        metrics: Vec::new(),
        problems: Vec::new(),
    };
    let resnet = Workload::ResnetCompute.config(seed, false, false).job;
    let mlp = Workload::MlpTransfer.config(seed, false, false).job;
    let churn = Workload::ChurnQuorum.config(seed, false, false).job;
    let mut sampler = NormalSampler::seed_from(seed);
    let mlp_params = mlp.model.build(mlp.seed).params_flat();

    tensor_probes(&mut p, mlp_params.len(), &mut sampler);
    nn_probes(&mut p, &resnet, &mlp, &mut sampler);

    // data: what every repetition's set-up pays, at the MLP workload's sizes.
    p.secs("data.generate_s", || {
        black_box(mlp.data.generate());
    });
    let (mlp_train, _, _) = mlp.data.generate();
    p.secs("data.split_s", || {
        black_box(ShardSet::split(&mlp_train, mlp.shards));
    });

    let (resnet_train, _, _) = resnet.data.generate();
    let (churn_train, _, _) = churn.data.generate();
    optim_probe(&mut p, "resnet", &resnet, &one_batch(&resnet_train));
    let step_mlp = optim_probe(&mut p, "mlp", &mlp, &one_batch(&mlp_train));
    core_probes(
        &mut p,
        "resnet",
        &resnet,
        &ShardSet::split(&resnet_train, resnet.shards),
    );
    let mlp_shards = ShardSet::split(&mlp_train, mlp.shards);
    let replica_mlp = core_probes(&mut p, "mlp", &mlp, &mlp_shards);
    core_probes(
        &mut p,
        "mlp64",
        &churn,
        &ShardSet::split(&churn_train, churn.shards),
    );
    // Model build, parameter load, optimizer build and the final gather:
    // what a replica costs on top of its optimizer steps.
    let steps = (mlp_shards.shard(0).data.len().div_ceil(BATCH) * mlp.local_epochs) as f64;
    p.push(
        "core.replica_overhead_s.mlp",
        replica_mlp - steps * step_mlp,
        "s",
        1,
    );

    ps_probes(&mut p, &mlp, &mlp_params, &mut sampler);
    middleware_probes(&mut p, &churn, &mlp_params);

    p.spans.close(parent);
    Probed {
        metrics: p.metrics,
        problems: p.problems,
    }
}
