//! Mini-batch training loop shared by client subtasks and the serial baseline.

use crate::clip::clip_by_global_norm;
use crate::Optimizer;
use rand::seq::SliceRandom;
use rand::Rng;
use vc_nn::{ModelSpec, Sequential, SoftmaxCrossEntropy};
use vc_telemetry::{Histogram, Telemetry};
use vc_tensor::{Tensor, Workspace};

/// Statistics from one pass of [`train_minibatch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainBatchStats {
    /// Mean training loss over all processed batches.
    pub mean_loss: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
    /// Number of samples seen (with repetition across local epochs).
    pub samples: usize,
}

/// Per-replica reusable training state: the tensor [`Workspace`], the
/// shuffle order, the label batch and the resident model replica. There are
/// no parameter/gradient mirrors: clipping and the optimizer step work on
/// the model's own parameter and gradient vectors, one slice each. Hold one
/// per worker thread (or simulated client)
/// and pass it to every [`train_minibatch`] call; after the first step
/// warms the pools, the steady-state training loop performs zero heap
/// allocations.
#[derive(Default)]
pub struct TrainWorkspace {
    /// Buffer pool for activations, columns and gradients.
    pub ws: Workspace,
    /// The model's untrained buffers as they were before the pass.
    buffers: Vec<f32>,
    order: Vec<usize>,
    batch_labels: Vec<usize>,
    /// The replica a long-lived client keeps between workunits.
    replica: Option<ResidentReplica>,
}

/// A model built once for a spec and reloaded per workunit, the way a
/// BOINC client keeps its application across subtasks. Out on loan from
/// [`TrainWorkspace::take_replica`] while a workunit trains it.
pub struct ResidentReplica {
    spec: ModelSpec,
    /// The replica; its parameters are whatever the last workunit left.
    pub model: Sequential,
}

impl TrainWorkspace {
    /// An empty workspace; the first training step fills the pools.
    pub fn new() -> Self {
        TrainWorkspace::default()
    }

    /// Lends out a replica of `spec`, in every respect but its parameters
    /// as `spec.build` would return it (the caller loads its own). A build
    /// seeds nothing but parameters, so the kept replica is reused as it is
    /// when it was built for the same spec; only a spec change builds a new
    /// one. Hand it back with [`TrainWorkspace::put_replica`].
    pub fn take_replica(&mut self, spec: &ModelSpec) -> ResidentReplica {
        match self.replica.take() {
            Some(r) if r.spec == *spec => r,
            _ => ResidentReplica {
                spec: spec.clone(),
                model: spec.build_blank(),
            },
        }
    }

    /// Keeps `replica` for the next [`TrainWorkspace::take_replica`].
    pub fn put_replica(&mut self, replica: ResidentReplica) {
        self.replica = Some(replica);
    }
}

/// Per-step timing sink for [`train_minibatch`]: each optimizer step's
/// wall-clock duration (from the telemetry hub's time source, so virtual
/// clocks work too) is observed into `histogram`, so the runtime's
/// `worker_train_step_s` phase histogram measures the same interval as the
/// `optim.step_s_p50.*` probes and `bench_scale`'s steps/s.
pub struct StepTimer<'a> {
    /// The run's telemetry hub (provides the clock).
    pub telemetry: &'a Telemetry,
    /// Destination histogram, e.g. the runtime's `worker_train_step_s`.
    pub histogram: &'a Histogram,
}

/// Trains `model` in place for `local_epochs` passes over `(images, labels)`
/// with shuffled mini-batches, clipping gradients at `clip_norm` (pass
/// `f32::INFINITY` to disable). This is precisely what a volunteer client
/// executes for one training subtask, and the only training loop in the
/// workspace: every driver, the serial reference and every test runs it.
///
/// Tensors move by value through the layer chain drawing buffers from
/// `tws`, the ReLU activations are fused into the GEMM epilogues, and the
/// optimizer updates the model's parameter vector in place from its
/// gradient vector; after the first step warms the pools, steady-state
/// steps perform no heap allocation.
///
/// When `timer` is given, each optimizer step's duration is observed into
/// its histogram.
#[allow(clippy::too_many_arguments)]
pub fn train_minibatch<R: Rng>(
    model: &mut Sequential,
    opt: &mut Optimizer,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    local_epochs: usize,
    clip_norm: f32,
    rng: &mut R,
    tws: &mut TrainWorkspace,
    timer: Option<&StepTimer<'_>>,
) -> TrainBatchStats {
    let n = images.dims()[0];
    assert_eq!(n, labels.len(), "images/labels length mismatch");
    assert!(batch_size > 0, "batch_size must be positive");
    let rank = images.dims().len();
    let sample_len: usize = images.dims()[1..].iter().product();

    tws.order.clear();
    tws.order.extend(0..n);
    let mut total_loss = 0.0;
    let mut steps = 0usize;
    let mut samples = 0usize;

    model.fuse_relu();
    // BatchNorm running statistics come back out of a training pass exactly
    // as they went in (the goldens pin this: a replica normalizes by batch
    // statistics and uploads the snapshot's running ones), so they are set
    // aside here and put back below.
    tws.buffers.clear();
    let (params, _, buffers) = model.arena();
    for r in buffers {
        tws.buffers.extend_from_slice(&params[r.clone()]);
    }
    for _ in 0..local_epochs {
        tws.order.shuffle(rng);
        // `order` is borrowed across the step, so split it off the rest of
        // the workspace fields.
        let TrainWorkspace {
            ws,
            order,
            batch_labels,
            ..
        } = tws;
        for chunk in order.chunks(batch_size) {
            let t0 = timer.map(|t| t.telemetry.now_s());
            // Gather the shuffled batch into pooled storage.
            let mut batch_data = ws.take(chunk.len() * sample_len);
            batch_labels.clear();
            for (bi, &idx) in chunk.iter().enumerate() {
                batch_data[bi * sample_len..(bi + 1) * sample_len]
                    .copy_from_slice(&images.data()[idx * sample_len..(idx + 1) * sample_len]);
                batch_labels.push(labels[idx]);
            }
            let mut dims = [0usize; 4];
            dims[0] = chunk.len();
            dims[1..rank].copy_from_slice(&images.dims()[1..]);
            let batch = Tensor::from_vec(batch_data, &dims[..rank]);

            let logits = model.forward_pipeline(batch, true, ws);
            let (loss, dlogits) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, batch_labels);
            model.zero_grads_all();
            model.backward_params_ws(dlogits, ws);
            let (params, grads, _) = model.arena();
            if clip_norm.is_finite() {
                clip_by_global_norm(grads, clip_norm);
            }
            opt.step(params, grads);

            if let (Some(t), Some(t0)) = (timer, t0) {
                t.histogram.observe((t.telemetry.now_s() - t0).max(0.0));
            }
            total_loss += loss;
            steps += 1;
            samples += chunk.len();
        }
    }

    let (params, _, buffers) = model.arena();
    let mut saved = tws.buffers.as_slice();
    for r in buffers {
        let (head, rest) = saved.split_at(r.len());
        params[r.clone()].copy_from_slice(head);
        saved = rest;
    }

    TrainBatchStats {
        mean_loss: if steps == 0 {
            0.0
        } else {
            total_loss / steps as f32
        },
        steps,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptimizerSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vc_nn::metrics::evaluate;
    use vc_nn::spec::mlp;
    use vc_tensor::NormalSampler;

    /// Two linearly separable Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut s = NormalSampler::seed_from(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -2.0 } else { 2.0 };
            data.push(s.sample() * 0.5 + cx);
            data.push(s.sample() * 0.5);
            labels.push(class);
        }
        (Tensor::from_vec(data, &[n, 2]), labels)
    }

    /// The paper's Adam at another learning rate.
    fn adam(lr: f32) -> OptimizerSpec {
        OptimizerSpec::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// One [`train_minibatch`] pass against a fresh workspace.
    #[allow(clippy::too_many_arguments)]
    fn train(
        model: &mut Sequential,
        opt: &mut Optimizer,
        x: &Tensor,
        y: &[usize],
        batch_size: usize,
        local_epochs: usize,
        clip_norm: f32,
        rng: &mut StdRng,
    ) -> TrainBatchStats {
        let mut tws = TrainWorkspace::new();
        train_minibatch(
            model,
            opt,
            x,
            y,
            batch_size,
            local_epochs,
            clip_norm,
            rng,
            &mut tws,
            None,
        )
    }

    #[test]
    fn learns_separable_blobs() {
        let spec = mlp(&[2], 16, 2);
        let mut model = spec.build(1);
        let mut opt = adam(0.01).build(model.param_count());
        let (x, y) = blobs(200, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let stats = train(&mut model, &mut opt, &x, &y, 32, 10, 5.0, &mut rng);
        assert!(stats.steps > 0);
        assert_eq!(stats.samples, 2000);
        let acc = evaluate(&mut model, &x, &y, 64);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn loss_decreases_across_epochs() {
        let spec = mlp(&[2], 8, 2);
        let mut model = spec.build(4);
        let mut opt = adam(0.1).build(model.param_count());
        let (x, y) = blobs(100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let first = train(&mut model, &mut opt, &x, &y, 16, 1, f32::INFINITY, &mut rng);
        for _ in 0..5 {
            train(&mut model, &mut opt, &x, &y, 16, 1, f32::INFINITY, &mut rng);
        }
        let last = train(&mut model, &mut opt, &x, &y, 16, 1, f32::INFINITY, &mut rng);
        assert!(last.mean_loss < first.mean_loss);
    }

    #[test]
    fn deterministic_given_seeds() {
        let spec = mlp(&[2], 8, 2);
        let run = || {
            let mut model = spec.build(7);
            let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
            let (x, y) = blobs(50, 8);
            let mut rng = StdRng::seed_from_u64(9);
            train(&mut model, &mut opt, &x, &y, 10, 2, 1.0, &mut rng);
            model.params_flat()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn steady_state_reuses_buffers() {
        let spec = mlp(&[2], 8, 2);
        let mut model = spec.build(30);
        let mut opt = adam(0.05).build(model.param_count());
        let (x, y) = blobs(48, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut tws = TrainWorkspace::new();
        train_minibatch(
            &mut model, &mut opt, &x, &y, 16, 1, 1.0, &mut rng, &mut tws, None,
        );
        let (_, warm_misses) = tws.ws.stats();
        train_minibatch(
            &mut model, &mut opt, &x, &y, 16, 2, 1.0, &mut rng, &mut tws, None,
        );
        let (takes, misses) = tws.ws.stats();
        assert_eq!(misses, warm_misses, "steady-state steps must not allocate");
        assert!(takes > warm_misses);
    }

    #[test]
    fn step_timer_observes_every_step() {
        use vc_telemetry::Telemetry;
        let tel = Telemetry::with_echo(16, None);
        let hist = tel.registry().histogram("train_step_s");
        let spec = mlp(&[2], 4, 2);
        let mut model = spec.build(33);
        let mut opt = adam(0.05).build(model.param_count());
        let (x, y) = blobs(40, 34);
        let mut rng = StdRng::seed_from_u64(35);
        let mut tws = TrainWorkspace::new();
        let timer = StepTimer {
            telemetry: &tel,
            histogram: &hist,
        };
        let stats = train_minibatch(
            &mut model,
            &mut opt,
            &x,
            &y,
            8,
            2,
            1.0,
            &mut rng,
            &mut tws,
            Some(&timer),
        );
        assert_eq!(hist.snapshot().count, stats.steps as u64);
    }

    #[test]
    fn handles_batch_larger_than_dataset() {
        let spec = mlp(&[2], 4, 2);
        let mut model = spec.build(10);
        let mut opt = adam(0.01).build(model.param_count());
        let (x, y) = blobs(5, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let stats = train(&mut model, &mut opt, &x, &y, 64, 1, 1.0, &mut rng);
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.samples, 5);
    }
}
