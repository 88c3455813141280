//! Bits of the one compute pipeline, frozen at the last commit that still
//! carried a second, borrowing `forward`/`backward` implementation next to
//! it (PR 11, `f652739`). There both paths produced exactly these values;
//! the constants are what held them equal, so they outlive the path they
//! were compared against.
//!
//! Per reference model at the paper's 32×32×3 input shape: FNV-1a over the
//! parameter bits after three fixed-seed Adam steps, FNV-1a over the
//! inference logits of the trained model, and the bits of the mean
//! training loss.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_nn::spec::{mlp, resnet_lite, small_cnn};
use vc_nn::ModelSpec;
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};
use vc_tensor::{NormalSampler, Tensor, Workspace};

fn fnv1a(vals: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(params hash, logits hash, mean-loss bits)` of three steps on `spec`.
fn run(spec: &ModelSpec) -> (u64, u64, u32) {
    let mut model = spec.build(7);
    let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
    let mut s = NormalSampler::seed_from(11);
    let images = Tensor::randn(&[48, 3, 32, 32], 0.0, 1.0, &mut s);
    let labels: Vec<usize> = (0..48).map(|i| i % 10).collect();
    let mut rng = StdRng::seed_from_u64(13);
    let mut tws = TrainWorkspace::new();
    let stats = train_minibatch(
        &mut model, &mut opt, &images, &labels, 16, 1, 5.0, &mut rng, &mut tws, None,
    );
    assert_eq!(stats.steps, 3);
    let logits = model.forward_pipeline(images.clone(), false, &mut Workspace::new());
    (
        fnv1a(&model.params_flat()),
        fnv1a(logits.data()),
        stats.mean_loss.to_bits(),
    )
}

#[test]
fn mlp_bits_are_frozen() {
    assert_eq!(
        run(&mlp(&[3, 32, 32], 64, 10)),
        (0x1ca6afc1b5245b5e, 0x47ebd9fef97c1740, 0x40421edb)
    );
}

#[test]
fn small_cnn_bits_are_frozen() {
    assert_eq!(
        run(&small_cnn(&[3, 32, 32], 10)),
        (0xe690fdee8fb62058, 0x84e0b78457753c30, 0x40ccc714)
    );
}

#[test]
fn resnet_lite_bits_are_frozen() {
    assert_eq!(
        run(&resnet_lite(&[3, 32, 32], 2, 10)),
        (0x739baf445f82e770, 0x1b15e9b1f4ed92ef, 0x4024f69d)
    );
}
