//! The model's buffer list — the ranges of its parameter vector that hold
//! BatchNorm running statistics — pinned against a layout worked out from
//! the spec alone, and through what a training pass does with it.
//!
//! One `train_minibatch` pass of `resnet_lite` leaves every running-statistic
//! slot bit-identical (the trainer sets the buffers aside and puts them
//! back) and moves at least one value of every trained tensor. The change
//! that lets BatchNorm's running statistics train (ROADMAP item 5) flips
//! the first half on purpose: from then on the statistics come out of a
//! pass fitted to the batches it saw.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use vc_nn::spec::resnet_lite;
use vc_nn::LayerSpec;
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};
use vc_tensor::{NormalSampler, Tensor};

/// Each parameter tensor of `layers` in wire order from `*at`: its range
/// and whether it is trained.
fn layout(layers: &[LayerSpec], at: &mut usize, out: &mut Vec<(Range<usize>, bool)>) {
    for l in layers {
        let tensors = match *l {
            LayerSpec::Dense { input, output } => vec![(input * output, true), (output, true)],
            LayerSpec::Conv {
                in_ch, out_ch, k, ..
            } => vec![(out_ch * in_ch * k * k, true), (out_ch, true)],
            // gamma, beta, running mean, running variance
            LayerSpec::BatchNorm { ch } => vec![(ch, true), (ch, true), (ch, false), (ch, false)],
            LayerSpec::Residual { ref body } => {
                layout(body, at, out);
                continue;
            }
            _ => continue,
        };
        for (n, trained) in tensors {
            out.push((*at..*at + n, trained));
            *at += n;
        }
    }
}

#[test]
fn training_keeps_exactly_the_buffer_list() {
    let spec = resnet_lite(&[3, 8, 8], 2, 10);
    let mut tensors = Vec::new();
    let mut len = 0;
    layout(&spec.layers, &mut len, &mut tensors);

    let mut model = spec.build(3);
    assert_eq!(model.param_count(), len, "layout length");
    let stats: Vec<Range<usize>> = tensors
        .iter()
        .filter(|(_, trained)| !trained)
        .map(|(r, _)| r.clone())
        .collect();
    // Two ranges per BatchNorm: 4 per block, 2 stages of 2 blocks, and
    // the head's.
    assert_eq!(stats.len(), 2 * (4 * 2 + 1));
    let mut listed = Vec::new();
    for r in model.arena().2 {
        listed.extend([r.start..r.start + r.len() / 2, r.start + r.len() / 2..r.end]);
    }
    assert_eq!(listed, stats, "the buffer list");

    let before = model.params_flat();
    let mut opt = OptimizerSpec::paper_adam().build(len);
    let mut s = NormalSampler::seed_from(5);
    let images = Tensor::randn(&[16, 3, 8, 8], 0.5, 1.5, &mut s);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mut tws = TrainWorkspace::new();
    let pass = train_minibatch(
        &mut model, &mut opt, &images, &labels, 8, 1, 5.0, &mut rng, &mut tws, None,
    );
    assert_eq!(pass.steps, 2);
    let after = model.params_flat();

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (r, trained) in tensors {
        let (was, now) = (bits(&before[r.clone()]), bits(&after[r.clone()]));
        if trained {
            assert_ne!(was, now, "trained range {r:?} did not move");
        } else {
            assert_eq!(was, now, "running statistics {r:?} moved");
        }
    }
}
