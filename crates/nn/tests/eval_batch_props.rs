//! `metrics::evaluate`'s accuracy does not depend on how the scored set is
//! split into batches: for the three workload models on 70 seeded random
//! 32×32×3 images, the accuracy bits at batch caps 1, 3, 32, 70 and 256
//! (passes of 1, of 3, of 32 + 32 + 6 and, for the MLP, one of 70) are
//! equal, on every ISA tier the host has. The labels are the model's own
//! argmax over all 70 images in one batch, so every cap must score exactly
//! 1.0: an image whose argmax moves with its batch shows. (That the count
//! of hits, not a sum of per-batch ratios, makes the accuracy is held by
//! `metrics`' unit tests.)

use vc_nn::metrics::evaluate;
use vc_nn::spec::{mlp, resnet_lite, small_cnn, ModelSpec};
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::{NormalSampler, Tensor};

const N: usize = 70;
const CAPS: [usize; 5] = [1, 3, 32, 70, 256];

/// Index of the largest of each `classes`-wide row of `logits`.
fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let classes = logits.dims()[1];
    logits
        .data()
        .chunks(classes)
        .map(|row| (0..classes).fold(0, |best, j| if row[j] > row[best] { j } else { best }))
        .collect()
}

/// Scores `spec` on the same 70 images at every cap in [`CAPS`], once per
/// tier the host has, against the labels the tier's one-batch forward
/// predicts.
fn accuracy_bits_at_every_cap(spec: ModelSpec) {
    let mut s = NormalSampler::seed_from(11);
    let images = Tensor::randn(&[N, 3, 32, 32], 0.0, 1.0, &mut s);
    let mut model = spec.build(5);
    model.fuse_relu();
    for tier in Tier::host_tiers() {
        with_tier_cap(tier, || {
            let logits = model.forward_rows(&images, 0..N, false);
            let labels = argmax_rows(&logits);
            for cap in CAPS {
                let acc = evaluate(&mut model, &images, &labels, cap);
                assert_eq!(
                    acc.to_bits(),
                    1.0f32.to_bits(),
                    "{} at {}: accuracy {acc} at batch cap {cap}",
                    spec.name,
                    tier.name()
                );
            }
        });
    }
}

#[test]
fn mlp_accuracy_is_independent_of_the_batch_split() {
    accuracy_bits_at_every_cap(mlp(&[3, 32, 32], 512, 10));
}

#[test]
fn small_cnn_accuracy_is_independent_of_the_batch_split() {
    accuracy_bits_at_every_cap(small_cnn(&[3, 32, 32], 10));
}

#[test]
fn resnet_lite_accuracy_is_independent_of_the_batch_split() {
    accuracy_bits_at_every_cap(resnet_lite(&[3, 32, 32], 2, 10));
}
