//! `metrics::evaluate`'s accuracy does not depend on how the scored set is
//! split into batches: for the three workload models on 70 seeded random
//! 32×32×3 images, the accuracy bits at batch caps 1, 3, 32, 70 and 256
//! (passes of 1, of 3, of 32 + 32 + 6 and, for the MLP, one of 70) are
//! equal, on every ISA tier the host has. The labels are the model's own
//! argmax over all 70 images in one batch, so every cap must score exactly
//! 1.0: an image whose argmax moves with its batch shows. (That the count
//! of hits, not a sum of per-batch ratios, makes the accuracy is held by
//! `metrics`' unit tests.)
//!
//! Nor on how the rows are split across replicas: `evaluate_split` over one
//! to four replicas of the same parameters (70 rows in parts of 70, 35,
//! 23 + 23 + 24 and 17 + 18 + 17 + 18; 3 rows over four replicas, one part
//! empty; no rows at all; all three in one call, the small ones alone) gives
//! `evaluate`'s accuracy bits, with labels that miss on a stretch of rows
//! so the hits of every part count.

use vc_nn::metrics::{evaluate, evaluate_split};
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

/// Scores `spec` over 1–4 parts with `evaluate_split`, once per tier the
/// host has, on all 70 images, on the first 3 and on none, the three in
/// one call and the two small ones alone, against `evaluate` on one
/// replica. The helper replicas are blank builds loaded with the model's
/// parameters, as the closing evaluation makes them. The labels are the
/// tier's argmax except on rows 20..45, which are shifted to miss.
fn split_accuracy_bits_match_evaluate(spec: ModelSpec) {
    let mut s = NormalSampler::seed_from(11);
    let images = Tensor::randn(&[N, 3, 32, 32], 0.0, 1.0, &mut s);
    let sample: usize = images.dims()[1..].iter().product();
    let first_three = Tensor::from_vec(images.data()[..3 * sample].to_vec(), &[3, 3, 32, 32]);
    let none = Tensor::zeros(&[0, 3, 32, 32]);
    let mut model = spec.build(5);
    let params = model.params_flat();
    let replica = || {
        let mut m = spec.build_blank();
        m.set_params_flat(&params);
        m
    };
    for tier in Tier::host_tiers() {
        with_tier_cap(tier, || {
            let logits = model.forward_rows(&images, 0..N, false);
            let mut labels = argmax_rows(&logits);
            for label in &mut labels[20..45] {
                *label = (*label + 1) % spec.classes;
            }
            let sets = [
                (&images, &labels[..]),
                (&first_three, &labels[..3]),
                (&none, &labels[..0]),
            ];
            let want: Vec<u32> = sets
                .iter()
                .map(|&(set, labels)| evaluate(&mut model, set, labels, 256).to_bits())
                .collect();
            let bits = |acc: Vec<f32>| acc.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            for parts in 1..=4 {
                let at = format!("{} at {}, {parts} parts", spec.name, tier.name());
                let all = evaluate_split(&mut model, replica, parts, &sets, 256);
                assert_eq!(bits(all), want, "{at}: the three sets in one call");
                // The small sets alone: parts with no rows at all.
                for (set, want) in sets.iter().zip(&want).skip(1) {
                    let alone = evaluate_split(&mut model, replica, parts, &[*set], 256);
                    assert_eq!(bits(alone), [*want], "{at}: {} rows alone", set.1.len());
                }
            }
        });
    }
}

#[test]
fn mlp_accuracy_is_independent_of_the_replica_split() {
    split_accuracy_bits_match_evaluate(mlp(&[3, 32, 32], 512, 10));
}

#[test]
fn small_cnn_accuracy_is_independent_of_the_replica_split() {
    split_accuracy_bits_match_evaluate(small_cnn(&[3, 32, 32], 10));
}

#[test]
fn resnet_lite_accuracy_is_independent_of_the_replica_split() {
    split_accuracy_bits_match_evaluate(resnet_lite(&[3, 32, 32], 2, 10));
}
