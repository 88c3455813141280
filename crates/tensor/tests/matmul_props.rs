//! Property tests for the blocked GEMM kernels.
//!
//! The microkernel's contract is stronger than "approximately right": every
//! variant must match [`matmul_naive`]'s ascending-`k` fused-multiply-add
//! chain **bitwise**, for any shape including degenerate ones (empty
//! matrices, single rows/columns, shapes past the parallel threshold). These
//! properties are what the DST byte-identity suite rests on, so they are
//! checked here as bit patterns, never with a tolerance — on every tier
//! the host has (`isa::with_tier_cap`): the one `Lanes` micro-tile body, 8
//! lanes wide on every vector tier and one lane wide (`F32x1`) on the
//! portable one.

mod naive;

use naive::matmul_naive;
use proptest::prelude::*;
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::ops::{matmul, matmul_a_bt, matmul_at_b, Epilogue};
use vc_tensor::ops::{matmul_a_bt_epi_into, matmul_at_b_epi_into, matmul_epi_into};
use vc_tensor::{NormalSampler, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut s = NormalSampler::seed_from(seed);
    (
        Tensor::randn(&[m, k], 0.0, 1.0, &mut s),
        Tensor::randn(&[k, n], 0.0, 1.0, &mut s),
    )
}

/// `route`'s bits under every tier the host has, each named.
fn on_every_body(route: impl Fn() -> Tensor) -> Vec<(&'static str, Vec<u32>)> {
    Tier::host_tiers()
        .map(|t| (t.name(), with_tier_cap(t, || bits(&route()))))
        .collect()
}

/// Holds `route` to `want` bitwise on every body.
fn assert_every_body(route: impl Fn() -> Tensor, want: &Tensor) {
    for (body, got) in on_every_body(route) {
        assert_eq!(got, bits(want), "{body}");
    }
}

proptest! {
    #[test]
    fn blocked_matmul_is_bitwise_naive(dims in (0usize..48, 0usize..40, 0usize..48), seed in 0u64..1_000_000) {
        let (m, k, n) = dims;
        let (a, b) = rand_pair(m, k, n, seed);
        assert_every_body(|| matmul(&a, &b), &matmul_naive(&a, &b));
    }

    #[test]
    fn at_b_is_bitwise_naive(dims in (0usize..40, 0usize..40, 0usize..40), seed in 0u64..1_000_000) {
        // matmul_at_b(aᵀ, b) computes a·b without materializing aᵀᵀ; packing
        // normalizes the layout, so even the transposed path is bit-exact.
        let (m, k, n) = dims;
        let (a, b) = rand_pair(m, k, n, seed);
        let at = a.transpose();
        assert_every_body(|| matmul_at_b(&at, &b), &matmul_naive(&a, &b));
    }

    #[test]
    fn a_bt_is_bitwise_naive(dims in (0usize..40, 0usize..40, 0usize..40), seed in 0u64..1_000_000) {
        let (m, k, n) = dims;
        let (a, b) = rand_pair(m, k, n, seed);
        let bt = b.transpose();
        assert_every_body(|| matmul_a_bt(&a, &bt), &matmul_naive(&a, &b));
    }

    #[test]
    fn epilogue_variants_agree_across_kernels(dims in (1usize..24, 1usize..24, 1usize..24), seed in 0u64..1_000_000) {
        // All three kernels with the same logical operands and epilogue must
        // write the same bits: they share one gemm and one reduction order.
        let (m, k, n) = dims;
        let (a, b) = rand_pair(m, k, n, seed);
        let mut s = NormalSampler::seed_from(seed ^ 0xb1a5);
        let bias = Tensor::randn(&[n], 0.0, 1.0, &mut s);
        let epi = Epilogue::BiasRelu(bias.data());
        let mut o1 = vec![0.0f32; m * n];
        let mut o2 = vec![0.0f32; m * n];
        let mut o3 = vec![0.0f32; m * n];
        matmul_epi_into(&a, b.data(), &mut o1, epi);
        matmul_at_b_epi_into(&a.transpose(), &b, &mut o2, epi);
        matmul_a_bt_epi_into(&a, b.transpose().data(), &mut o3, epi);
        let b1: Vec<u32> = o1.iter().map(|x| x.to_bits()).collect();
        let b2: Vec<u32> = o2.iter().map(|x| x.to_bits()).collect();
        let b3: Vec<u32> = o3.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(&b1, &b2);
        prop_assert_eq!(&b1, &b3);
    }
}

/// Past the parallel threshold the pool's row bands, too, are the
/// oracle's bits.
#[test]
fn parallel_matches_naive_large() {
    let (a, b) = rand_pair(130, 70, 90, 2);
    assert_every_body(|| matmul(&a, &b), &matmul_naive(&a, &b));
}

/// The microkernel reduces over k in the same ascending order as the
/// scalar reference, so equality is exact, not approximate — on a shape
/// ragged in every dimension.
#[test]
fn blocked_kernel_is_bitwise_naive() {
    let (a, b) = rand_pair(97, 61, 83, 20);
    assert_every_body(|| matmul(&a, &b), &matmul_naive(&a, &b));
}

/// Shapes well past `PAR_THRESHOLD` run on the persistent pool; repeated
/// calls must reproduce the same bytes (threads pick *which* row band to
/// compute, never the order within an output element's reduction).
#[test]
fn parallel_path_is_run_to_run_deterministic() {
    let (a, b) = rand_pair(130, 70, 90, 99);
    let first = bits(&matmul(&a, &b));
    for _ in 0..8 {
        assert_eq!(bits(&matmul(&a, &b)), first, "pool run changed the bytes");
    }
    assert_eq!(first, bits(&matmul_naive(&a, &b)));
    // Same property through the accumulate epilogue (the gradient path).
    let mut acc1 = vec![0.0f32; 130 * 90];
    let mut acc2 = vec![0.0f32; 130 * 90];
    for _ in 0..3 {
        matmul_epi_into(&a, b.data(), &mut acc1, Epilogue::Accumulate);
        matmul_epi_into(&a, b.data(), &mut acc2, Epilogue::Accumulate);
    }
    assert_eq!(
        acc1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        acc2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

/// The degenerate shapes the trainer can actually produce (last ragged
/// batch, 1-sample batches, empty label sets) all round-trip the kernels.
#[test]
fn degenerate_shapes_are_bitwise_naive() {
    for (m, k, n) in [
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (1, 1, 1),
        (1, 33, 1),
        (17, 1, 19),
        (1, 9, 64),
        (64, 9, 1),
    ] {
        let (a, b) = rand_pair(m, k, n, (m * 1000 + k * 100 + n) as u64);
        let want = bits(&matmul_naive(&a, &b));
        for (body, got) in on_every_body(|| matmul(&a, &b)) {
            assert_eq!(got, want, "shape ({m},{k},{n}), {body}");
        }
    }
}

/// B is packed one panel *group* (≤ 2¹⁸ floats) at a time. These shapes put
/// several groups in one call — a deep `k` makes a group a few panels wide,
/// `n` spans more than one group and ends in a ragged panel, and one `k` is
/// deep enough that every panel is a group by itself — for all three
/// operand layouts and all four epilogues.
#[test]
fn panel_group_boundaries_are_bitwise_naive() {
    // (m, k, n): groups of 5 panels = 80 columns at k = 3072; of 1 at 16400.
    for (m, k, n) in [
        (5, 3072, 203),
        (9, 3072, 80),
        (3, 16400, 37),
        (66, 2100, 250),
    ] {
        let (a, b) = rand_pair(m, k, n, (k + n) as u64);
        let naive = matmul_naive(&a, &b);
        let (at, bt) = (a.transpose(), b.transpose());
        let mut s = NormalSampler::seed_from(k as u64);
        let bias = Tensor::randn(&[n], 0.0, 1.0, &mut s);
        let prior = Tensor::randn(&[m, n], 0.0, 1.0, &mut s);
        type Expect<'a> = Box<dyn Fn(usize, f32) -> f32 + 'a>;
        let cases: [(&str, Epilogue<'_>, Expect<'_>); 4] = [
            ("store", Epilogue::Store, Box::new(|_, v| v)),
            (
                "accumulate",
                Epilogue::Accumulate,
                Box::new(|i, v| prior.data()[i] + v),
            ),
            (
                "bias",
                Epilogue::Bias(bias.data()),
                Box::new(|i, v| v + bias.data()[i % n]),
            ),
            (
                "bias_relu",
                Epilogue::BiasRelu(bias.data()),
                Box::new(|i, v| (v + bias.data()[i % n]).max(0.0)),
            ),
        ];
        for (name, epi, expect) in &cases {
            let want: Vec<u32> = naive
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| expect(i, v).to_bits())
                .collect();
            let run = |f: &dyn Fn(&mut [f32])| {
                let mut out = prior.data().to_vec();
                f(&mut out);
                out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
            };
            let shape = format!("({m},{k},{n}) {name}");
            assert_eq!(
                run(&|o| matmul_epi_into(&a, b.data(), o, *epi)),
                want,
                "a·b {shape}"
            );
            assert_eq!(
                run(&|o| matmul_at_b_epi_into(&at, &b, o, *epi)),
                want,
                "aᵀᵀ·b {shape}"
            );
            assert_eq!(
                run(&|o| matmul_a_bt_epi_into(&a, bt.data(), o, *epi)),
                want,
                "a·bᵀᵀ {shape}"
            );
        }
    }
}
