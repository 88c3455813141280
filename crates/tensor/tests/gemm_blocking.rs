//! The k-blocked GEMM at its blocking boundaries, held bitwise to the
//! naive oracle.
//!
//! `vc_tensor::ops` reduces over `k` in blocks of `KC` = 256, carrying
//! each output's chain from block to block (in the output for `Store`,
//! `Bias` and `BiasRelu`, in carry scratch for `Accumulate`), with an
//! 8 × 32 tile at 16 lanes and a 6 × 16 tile at 8 lanes and on the
//! portable tier, and row bands of 64 (at the 8-row tile) or 60 (at the
//! 6-row tile) rows at one thread. The cases put `k` on each side of one
//! and two blocks, and `m` and `n` on each side of both tiers' tile edges
//! and of the band height, for every epilogue (`Accumulate` onto a nonzero
//! start) and every operand layout — `Planes` through the 1×1
//! convolution — on every tier the host has. CI runs the file under
//! `VC_THREADS=1` (the benchmarked pool) and `VC_THREADS=4` (bands split
//! across threads, each packing into its own slot).

mod naive;

use naive::matmul_naive;
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::ops::{
    conv1x1_backward_dk_into, conv1x1_backward_dx_into, conv1x1_forward_into, matmul_a_bt_epi_into,
    matmul_at_b_epi_into, matmul_epi_into, Epilogue,
};
use vc_tensor::{NormalSampler, Tensor};

/// `KC − 1`, `KC`, `KC + 1` and `2·KC + 5`.
const DEPTHS: [usize; 4] = [255, 256, 257, 517];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn randn(dims: &[usize], s: &mut NormalSampler) -> Tensor {
    Tensor::randn(dims, 0.0, 1.0, s)
}

/// The transpose of a rank-2 tensor.
fn transpose(t: &Tensor) -> Tensor {
    let (m, n) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    Tensor::from_vec(
        (0..n * m).map(|q| d[(q % m) * n + q / m]).collect(),
        &[n, m],
    )
}

/// Runs `f` once per tier the host has, naming the tier on failure.
fn on_every_tier(f: impl Fn(&str)) {
    for tier in Tier::host_tiers() {
        with_tier_cap(tier, || f(tier.name()));
    }
}

/// Every GEMM route × every epilogue at every depth, for `m × n` outputs
/// that straddle the tiles and the band.
#[test]
fn k_block_boundaries_are_bitwise_naive_for_every_layout_and_epilogue() {
    for (m, n) in [(7, 17), (9, 33), (65, 70), (130, 33)] {
        for k in DEPTHS {
            let mut s = NormalSampler::seed_from((m * 1000 + k * 10 + n) as u64);
            let (a, b) = (randn(&[m, k], &mut s), randn(&[k, n], &mut s));
            let bias = randn(&[n], &mut s);
            let prior = randn(&[m, n], &mut s);
            let (at, bt) = (transpose(&a), transpose(&b));
            let naive = matmul_naive(&a, &b);
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
            on_every_tier(|tier| {
                for (name, epi, expect) in &cases {
                    let want: Vec<u32> = (naive.data().iter().enumerate())
                        .map(|(i, &v)| expect(i, v).to_bits())
                        .collect();
                    let run = |f: &dyn Fn(&mut [f32])| {
                        let mut out = prior.data().to_vec();
                        f(&mut out);
                        bits(&out)
                    };
                    let shape = format!("({m},{k},{n}) {name} {tier}");
                    let got = run(&|o| matmul_epi_into(&a, b.data(), o, *epi));
                    assert_eq!(got, want, "a·b {shape}");
                    let got = run(&|o| matmul_at_b_epi_into(&at, &b, o, *epi));
                    assert_eq!(got, want, "aᵀᵀ·b {shape}");
                    let got = run(&|o| matmul_a_bt_epi_into(&a, bt.data(), o, *epi));
                    assert_eq!(got, want, "a·bᵀᵀ {shape}");
                }
            });
        }
    }
}

/// `[batch, ch, hw]` planes as the `[ch, batch·hw]` matrix whose row `c`
/// is channel `c` image after image — the `k` order of the 1×1 kernel
/// gradient.
fn plane_rows(x: &Tensor, batch: usize, ch: usize, hw: usize) -> Tensor {
    let d = x.data();
    let rows = (0..ch).flat_map(|c| (0..batch).flat_map(move |b| (0..hw).map(move |q| (b, c, q))));
    Tensor::from_vec(
        rows.map(|(b, c, q)| d[(b * ch + c) * hw + q]).collect(),
        &[ch, batch * hw],
    )
}

/// The 1×1 convolution's three GEMMs — forward (`k` = in channels), input
/// gradient (`k` = out channels, `A` transposed) and kernel gradient
/// (`k` = batch·hw, both operands as image planes) — at depths across the
/// k-blocks.
#[test]
fn conv1x1_planes_cross_k_blocks_bitwise() {
    // (batch, in_ch, out_ch, hw): forward reaches k = 257 through the in
    // channels and dx k = 517 through the out channels, dk reaches 255,
    // 256, 517 and 257 through batch·hw; the second shape runs forward on
    // the pool, the last runs all three there.
    for (batch, ch, oc, hw) in [
        (3, 257, 9, 85),
        (2, 7, 517, 128),
        (11, 33, 70, 47),
        (5, 17, 65, 51),
        (1, 65, 130, 257),
    ] {
        let mut s = NormalSampler::seed_from((batch * ch * oc + hw) as u64);
        let x = randn(&[batch, ch, hw, 1], &mut s);
        let dy = randn(&[batch, oc, hw, 1], &mut s);
        let kernel = randn(&[oc, ch], &mut s);
        let bias = randn(&[oc], &mut s);
        let prior = randn(&[oc, ch], &mut s);
        let kt = transpose(&kernel);
        let image = |t: &Tensor, c: usize, b: usize| {
            Tensor::from_vec(t.data()[b * c * hw..(b + 1) * c * hw].to_vec(), &[c, hw])
        };
        let mut y_want = Vec::new();
        let mut dx_want = Vec::new();
        for b in 0..batch {
            let y = matmul_naive(&kernel, &image(&x, ch, b));
            for (i, v) in y.data().iter().enumerate() {
                y_want.push((v + bias.data()[i / hw]).max(0.0));
            }
            let dx = matmul_naive(&kt, &image(&dy, oc, b));
            dx_want.extend(dx.data().iter().map(|v| 0.0 + v));
        }
        let dk = matmul_naive(
            &plane_rows(&dy, batch, oc, hw),
            &transpose(&plane_rows(&x, batch, ch, hw)),
        );
        let dk_want: Vec<f32> = (prior.data().iter().zip(dk.data()))
            .map(|(p, v)| p + v)
            .collect();
        on_every_tier(|tier| {
            let shape = format!("(batch {batch}, ch {ch}, oc {oc}, hw {hw}) {tier}");
            let mut y = vec![0.0f32; batch * oc * hw];
            let epi = Epilogue::BiasRelu(bias.data());
            conv1x1_forward_into(&x, kernel.data(), &mut y, epi);
            assert_eq!(bits(&y), bits(&y_want), "forward {shape}");
            let mut dx = vec![1.0f32; batch * ch * hw];
            conv1x1_backward_dx_into(&dy, kernel.data(), &mut dx);
            assert_eq!(bits(&dx), bits(&dx_want), "dx {shape}");
            let mut dkv = prior.data().to_vec();
            conv1x1_backward_dk_into(&dy, &x, &mut dkv);
            assert_eq!(bits(&dkv), bits(&dk_want), "dk {shape}");
        });
    }
}
