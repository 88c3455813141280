//! Frozen bits of `SyntheticSpec::generate`: an FNV-1a hash over every
//! image value's bits and every label of the three splits, for the two
//! named configurations and the three shapes the contract benchmark's
//! workloads generate (`benchmark/src/workloads.rs`: `resnet_compute`,
//! `mlp_transfer` and `mlp_transfer_int8`, `churn_quorum`).
//!
//! The generator feeds every trajectory in the repository — the DES and
//! DST goldens, `pipeline_golden`, the benchmark's accuracy floors — so a
//! faster generator must reproduce these hashes exactly, not approximately.
//! They were recorded before the generator was rewritten around
//! `NormalSampler::fill`.

use vc_data::{Dataset, SyntheticSpec};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(image bits, labels)` hashes over train, val and test in that order.
fn hashes(spec: &SyntheticSpec) -> (u64, u64) {
    let (train, val, test) = spec.generate();
    let (mut img, mut lab) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for d in [&train, &val, &test] {
        let d: &Dataset = d;
        for v in d.images.data() {
            fnv1a(&mut img, &v.to_bits().to_le_bytes());
        }
        for &l in &d.labels {
            fnv1a(&mut lab, &(l as u64).to_le_bytes());
        }
    }
    (img, lab)
}

/// A benchmark workload's data: 10 classes of 3×32×32, shift 2.
fn bench_shape(
    train_n: usize,
    val_n: usize,
    test_n: usize,
    noise: f32,
    label_noise: f32,
) -> SyntheticSpec {
    SyntheticSpec {
        classes: 10,
        img: [3, 32, 32],
        train_n,
        val_n,
        test_n,
        noise,
        label_noise,
        max_shift: 2,
        seed: 1,
    }
}

#[test]
fn generate_bits_are_frozen() {
    let cases = [
        (
            "tiny",
            SyntheticSpec::tiny(7),
            (0x4bf0_dabe_bc8d_3019, 0x297d_f288_bc33_8825),
        ),
        (
            "cifar_like",
            SyntheticSpec::cifar_like(3),
            (0x19dc_6009_0305_fbaf, 0xb947_da28_4312_6469),
        ),
        (
            "resnet_compute",
            bench_shape(256, 128, 64, 2.6, 0.10),
            (0xfb78_7fe3_9665_7d89, 0xe779_43d8_b0dc_01c2),
        ),
        (
            "mlp_transfer",
            bench_shape(128, 500, 100, 2.6, 0.10),
            (0xa712_5beb_937f_ab14, 0x4d8d_4afa_ab79_89ea),
        ),
        (
            "churn_quorum",
            bench_shape(384, 500, 100, 1.0, 0.0),
            (0x086d_72df_4961_8c70, 0x8100_c72b_4dc0_29e5),
        ),
    ];
    let mut wrong = Vec::new();
    for (name, spec, want) in cases {
        let got = hashes(&spec);
        println!("{name}: ({:#018x}, {:#018x})", got.0, got.1);
        if got != want {
            wrong.push(name);
        }
    }
    assert!(wrong.is_empty(), "generated bits moved: {wrong:?}");
}
