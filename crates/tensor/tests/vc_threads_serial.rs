//! `VC_THREADS=1` must force the whole substrate serial — and serial must
//! mean *the same bytes*, not just the same math.
//!
//! This file holds exactly one test so the env var is set before anything
//! in this process can touch the lazily-built worker pool (integration test
//! binaries each run in their own process; a second test here could race
//! the pool initialization).

mod naive;

use naive::matmul_naive;
use vc_tensor::ops::matmul;
use vc_tensor::{NormalSampler, Tensor};

#[test]
fn vc_threads_1_is_serial_and_bit_identical() {
    std::env::set_var("VC_THREADS", "1");
    // Large enough to cross the parallel threshold — with the override the
    // pool must still run it inline on this thread.
    let mut s = NormalSampler::seed_from(5);
    let a = Tensor::randn(&[150, 80], 0.0, 1.0, &mut s);
    let b = Tensor::randn(&[80, 120], 0.0, 1.0, &mut s);
    let blocked = matmul(&a, &b);
    assert_eq!(
        rayon::max_threads(),
        1,
        "VC_THREADS=1 must cap the pool before its first use"
    );
    let naive = matmul_naive(&a, &b);
    assert_eq!(
        blocked
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        naive.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "serial pool run must be byte-identical to the reference"
    );
}
