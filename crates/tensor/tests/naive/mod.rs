//! The reference matmul: the test oracle every blocked GEMM kernel is held
//! to, bitwise. Serial and unblocked — an oracle has no use for the pool.

use vc_tensor::Tensor;

/// `a · b`, reducing over `k` ascending with fused multiply-adds — the
/// same order and rounding the microkernel uses, so the blocked kernels
/// match it *bitwise*, not just approximately.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a.data()[i * k + p].mul_add(b.data()[p * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}
