//! # vc-tensor
//!
//! Dense `f32` tensor primitives for the `vc-dl` workspace.
//!
//! This crate is the lowest layer of the from-scratch deep-learning substrate
//! used to reproduce *Distributed Deep Learning Using Volunteer Computing-Like
//! Paradigm* (Atre, Jha, Rao; 2021). It provides:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor with a dynamic
//!   shape, elementwise arithmetic, reductions and broadcasting-by-row.
//! * [`ops`] — rayon-parallel matrix multiplication, and the 1×1 stride-1
//!   convolution as GEMMs on the image layout.
//! * [`conv_direct`] — implicit-GEMM 3×3 stride-1 conv kernels.
//!
//!   Between them they run every convolution `vc-nn` builds, one route per
//!   geometry, each bit-identical to the im2col+GEMM lowering. That
//!   lowering is no route: it lives under `tests/` as their oracle.
//! * [`rng`] — seeded Gaussian sampling (Box–Muller) used for He-normal
//!   parameter initialization, mirroring the paper's initializer.
//! * [`codec`] — a compact binary encoding of parameter vectors, standing in
//!   for the paper's compressed `.h5` parameter files (21.2 MB for the
//!   ResNetV2 model); byte sizes from this codec drive the network-transfer
//!   model in `vc-simnet`.
//! * [`quant`] — symmetric int8 quantize/dequantize kernels behind
//!   `vc-ps`'s lossy update codec.
//!
//! The crate deliberately supports only `f32`: every system in the paper
//! (TensorFlow training, Redis parameter blobs) operates on single-precision
//! weights.

mod bench_compat;
pub mod codec;
pub mod conv_direct;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use codec::{decode_f32s, encode_f32s};
pub use rng::NormalSampler;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;

/// Absolute tolerance used by the test suites across the workspace when
/// comparing floating-point tensors produced by mathematically-equivalent
/// routes (e.g. serial vs rayon-parallel matmul).
pub const TEST_EPS: f32 = 1e-4;

/// Returns true when `a` and `b` differ by at most `eps` in every element and
/// agree in shape. Used pervasively by tests; exposed so downstream crates'
/// tests can reuse it.
pub fn approx_eq(a: &Tensor, b: &Tensor, eps: f32) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= eps || (x.is_nan() && y.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_detects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(!approx_eq(&a, &b, 1.0));
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0 + 5e-5, 2.0], &[2]);
        assert!(approx_eq(&a, &b, TEST_EPS));
        assert!(!approx_eq(&a, &b, 1e-6));
    }
}
