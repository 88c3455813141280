//! The [`Tensor`] type: an owned, contiguous, row-major `f32` array.

use crate::rng::NormalSampler;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned, contiguous, row-major `f32` tensor with dynamic shape.
///
/// Everything in the training pipeline — images, activations, gradients and
/// the flat parameter vectors exchanged by VC-ASGD — is a `Tensor`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Builds a tensor from a data vector and dimension extents.
    ///
    /// Panics when `data.len()` disagrees with the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Samples i.i.d. `N(mean, std^2)` entries from a seeded sampler.
    pub fn randn(dims: &[usize], mean: f32, std: f32, sampler: &mut NormalSampler) -> Self {
        let shape = Shape::new(dims);
        let mut data = vec![0.0; shape.numel()];
        sampler.fill(&mut data);
        for v in &mut data {
            *v = *v * std + mean;
        }
        Tensor { shape, data }
    }

    /// He-normal initialization (`std = sqrt(2 / fan_in)`), the paper's
    /// initializer for the ResNetV2 model.
    pub fn he_normal(dims: &[usize], fan_in: usize, sampler: &mut NormalSampler) -> Self {
        assert!(fan_in > 0, "he_normal requires a positive fan_in");
        let std = (2.0 / fan_in as f32).sqrt();
        Self::randn(dims, 0.0, std, sampler)
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat, row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, yielding its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    // ------------------------------------------------------------- reshapes

    /// Returns a tensor with the same data and a new shape of equal element
    /// count. Cheap: the buffer is moved, not copied.
    pub fn reshape(self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "cannot reshape {} elements into {}",
            self.data.len(),
            shape
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.shape.rank(), 2, "transpose requires a rank-2 tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    // ---------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary op between same-shape tensors.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_with requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`, elementwise.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`, elementwise.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a - b)
    }

    /// `self * s`, scalar product.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds a rank-1 bias to every row of a rank-2 tensor (broadcast over
    /// axis 0).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Self {
        assert_eq!(self.shape.rank(), 2, "add_row_broadcast needs rank 2");
        assert_eq!(bias.shape.rank(), 1, "bias must be rank 1");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(bias.numel(), n, "bias length must match row width");
        let mut out = self.data.clone();
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] += bias.data[j];
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, .., {:.4}] n={})",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn ctor_shape_check() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn ctor_rejects_bad_length() {
        Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[4]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[4], 0.5).sum(), 2.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert!(approx_eq(&tt.transpose(), &t, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn he_normal_std_is_plausible() {
        let mut s = NormalSampler::seed_from(42);
        let t = Tensor::he_normal(&[10_000], 50, &mut s);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 9_999.0;
        let expected = 2.0 / 50.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var - expected).abs() / expected < 0.1,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let r = t.clone().reshape(&[2, 6]);
        assert_eq!(r.dims(), &[2, 6]);
        assert_eq!(r.data(), t.data());
    }
}
