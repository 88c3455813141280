//! The [`Tensor`] type: an owned, contiguous, row-major `f32` array.

use crate::rng::NormalSampler;
use crate::shape::Shape;
use std::fmt;

/// An owned, contiguous, row-major `f32` buffer with a dynamic shape.
///
/// A `Tensor` carries images, activations and their gradients between
/// layers. A replica's parameters and gradients are flat `Vec<f32>`s the
/// kernels take as slices, not tensors.
#[derive(Clone, PartialEq)]
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
}

/// He-normal initialization (`std = sqrt(2 / fan_in)`, the paper's) in
/// place: [`Tensor::randn`]'s `v * std + mean` at mean 0, `-0.0` to `+0.0`.
pub fn he_normal_into(out: &mut [f32], fan_in: usize, sampler: &mut NormalSampler) {
    assert!(fan_in > 0, "he_normal requires a positive fan_in");
    let std = (2.0 / fan_in as f32).sqrt();
    sampler.fill(out);
    out.iter_mut().for_each(|v| *v = *v * std + 0.0);
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

    #[test]
    fn ctor_shape_check() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.data()[5], 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn ctor_rejects_bad_length() {
        Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn zeros_are_zero() {
        assert_eq!(Tensor::zeros(&[4]).data(), &[0.0; 4]);
    }

    #[test]
    fn he_normal_std_is_plausible() {
        let mut s = NormalSampler::seed_from(42);
        let mut t = Tensor::zeros(&[10_000]);
        he_normal_into(t.data_mut(), 50, &mut s);
        let mean = t.data().iter().sum::<f32>() / 10_000.0;
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
