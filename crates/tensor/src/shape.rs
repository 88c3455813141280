//! Dynamic tensor shapes.
//!
//! A [`Shape`] is an ordered list of dimension extents. All tensors in the
//! workspace are stored row-major (C order), so the last axis is contiguous.

use std::fmt;

/// Highest tensor rank the workspace uses (`[batch, ch, h, w]` images).
pub const MAX_RANK: usize = 4;

/// The shape of a [`crate::Tensor`]: up to [`MAX_RANK`] dimension extents
/// stored inline, so constructing a tensor never heap-allocates for its
/// shape. This matters for the zero-allocation steady-state training loop,
/// where activations are rebuilt from recycled buffers every step.
///
/// A rank-0 shape (no dims) denotes a scalar with exactly one element.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Builds a shape from dimension extents. Panics above [`MAX_RANK`].
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape rank {} exceeds supported maximum {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len(),
        }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Extent of axis `i`. Panics if `i >= rank()`.
    fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// True when the two shapes describe matrices that can be multiplied
    /// (`self` is `[m, k]`, `other` is `[k, n]`).
    pub fn matmul_compatible(&self, other: &Shape) -> bool {
        self.rank() == 2 && other.rank() == 2 && self.dim(1) == other.dim(0)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn numel_is_product() {
        assert_eq!(Shape::new(&[3, 4, 5]).numel(), 60);
        assert_eq!(Shape::new(&[7]).numel(), 7);
        assert_eq!(Shape::new(&[2, 0, 4]).numel(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds supported maximum")]
    fn rank_above_max_is_rejected() {
        Shape::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn matmul_compat() {
        assert!(Shape::new(&[2, 3]).matmul_compatible(&Shape::new(&[3, 4])));
        assert!(!Shape::new(&[2, 3]).matmul_compatible(&Shape::new(&[2, 4])));
        assert!(!Shape::new(&[2, 3, 1]).matmul_compatible(&Shape::new(&[3, 4])));
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }
}
