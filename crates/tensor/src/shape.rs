//! Dynamic tensor shapes.
//!
//! A [`Shape`] is an ordered list of dimension extents. All tensors in the
//! workspace are stored row-major (C order), so the last axis is contiguous.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// Highest tensor rank the workspace uses (`[batch, ch, h, w]` images).
pub const MAX_RANK: usize = 4;

/// The shape of a [`crate::Tensor`]: up to [`MAX_RANK`] dimension extents
/// stored inline, so constructing a tensor never heap-allocates for its
/// shape. This matters for the zero-allocation steady-state training loop,
/// where activations are rebuilt from recycled buffers every step.
///
/// A rank-0 shape (no dims) denotes a scalar with exactly one element, which
/// keeps reductions like `sum()` composable.
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
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Flat row-major offset of a multi-index. Panics on rank mismatch or an
    /// out-of-range coordinate (in debug builds).
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank,
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank
        );
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.rank).rev() {
            debug_assert!(
                index[i] < self.dims[i],
                "index {} out of range for axis {i}",
                index[i]
            );
            off += index[i] * stride;
            stride *= self.dims[i];
        }
        off
    }

    /// True when the two shapes describe matrices that can be multiplied
    /// (`self` is `[m, k]`, `other` is `[k, n]`).
    pub fn matmul_compatible(&self, other: &Shape) -> bool {
        self.rank() == 2 && other.rank() == 2 && self.dim(1) == other.dim(0)
    }
}

// Hand-written serde: the pre-inline `Shape(Vec<usize>)` newtype serialized
// as its inner value (a JSON array of extents); these impls keep that wire
// format so existing checkpoints and report files stay readable.
impl Serialize for Shape {
    fn serialize(&self) -> Content {
        Content::Seq(
            self.dims()
                .iter()
                .map(|&d| Content::U64(d as u64))
                .collect(),
        )
    }
}

impl Deserialize for Shape {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        let seq = c
            .as_seq()
            .ok_or_else(|| DeError::expected("sequence", "Shape"))?;
        if seq.len() > MAX_RANK {
            return Err(DeError(format!(
                "shape rank {} exceeds supported maximum {MAX_RANK}",
                seq.len()
            )));
        }
        let mut dims = [0usize; MAX_RANK];
        for (slot, item) in dims.iter_mut().zip(seq) {
            *slot = match *item {
                Content::U64(v) => v as usize,
                Content::I64(v) if v >= 0 => v as usize,
                _ => return Err(DeError::expected("non-negative integer", "Shape")),
            };
        }
        Ok(Shape {
            dims,
            rank: seq.len(),
        })
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

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
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
    fn offset_walks_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[0, 0, 3]), 3);
        assert_eq!(s.offset(&[0, 1, 0]), 4);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "does not match shape rank")]
    fn offset_panics_on_rank_mismatch() {
        Shape::new(&[2, 3]).offset(&[1]);
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

    #[test]
    fn serde_roundtrip_keeps_seq_encoding() {
        let s = Shape::new(&[2, 3, 4]);
        let c = s.serialize();
        assert_eq!(
            c,
            Content::Seq(vec![Content::U64(2), Content::U64(3), Content::U64(4)]),
            "wire format must stay the plain array the old newtype emitted"
        );
        assert_eq!(Shape::deserialize(&c).unwrap(), s);
        let scalar = Shape::new(&[]);
        assert_eq!(Shape::deserialize(&scalar.serialize()).unwrap(), scalar);
    }
}
