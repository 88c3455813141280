//! Labelled image datasets.

use vc_tensor::Tensor;

/// A labelled dataset: images `[n, ch, h, w]` and integer labels.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Image tensor, `[n, ch, h, w]`.
    pub images: Tensor,
    /// Per-image class labels, each `< classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating invariants.
    pub fn new(images: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(
            images.dims()[0],
            labels.len(),
            "images/labels count mismatch"
        );
        assert!(
            labels.iter().all(|&y| y < classes),
            "label out of range for {classes} classes"
        );
        Dataset {
            images,
            labels,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample dimensions (`[ch, h, w]`).
    pub(crate) fn sample_dims(&self) -> &[usize] {
        &self.images.dims()[1..]
    }

    /// Extracts the sub-dataset at `indices` (clones the selected rows).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let sample_len: usize = self.sample_dims().iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of range");
            data.extend_from_slice(&self.images.data()[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(self.sample_dims());
        Dataset {
            images: Tensor::from_vec(data, &dims),
            labels,
            classes: self.classes,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Per-class sample counts.
    pub(crate) fn class_histogram(d: &Dataset) -> Vec<usize> {
        let mut h = vec![0usize; d.classes];
        for &y in &d.labels {
            h[y] += 1;
        }
        h
    }

    fn tiny() -> Dataset {
        let images = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 1, 2, 2]);
        Dataset::new(images, vec![0, 1, 0], 2)
    }

    #[test]
    fn invariants_enforced() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.sample_dims(), &[1, 2, 2]);
        assert_eq!(class_histogram(&d), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn rejects_mismatched_labels() {
        Dataset::new(Tensor::zeros(&[2, 1, 2, 2]), vec![0], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_labels() {
        Dataset::new(Tensor::zeros(&[1, 1, 2, 2]), vec![5], 2);
    }

    #[test]
    fn select_clones_rows() {
        let d = tiny();
        let s = d.select(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![0, 0]);
        assert_eq!(&s.images.data()[0..4], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(&s.images.data()[4..8], &[0.0, 1.0, 2.0, 3.0]);
    }
}
