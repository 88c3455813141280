//! Gradient clipping.

/// Scales `grads` in place so its global L2 norm does not exceed
/// `max_norm`; returns the pre-clip norm. The squares are summed left to
/// right with one carried accumulator. A model's gradient vector is `+0.0`
/// at every buffer slot, and adding `+0.0` to the non-negative sum leaves
/// its bits alone, so the norm is that of the trained slots alone.
///
/// Client replicas in a VC fleet train on small, skewed data subsets, which
/// occasionally produces exploding gradients; the training driver clips
/// before every optimizer step so a pathological subtask cannot poison its
/// parameter upload (the validator would otherwise have to reject it).
pub(crate) fn clip_by_global_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let norm = grads.iter().fold(0.0f32, |a, g| a + g * g).sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        grads.iter_mut().for_each(|g| *g *= scale);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_gradients_untouched() {
        let mut g = vec![0.3, -0.4]; // norm 0.5
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(g, vec![0.3, -0.4]);
    }

    #[test]
    fn large_gradients_scaled_to_max_norm() {
        let mut g = vec![3.0, 4.0]; // norm 5
        clip_by_global_norm(&mut g, 1.0);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((g[0] / g[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn non_finite_norm_leaves_data_for_scrub() {
        let mut g = vec![1.0, f32::NAN];
        let norm = clip_by_global_norm(&mut g, 1.0);
        assert!(norm.is_nan());
        // Nothing is rescaled or zeroed: the NaN reaches the replica, and
        // the server-side validator rejects the upload.
        assert_eq!(g[0], 1.0);
        assert!(g[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "max_norm must be positive")]
    fn rejects_nonpositive_max() {
        clip_by_global_norm(&mut [1.0], 0.0);
    }
}
