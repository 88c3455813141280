//! α schedules for the VC-ASGD blend (§III-C, §IV-C).

use serde::{Deserialize, Serialize};

/// How the VC-ASGD hyperparameter α evolves with the epoch number `e`
/// (1-based, as in the paper).
///
/// Eq. (1) weighs the server copy by α and the client result by `1 − α`:
/// small α learns aggressively from clients (fast early, noisy late);
/// large α barely moves (the paper's α = 0.999 ≈ EASGD case). The paper's
/// best result varies α like a learning-rate schedule.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AlphaSchedule {
    /// Fixed α for the whole run.
    Const(f32),
    /// The paper's "Var" experiment: `α_e = e/(e+1)`, rising from 0.5
    /// (e = 1) toward 0.98 (e = 40).
    VarEOverE1,
}

impl AlphaSchedule {
    /// α for epoch `e` (1-based). Panics on `e == 0`.
    pub fn alpha(&self, e: usize) -> f32 {
        assert!(e >= 1, "epochs are 1-based in the paper's notation");
        let a = match *self {
            AlphaSchedule::Const(a) => a,
            AlphaSchedule::VarEOverE1 => e as f32 / (e as f32 + 1.0),
        };
        assert!(
            (0.0..=1.0).contains(&a),
            "alpha schedule produced {a} outside [0, 1]"
        );
        a
    }

    /// Human-readable label used by the experiment harness (matches the
    /// curve names in Figure 4).
    pub fn label(&self) -> String {
        match *self {
            AlphaSchedule::Const(a) => format!("alpha={a}"),
            AlphaSchedule::VarEOverE1 => "Var".to_string(),
        }
    }
}

/// Applies Eq. (1) once: `w_s ← α·w_s + (1 − α)·w_c`, in place.
pub fn blend_eq1(w_s: &mut [f32], w_c: &[f32], alpha: f32) {
    assert_eq!(w_s.len(), w_c.len(), "parameter length mismatch");
    let beta = 1.0 - alpha;
    for (s, &c) in w_s.iter_mut().zip(w_c) {
        *s = alpha * *s + beta * c;
    }
}

/// Closed form of Eq. (2): the server parameters after `n_t` sequential
/// Eq. (1) assimilations of client copies `w_cs` (in arrival order) starting
/// from `w_start`. Used by tests to pin the recursive implementation to the
/// paper's algebra.
pub fn eq2_closed_form(w_start: &[f32], w_cs: &[Vec<f32>], alpha: f32) -> Vec<f32> {
    let n_t = w_cs.len() as i32;
    let mut out: Vec<f32> = w_start.iter().map(|&w| alpha.powi(n_t) * w).collect();
    // Client j (1-based arrival order) contributes (1-α)·α^(n_t - j).
    for (j, wc) in w_cs.iter().enumerate() {
        let coeff = (1.0 - alpha) * alpha.powi(n_t - 1 - j as i32);
        for (o, &c) in out.iter_mut().zip(wc) {
            *o += coeff * c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_schedule_is_flat() {
        let s = AlphaSchedule::Const(0.95);
        assert_eq!(s.alpha(1), 0.95);
        assert_eq!(s.alpha(40), 0.95);
    }

    #[test]
    fn var_matches_paper_range() {
        // §IV-C: "α increases from 0.5 to 0.98 as the epoch number e
        // increases from 1 to 40".
        let s = AlphaSchedule::VarEOverE1;
        assert!((s.alpha(1) - 0.5).abs() < 1e-6);
        let a40 = s.alpha(40);
        assert!((a40 - 40.0 / 41.0).abs() < 1e-6);
        assert!(a40 > 0.975 && a40 < 0.98);
        // Monotone increasing.
        for e in 1..60 {
            assert!(s.alpha(e + 1) > s.alpha(e));
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn epoch_zero_rejected() {
        AlphaSchedule::Const(0.5).alpha(0);
    }

    #[test]
    fn blend_matches_hand_computation() {
        let mut ws = vec![1.0, 0.0, -1.0];
        blend_eq1(&mut ws, &[0.0, 1.0, 1.0], 0.9);
        assert!((ws[0] - 0.9).abs() < 1e-7);
        assert!((ws[1] - 0.1).abs() < 1e-7);
        assert!((ws[2] + 0.8).abs() < 1e-7);
    }

    #[test]
    fn repeated_eq1_equals_eq2() {
        // The paper's Eq. (2) must be what the recursive update computes.
        let w0 = vec![0.5f32, -0.25, 2.0];
        let clients: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![i as f32 * 0.1, 1.0 - i as f32 * 0.05, -0.3 * i as f32])
            .collect();
        let alpha = 0.95;
        let mut recursive = w0.clone();
        for wc in &clients {
            blend_eq1(&mut recursive, wc, alpha);
        }
        let closed = eq2_closed_form(&w0, &clients, alpha);
        for (r, c) in recursive.iter().zip(&closed) {
            assert!((r - c).abs() < 1e-5, "{r} vs {c}");
        }
    }

    #[test]
    fn alpha_extremes_behave() {
        // α = 1: server never moves. α = 0: server becomes the client copy.
        let mut frozen = vec![1.0f32, 2.0];
        blend_eq1(&mut frozen, &[9.0, 9.0], 1.0);
        assert_eq!(frozen, vec![1.0, 2.0]);
        let mut eager = vec![1.0f32, 2.0];
        blend_eq1(&mut eager, &[9.0, 8.0], 0.0);
        assert_eq!(eager, vec![9.0, 8.0]);
    }

    #[test]
    fn labels_match_figure4_legend() {
        assert_eq!(AlphaSchedule::Const(0.95).label(), "alpha=0.95");
        assert_eq!(AlphaSchedule::VarEOverE1.label(), "Var");
    }
}
