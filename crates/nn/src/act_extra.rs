//! Additional activations: sigmoid, tanh and leaky ReLU.
//!
//! The reference models use plain ReLU; these exist for library
//! completeness and for the activation ablation.

use crate::layer::Layer;
use vc_tensor::{Tensor, Workspace};

/// Stores a pooled copy of `t` in `slot` for backward, recycling what the
/// slot held from the previous step.
fn stash(slot: &mut Option<Tensor>, t: &Tensor, ws: &mut Workspace) {
    if let Some(prev) = slot.take() {
        ws.recycle(prev.into_vec());
    }
    *slot = Some(Tensor::from_vec(ws.take_copy(t.data()), t.dims()));
}

/// Logistic sigmoid `y = 1/(1+e^{-x})`, elementwise.
pub struct Sigmoid {
    y_cache: Option<Tensor>,
}

impl Sigmoid {
    /// Builds the layer.
    pub fn new() -> Self {
        Sigmoid { y_cache: None }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sigmoid {
    fn forward_ws(&mut self, mut x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        x.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
        if train {
            stash(&mut self.y_cache, &x, ws);
        }
        x
    }

    fn backward_ws(&mut self, mut dy: Tensor, _ws: &mut Workspace) -> Tensor {
        let y = self
            .y_cache
            .as_ref()
            .expect("Sigmoid::backward called without a cached forward");
        assert_eq!(dy.dims(), y.dims(), "Sigmoid cache/grad shape mismatch");
        // dy * y * (1 - y)
        for (g, &yv) in dy.data_mut().iter_mut().zip(y.data()) {
            *g = *g * yv * (1.0 - yv);
        }
        dy
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

/// Hyperbolic tangent, elementwise.
pub struct Tanh {
    y_cache: Option<Tensor>,
}

impl Tanh {
    /// Builds the layer.
    pub fn new() -> Self {
        Tanh { y_cache: None }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Tanh {
    fn forward_ws(&mut self, mut x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        x.map_inplace(f32::tanh);
        if train {
            stash(&mut self.y_cache, &x, ws);
        }
        x
    }

    fn backward_ws(&mut self, mut dy: Tensor, _ws: &mut Workspace) -> Tensor {
        let y = self
            .y_cache
            .as_ref()
            .expect("Tanh::backward called without a cached forward");
        assert_eq!(dy.dims(), y.dims(), "Tanh cache/grad shape mismatch");
        for (g, &yv) in dy.data_mut().iter_mut().zip(y.data()) {
            *g *= 1.0 - yv * yv;
        }
        dy
    }

    fn name(&self) -> &'static str {
        "tanh"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

/// Leaky ReLU: `y = x` for positive inputs, `slope·x` otherwise.
pub struct LeakyRelu {
    slope: f32,
    x_cache: Option<Tensor>,
}

impl LeakyRelu {
    /// Builds the layer with the given negative-side slope (e.g. 0.01).
    pub fn new(slope: f32) -> Self {
        assert!((0.0..1.0).contains(&slope), "slope {slope} outside [0, 1)");
        LeakyRelu {
            slope,
            x_cache: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn forward_ws(&mut self, mut x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        if train {
            stash(&mut self.x_cache, &x, ws);
        }
        let s = self.slope;
        x.map_inplace(|v| if v > 0.0 { v } else { s * v });
        x
    }

    fn backward_ws(&mut self, mut dy: Tensor, _ws: &mut Workspace) -> Tensor {
        let x = self
            .x_cache
            .as_ref()
            .expect("LeakyRelu::backward called without a cached forward");
        let s = self.slope;
        assert_eq!(dy.dims(), x.dims(), "LeakyRelu cache/grad shape mismatch");
        for (g, &xv) in dy.data_mut().iter_mut().zip(x.data()) {
            *g = if xv > 0.0 { *g } else { s * *g };
        }
        dy
    }

    fn name(&self) -> &'static str {
        "leaky_relu"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use vc_tensor::NormalSampler;

    fn probe(seed: u64) -> Tensor {
        let mut s = NormalSampler::seed_from(seed);
        Tensor::randn(&[3, 4], 0.0, 1.0, &mut s)
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]), false);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn sigmoid_gradcheck() {
        gradcheck::check_input_grad(&mut Sigmoid::new(), &probe(1), 1e-2);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]), false);
        assert!((y.data()[0] + y.data()[2]).abs() < 1e-6);
        assert_eq!(y.data()[1], 0.0);
        assert!(y.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn tanh_gradcheck() {
        gradcheck::check_input_grad(&mut Tanh::new(), &probe(2), 1e-2);
    }

    #[test]
    fn leaky_relu_leaks() {
        let mut l = LeakyRelu::new(0.1);
        let y = l.forward(&Tensor::from_vec(vec![-10.0, 10.0], &[2]), false);
        assert_eq!(y.data(), &[-1.0, 10.0]);
    }

    #[test]
    fn leaky_relu_gradcheck_off_kink() {
        let x = probe(3).map(|v| {
            if v.abs() < 0.2 {
                0.5_f32.copysign(v)
            } else {
                v
            }
        });
        gradcheck::check_input_grad(&mut LeakyRelu::new(0.05), &x, 1e-2);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn leaky_relu_rejects_bad_slope() {
        LeakyRelu::new(1.5);
    }

    #[test]
    fn sigmoid_cache_is_pooled() {
        gradcheck::check_steady_state_pool(&mut Sigmoid::new(), &probe(9));
    }

    #[test]
    fn tanh_cache_is_pooled() {
        gradcheck::check_steady_state_pool(&mut Tanh::new(), &probe(9));
    }

    #[test]
    fn leaky_relu_cache_is_pooled() {
        gradcheck::check_steady_state_pool(&mut LeakyRelu::new(0.1), &probe(9));
    }
}
