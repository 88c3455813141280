//! # vc-nn
//!
//! A from-scratch neural-network library: the deep-learning substrate the
//! paper runs on TensorFlow, rebuilt in Rust for the `vc-dl` reproduction.
//!
//! The paper trains a 552-layer ResNetV2 (4.97 M parameters) on CIFAR10. The
//! VC-ASGD scheme it contributes, however, is *model-agnostic*: it exchanges
//! flat parameter vectors between clients and parameter servers. This crate
//! therefore provides exactly what the distributed layer needs:
//!
//! * [`Layer`] — by-value forward/backward passes over a buffer
//!   [`Workspace`](vc_tensor::Workspace), with layer-owned gradient storage.
//!   A layer names its parameter tensors once, in wire order, in
//!   [`Layer::visit_params`]; every flat-vector operation is derived from
//!   that one traversal. It names its part in the fusion peepholes once,
//!   as one `fusion_part` role;
//! * concrete layers: [`Dense`], [`Conv2d`], [`MaxPool2`], [`AvgPoolGlobal`],
//!   [`Relu`], [`BatchNorm`], [`Flatten`], [`Residual`] blocks;
//! * [`Sequential`] — a model as a layer pipeline, with flat-parameter
//!   get/set ([`Sequential::params_flat`] / [`Sequential::set_params_flat`])
//!   used as the `W` vectors of the paper's Eq. (1);
//! * [`SoftmaxCrossEntropy`] — the classification loss and its gradient;
//! * [`spec`] — a serde model description (the paper ships architecture as a
//!   269 KB `.json` file; ours plays the same role) plus builders for the
//!   three reference models: `mlp`, `small_cnn`, and `resnet_lite`.
//!
//! Every backward pass is validated against finite differences in the test
//! suite.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod norm;
pub mod pool;
mod preact;
pub mod residual;
pub mod spec;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::{Layer, ParamVisitor};
pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use norm::BatchNorm;
pub use pool::{AvgPoolGlobal, Flatten, MaxPool2};
pub use residual::Residual;
pub use spec::{LayerSpec, ModelSpec};

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking and the pooled-buffer check,
    //! shared by layer tests.
    use crate::layer::{append_grads, append_params, clear_grads, install_params, Layer};
    use vc_tensor::{Tensor, Workspace};

    /// Runs three training steps of `layer` on `x` through one workspace;
    /// the third must not miss the pool — every buffer the layer keeps or
    /// hands on is a pooled one it gives back.
    pub fn check_steady_state_pool(layer: &mut impl Layer, x: &Tensor) {
        let mut ws = Workspace::new();
        let mut misses = [0u64; 3];
        for m in &mut misses {
            let input = Tensor::from_vec(ws.take_copy(x.data()), x.dims());
            let y = layer.forward_ws(input, true, &mut ws);
            let dx = layer.backward_ws(y, &mut ws);
            ws.recycle(dx.into_vec());
            *m = ws.stats().1;
        }
        assert_eq!(misses[1], misses[2], "steady-state step allocated");
    }

    /// Checks d(sum of outputs)/d(inputs) of `layer` against central
    /// differences. Uses `train = true` so cached state matches backward.
    pub fn check_input_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let y = layer.forward(x, true);
        let dy = Tensor::ones(y.dims());
        let dx = layer.backward(&dy);
        let eps = 1e-2f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, true).sum();
            let fm = layer.forward(&xm, true).sum();
            let fd = (fp - fm) / (2.0 * eps);
            let an = dx.data()[i];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "input grad {i}: fd={fd} analytic={an}"
            );
        }
    }

    /// Checks d(sum of outputs)/d(params) against central differences.
    pub fn check_param_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let y = layer.forward(x, true);
        let dy = Tensor::ones(y.dims());
        clear_grads(layer);
        layer.backward(&dy);
        let mut grads = Vec::new();
        append_grads(layer, &mut grads);
        let mut params = Vec::new();
        append_params(layer, &mut params);
        let eps = 1e-2f32;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            install_params(layer, &pp);
            let fp = layer.forward(x, true).sum();
            let mut pm = params.clone();
            pm[i] -= eps;
            install_params(layer, &pm);
            let fm = layer.forward(x, true).sum();
            let fd = (fp - fm) / (2.0 * eps);
            let an = grads[i];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "param grad {i}: fd={fd} analytic={an}"
            );
        }
        install_params(layer, &params);
    }
}
