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
//!   [`Workspace`](vc_tensor::Workspace). A layer holds no parameter or
//!   gradient storage: it states its length in the model's parameter
//!   vector once ([`Layer::arena_len`]) and is handed its slices of the
//!   model's two vectors on every pass. It names its part in the fusion
//!   peepholes once, as one `fusion_part` role;
//! * concrete layers: [`Dense`], [`Conv2d`], [`MaxPool2`], [`AvgPoolGlobal`],
//!   [`Relu`], [`BatchNorm`], [`Flatten`], [`Residual`] blocks;
//! * [`Sequential`] — a model as a layer pipeline owning one flat parameter
//!   vector (the `W` of the paper's Eq. (1), in wire order), one gradient
//!   vector with the same offsets, and its list of buffer ranges;
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
pub use layer::Layer;
pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use norm::BatchNorm;
pub use pool::{AvgPoolGlobal, Flatten, MaxPool2};
pub use residual::Residual;
pub use spec::{LayerSpec, ModelSpec};

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking and the pooled-buffer check,
    //! shared by layer tests, which run a layer as a one-layer model.
    use crate::layer::Layer;
    use crate::model::Sequential;
    use vc_tensor::{Tensor, Workspace};

    /// Borrowing forward/backward on a bare layer with no parameters.
    pub trait Paramless: Layer {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            self.forward_ws(&mut [], x.clone(), train, &mut Workspace::new())
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            self.backward_ws(&[], &mut [], dy.clone(), &mut Workspace::new())
        }
    }
    impl<L: Layer> Paramless for L {}

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Tensor {
        Tensor::from_vec(vec![1.0; dims.iter().product()], dims)
    }

    /// The sum of a tensor's elements.
    pub fn sum(t: &Tensor) -> f32 {
        t.data().iter().sum()
    }

    /// Runs three training steps of `model` on `x` through one workspace;
    /// the third must not miss the pool — every buffer a layer keeps or
    /// hands on is a pooled one it gives back.
    pub fn check_steady_state_pool(model: &mut Sequential, x: &Tensor) {
        let mut ws = Workspace::new();
        let mut misses = [0u64; 3];
        for m in &mut misses {
            let input = Tensor::from_vec(ws.take_copy(x.data()), x.dims());
            let y = model.forward_pipeline(input, true, &mut ws);
            let dx = model.backward_pipeline_ws(y, &mut ws);
            ws.recycle(dx.into_vec());
            *m = ws.stats().1;
        }
        assert_eq!(misses[1], misses[2], "steady-state step allocated");
    }

    /// Checks d(sum of outputs)/d(inputs) of `model` against central
    /// differences. Uses `train = true` so cached state matches backward.
    pub fn check_input_grad(model: &mut Sequential, x: &Tensor, tol: f32) {
        let y = model.forward(x, true);
        let dy = ones(y.dims());
        let dx = model.backward(&dy);
        let eps = 1e-2f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = sum(&model.forward(&xp, true));
            let fm = sum(&model.forward(&xm, true));
            let fd = (fp - fm) / (2.0 * eps);
            let an = dx.data()[i];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "input grad {i}: fd={fd} analytic={an}"
            );
        }
    }

    /// Checks d(sum of outputs)/d(params) against central differences.
    pub fn check_param_grad(model: &mut Sequential, x: &Tensor, tol: f32) {
        let y = model.forward(x, true);
        let dy = ones(y.dims());
        model.zero_grads_all();
        model.backward(&dy);
        let grads = model.grads().to_vec();
        let params = model.params_flat();
        let eps = 1e-2f32;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            model.set_params_flat(&pp);
            let fp = sum(&model.forward(x, true));
            let mut pm = params.clone();
            pm[i] -= eps;
            model.set_params_flat(&pm);
            let fm = sum(&model.forward(x, true));
            let fd = (fp - fm) / (2.0 * eps);
            let an = grads[i];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "param grad {i}: fd={fd} analytic={an}"
            );
        }
        model.set_params_flat(&params);
    }
}
