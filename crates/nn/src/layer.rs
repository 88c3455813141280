//! The [`Layer`] trait: the contract every network component implements.

use crate::conv::Conv2d;
use crate::model::Sequential;
use crate::norm::BatchNorm;
use vc_tensor::{Tensor, Workspace};

/// A differentiable network component.
///
/// Layers own their parameters *and* their gradients: `backward` accumulates
/// into layer-local gradient buffers, the trainer clips and steps them in
/// place through [`visit_params`](Layer::visit_params), and the model
/// gathers the parameters into the flat vector the distributed schemes
/// exchange.
///
/// `Send` is required so entire models can be moved into rayon tasks — the
/// simulated volunteer fleet trains one independent model replica per
/// subtask, in parallel.
///
/// A constructor draws from the build's sampler only to initialise what
/// `collect_params` / `load_params` carry, and no layer keeps other state
/// between passes (training caches are replaced by every forward). A replica
/// kept across workunits is therefore a fresh build as soon as its
/// parameters are loaded; there is no reset step to implement or to forget.
///
/// ## One pipeline
///
/// [`forward_ws`](Layer::forward_ws) / [`backward_ws`](Layer::backward_ws)
/// are the contract: tensors move *by value* through the layer chain, each
/// layer works in place on the buffer it was handed or draws its output
/// from the replica's [`Workspace`], and recycles the buffers it consumed.
/// Training, evaluation and the tests all run through these two methods, so
/// every driver computes the same bits by construction.
///
/// A [`Sequential`] may run several consecutive layers as one step of that
/// pipeline when the result is bit-identical and a pass over the
/// activation is saved: a ReLU folds into the GEMM epilogue before it, and
/// a `BatchNorm → Relu → Conv2d(3×3, stride 1)` pre-activation unit runs
/// as one stats pass plus the convolution's own staging pass, caching only
/// the unit's input ([`crate::preact`]). Both ride
/// [`Sequential::fuse_relu`]; a layer called on its own is always the
/// plain layer, which is what the fused steps are tested against.
///
/// [`forward`](Layer::forward) / [`backward`](Layer::backward) are borrowing
/// conveniences for tests and one-off calls: they clone the argument and
/// run the by-value method against a throwaway workspace. No layer
/// overrides them. (The `_ws` suffix dates from when a second, borrowing
/// implementation existed beside this one; DESIGN.md §8b says why the
/// names stay.)
pub trait Layer: Send {
    /// Computes the layer output, consuming the input: its storage becomes
    /// the output, a training cache, or goes back to `ws`. When `train` is
    /// true the layer may cache activations for `backward_ws` and use batch
    /// statistics (BatchNorm); when false it must be a pure function of its
    /// parameters.
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor;

    /// Propagates the output gradient `dy` to an input gradient, consuming
    /// `dy`, and accumulates parameter gradients into layer-local buffers.
    /// Must be called after a `forward_ws(.., true, ..)` on the same input.
    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor;

    /// [`backward_ws`](Layer::backward_ws) for a layer whose input gradient
    /// nobody reads — the first parameterised layer of a model being
    /// trained: parameter gradients accumulate exactly as there, `dy` is
    /// consumed, nothing is returned. The default computes the input
    /// gradient and recycles it; a layer that pays a kernel of its own
    /// for it ([`Dense`](crate::dense::Dense), [`Conv2d`]) skips that.
    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        let dx = self.backward_ws(dy, ws);
        ws.recycle(dx.into_vec());
    }

    /// Borrowing wrapper over [`forward_ws`](Layer::forward_ws).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_ws(x.clone(), train, &mut Workspace::new())
    }

    /// Borrowing wrapper over [`backward_ws`](Layer::backward_ws).
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_ws(dy.clone(), &mut Workspace::new())
    }

    /// Asks the layer to fuse a ReLU into its output epilogue (the
    /// bias+activation epilogue of the blocked GEMM). Returns `true` when
    /// the layer supports it and has switched it on; the following ReLU
    /// layer must then be told via [`set_fused_upstream`]
    /// (Layer::set_fused_upstream). Default: unsupported.
    fn enable_relu_fusion(&mut self) -> bool {
        false
    }

    /// True for ReLU layers — the fusion peephole's target. Fusing is
    /// bit-exact: `relu(x) > 0 ⇔ x > 0`, so the downstream mask and values
    /// are unchanged.
    fn is_relu(&self) -> bool {
        false
    }

    /// Informs a ReLU layer that its upstream neighbour already applies the
    /// rectification, so its forward becomes a mask-only pass-through.
    fn set_fused_upstream(&mut self) {}

    /// What this layer is to [`Sequential::fuse_relu`]'s peepholes: a
    /// member of a pre-activation unit, a container to recurse into, or
    /// (the default) nothing. Internal to this crate's traversal — what it
    /// hands out is only usable through `pub(crate)` methods.
    #[doc(hidden)]
    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Other
    }

    /// Number of scalar parameters this layer owns (including buffers that
    /// must travel with the weights, e.g. BatchNorm running statistics —
    /// the paper ships the complete `.h5` state, so do we).
    fn param_len(&self) -> usize {
        0
    }

    /// Appends this layer's parameters to `out` in a fixed order.
    fn collect_params(&self, _out: &mut Vec<f32>) {}

    /// Reads `param_len()` values from the front of `src`, returning the
    /// number consumed. Order must mirror `collect_params`.
    fn load_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    /// Hands `f` each trainable parameter slice together with its gradient
    /// slice, in `collect_params` order. `offset` is where this layer starts
    /// in the model's flat vector; every call carries its slice's own
    /// offset. A buffer that travels with the weights but is not trained
    /// (BatchNorm running statistics) is visited with an *empty* gradient
    /// slice: norms and scalings pass over it, optimizers skip it.
    fn visit_params(&mut self, _offset: usize, _f: &mut ParamVisitor<'_>) {}

    /// Appends this layer's parameter gradients to `out`; same order and
    /// length as `collect_params` (buffers contribute zeros).
    fn collect_grads(&mut self, out: &mut Vec<f32>) {
        let base = out.len();
        out.resize(base + self.param_len(), 0.0);
        self.visit_params(base, &mut |off, _, g| {
            out[off..off + g.len()].copy_from_slice(g)
        });
    }

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Human-readable layer kind, for summaries and error messages.
    fn name(&self) -> &'static str;

    /// Output shape for a given input shape, used by the model builder to
    /// validate specs before allocating parameters.
    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize>;
}

/// A layer as seen by the fusion peepholes (see [`Layer::fusion_part`]).
/// Internal: public only because the trait method that returns it is.
#[doc(hidden)]
pub enum FusionPart<'a> {
    /// Takes no part.
    Other,
    /// The normalization heading a pre-activation unit.
    Norm(&'a mut BatchNorm),
    /// A convolution, which may close a pre-activation unit.
    Conv(&'a mut Conv2d),
    /// A nested pipeline with fusing of its own to do.
    Body(&'a mut Sequential),
}

/// A boxed layer, as stored by [`crate::Sequential`].
pub type BoxedLayer = Box<dyn Layer>;

/// The callback of [`Layer::visit_params`]: `(offset, params, grads)`.
pub type ParamVisitor<'a> = dyn FnMut(usize, &mut [f32], &mut [f32]) + 'a;

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing layer to exercise trait defaults.
    struct Identity;
    impl Layer for Identity {
        fn forward_ws(&mut self, x: Tensor, _train: bool, _ws: &mut Workspace) -> Tensor {
            x
        }
        fn backward_ws(&mut self, dy: Tensor, _ws: &mut Workspace) -> Tensor {
            dy
        }
        fn name(&self) -> &'static str {
            "identity"
        }
        fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
            in_dims.to_vec()
        }
    }

    #[test]
    fn defaults_are_paramless() {
        let mut l = Identity;
        assert_eq!(l.param_len(), 0);
        let mut v = Vec::new();
        l.collect_params(&mut v);
        l.collect_grads(&mut v);
        assert!(v.is_empty());
        assert_eq!(l.load_params(&[1.0, 2.0]), 0);
        l.zero_grads();
    }

    #[test]
    fn boxed_layer_is_usable() {
        let mut l: BoxedLayer = Box::new(Identity);
        let x = Tensor::ones(&[2, 2]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), x.data());
        assert_eq!(l.name(), "identity");
    }

    #[test]
    fn borrowing_wrappers_leave_the_argument_intact() {
        let mut l = Identity;
        let x = Tensor::ones(&[2, 3]);
        let y = l.forward(&x, true);
        let dx = l.backward(&y);
        assert_eq!(x.data(), &[1.0; 6]);
        assert_eq!(dx.dims(), &[2, 3]);
        assert!(!l.enable_relu_fusion());
        assert!(!l.is_relu());
    }
}
