//! The [`Layer`] trait: the contract every network component implements.
//!
//! A layer names its parameter tensors once, in wire order
//! ([`Layer::visit_params`]); the count, flatten, load, gradient gather and
//! gradient clear below derive from that one traversal. It names its part
//! in [`Sequential::fuse_relu`] once, as one [`FusionPart`].

use crate::activation::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
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
/// [`visit_params`](Layer::visit_params) names, and no layer keeps other
/// state between passes (training caches are replaced by every forward).
/// A replica kept across workunits is therefore a fresh build as soon as
/// its parameters are loaded; there is no reset step to implement or to
/// forget.
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
    /// for it ([`Dense`], [`Conv2d`]) skips that.
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

    /// What this layer is to [`Sequential::fuse_relu`]'s peepholes: a
    /// ReLU, a layer whose output epilogue can rectify, a member of a
    /// pre-activation unit, a container to recurse into, or (the default)
    /// nothing. Internal to this crate's traversal — what it hands out is
    /// only usable through `pub(crate)` items.
    #[doc(hidden)]
    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Other
    }

    /// Hands `f` each parameter tensor of this layer, in the order the
    /// model's flat vector carries them, together with its gradient. This
    /// is the one statement of the layer's parameter layout: the count,
    /// the flat vector, loading one, the gradient gather and the gradient
    /// clear (`param_len` and its neighbours in this module) are derived
    /// from it. A buffer that travels with the weights but is not trained
    /// (BatchNorm running statistics — the paper ships the complete `.h5`
    /// state, so do we) comes with no gradient. A gradient a layer sizes
    /// on its first backward (a [`Dense`] replica that only scores never
    /// holds one) may still be empty.
    fn visit_params(&mut self, _f: &mut ParamVisitor<'_>) {}

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
    /// A ReLU, which an epilogue-capable layer before it may absorb.
    Relu(&'a mut Relu),
    /// A dense layer, whose GEMM epilogue can apply a following ReLU.
    Dense(&'a mut Dense),
    /// The normalization heading a pre-activation unit.
    Norm(&'a mut BatchNorm),
    /// A convolution, which may close a pre-activation unit and whose
    /// epilogue can apply a following ReLU.
    Conv(&'a mut Conv2d),
    /// A nested pipeline with fusing of its own to do.
    Body(&'a mut Sequential),
}

/// A boxed layer, as stored by [`crate::Sequential`].
pub type BoxedLayer = Box<dyn Layer>;

/// The callback of [`Layer::visit_params`]: a parameter tensor and its
/// gradient, `None` for a buffer that is not trained.
pub type ParamVisitor<'a> = dyn FnMut(&mut Tensor, Option<&mut Tensor>) + 'a;

/// Number of scalar parameters `layer` carries, buffers included.
pub(crate) fn param_len(layer: &mut dyn Layer) -> usize {
    let mut n = 0;
    layer.visit_params(&mut |p, _| n += p.numel());
    n
}

/// Appends `layer`'s parameters to `out`.
pub(crate) fn append_params(layer: &mut dyn Layer, out: &mut Vec<f32>) {
    layer.visit_params(&mut |p, _| out.extend_from_slice(p.data()));
}

/// Overwrites `layer`'s parameters from the front of `src`. Touches no
/// gradient, so a scoring replica sizes none.
pub(crate) fn install_params(layer: &mut dyn Layer, mut src: &[f32]) {
    layer.visit_params(&mut |p, _| {
        let (head, rest) = src.split_at(p.numel());
        p.data_mut().copy_from_slice(head);
        src = rest;
    });
}

/// Appends `layer`'s gradients to `out`, aligned with
/// [`append_params`]: zeros for a buffer or a gradient not sized yet.
pub(crate) fn append_grads(layer: &mut dyn Layer, out: &mut Vec<f32>) {
    layer.visit_params(&mut |p, g| match g {
        Some(g) if g.numel() == p.numel() => out.extend_from_slice(g.data()),
        _ => out.resize(out.len() + p.numel(), 0.0),
    });
}

/// Clears every accumulated gradient of `layer`.
pub(crate) fn clear_grads(layer: &mut dyn Layer) {
    layer.visit_params(&mut |_, g| {
        if let Some(g) = g {
            g.data_mut().fill(0.0);
        }
    });
}

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
        assert_eq!(param_len(&mut l), 0);
        let mut v = Vec::new();
        append_params(&mut l, &mut v);
        append_grads(&mut l, &mut v);
        assert!(v.is_empty());
        install_params(&mut l, &[]);
        clear_grads(&mut l);
        assert!(matches!(l.fusion_part(), FusionPart::Other));
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
    }
}
