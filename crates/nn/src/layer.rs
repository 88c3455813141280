//! The [`Layer`] trait: the contract every network component implements.
//!
//! A layer holds no parameter storage. The [`Sequential`] it joins owns one
//! parameter vector, in the wire order VC-ASGD ships, and one gradient
//! vector with the same offsets; a layer states how many floats of them are
//! its own ([`Layer::arena_len`], fixed at construction) and is handed its
//! slices (`p`, `g` below) on every pass. It names its part in
//! [`Sequential::fuse_relu`] once, as one [`FusionPart`], which is also how
//! the model finds the BatchNorm running statistics among its parameters.

use crate::activation::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::model::Sequential;
use crate::norm::BatchNorm;
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A differentiable network component.
///
/// `Send` is required so entire models can be moved into rayon tasks — the
/// simulated volunteer fleet trains one independent model replica per
/// subtask, in parallel.
///
/// No layer keeps state between passes but its parameters (training caches
/// are replaced by every forward). A replica kept across workunits is
/// therefore a fresh build as soon as its parameter vector is loaded; there
/// is no reset step to implement or to forget.
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
/// plain layer, which is what the fused steps are tested against. (The
/// `_ws` suffix dates from when a second, borrowing implementation existed
/// beside this one; DESIGN.md §8b says why the names stay.)
pub trait Layer: Send {
    /// Computes the layer output from its parameters `p`, consuming the
    /// input: its storage becomes the output, a training cache, or goes
    /// back to `ws`. When `train` is true the layer may cache activations
    /// for `backward_ws` and use batch statistics (BatchNorm, which then
    /// folds them into the running ones in `p`); when false it must be a
    /// pure function of `p`.
    fn forward_ws(&mut self, p: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor;

    /// Propagates the output gradient `dy` to an input gradient, consuming
    /// `dy`, and accumulates parameter gradients into `g` (laid out as
    /// `p`). Must be called after a `forward_ws(.., true, ..)` on the same
    /// input.
    fn backward_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor;

    /// [`backward_ws`](Layer::backward_ws) for a layer whose input gradient
    /// nobody reads — the first parameterised layer of a model being
    /// trained: parameter gradients accumulate exactly as there, `dy` is
    /// consumed, nothing is returned. The default computes the input
    /// gradient and recycles it; a layer that pays a kernel of its own
    /// for it ([`Dense`], [`Conv2d`]) skips that.
    fn backward_params_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) {
        let dx = self.backward_ws(p, g, dy, ws);
        ws.recycle(dx.into_vec());
    }

    /// What this layer is to [`Sequential::fuse_relu`]'s peepholes and to
    /// the model's buffer list: a ReLU, a layer whose output epilogue can
    /// rectify, a normalization, a container to recurse into, or (the
    /// default) nothing. Internal to this crate.
    #[doc(hidden)]
    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Other
    }

    /// Floats of its model's parameter vector this layer owns, buffers
    /// included: the length of the `p` it is handed.
    fn arena_len(&self) -> usize {
        0
    }

    /// Writes the layer's starting parameters into `p`, its zero-filled
    /// slice: the values its constructor drew, handed over once (the layer
    /// keeps none), or else He-normal weights drawn from `sampler` (zeros
    /// without one) and BatchNorm's unit scale and variance.
    fn init_params(&mut self, _: &mut [f32], _: Option<&mut NormalSampler>) {}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::ones;

    /// A do-nothing layer to exercise trait defaults.
    struct Identity;
    impl Layer for Identity {
        fn forward_ws(&mut self, _: &mut [f32], x: Tensor, _: bool, _: &mut Workspace) -> Tensor {
            x
        }
        fn backward_ws(
            &mut self,
            _: &[f32],
            _: &mut [f32],
            dy: Tensor,
            _: &mut Workspace,
        ) -> Tensor {
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
        assert_eq!(l.arena_len(), 0);
        l.init_params(&mut [], Some(&mut NormalSampler::seed_from(1)));
        assert!(matches!(l.fusion_part(), FusionPart::Other));
        let mut m = Sequential::new().push(Identity);
        assert_eq!(m.param_count(), 0);
        assert!(m.arena().2.is_empty());
    }

    #[test]
    fn boxed_layer_is_usable() {
        let mut l: BoxedLayer = Box::new(Identity);
        let x = ones(&[2, 2]);
        let y = l.forward_ws(&mut [], x.clone(), false, &mut Workspace::new());
        assert_eq!(y.data(), x.data());
        assert_eq!(l.name(), "identity");
    }

    #[test]
    fn borrowing_wrappers_leave_the_argument_intact() {
        let mut m = Sequential::new().push(Identity);
        let x = ones(&[2, 3]);
        let y = m.forward(&x, true);
        let dx = m.backward(&y);
        assert_eq!(x.data(), &[1.0; 6]);
        assert_eq!(dx.dims(), &[2, 3]);
    }
}
