//! What the frozen `benchmark/src/probes.rs` compiles against and no
//! driver calls, with the probe lines that keep each item alive:
//!
//! * `conv_direct::conv3x3_forward_into` — `probes.rs:240`;
//! * `conv_direct::conv3x3_backward_dk_into` — `probes.rs:259`.
//!
//! Both are the `*_pre_into` kernels with no prologue, which is what every
//! in-tree caller calls; `conv_direct` re-exports them under their old
//! paths.

use crate::conv_direct::{conv3x3_backward_dk_pre_into, conv3x3_forward_pre_into};
use crate::ops::{ConvGeom, Epilogue};
use crate::tensor::Tensor;

/// [`conv3x3_forward_pre_into`] with no prologue.
pub fn conv3x3_forward_into(
    input: &Tensor,
    kernel: &Tensor,
    geom: ConvGeom,
    out: &mut [f32],
    epi: Epilogue<'_>,
    scratch: &mut [f32],
) {
    conv3x3_forward_pre_into(input, None, kernel, geom, out, epi, scratch);
}

/// [`conv3x3_backward_dk_pre_into`] with no prologue.
pub fn conv3x3_backward_dk_into(
    dy: &Tensor,
    input: &Tensor,
    geom: ConvGeom,
    dkernel: &mut [f32],
    scratch: &mut [f32],
) {
    conv3x3_backward_dk_pre_into(dy, input, None, geom, dkernel, scratch);
}
