//! What the frozen `benchmark/src/probes.rs` compiles against and no
//! driver calls, with the probe lines that keep each item alive:
//!
//! * `conv_direct::conv3x3_forward_into` — `probes.rs:240`;
//! * `conv_direct::conv3x3_backward_dx_into` — `probes.rs:253`;
//! * `conv_direct::conv3x3_backward_dk_into` — `probes.rs:259`.
//!
//! Each is an in-tree kernel with no prologue, taking a `[out_ch, ch·9]`
//! kernel tensor where that takes a slice of a model's parameter vector;
//! `conv_direct` re-exports them under their old paths.

use crate::conv_direct::{conv3x3_backward_dk_pre_into, conv3x3_dx_into, conv3x3_forward_pre_into};
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
    assert_eq!(kernel.dims()[1], input.dims()[1] * 9, "kernel patch width");
    conv3x3_forward_pre_into(input, None, kernel.data(), geom, out, epi, scratch);
}

/// [`conv3x3_dx_into`].
pub fn conv3x3_backward_dx_into(
    dy: &Tensor,
    kernel: &Tensor,
    ch: usize,
    geom: ConvGeom,
    dx: &mut [f32],
    scratch: &mut [f32],
) {
    assert_eq!(kernel.dims(), &[dy.dims()[1], ch * 9], "kernel dims");
    conv3x3_dx_into(dy, kernel.data(), ch, geom, dx, scratch);
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
