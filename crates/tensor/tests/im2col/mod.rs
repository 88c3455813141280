//! The im2col lowering: the test oracle every convolution route is held
//! to, bitwise.
//!
//! `im2col` writes each output pixel's receptive field as one row of a
//! `[batch·oh·ow, ch·kh·kw]` matrix, so a convolution becomes one GEMM
//! against the `[out_ch, ch·kh·kw]` kernel; `col2im` is its adjoint,
//! scattering a column matrix back onto the image with overlaps summed.
//! Neither runs in the program: `vc_tensor::conv_direct` computes the 3×3
//! chains straight from the image and `vc_tensor::ops::conv1x1_*` the 1×1
//! ones on the image layout. Both are serial here — an oracle has no use
//! for the pool.

use vc_tensor::ops::{matmul_a_bt, ConvGeom};
use vc_tensor::{NormalSampler, Tensor};

/// Lowers an input image batch `[batch, ch, h, w]` to a matrix
/// `[batch * out_h * out_w, ch * kh * kw]` so convolution becomes a matmul
/// against the reshaped kernel.
pub fn im2col(input: &Tensor, ch: usize, geom: ConvGeom) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    let rows = input.dims()[0] * oh * ow;
    let mut out = vec![0.0f32; rows * patch];
    im2col_into(input, ch, geom, &mut out);
    Tensor::from_vec(out, &[rows, patch])
}

/// [`im2col`] into a caller-provided buffer of length
/// `batch * out_h * out_w * ch * kh * kw`.
pub fn im2col_into(input: &Tensor, ch: usize, geom: ConvGeom, out: &mut [f32]) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects [batch, ch, h, w]");
    let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, ch);
    assert_eq!(h, geom.h);
    assert_eq!(w, geom.w);
    geom.validate().expect("invalid conv geometry");

    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    assert_eq!(
        out.len(),
        batch * oh * ow * patch,
        "im2col output buffer length"
    );
    let data = input.data();
    for (row_idx, dst) in out.chunks_mut(patch).enumerate() {
        let b = row_idx / (oh * ow);
        let rest = row_idx % (oh * ow);
        let (oy, ox) = (rest / ow, rest % ow);
        let iy0 = (oy * geom.stride) as isize - geom.pad as isize;
        let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
        let mut k = 0;
        for c in 0..ch {
            let plane = &data[(b * ch + c) * h * w..(b * ch + c + 1) * h * w];
            for ky in 0..geom.kh {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kw {
                    let ix = ix0 + kx as isize;
                    dst[k] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        plane[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    };
                    k += 1;
                }
            }
        }
    }
}

/// The adjoint of [`im2col`]: scatters a column matrix back onto an image
/// batch of shape `[batch, ch, h, w]`, summing overlapping contributions.
pub fn col2im(cols: &Tensor, batch: usize, ch: usize, geom: ConvGeom) -> Tensor {
    let mut out = vec![0.0f32; batch * ch * geom.h * geom.w];
    col2im_into(cols, batch, ch, geom, &mut out);
    Tensor::from_vec(out, &[batch, ch, geom.h, geom.w])
}

/// [`col2im`] into a caller-provided buffer; the buffer is overwritten (the
/// scatter-sum starts from zero).
pub fn col2im_into(cols: &Tensor, batch: usize, ch: usize, geom: ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = ch * geom.kh * geom.kw;
    assert_eq!(cols.dims(), &[batch * oh * ow, patch], "col2im shape");
    let (h, w) = (geom.h, geom.w);
    assert_eq!(out.len(), batch * ch * h * w, "col2im output buffer length");
    out.fill(0.0);
    let data = cols.data();
    for (b, img) in out.chunks_mut(ch * h * w).enumerate() {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (b * oh + oy) * ow + ox;
                let src = &data[row * patch..(row + 1) * patch];
                let iy0 = (oy * geom.stride) as isize - geom.pad as isize;
                let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
                let mut k = 0;
                for c in 0..ch {
                    for ky in 0..geom.kh {
                        let iy = iy0 + ky as isize;
                        for kx in 0..geom.kw {
                            let ix = ix0 + kx as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                img[(c * h + iy as usize) * w + ix as usize] += src[k];
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
    }
}

fn randt(dims: &[usize], seed: u64) -> Tensor {
    let mut s = NormalSampler::seed_from(seed);
    Tensor::randn(dims, 0.0, 1.0, &mut s)
}

fn geom(h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> ConvGeom {
    ConvGeom {
        h,
        w,
        kh,
        kw,
        stride,
        pad,
    }
}

/// Element of `t` at a row-major multi-index.
fn at(t: &Tensor, index: &[usize]) -> f32 {
    let offset = index
        .iter()
        .zip(t.dims())
        .fold(0, |off, (i, d)| off * d + i);
    t.data()[offset]
}

#[test]
fn im2col_identity_kernel_1x1() {
    // A 1x1 kernel with stride 1 and no padding is a pure reshuffle.
    let input = randt(&[2, 3, 4, 4], 8);
    let cols = im2col(&input, 3, geom(4, 4, 1, 1, 1, 0));
    assert_eq!(cols.dims(), &[2 * 16, 3]);
    // Element [b, c, y, x] must appear at cols[(b*16 + y*4 + x), c].
    assert_eq!(at(&cols, &[0, 0]), at(&input, &[0, 0, 0, 0]));
    assert_eq!(at(&cols, &[5, 2]), at(&input, &[0, 2, 1, 1]));
    assert_eq!(at(&cols, &[16 + 3, 1]), at(&input, &[1, 1, 0, 3]));
}

#[test]
fn im2col_padding_zeroes_border() {
    let input = Tensor::from_vec(vec![1.0; 4], &[1, 1, 2, 2]);
    let cols = im2col(&input, 1, geom(2, 2, 3, 3, 1, 1));
    assert_eq!(cols.dims(), &[4, 9]);
    // Top-left output position: only the bottom-right 2x2 of the kernel
    // overlaps real pixels.
    let row0: Vec<f32> = cols.data()[0..9].to_vec();
    assert_eq!(row0, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
}

#[test]
fn col2im_is_adjoint_of_im2col() {
    // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y: the defining
    // property of an adjoint pair, which is exactly what backprop needs.
    let g = geom(5, 4, 3, 2, 1, 1);
    let x = randt(&[2, 3, 5, 4], 9);
    let cols_shape = [2 * g.out_h() * g.out_w(), 3 * g.kh * g.kw];
    let y = randt(&cols_shape, 10);
    let lhs: f32 = im2col(&x, 3, g)
        .data()
        .iter()
        .zip(y.data())
        .map(|(a, b)| a * b)
        .sum();
    let rhs: f32 = x
        .data()
        .iter()
        .zip(col2im(&y, 2, 3, g).data())
        .map(|(a, b)| a * b)
        .sum();
    assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
}

#[test]
fn col2im_into_overwrites_stale_contents() {
    let g = geom(3, 3, 2, 2, 1, 0);
    let cols = randt(&[4, 4], 18);
    let fresh = col2im(&cols, 1, 1, g);
    let mut buf = vec![99.0f32; 9];
    col2im_into(&cols, 1, 1, g, &mut buf);
    assert_eq!(buf, fresh.data());
}

#[test]
fn conv_via_im2col_matches_direct() {
    // Convolve a single 3x3 input with a single 2x2 kernel by hand and
    // via the im2col-matmul lowering.
    let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
    let kernel = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 4]); // [out_ch, ch*kh*kw]
    let cols = im2col(&input, 1, geom(3, 3, 2, 2, 1, 0));
    let out = matmul_a_bt(&cols, &kernel); // [4, 1]
                                           // By hand: out[y][x] = in[y][x] - in[y+1][x+1].
    let expect = [1.0 - 5.0, 2.0 - 6.0, 4.0 - 8.0, 5.0 - 9.0];
    for (o, e) in out.data().iter().zip(expect) {
        assert!((o - e).abs() < 1e-6);
    }
}
