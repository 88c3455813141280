//! Pooling and reshaping layers.

use crate::layer::Layer;
use vc_tensor::{Shape, Tensor, Workspace};

/// 2×2 max pooling with stride 2 over `[batch, ch, h, w]`. Requires even
/// spatial extents (the reference models are built that way).
///
/// Training keeps, per output, which of its window's four inputs won — a
/// byte (`2·dy + dx`), not a flat index: the layer holds it for its whole
/// life, an eighth of the `usize` form (0.13 MB instead of 1.05 MB at
/// `resnet_lite`'s 16 ch × 32², batch 32). Backward rebuilds the flat
/// source index from the byte and the output's position.
pub struct MaxPool2 {
    /// Window offset of each maximum, `2·dy + dx`; reused across steps.
    argmax: Vec<u8>,
    in_shape: Option<Shape>,
}

/// The window's four taps `(row, column)` in the order the forward visits
/// them; a tap's position in this list is the offset `argmax` stores.
const WINDOW: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

impl MaxPool2 {
    /// Builds the pooling layer.
    pub fn new() -> Self {
        MaxPool2 {
            argmax: Vec::new(),
            in_shape: None,
        }
    }

    /// The pooling kernel: fills `out` and, when `arg` is given, the
    /// argmax window offsets (resized to match `out`). A later tap wins
    /// only if strictly greater, so ties go to the earliest.
    fn run(
        src: &[f32],
        b: usize,
        c: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        mut arg: Option<&mut Vec<u8>>,
    ) {
        let (oh, ow) = (h / 2, w / 2);
        if let Some(a) = arg.as_deref_mut() {
            a.clear();
            a.resize(out.len(), 0);
        }
        for bc in 0..b * c {
            let plane = &src[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_k = 0;
                    let mut best = plane[(2 * oy) * w + 2 * ox];
                    for (k, &(wy, wx)) in WINDOW.iter().enumerate().skip(1) {
                        let v = plane[(2 * oy + wy) * w + 2 * ox + wx];
                        if v > best {
                            best = v;
                            best_k = k;
                        }
                    }
                    let o = bc * oh * ow + oy * ow + ox;
                    out[o] = best;
                    if let Some(a) = arg.as_deref_mut() {
                        a[o] = best_k as u8;
                    }
                }
            }
        }
    }

    fn checked_dims(x: &Tensor) -> (usize, usize, usize, usize) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "MaxPool2 expects [batch, ch, h, w]");
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2 needs even h, w");
        (b, c, h, w)
    }

    /// Routes each output gradient to the input its window's maximum came
    /// from, `in_dims` being the forward's input `[b, c, h, w]`.
    fn scatter_backward(&self, dy: &Tensor, in_dims: &[usize], dx: &mut [f32]) {
        let (h, w) = (in_dims[2], in_dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        if ow == 0 {
            return;
        }
        let windows = dy.data().chunks_exact(ow).zip(self.argmax.chunks_exact(ow));
        for (row, (g_row, k_row)) in windows.enumerate() {
            // Output row `row` is row `oy` of plane `bc`.
            let (bc, oy) = (row / oh, row % oh);
            let base = bc * h * w + 2 * oy * w;
            for (ox, (g, &k)) in g_row.iter().zip(k_row).enumerate() {
                let (wy, wx) = WINDOW[k as usize];
                dx[base + wy * w + 2 * ox + wx] += g;
            }
        }
    }
}

impl Default for MaxPool2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for MaxPool2 {
    fn forward_ws(&mut self, _: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (b, c, h, w) = Self::checked_dims(&x);
        let (oh, ow) = (h / 2, w / 2);
        let mut out = ws.take(b * c * oh * ow);
        if train {
            Self::run(x.data(), b, c, h, w, &mut out, Some(&mut self.argmax));
            self.in_shape = Some(*x.shape());
        } else {
            Self::run(x.data(), b, c, h, w, &mut out, None);
        }
        ws.recycle(x.into_vec());
        Tensor::from_vec(out, &[b, c, oh, ow])
    }

    fn backward_ws(&mut self, _: &[f32], _: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        let in_shape = self
            .in_shape
            .expect("MaxPool2::backward called without a cached forward");
        let mut dx = ws.take(in_shape.numel()); // zero-filled by take
        self.scatter_backward(&dy, in_shape.dims(), &mut dx);
        ws.recycle(dy.into_vec());
        Tensor::from_vec(dx, in_shape.dims())
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 4);
        vec![in_dims[0], in_dims[1], in_dims[2] / 2, in_dims[3] / 2]
    }
}

/// Global average pooling: `[batch, ch, h, w] -> [batch, ch]`, the ResNetV2
/// head reduction.
pub struct AvgPoolGlobal {
    in_shape: Option<Shape>,
}

impl AvgPoolGlobal {
    /// Builds the pooling layer.
    pub fn new() -> Self {
        AvgPoolGlobal { in_shape: None }
    }

    fn mean_planes(x: &Tensor, out: &mut [f32]) {
        let dims = x.dims();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let area = (h * w) as f32;
        let src = x.data();
        for bc in 0..b * c {
            out[bc] = src[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() / area;
        }
    }

    fn spread_backward(dy: &Tensor, h: usize, w: usize, dx: &mut [f32]) {
        let area = (h * w) as f32;
        for (bc, &g) in dy.data().iter().enumerate() {
            let v = g / area;
            for p in &mut dx[bc * h * w..(bc + 1) * h * w] {
                *p = v;
            }
        }
    }
}

impl Default for AvgPoolGlobal {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for AvgPoolGlobal {
    fn forward_ws(&mut self, _: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "AvgPoolGlobal expects [batch, ch, h, w]");
        let (b, c) = (dims[0], dims[1]);
        let mut out = ws.take(b * c);
        Self::mean_planes(&x, &mut out);
        if train {
            self.in_shape = Some(*x.shape());
        }
        ws.recycle(x.into_vec());
        Tensor::from_vec(out, &[b, c])
    }

    fn backward_ws(&mut self, _: &[f32], _: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        let in_shape = self
            .in_shape
            .expect("AvgPoolGlobal::backward called without a cached forward");
        let mut dx = ws.take(in_shape.numel());
        {
            let dims = in_shape.dims();
            Self::spread_backward(&dy, dims[2], dims[3], &mut dx);
        }
        ws.recycle(dy.into_vec());
        Tensor::from_vec(dx, in_shape.dims())
    }

    fn name(&self) -> &'static str {
        "avgpool_global"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 4);
        vec![in_dims[0], in_dims[1]]
    }
}

/// Flattens `[batch, ...]` to `[batch, prod(...)]`.
pub struct Flatten {
    in_shape: Option<Shape>,
}

impl Flatten {
    /// Builds the reshaping layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward_ws(&mut self, _: &mut [f32], x: Tensor, train: bool, _: &mut Workspace) -> Tensor {
        let dims = x.dims();
        assert!(dims.len() >= 2, "Flatten expects a batch axis");
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        if train {
            self.in_shape = Some(*x.shape());
        }
        // Reshape of an owned tensor moves the buffer: no copy, no alloc.
        x.reshape(&[batch, rest])
    }

    fn backward_ws(&mut self, _: &[f32], _: &mut [f32], dy: Tensor, _: &mut Workspace) -> Tensor {
        let in_shape = self
            .in_shape
            .expect("Flatten::backward called without a cached forward");
        dy.reshape(in_shape.dims())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[0], in_dims[1..].iter().product()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::ones;
    use crate::gradcheck::{self, Paramless};
    use crate::model::Sequential;
    use vc_tensor::NormalSampler;

    #[test]
    fn maxpool_picks_window_max() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, -1.0, 0.0, 0.5,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        p.forward(&x, true);
        let dx = p.backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn maxpool_routes_like_a_flat_index_with_ties_to_the_first_tap() {
        // The oracle is the flat-index form the byte offsets replaced:
        // visit the taps in order, keep the first strictly greater one.
        // Values on a coarse grid make most windows tie somewhere.
        let (b, c, h, w) = (2, 3, 6, 8);
        let mut s = NormalSampler::seed_from(4);
        let x: Vec<f32> = (0..b * c * h * w)
            .map(|_| (s.sample() * 1.5).round())
            .collect();
        let g: Vec<f32> = (0..b * c * h * w / 4).map(|_| s.sample()).collect();
        let mut want = vec![0.0f32; x.len()];
        let mut want_y = Vec::new();
        for bc in 0..b * c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    let at = |dy: usize, dx: usize| bc * h * w + (2 * oy + dy) * w + 2 * ox + dx;
                    let mut best = at(0, 0);
                    for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                        if x[at(dy, dx)] > x[best] {
                            best = at(dy, dx);
                        }
                    }
                    want_y.push(x[best]);
                    want[best] += g[want_y.len() - 1];
                }
            }
        }
        let mut p = MaxPool2::new();
        let y = p.forward(&Tensor::from_vec(x, &[b, c, h, w]), true);
        assert_eq!(y.data(), want_y.as_slice());
        let dx = p.backward(&Tensor::from_vec(g, &[b, c, h / 2, w / 2]));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(dx.data()), bits(&want));
        assert!(p.argmax.iter().all(|&k| k < 4));
    }

    #[test]
    fn maxpool_gradcheck() {
        let p = MaxPool2::new();
        let mut s = NormalSampler::seed_from(2);
        // distinct values keep argmax stable under the probe epsilon
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 10.0, &mut s);
        gradcheck::check_input_grad(&mut Sequential::new().push(p), &x, 1e-2);
    }

    #[test]
    fn avgpool_means_planes() {
        let mut p = AvgPoolGlobal::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        let p = AvgPoolGlobal::new();
        let mut s = NormalSampler::seed_from(3);
        let x = Tensor::randn(&[2, 3, 2, 2], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut Sequential::new().push(p), &x, 1e-2);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = ones(&[2, 3, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let dx = f.backward(&y);
        assert_eq!(dx.dims(), &[2, 3, 4]);
    }

    #[test]
    fn out_dims_agree_with_forward() {
        let mut p = MaxPool2::new();
        let x = Tensor::zeros(&[2, 5, 8, 6]);
        assert_eq!(
            p.forward(&x, false).dims(),
            p.out_dims(&[2, 5, 8, 6]).as_slice()
        );
        let mut a = AvgPoolGlobal::new();
        assert_eq!(
            a.forward(&x, false).dims(),
            a.out_dims(&[2, 5, 8, 6]).as_slice()
        );
        let mut f = Flatten::new();
        assert_eq!(
            f.forward(&x, false).dims(),
            f.out_dims(&[2, 5, 8, 6]).as_slice()
        );
    }
}
