//! Fully-connected layer.

use crate::layer::{FusionPart, Layer};
use vc_tensor::ops::{matmul_a_bt_epi_into, matmul_at_b_epi_into, matmul_epi_into, Epilogue};
use vc_tensor::tensor::he_normal_into;
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A dense (fully-connected) layer: `y = x · W + b`, `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`. Its slice of the parameter vector is `W`
/// row-major, then `b`.
pub struct Dense {
    /// The parameters [`Dense::new`] drew, until the layer joins a model.
    drawn: Vec<f32>,
    x_cache: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
    /// When set (by [`Sequential::fuse_relu`](crate::Sequential::fuse_relu)),
    /// the GEMM epilogue also applies `max(0, ·)` so the following ReLU
    /// layer becomes mask-only.
    pub(crate) fused_relu: bool,
}

impl Dense {
    /// Builds a dense layer with He-normal weights (fan-in scaled) and zero
    /// bias.
    pub fn new(in_dim: usize, out_dim: usize, sampler: &mut NormalSampler) -> Self {
        let mut drawn = vec![0.0; in_dim * out_dim + out_dim];
        he_normal_into(&mut drawn[..in_dim * out_dim], in_dim, sampler);
        Dense {
            drawn,
            ..Self::blank(in_dim, out_dim)
        }
    }

    /// [`Dense::new`] with all-zero weights and no sampler draw, for a
    /// replica whose parameters are loaded before it runs.
    pub(crate) fn blank(in_dim: usize, out_dim: usize) -> Self {
        Dense {
            drawn: Vec::new(),
            x_cache: None,
            in_dim,
            out_dim,
            fused_relu: false,
        }
    }

    fn check_input(&self, x: &Tensor) {
        assert_eq!(x.dims().len(), 2, "Dense expects [batch, features]");
        assert_eq!(
            x.dims()[1],
            self.in_dim,
            "Dense in_dim {} vs input {}",
            self.in_dim,
            x.dims()[1]
        );
    }

    /// The parameter half of backward: `dW += x^T · dy` and
    /// `db += column-sums of dy` into `g`, from the cached forward input.
    fn accumulate_grads(&mut self, g: &mut [f32], dy: &Tensor, ws: &mut Workspace) {
        let x = self
            .x_cache
            .take()
            .expect("Dense::backward called without a cached forward");
        let (dw, db) = g.split_at_mut(self.in_dim * self.out_dim);
        matmul_at_b_epi_into(&x, dy, dw, Epilogue::Accumulate);
        self.x_cache = Some(x);
        // Zero-initialized partial sum, rows ascending.
        let m = dy.dims()[0];
        let mut colsum = ws.take(self.out_dim);
        for r in 0..m {
            let row = &dy.data()[r * self.out_dim..(r + 1) * self.out_dim];
            for (o, v) in colsum.iter_mut().zip(row) {
                *o += v;
            }
        }
        for (d, s) in db.iter_mut().zip(&colsum) {
            *d += s;
        }
        ws.recycle(colsum);
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, p: &mut [f32], x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.check_input(&x);
        // Recycle last step's cache before taking, so one warm-up step is
        // enough to make the pool self-sufficient.
        if let Some(prev) = self.x_cache.take() {
            ws.recycle(prev.into_vec());
        }
        let m = x.dims()[0];
        let mut y = ws.take(m * self.out_dim);
        let (w, b) = p.split_at(self.in_dim * self.out_dim);
        matmul_epi_into(&x, w, &mut y, Epilogue::bias(b, self.fused_relu));
        if train {
            self.x_cache = Some(x);
        } else {
            ws.recycle(x.into_vec());
        }
        Tensor::from_vec(y, &[m, self.out_dim])
    }

    fn backward_ws(&mut self, p: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) -> Tensor {
        self.accumulate_grads(g, &dy, ws);
        // dx = dy · W^T
        let m = dy.dims()[0];
        let mut dx = ws.take(m * self.in_dim);
        let w = &p[..self.in_dim * self.out_dim];
        matmul_a_bt_epi_into(&dy, w, &mut dx, Epilogue::Store);
        ws.recycle(dy.into_vec());
        Tensor::from_vec(dx, &[m, self.in_dim])
    }

    fn backward_params_ws(&mut self, _: &[f32], g: &mut [f32], dy: Tensor, ws: &mut Workspace) {
        self.accumulate_grads(g, &dy, ws);
        ws.recycle(dy.into_vec());
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Dense(self)
    }

    fn arena_len(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn init_params(&mut self, p: &mut [f32], sampler: Option<&mut NormalSampler>) {
        if !self.drawn.is_empty() {
            p.copy_from_slice(&std::mem::take(&mut self.drawn));
        } else if let Some(s) = sampler {
            he_normal_into(&mut p[..self.in_dim * self.out_dim], self.in_dim, s);
        }
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(in_dims.len(), 2);
        vec![in_dims[0], self.out_dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::gradcheck::ones;
    use crate::model::Sequential;
    use vc_tensor::approx_eq;

    fn layer(i: usize, o: usize, seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        Sequential::new().push(Dense::new(i, o, &mut s))
    }

    #[test]
    fn forward_known_values() {
        let mut d = layer(2, 2, 1);
        d.set_params_flat(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x, false);
        // y = [1*1+1*3 + 0.5, 1*2+1*4 - 0.5]
        assert!(approx_eq(
            &y,
            &Tensor::from_vec(vec![4.5, 5.5], &[1, 2]),
            1e-6
        ));
    }

    #[test]
    fn param_roundtrip() {
        let d = layer(3, 4, 2);
        let p = d.params_flat();
        assert_eq!(p.len(), 3 * 4 + 4);
        let mut d2 = Sequential::new().push(Dense::blank(3, 4));
        d2.set_params_flat(&p);
        assert_eq!(d2.params_flat(), p);
        // Loading sized no gradient vector.
        assert!(d2.grads().is_empty());
    }

    #[test]
    fn gradcheck_inputs() {
        let mut d = layer(4, 3, 3);
        let mut s = NormalSampler::seed_from(10);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut s);
        gradcheck::check_input_grad(&mut d, &x, 1e-2);
    }

    #[test]
    fn gradcheck_params() {
        let mut d = layer(3, 2, 4);
        let mut s = NormalSampler::seed_from(11);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut s);
        gradcheck::check_param_grad(&mut d, &x, 1e-2);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut d = layer(2, 2, 5);
        let x = ones(&[1, 2]);
        let dy = ones(&[1, 2]);
        d.forward(&x, true);
        d.backward(&dy);
        let g1 = d.grads().to_vec();
        d.forward(&x, true);
        d.backward(&dy);
        for (a, b) in g1.iter().zip(d.grads()) {
            assert!((b - 2.0 * a).abs() < 1e-5, "accumulation {a} {b}");
        }
        d.zero_grads_all();
        assert!(d.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_requires_forward() {
        let mut d = layer(2, 2, 6);
        d.backward(&ones(&[1, 2]));
    }

    #[test]
    fn out_dims_reports_batch() {
        let d = layer(8, 5, 7);
        assert_eq!(d.out_dims(&[32, 8]), vec![32, 5]);
    }
}
