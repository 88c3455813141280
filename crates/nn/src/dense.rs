//! Fully-connected layer.

use crate::layer::{FusionPart, Layer, ParamVisitor};
use vc_tensor::ops::{matmul_a_bt_epi_into, matmul_at_b_epi_into, matmul_epi_into, Epilogue};
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// A dense (fully-connected) layer: `y = x · W + b`, `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`.
pub struct Dense {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
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
        Self::with_weights(Tensor::he_normal(&[in_dim, out_dim], in_dim, sampler))
    }

    /// [`Dense::new`] with all-zero weights and no sampler draw, for a
    /// replica whose parameters are loaded before it runs.
    pub fn blank(in_dim: usize, out_dim: usize) -> Self {
        Self::with_weights(Tensor::zeros(&[in_dim, out_dim]))
    }

    /// The layer around an `[in, out]` weight matrix, with zero bias.
    fn with_weights(w: Tensor) -> Self {
        let (in_dim, out_dim) = (w.dims()[0], w.dims()[1]);
        Dense {
            w,
            b: Tensor::zeros(&[out_dim]),
            // Sized on first backward: a replica that only scores (the
            // assimilator's) never holds a second copy of its weights.
            dw: Tensor::zeros(&[0]),
            db: Tensor::zeros(&[out_dim]),
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
    /// `db += column-sums of dy`, from the cached forward input.
    fn accumulate_grads(&mut self, dy: &Tensor, ws: &mut Workspace) {
        let x = self
            .x_cache
            .take()
            .expect("Dense::backward called without a cached forward");
        if self.dw.numel() != self.w.numel() {
            self.dw = Tensor::zeros(self.w.dims());
        }
        matmul_at_b_epi_into(&x, dy, self.dw.data_mut(), Epilogue::Accumulate);
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
        for (d, s) in self.db.data_mut().iter_mut().zip(&colsum) {
            *d += s;
        }
        ws.recycle(colsum);
    }

    /// Bias (or fused bias+ReLU) epilogue for the forward GEMM.
    fn epilogue(&self) -> Epilogue<'_> {
        if self.fused_relu {
            Epilogue::BiasRelu(self.b.data())
        } else {
            Epilogue::Bias(self.b.data())
        }
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.check_input(&x);
        // Recycle last step's cache before taking, so one warm-up step is
        // enough to make the pool self-sufficient.
        if let Some(prev) = self.x_cache.take() {
            ws.recycle(prev.into_vec());
        }
        let m = x.dims()[0];
        let mut y = ws.take(m * self.out_dim);
        matmul_epi_into(&x, &self.w, &mut y, self.epilogue());
        if train {
            self.x_cache = Some(x);
        } else {
            ws.recycle(x.into_vec());
        }
        Tensor::from_vec(y, &[m, self.out_dim])
    }

    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        self.accumulate_grads(&dy, ws);
        // dx = dy · W^T
        let m = dy.dims()[0];
        let mut dx = ws.take(m * self.in_dim);
        matmul_a_bt_epi_into(&dy, &self.w, &mut dx, Epilogue::Store);
        ws.recycle(dy.into_vec());
        Tensor::from_vec(dx, &[m, self.in_dim])
    }

    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        self.accumulate_grads(&dy, ws);
        ws.recycle(dy.into_vec());
    }

    fn fusion_part(&mut self) -> FusionPart<'_> {
        FusionPart::Dense(self)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor<'_>) {
        f(&mut self.w, Some(&mut self.dw));
        f(&mut self.b, Some(&mut self.db));
    }

    fn name(&self) -> &'static str {
        "dense"
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
    use crate::layer::{append_grads, append_params, clear_grads, install_params, param_len};
    use vc_tensor::approx_eq;

    fn layer(i: usize, o: usize, seed: u64) -> Dense {
        let mut s = NormalSampler::seed_from(seed);
        Dense::new(i, o, &mut s)
    }

    #[test]
    fn forward_known_values() {
        let mut d = layer(2, 2, 1);
        install_params(&mut d, &[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
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
        let mut d = layer(3, 4, 2);
        let mut p = Vec::new();
        append_params(&mut d, &mut p);
        assert_eq!(p.len(), param_len(&mut d));
        let mut d2 = Dense::blank(3, 4);
        install_params(&mut d2, &p);
        let mut p2 = Vec::new();
        append_params(&mut d2, &mut p2);
        assert_eq!(p, p2);
        // Loading sized no weight gradient; the gather reads it as zeros.
        assert_eq!(d2.dw.numel(), 0);
        let mut g = Vec::new();
        append_grads(&mut d2, &mut g);
        assert_eq!(g, vec![0.0; p.len()]);
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
        let x = Tensor::ones(&[1, 2]);
        let dy = Tensor::ones(&[1, 2]);
        d.forward(&x, true);
        d.backward(&dy);
        let mut g1 = Vec::new();
        append_grads(&mut d, &mut g1);
        d.forward(&x, true);
        d.backward(&dy);
        let mut g2 = Vec::new();
        append_grads(&mut d, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-5, "accumulation {a} {b}");
        }
        clear_grads(&mut d);
        let mut g3 = Vec::new();
        append_grads(&mut d, &mut g3);
        assert!(g3.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_requires_forward() {
        let mut d = layer(2, 2, 6);
        d.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn out_dims_reports_batch() {
        let d = layer(8, 5, 7);
        assert_eq!(d.out_dims(&[32, 8]), vec![32, 5]);
    }
}
