//! Declarative model specifications.
//!
//! The paper distributes the model architecture to clients as a 269 KB
//! `.json` file alongside the parameter `.h5` file. [`ModelSpec`] plays the
//! same role here: a serde-serializable description from which every client
//! builds an identical [`Sequential`] and into which the server's flat
//! parameter vector can be loaded.

use crate::activation::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::layer::Layer;
use crate::model::{Pipeline, Sequential};
use crate::norm::BatchNorm;
use crate::pool::{AvgPoolGlobal, Flatten, MaxPool2};
use crate::residual::Residual;
use serde::{Deserialize, Serialize};
use vc_tensor::NormalSampler;

/// One layer in a [`ModelSpec`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully connected `in -> out`.
    Dense { input: usize, output: usize },
    /// 2-D convolution.
    Conv {
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
    },
    /// ReLU activation.
    Relu,
    /// 2×2 max pooling, stride 2.
    MaxPool2,
    /// Global average pooling.
    AvgPoolGlobal,
    /// Flatten to `[batch, features]`.
    Flatten,
    /// Batch normalization over `ch` channels.
    BatchNorm { ch: usize },
    /// Residual block wrapping an inner pipeline.
    Residual { body: Vec<LayerSpec> },
}

/// A complete model description: input shape (`[ch, h, w]` for images or
/// `[features]` for flat inputs) and an ordered layer list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"resnet-lite"`.
    pub name: String,
    /// Per-sample input dimensions (batch axis excluded).
    pub input: Vec<usize>,
    /// Number of output classes (the final layer must produce this width).
    pub classes: usize,
    /// Layer pipeline.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Instantiates the model with seeded He-normal initialization. Two
    /// calls with the same seed produce bit-identical parameters on every
    /// client — the paper achieves this by shipping an initial `.h5`.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut model = self.layout();
        model.params = vec![0.0; model.pipe.arena_len()];
        draw(&mut model.pipe, seed, &mut model.params);
        model
    }

    /// The model [`ModelSpec::build`] returns with every parameter zero,
    /// drawing nothing: for a replica whose caller loads its parameters
    /// (`set_params_flat`) before it runs, where He-normal draws would be
    /// thrown away — 1.58 M Box–Muller samples for a 512-wide MLP on
    /// 32×32×3. A build seeds nothing but parameters, so the two differ in
    /// nothing else.
    pub fn build_blank(&self) -> Sequential {
        let mut model = self.layout();
        // One zeroed allocation: no growth, no page touched before a load.
        model.params = vec![0.0; model.pipe.arena_len()];
        model.pipe.init_params(&mut model.params, None);
        model
    }

    /// Writes the parameter vector `build(seed)` starts with into `out`,
    /// bit for bit (the two share one body), without building a model
    /// around it: for a holder of a vector this long — a worker's shard
    /// cache — that needs the seeded weights and nothing else. Panics when
    /// `out` is not this model's parameter count long.
    pub fn init_params_into(&self, seed: u64, out: &mut [f32]) {
        let mut model = self.layout();
        assert_eq!(
            out.len(),
            model.pipe.arena_len(),
            "parameter vector does not match spec `{}`",
            self.name
        );
        out.fill(0.0);
        draw(&mut model.pipe, seed, out);
    }

    /// The spec's layers laid out, blank, with no parameter vector yet;
    /// the pipeline is validated end to end with a probe batch dimension.
    fn layout(&self) -> Sequential {
        let mut model = Sequential::new();
        for l in &self.layers {
            model.pipe.push(build_layer(l));
        }
        let mut dims = vec![1usize];
        dims.extend_from_slice(&self.input);
        let out = model.out_dims(&dims);
        assert_eq!(
            out,
            vec![1, self.classes],
            "spec `{}` produces output {:?}, expected [1, {}]",
            self.name,
            out,
            self.classes
        );
        model
    }
}

/// The one seeded initialization: He-normal weights drawn at `seed` into
/// `p`, a zero-filled vector laid out by `pipe`, in wire order (the order
/// the layers were declared in), and BatchNorm's unit scale and variance.
fn draw(pipe: &mut Pipeline, seed: u64, p: &mut [f32]) {
    pipe.init_params(p, Some(&mut NormalSampler::seed_from(seed)));
}

fn build_layer(spec: &LayerSpec) -> Box<dyn Layer> {
    match spec {
        &LayerSpec::Dense { input, output } => Box::new(Dense::blank(input, output)),
        &LayerSpec::Conv {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
        } => Box::new(Conv2d::blank(in_ch, out_ch, k, stride, pad)),
        LayerSpec::Relu => Box::new(Relu::new()),
        LayerSpec::MaxPool2 => Box::new(MaxPool2::new()),
        LayerSpec::AvgPoolGlobal => Box::new(AvgPoolGlobal::new()),
        LayerSpec::Flatten => Box::new(Flatten::new()),
        LayerSpec::BatchNorm { ch } => Box::new(BatchNorm::new(*ch, 0.9)),
        LayerSpec::Residual { body } => {
            let mut inner = Sequential::new();
            for l in body {
                inner.pipe.push(build_layer(l));
            }
            Box::new(Residual::new(inner))
        }
    }
}

/// A small multilayer perceptron over flattened images — the cheapest model,
/// used by fast tests and the quickstart example.
pub fn mlp(input: &[usize], hidden: usize, classes: usize) -> ModelSpec {
    let features: usize = input.iter().product();
    ModelSpec {
        name: "mlp".into(),
        input: input.to_vec(),
        classes,
        layers: vec![
            LayerSpec::Flatten,
            LayerSpec::Dense {
                input: features,
                output: hidden,
            },
            LayerSpec::Relu,
            LayerSpec::Dense {
                input: hidden,
                output: classes,
            },
        ],
    }
}

/// A compact convolutional network for `[ch, h, w]` images with h, w
/// divisible by 4: two conv+pool stages and a dense head. This is the
/// workhorse model of the experiment harness.
pub fn small_cnn(input: &[usize], classes: usize) -> ModelSpec {
    assert_eq!(input.len(), 3, "small_cnn expects [ch, h, w]");
    let (ch, h, w) = (input[0], input[1], input[2]);
    assert!(
        h % 4 == 0 && w % 4 == 0,
        "small_cnn needs h, w divisible by 4"
    );
    let flat = 32 * (h / 4) * (w / 4);
    ModelSpec {
        name: "small-cnn".into(),
        input: input.to_vec(),
        classes,
        layers: vec![
            LayerSpec::Conv {
                in_ch: ch,
                out_ch: 16,
                k: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Relu,
            LayerSpec::MaxPool2,
            LayerSpec::Conv {
                in_ch: 16,
                out_ch: 32,
                k: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Relu,
            LayerSpec::MaxPool2,
            LayerSpec::Flatten,
            LayerSpec::Dense {
                input: flat,
                output: 64,
            },
            LayerSpec::Relu,
            LayerSpec::Dense {
                input: 64,
                output: classes,
            },
        ],
    }
}

/// A residual network in the ResNetV2 style (BN→ReLU→Conv pre-activation
/// blocks) scaled down from the paper's 552-layer model: a stem conv,
/// `blocks` residual blocks per stage across two stages, and a
/// global-average-pool head.
pub fn resnet_lite(input: &[usize], blocks: usize, classes: usize) -> ModelSpec {
    assert_eq!(input.len(), 3, "resnet_lite expects [ch, h, w]");
    let (ch, h, w) = (input[0], input[1], input[2]);
    assert!(h % 2 == 0 && w % 2 == 0, "resnet_lite needs even h, w");
    let width = 16;

    let res_block = |c: usize| LayerSpec::Residual {
        body: vec![
            LayerSpec::BatchNorm { ch: c },
            LayerSpec::Relu,
            LayerSpec::Conv {
                in_ch: c,
                out_ch: c,
                k: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::BatchNorm { ch: c },
            LayerSpec::Relu,
            LayerSpec::Conv {
                in_ch: c,
                out_ch: c,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ],
    };

    let mut layers = vec![LayerSpec::Conv {
        in_ch: ch,
        out_ch: width,
        k: 3,
        stride: 1,
        pad: 1,
    }];
    for _ in 0..blocks {
        layers.push(res_block(width));
    }
    // Downsample + widen for stage 2.
    layers.push(LayerSpec::MaxPool2);
    layers.push(LayerSpec::Conv {
        in_ch: width,
        out_ch: 2 * width,
        k: 1,
        stride: 1,
        pad: 0,
    });
    for _ in 0..blocks {
        layers.push(res_block(2 * width));
    }
    layers.push(LayerSpec::BatchNorm { ch: 2 * width });
    layers.push(LayerSpec::Relu);
    layers.push(LayerSpec::AvgPoolGlobal);
    layers.push(LayerSpec::Dense {
        input: 2 * width,
        output: classes,
    });

    ModelSpec {
        name: format!("resnet-lite-{blocks}"),
        input: input.to_vec(),
        classes,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_tensor::Tensor;

    #[test]
    fn mlp_builds_and_runs() {
        let spec = mlp(&[3, 8, 8], 32, 10);
        let mut m = spec.build(1);
        let y = m.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn small_cnn_builds_and_runs() {
        let spec = small_cnn(&[3, 16, 16], 10);
        let mut m = spec.build(2);
        let y = m.forward(&Tensor::zeros(&[2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 10]);
        assert!(m.param_count() > 10_000, "{}", m.param_count());
    }

    #[test]
    fn resnet_lite_builds_and_runs() {
        let spec = resnet_lite(&[3, 8, 8], 2, 10);
        let mut m = spec.build(3);
        let y = m.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn json_roundtrip() {
        let spec = resnet_lite(&[3, 16, 16], 2, 10);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ModelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn same_seed_same_params() {
        let spec = small_cnn(&[3, 8, 8], 4);
        let a = spec.build(42).params_flat();
        let b = spec.build(42).params_flat();
        assert_eq!(a, b);
        let c = spec.build(43).params_flat();
        assert_ne!(a, c);
    }

    #[test]
    fn init_params_into_writes_the_built_vector() {
        let specs = [
            mlp(&[3, 8, 8], 32, 10),
            small_cnn(&[3, 8, 8], 4),
            resnet_lite(&[3, 8, 8], 2, 10),
        ];
        for spec in specs {
            let want = spec.build(7).params_flat();
            // Stale contents of the target do not leak through.
            let mut got = vec![f32::NAN; want.len()];
            spec.init_params_into(7, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "does not match spec")]
    fn init_params_into_rejects_a_wrong_length() {
        let spec = mlp(&[4], 8, 2);
        spec.init_params_into(1, &mut vec![0.0; spec.build(1).param_count() + 1]);
    }

    #[test]
    #[should_panic(expected = "expected [1, 10]")]
    fn build_rejects_inconsistent_spec() {
        let mut spec = mlp(&[4], 8, 10);
        // Sabotage the head width.
        if let Some(LayerSpec::Dense { output, .. }) = spec.layers.last_mut() {
            *output = 7;
        }
        spec.build(1);
    }

    /// Model files come from outside the program: a convolution that no
    /// route runs is refused when the model is built, by name.
    #[test]
    fn build_rejects_convolutions_without_a_route() {
        for (k, stride, pad) in [(5, 1, 2), (3, 2, 1), (3, 0, 1), (1, 1, 1)] {
            let json = format!(
                r#"{{"name":"odd-conv","input":[2,8,8],"classes":3,"layers":[
                    {{"Conv":{{"in_ch":2,"out_ch":4,"k":{k},"stride":{stride},"pad":{pad}}}}},
                    "AvgPoolGlobal",{{"Dense":{{"input":4,"output":3}}}}]}}"#
            );
            let spec: ModelSpec = serde_json::from_str(&json).expect("well-formed JSON");
            let err = std::panic::catch_unwind(|| spec.build(1))
                .err()
                .unwrap_or_else(|| panic!("k {k} stride {stride} pad {pad} was built"));
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            let geometry = format!("in_ch 2, out_ch 4, k {k}, stride {stride}, pad {pad}");
            assert!(msg.contains(&geometry), "{msg}");
        }
    }

    #[test]
    fn paramless_layers_serialize_compactly() {
        let json = serde_json::to_string(&LayerSpec::Relu).unwrap();
        assert_eq!(json, "\"Relu\"");
    }

    #[test]
    fn resnet_param_count_grows_with_blocks() {
        let p1 = resnet_lite(&[3, 8, 8], 1, 10).build(1).param_count();
        let p3 = resnet_lite(&[3, 8, 8], 3, 10).build(1).param_count();
        assert!(p3 > p1);
    }
}
