//! Calibration check: the synthetic CIFAR-like task is learnable by the
//! reference CNN to an accuracy plateau below 1.0.
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_data::SyntheticSpec;
use vc_nn::metrics::evaluate;
use vc_nn::spec::small_cnn;
use vc_optim::{train_minibatch, OptimizerSpec, TrainWorkspace};

#[test]
fn small_cnn_learns_cifar_like() {
    let mut spec = SyntheticSpec::cifar_like(7);
    spec.train_n = 2000;
    let (train, val, _) = spec.generate();
    let mspec = small_cnn(&spec.img, spec.classes);
    let mut model = mspec.build(1);
    let mut opt = OptimizerSpec::paper_adam().build(model.param_count());
    let mut rng = StdRng::seed_from_u64(2);
    let mut tws = TrainWorkspace::new();
    for e in 0..8 {
        let st = train_minibatch(
            &mut model,
            &mut opt,
            &train.images,
            &train.labels,
            32,
            1,
            5.0,
            &mut rng,
            &mut tws,
            None,
        );
        let acc = evaluate(&mut model, &val.images, &val.labels, 128);
        eprintln!("epoch {e}: loss {:.3} val acc {:.3}", st.mean_loss, acc);
    }
    let acc = evaluate(&mut model, &val.images, &val.labels, 128);
    assert!(acc > 0.55 && acc < 0.98, "val accuracy {acc}");
}
