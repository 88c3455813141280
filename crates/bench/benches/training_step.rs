//! Criterion benchmark of one client subtask: the unit of work a volunteer
//! executes per workunit (shard download excluded — that is simulated).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_data::{ShardSet, SyntheticSpec};
use vc_optim::{train_minibatch_ws, OptimizerSpec, TrainWorkspace};

fn bench_subtask(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_subtask");
    group.sample_size(10);

    let mut data = SyntheticSpec::cifar_like(7);
    data.train_n = 1000;
    let (train, _, _) = data.generate();
    let shards = ShardSet::split(&train, 10); // 100 samples per shard
    let spec = vc_nn::spec::small_cnn(&data.img, data.classes);
    let init = spec.build(1).params_flat();

    // A long-lived worker keeps one workspace across subtasks.
    let mut tws = TrainWorkspace::new();
    group.bench_function("small_cnn_100samples_2local", |b| {
        b.iter(|| {
            let mut model = spec.build(1);
            model.set_params_flat(&init);
            let mut opt = OptimizerSpec::paper_adam().build(init.len());
            let mut rng = StdRng::seed_from_u64(3);
            let d = &shards.shard(0).data;
            train_minibatch_ws(
                &mut model, &mut opt, &d.images, &d.labels, 32, 2, 5.0, &mut rng, &mut tws, None,
            );
            model.params_flat()
        });
    });

    let mlp = vc_nn::spec::mlp(&data.img, 32, data.classes);
    let mlp_init = mlp.build(1).params_flat();
    group.bench_function("mlp_100samples_2local", |b| {
        b.iter(|| {
            let mut model = mlp.build(1);
            model.set_params_flat(&mlp_init);
            let mut opt = OptimizerSpec::paper_adam().build(mlp_init.len());
            let mut rng = StdRng::seed_from_u64(3);
            let d = &shards.shard(0).data;
            train_minibatch_ws(
                &mut model, &mut opt, &d.images, &d.labels, 32, 2, 5.0, &mut rng, &mut tws, None,
            );
            model.params_flat()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_subtask);
criterion_main!(benches);
