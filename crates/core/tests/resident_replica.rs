//! The replica a `TrainWorkspace` keeps between workunits is not state: a
//! warm workspace returns, bit for bit, what a new one returns — for every
//! model family at the paper's 32×32×3.

use vc_asgd::{train_client_replica_ws, JobConfig};
use vc_data::ShardSet;
use vc_nn::spec::{mlp, resnet_lite, small_cnn};
use vc_nn::ModelSpec;
use vc_optim::TrainWorkspace;

const IMG: [usize; 3] = [3, 32, 32];

/// Three shards of 40 samples at batch 16: two full steps and a short one.
fn job(model: ModelSpec, seed: u64) -> JobConfig {
    let mut cfg = JobConfig::test_small(seed);
    cfg.data.img = IMG;
    cfg.data.train_n = 120;
    cfg.shards = 3;
    cfg.batch_size = 16;
    cfg.local_epochs = 1;
    cfg.model = model;
    cfg
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs three chained workunits (each starts from the previous one's
/// upload) through `tws`, or through a new workspace each when `tws` is
/// `None`, and returns the three uploads.
fn three_workunits(cfg: &JobConfig, mut tws: Option<&mut TrainWorkspace>) -> Vec<Vec<f32>> {
    let (train, _, _) = cfg.data.generate();
    let shards = ShardSet::split(&train, cfg.shards);
    let mut snapshot = cfg.model.build(cfg.seed).params_flat();
    let mut uploads = Vec::new();
    for (epoch, shard) in [(1, 0), (1, 2), (2, 1)] {
        let mut fresh = TrainWorkspace::new();
        let tws = tws.as_deref_mut().unwrap_or(&mut fresh);
        let data = &shards.shard(shard).data;
        let out = train_client_replica_ws(cfg, &snapshot, data, epoch, shard, tws, None);
        assert_ne!(bits(&out), bits(&snapshot), "the workunit must train");
        snapshot = out.clone();
        uploads.push(out);
    }
    uploads
}

#[test]
fn resident_replica_matches_fresh_build() {
    for model in [
        mlp(&IMG, 32, 10),
        small_cnn(&IMG, 10),
        resnet_lite(&IMG, 1, 10),
    ] {
        let cfg = job(model, 21);
        let mut warm = TrainWorkspace::new();
        let resident = three_workunits(&cfg, Some(&mut warm));
        let fresh = three_workunits(&cfg, None);
        for (k, (a, b)) in resident.iter().zip(&fresh).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "`{}` workunit {k}: a warm workspace changed the upload",
                cfg.model.name
            );
        }
    }
}

/// Another architecture rebuilds the replica (the kept one could not even
/// load its snapshot); another seed reuses it, because a build seeds
/// nothing but the parameters each workunit overwrites. Either way the
/// uploads are a fresh build's, bit for bit.
#[test]
fn another_spec_or_seed_matches_a_fresh_build() {
    let first = job(mlp(&IMG, 32, 10), 21);
    let other_spec = job(mlp(&IMG, 24, 10), 21);
    let other_seed = job(mlp(&IMG, 32, 10), 22);
    let mut warm = TrainWorkspace::new();
    three_workunits(&first, Some(&mut warm));
    for cfg in [&other_spec, &other_seed, &first] {
        let resident = three_workunits(cfg, Some(&mut warm));
        let fresh = three_workunits(cfg, None);
        for (a, b) in resident.iter().zip(&fresh) {
            assert_eq!(
                bits(a),
                bits(b),
                "a kept replica changed a new job's upload"
            );
        }
    }
}
