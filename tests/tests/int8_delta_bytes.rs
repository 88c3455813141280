//! What an Int8 delta costs on the wire when the updates are real: a DST
//! run shaped like the `mlp_transfer_int8` benchmark workload at test
//! scale (two workers, four data shards of one 32-image Adam batch each,
//! one local epoch, α = 0.6 blends, epoch publishes over four PS shards)
//! ships each moved shard as a `ShardDelta` frame, and the frames average
//! under 0.9 B per parameter. The token stream alone is a byte a parameter
//! (zero runs are rare on trained deltas), so the bound holds only with
//! the entropy stage; the codes carry about 4 bits each here.

use vc_ps::service::{PS_BYTES_SAVED, PS_DELTAS_SENT};
use vc_ps::{Codec, ShardLayout, HEADER_LEN};
use vc_runtime::{run_scenario, Scenario};

/// Wire bytes of a `Shard` frame carrying `len` values: the frame header
/// and checksum around a VCP1 blob.
fn shard_frame_len(len: usize) -> u64 {
    (4 + HEADER_LEN + vc_tensor::codec::encoded_len(len)) as u64
}

#[test]
fn int8_deltas_of_a_trained_mlp_cost_under_0_9_bytes_a_parameter() {
    const SHARDS: usize = 4;
    for seed in [1u64, 2, 3] {
        let mut sc = Scenario::new(seed)
            .cn(2)
            .epochs(4)
            .ps_shards(SHARDS)
            .codec(Codec::Int8 {
                error_feedback: true,
            });
        let job = &mut sc.cfg.job;
        job.data.train_n = 128;
        job.shards = 4;
        job.local_epochs = 1;
        job.batch_size = 32;
        let out = run_scenario(&sc).expect("scenario runs");
        let reg = out.telemetry.registry();
        let deltas = reg.counter(PS_DELTAS_SENT).get();
        let saved = reg.counter(PS_BYTES_SAVED).get();
        assert!(deltas > 0, "seed {seed}: no delta was fetched");
        // `saved` is each delta frame's shortfall against its shard's
        // full frame, so the shards' longest full frame bounds the delta
        // bytes from above and their shortest length the parameters
        // from below.
        let layout = ShardLayout::new(sc.cfg.job.model.param_count(), SHARDS);
        let lens = || layout.iter().map(|(_, r)| r.len());
        let (shortest, longest) = (lens().min().unwrap(), lens().max().unwrap());
        let delta_bytes = deltas * shard_frame_len(longest) - saved;
        let per_param = delta_bytes as f64 / (deltas * shortest as u64) as f64;
        assert!(
            per_param <= 0.9,
            "seed {seed}: {deltas} deltas at {per_param:.4} B per parameter"
        );
        eprintln!("seed {seed}: {deltas} deltas at {per_param:.4} B per parameter");
    }
}
