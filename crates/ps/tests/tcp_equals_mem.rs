//! The TCP transport is the in-process one with a socket in between: one
//! sync sequence — cold, warm hit, partial after a one-shard merge, then a
//! whole-model assimilation — run through `TcpClient` and `MemClient`
//! against twin services must leave the same `PsOps`, the same registry
//! counters (all seven, the codec's two included) and the same assembled
//! bits after every step, under `Raw` and under
//! `Int8` with error feedback (whose last two syncs ride deltas). Each
//! sync that reaches the wire is one `Fetch` request on both transports.

use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::service::PS_DELTAS_SENT;
use vc_ps::{Codec, MemClient, PsService, ShardCache, ShardedAssimilator, TcpClient, TcpPsServer};
use vc_telemetry::Telemetry;

const N: usize = 1000;
const SHARDS: usize = 4;

/// A seeded service under `codec` with epoch 1 published, counting into
/// its own telemetry handle.
fn service(codec: Codec) -> (Arc<PsService>, Telemetry) {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        N,
        SHARDS,
        Consistency::Eventual,
        AlphaSchedule::Const(0.5),
    ));
    let params: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin()).collect();
    assim.seed_params(&params);
    let tel = Telemetry::silent();
    let svc = Arc::new(PsService::new(assim).with_codec(codec).with_telemetry(&tel));
    publish(&svc, 1);
    (svc, tel)
}

fn publish(svc: &PsService, epoch: u64) {
    svc.publish(epoch, &svc.assimilator().read_blobs());
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn sequence(codec: Codec) {
    let ((tcp_svc, tcp_tel), (mem_svc, mem_tel)) = (service(codec), service(codec));
    let counters = |tel: &Telemetry| tel.registry().snapshot().counters;
    let server = TcpPsServer::start(tcp_svc.clone()).unwrap();
    let mut tcp = TcpClient::new(server.local_addr()).unwrap();
    let mut mem = MemClient::new(mem_svc.clone());
    let layout = *tcp_svc.assimilator().layout();
    let mut tcp_cache = ShardCache::new(layout).with_codec(codec);
    let mut mem_cache = ShardCache::new(layout).with_codec(codec);
    // Syncs both caches to the services' current manifest; `fetches` is
    // the request count expected so far.
    let mut step = |what: &str, epoch: u64, fetches: u64| {
        let manifest = tcp_svc.assimilator().versions();
        assert_eq!(manifest, mem_svc.assimilator().versions(), "{what}");
        let a = bits(tcp_cache.sync(epoch, &manifest, &mut tcp).unwrap());
        let b = bits(mem_cache.sync(epoch, &manifest, &mut mem).unwrap());
        assert_eq!(a, b, "{what}: assembled bits");
        assert_eq!(tcp_svc.ops(), mem_svc.ops(), "{what}: PsOps");
        assert_eq!(counters(&tcp_tel), counters(&mem_tel), "{what}: counters");
        assert_eq!(tcp_svc.ops().fetches, fetches, "{what}: requests");
    };

    step("cold", 1, 1);
    step("warm hit", 1, 1);
    let part = vec![5.0; layout.len(2)];
    for svc in [&tcp_svc, &mem_svc] {
        svc.assimilator().merge_shard(2, &part, 1);
        publish(svc, 2);
    }
    step("partial", 2, 2);
    let upload: Vec<f32> = (0..N).map(|i| (i as f32 * 0.11).cos()).collect();
    for svc in [&tcp_svc, &mem_svc] {
        let assim = svc.assimilator();
        assim.finish(assim.begin(), upload.clone(), 2);
        publish(svc, 3);
    }
    step("whole model", 3, 3);

    let ops = tcp_svc.ops();
    assert_eq!((ops.shards_sent, ops.cache_hits), (9, 3));
    let snap = tcp_tel.registry().snapshot();
    assert_eq!(snap.counters.len(), 7, "every service counter registered");
    let deltas = tcp_tel.registry().counter(PS_DELTAS_SENT).get();
    match codec {
        Codec::Raw => assert_eq!(deltas, 0),
        Codec::Int8 { .. } => assert_eq!(deltas, 5, "the last two syncs ride deltas"),
    }
}

#[test]
fn raw_sync_sequence_over_tcp_equals_in_process() {
    sequence(Codec::Raw);
}

#[test]
fn int8_error_feedback_sync_sequence_over_tcp_equals_in_process() {
    sequence(Codec::Int8 {
        error_feedback: true,
    });
}
