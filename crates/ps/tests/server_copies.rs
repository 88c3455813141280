//! The parameter server holds one copy of `W_s`: the store's shard blobs.
//!
//! `ShardedAssimilator::finish` blends the stored values into the accepted
//! upload it is handed, an eventual-mode `begin` holds the blobs it read,
//! and a `Raw` epoch publish makes the stored blobs its frame payloads.
//! These tests hold that to what the copies used to guarantee:
//!
//! - the in-place blend gives the bits — and the store the operation
//!   history — of the old compose from primitives (decode the stored shard,
//!   [`blend_eq1`] the client in, encode, write back), for both modes,
//!   shard counts that divide the vector and ones that do not, α at both
//!   ends and between, and values that stress the arithmetic (−0.0, NaN
//!   payloads, ±Inf, subnormals);
//! - a published snapshot is immutable: the store installs a fresh blob on
//!   every write, so the bytes a fetch ships and the checksum banked at
//!   publish stay what they were however many assimilations land after.
//!
//! That a held eventual read blends against what it read and clobbers
//! exactly once per shard write is `merge.rs`'s
//! `sharded_eventual_matches_unsharded_bitwise`.

use std::sync::Arc;
use vc_asgd::alpha::{blend_eq1, AlphaSchedule};
use vc_kvstore::history::Op;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::{Codec, FetchReq, PsService, SealedFrame, ShardedAssimilator};
use vc_tensor::codec::{decode_f32s_into_slice, encode_f32s};

const MODES: [Consistency; 2] = [Consistency::Eventual, Consistency::Strong];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `n` values cycling through the awkward ones — signed zeros, NaNs with
/// payloads of both signs, infinities, subnormals, the largest finite —
/// between ordinary ones; `salt` shifts the cycle and the ordinary values.
fn awkward(n: usize, salt: usize) -> Vec<f32> {
    let special = [
        -0.0,
        0.0,
        f32::from_bits(0x7fc0_1234), // quiet NaN, payload
        f32::from_bits(0xffc0_0abc), // negative quiet NaN, payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x807f_ffff), // largest negative subnormal
        f32::MAX,
    ];
    (0..n)
        .map(|i| {
            let k = i * 7 + salt * 3;
            if k.is_multiple_of(5) {
                special[(k / 5) % special.len()]
            } else {
                ((k % 101) as f32 - 50.0) * 0.037 + salt as f32
            }
        })
        .collect()
}

fn assimilator(
    store: Arc<VersionedStore>,
    n: usize,
    p: usize,
    mode: Consistency,
    alpha: f32,
) -> ShardedAssimilator {
    ShardedAssimilator::new(store, n, p, mode, AlphaSchedule::Const(alpha))
}

/// The assimilation the in-place blend replaced, composed from primitives
/// over `a`'s store: eventual decodes every shard into one vector at begin
/// and blends the client into it; strong decodes each shard inside its
/// transaction into a zeroed vector. Returns the updated vector.
fn old_compose(a: &ShardedAssimilator, mode: Consistency, client: &[f32], alpha: f32) -> Vec<f32> {
    let store = a.store();
    let mut full = vec![0.0f32; client.len()];
    match mode {
        Consistency::Eventual => {
            let mut read = Vec::new();
            for (i, range) in a.layout().iter() {
                let (blob, version) = store.get(a.key(i));
                decode_f32s_into_slice(&blob, &mut full[range]).unwrap();
                read.push(version);
            }
            for (i, range) in a.layout().iter() {
                let part = &mut full[range.clone()];
                blend_eq1(part, &client[range], alpha);
                store.put_versioned(a.key(i), read[i], encode_f32s(part));
            }
        }
        Consistency::Strong => {
            for (i, range) in a.layout().iter() {
                let part = &mut full[range.clone()];
                store.transact(a.key(i), |blob, _| {
                    decode_f32s_into_slice(blob, part).unwrap();
                    blend_eq1(part, &client[range], alpha);
                    (encode_f32s(part), ())
                });
            }
        }
    }
    full
}

#[test]
fn finish_blends_into_the_upload_with_the_old_bits_and_op_history() {
    let n = 103;
    let w0 = awkward(n, 0);
    let clients: Vec<Vec<f32>> = (1..=3).map(|c| awkward(n, c)).collect();
    for mode in MODES {
        for p in [1, 3, 4, 16] {
            for alpha in [0.0, 0.6, 0.999, 1.0] {
                let what = format!("{mode:?}, {p} shards, alpha {alpha}");
                let new = assimilator(Arc::new(VersionedStore::recording()), n, p, mode, alpha);
                let old = assimilator(Arc::new(VersionedStore::recording()), n, p, mode, alpha);
                let wrapped = assimilator(Arc::new(VersionedStore::recording()), n, p, mode, alpha);
                for a in [&new, &old, &wrapped] {
                    a.seed_params(&w0);
                }
                for c in &clients {
                    let got = new.finish(new.begin(), c.clone(), 1);
                    let want = old_compose(&old, mode, c, alpha);
                    assert_eq!(bits(&got), bits(&want), "{what}: returned vector");
                    // The `#[doc(hidden)]` wrappers the probes still call,
                    // on a borrowed client.
                    let via_wrapper = match mode {
                        Consistency::Eventual => {
                            wrapped.commit_eventual(wrapped.begin_eventual(), c, 1).0
                        }
                        Consistency::Strong => wrapped.assimilate_strong(c, 1),
                    };
                    assert_eq!(bits(&via_wrapper), bits(&want), "{what}: wrapper");
                }
                let history = new.store().take_history();
                assert_eq!(history, old.store().take_history(), "{what}: op history");
                assert_eq!(
                    history,
                    wrapped.store().take_history(),
                    "{what}: wrapper ops"
                );
                assert_eq!(
                    bits(&new.read_params().0),
                    bits(&old.read_params().0),
                    "{what}: stored values"
                );
            }
        }
    }
}

/// Fetches every shard of `epoch` cold and returns the response frames and
/// the bytes they go on the wire as, checksums as banked at publish.
fn fetch(svc: &PsService, epoch: u64, shards: usize) -> (Vec<SealedFrame>, Vec<u8>) {
    let req = FetchReq {
        epoch,
        wants: (0..shards as u32).map(|i| (i, 0)).collect(),
        codec: Codec::Raw,
    };
    let mut out = Vec::new();
    svc.handle(&req.to_frame(), &mut out);
    out.pop(); // the summary
    let mut wire = Vec::new();
    for f in &out {
        f.write_to(&mut wire).unwrap();
    }
    (out, wire)
}

#[test]
fn a_published_raw_snapshot_never_changes_under_its_checksum() {
    let n = 4099;
    let w0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    for mode in MODES {
        for p in [1, 4] {
            let what = format!("{mode:?}, {p} shards");
            let assim = Arc::new(assimilator(
                Arc::new(VersionedStore::new()),
                n,
                p,
                mode,
                0.6,
            ));
            assim.seed_params(&w0);
            let svc = PsService::new(assim.clone());
            svc.publish(1, &assim.read_blobs());
            let (frames, before) = fetch(&svc, 1, p);
            assert_eq!(frames.len(), p);
            for (i, f) in frames.iter().enumerate() {
                let (stored, _) = assim.store().get(assim.key(i));
                assert_eq!(
                    f.payload.as_ptr(),
                    stored.as_ptr(),
                    "{what}: shard {i}'s frame payload is the stored blob, not a copy"
                );
            }
            for k in 0..5 {
                let client: Vec<f32> = (0..n).map(|i| (i + k) as f32 * 1e-3).collect();
                assim.finish(assim.begin(), client, 1);
            }
            let published = || -> Vec<_> {
                let blobs = svc.snapshot_blobs(1).unwrap();
                blobs.into_iter().map(|(blob, _)| blob).collect()
            };
            let stored: Vec<_> = assim.read_blobs().into_iter().map(|(b, _)| b).collect();
            assert_ne!(stored, published(), "{what}: the store moved on");
            let (frames, after) = fetch(&svc, 1, p);
            assert_eq!(after, before, "{what}: fetched bytes and banked checksums");
            let mut encoded = Vec::new();
            frames.iter().for_each(|f| f.encode_into(&mut encoded));
            assert_eq!(
                after, encoded,
                "{what}: banked checksums still match the payloads"
            );
            let layout = *assim.layout();
            let seeded: Vec<_> = layout.iter().map(|(_, r)| encode_f32s(&w0[r])).collect();
            assert_eq!(published(), seeded, "{what}");
        }
    }
}

/// The blobs `seed_params` returns are the ones it stored, at the versions
/// it stored them: publishing them needs no read back.
#[test]
fn seeded_blobs_are_the_stored_ones() {
    let n = 1000;
    let w0: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let a = assimilator(
        Arc::new(VersionedStore::recording()),
        n,
        4,
        Consistency::Strong,
        0.5,
    );
    let seeded = a.seed_params(&w0);
    let history = a.store().take_history();
    assert!(
        history.iter().all(|e| matches!(e.op, Op::Put { .. })),
        "no read recorded"
    );
    for (i, (blob, version)) in seeded.iter().enumerate() {
        let (stored, v) = a.store().get(a.key(i));
        assert_eq!(*version, v);
        assert_eq!(blob.as_ptr(), stored.as_ptr());
        assert_eq!(*blob, encode_f32s(&w0[a.layout().range(i)]));
    }
}
