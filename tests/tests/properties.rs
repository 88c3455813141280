//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;
use vc_asgd::alpha::{blend_eq1, eq2_closed_form};
use vc_data::{Dataset, ShardSet};
use vc_kvstore::VersionedStore;
use vc_simnet::DelayQueue;
use vc_tensor::codec::decode_f32s_into;
use vc_tensor::{encode_f32s, Tensor};

proptest! {
    /// Codec: every f32 vector round-trips bit-exactly.
    #[test]
    fn codec_roundtrip(values in prop::collection::vec(-1e30f32..1e30, 0..512)) {
        let blob = encode_f32s(&values);
        let mut back = Vec::new();
        decode_f32s_into(&blob, &mut back).unwrap();
        prop_assert_eq!(back, values);
    }

    /// Codec: decoding any corrupted prefix fails rather than misreads.
    #[test]
    fn codec_truncation_always_errors(
        values in prop::collection::vec(-1e3f32..1e3, 1..64),
        cut in 1usize..16,
    ) {
        let blob = encode_f32s(&values);
        let cut = cut.min(blob.len() - 1);
        prop_assert!(decode_f32s_into(&blob[..blob.len() - cut], &mut Vec::new()).is_err());
    }

    /// Eq. (2) is exactly repeated Eq. (1) — the paper's algebra holds for
    /// arbitrary client parameter values and α.
    #[test]
    fn eq1_iterates_to_eq2(
        w0 in prop::collection::vec(-10.0f32..10.0, 1..32),
        clients in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, 1..32), 1..12),
        alpha in 0.01f32..0.999,
    ) {
        let n = w0.len();
        let clients: Vec<Vec<f32>> = clients
            .into_iter()
            .map(|mut c| { c.resize(n, 0.0); c })
            .collect();
        let mut recursive = w0.clone();
        for c in &clients {
            blend_eq1(&mut recursive, c, alpha);
        }
        let closed = eq2_closed_form(&w0, &clients, alpha);
        for (r, c) in recursive.iter().zip(&closed) {
            prop_assert!((r - c).abs() < 1e-3, "{} vs {}", r, c);
        }
    }

    /// VC-ASGD convexity: a blend of values inside [lo, hi] stays inside —
    /// the server copy can never escape the convex hull of what it has
    /// seen, for any α sequence.
    #[test]
    fn blend_stays_in_convex_hull(
        start in -5.0f32..5.0,
        updates in prop::collection::vec((-5.0f32..5.0, 0.0f32..1.0), 1..64),
    ) {
        let mut w = vec![start];
        let mut lo = start;
        let mut hi = start;
        for (c, alpha) in updates {
            blend_eq1(&mut w, &[c], alpha);
            lo = lo.min(c);
            hi = hi.max(c);
            prop_assert!(w[0] >= lo - 1e-4 && w[0] <= hi + 1e-4);
        }
    }

    /// The one time-ordered queue (`vc_simnet::DelayQueue`, under the DES
    /// event queue, the DST step scheduler, the middleware's deadline
    /// timers and the threaded coordinator's early-message hold) against a
    /// stable-sort oracle: any
    /// interleaving of push / pop / pop_due over keys with many ties
    /// releases earliest-key first and equal keys in insertion order, and
    /// `pop_due(now)` releases a key `== now` but holds one `> now`.
    #[test]
    fn event_queue_total_order(ops in prop::collection::vec((0u8..4, 0u8..8), 1..256)) {
        let mut q: DelayQueue<u8, usize> = DelayQueue::new();
        // Arrival order; a stable sort by key puts the next release first.
        let mut oracle: Vec<(u8, usize)> = Vec::new();
        for (id, (kind, key)) in ops.into_iter().enumerate() {
            oracle.sort_by_key(|&(k, _)| k);
            match kind {
                0 | 1 => {
                    q.push(key, id);
                    oracle.push((key, id));
                }
                2 => {
                    let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                    prop_assert_eq!(q.pop(), want);
                }
                _ => {
                    let due = oracle.first().is_some_and(|&(k, _)| k <= key);
                    let want = due.then(|| oracle.remove(0));
                    prop_assert_eq!(q.pop_due(key), want);
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
        }
        oracle.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(q.peek().map(|(k, &id)| (k, id)), oracle.first().copied());
        let drained: Vec<(u8, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(drained, oracle);
    }

    /// Shard split: a partition (every sample exactly once, sizes within
    /// one).
    #[test]
    fn shard_split_partitions(n in 10usize..200, k in 1usize..10) {
        let k = k.min(n);
        let images = Tensor::zeros(&[n, 1, 2, 2]);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let ds = Dataset::new(images, labels, 3);
        let set = ShardSet::split(&ds, k);
        let sizes: Vec<usize> = (0..k).map(|i| set.shard(i).data.len()).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// KV store versions increase strictly monotonically per key under any
    /// interleaving of the three write paths.
    #[test]
    fn store_versions_monotone(ops in prop::collection::vec(0u8..3, 1..64)) {
        let store = VersionedStore::new();
        let mut last = 0u64;
        for op in ops {
            let v = match op {
                0 => store.put("k", bytes::Bytes::from_static(b"x")),
                1 => {
                    let (_, seen) = store.get("k");
                    store.put_versioned("k", seen, bytes::Bytes::from_static(b"y")).new_version
                }
                _ => store.transact("k", |c, _| (c.clone(), ())).0,
            };
            prop_assert!(v > last, "version went {} -> {}", last, v);
            last = v;
        }
    }

    /// Matmul distributes over addition: A(B + C) == AB + AC.
    #[test]
    fn matmul_distributes(seed in 0u64..1000) {
        use vc_tensor::ops::matmul;
        use vc_tensor::NormalSampler;
        let mut s = NormalSampler::seed_from(seed);
        let a = Tensor::randn(&[4, 5], 0.0, 1.0, &mut s);
        let b = Tensor::randn(&[5, 3], 0.0, 1.0, &mut s);
        let c = Tensor::randn(&[5, 3], 0.0, 1.0, &mut s);
        let sum = |x: &Tensor, y: &Tensor| {
            let d = x.data().iter().zip(y.data()).map(|(p, q)| p + q).collect();
            Tensor::from_vec(d, x.dims())
        };
        let lhs = matmul(&a, &sum(&b, &c));
        let rhs = sum(&matmul(&a, &b), &matmul(&a, &c));
        prop_assert!(vc_tensor::approx_eq(&lhs, &rhs, 1e-3));
    }
}
