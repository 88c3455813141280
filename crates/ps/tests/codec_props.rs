//! Property tests over the parameter codec layer: every mode's round-trip
//! error stays inside its documented bound, error feedback keeps lossy
//! upload streams unbiased with a bounded residual, and no hostile blob —
//! truncated, bit-flipped, or wholly fabricated — ever panics a decoder.
//! The worker's in-place upload shaping is held, bit for bit, to the
//! `encode_delta` → decode oracle it replaced (kept here, as the oracle).
//! Plain #[test]s at the bottom pin the codec negotiation contract: a
//! client asking for a codec the service does not speak gets a structured
//! error and degrades to `Raw` on a live connection.

use proptest::prelude::*;
use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::codec::apply_update_roundtrip;
use vc_ps::merge::ShardedAssimilator;
use vc_ps::{Codec, MemClient, PsService, ShardCache};

/// The oracle `apply_update_roundtrip` replaced: encode the update
/// `new − base` (plus the error-feedback residual when the codec carries
/// one) into a real blob and decode it back.
///
/// On return `blob` holds the wire bytes, `y` the decoded (quantized)
/// update the receiver would add to its copy of `base`, and `residual` —
/// when error feedback is on — the quantization error to fold into the
/// next update. `residual` must be empty (all-zero) or `new.len()` long.
fn encode_delta(
    codec: Codec,
    new: &[f32],
    base: &[f32],
    residual: &mut Vec<f32>,
    x: &mut Vec<f32>,
    blob: &mut Vec<u8>,
    y: &mut Vec<f32>,
) -> Result<(), &'static str> {
    assert_eq!(new.len(), base.len());
    let n = new.len();
    let ef = codec.error_feedback();
    if ef && residual.len() != n {
        residual.clear();
        residual.resize(n, 0.0);
    }
    x.clear();
    x.resize(n, 0.0);
    for i in 0..n {
        x[i] = new[i] - base[i];
    }
    if ef {
        for i in 0..n {
            x[i] += residual[i];
        }
    }
    codec.encode_update(x, blob);
    codec.decode_update_into(blob, n, y)?;
    if ef {
        for i in 0..n {
            residual[i] = x[i] - y[i];
        }
    }
    Ok(())
}

fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        Just(Codec::Fp16),
        any::<bool>().prop_map(|error_feedback| Codec::Int8 { error_feedback }),
        (1u32..64, any::<bool>()).prop_map(|(k, error_feedback)| Codec::TopK { k, error_feedback }),
    ]
}

fn arb_update() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0e4f32..1.0e4, 1..256)
}

/// Per-mode elementwise error bound for one encode→decode round trip.
fn bound(codec: Codec, x: &[f32]) -> f32 {
    let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    match codec {
        Codec::Raw => 0.0,
        // Half precision: 2⁻¹¹ relative error for normals, absolute
        // 2⁻²⁵ quantum below the subnormal threshold.
        Codec::Fp16 => max * 4.9e-4 + 3.0e-8,
        // Symmetric int8: half a quantization step of max/127.
        Codec::Int8 { .. } => max / 254.0 + max * 1.0e-6,
        // TopK transmits survivors exactly; dropped entries err by their
        // own magnitude, bounded by the k-th largest one (checked
        // separately below).
        Codec::TopK { .. } => max,
    }
}

/// Every lossy mode the worker can be configured with.
fn lossy_codecs() -> Vec<Codec> {
    let mut codecs = vec![Codec::Fp16];
    for error_feedback in [true, false] {
        codecs.push(Codec::Int8 { error_feedback });
        codecs.push(Codec::TopK {
            k: 3,
            error_feedback,
        });
    }
    codecs
}

/// Shapes a stream of uploads — one per element of `rounds`, each a
/// trained vector against the shared `base` — through
/// `apply_update_roundtrip` and through the oracle it replaced
/// (`encode_delta`, then `params = base + y`), each side carrying its own
/// residual from round to round. Parameters and residual must agree in
/// every bit after every round.
fn assert_in_place_matches_oracle(codec: Codec, base: &[f32], rounds: &[Vec<f32>]) {
    let (mut residual, mut oracle_residual) = (Vec::new(), Vec::new());
    let (mut x, mut blob, mut y) = (Vec::new(), Vec::new(), Vec::new());
    for (round, trained) in rounds.iter().enumerate() {
        let mut params = trained.clone();
        apply_update_roundtrip(codec, base, &mut params, &mut residual);
        encode_delta(
            codec,
            trained,
            base,
            &mut oracle_residual,
            &mut x,
            &mut blob,
            &mut y,
        )
        .expect("own encoding decodes");
        for i in 0..base.len() {
            let want = base[i] + y[i];
            assert_eq!(
                params[i].to_bits(),
                want.to_bits(),
                "{codec:?} round {round} params[{i}]: {} vs oracle {want}",
                params[i]
            );
        }
        assert_eq!(residual.len(), oracle_residual.len(), "{codec:?}");
        for (i, (a, b)) in residual.iter().zip(&oracle_residual).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{codec:?} round {round} residual[{i}]: {a} vs oracle {b}"
            );
        }
    }
}

#[test]
fn in_place_roundtrip_matches_oracle_on_all_zero_deltas() {
    // Scale 0: every code is 0 and the residual stays 0.
    let base: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) * 0.01).collect();
    for codec in lossy_codecs() {
        assert_in_place_matches_oracle(codec, &base, &[base.clone(), base.clone()]);
    }
    // Signed zeros on both sides of the subtraction.
    let base = vec![0.0f32, -0.0, 0.0, -0.0];
    let trained = vec![-0.0f32, 0.0, 0.0, -0.0];
    for codec in lossy_codecs() {
        assert_in_place_matches_oracle(codec, &base, &[trained.clone(), trained.clone()]);
    }
}

#[test]
fn in_place_roundtrip_matches_oracle_on_single_outlier_deltas() {
    // One huge element sets the scale; everything else rounds to long zero
    // runs (escaped on the wire) with short literal runs around the outlier.
    let base: Vec<f32> = (0..70_000)
        .map(|i| ((i % 97) as f32 - 48.0) * 0.03)
        .collect();
    let mut trained: Vec<f32> = base.iter().map(|b| b + 1.0e-4).collect();
    trained[40_001] += 250.0;
    trained[40_003] -= 1.5;
    let mut second = trained.clone();
    second[7] -= 90.0;
    for codec in lossy_codecs() {
        assert_in_place_matches_oracle(codec, &base, &[trained.clone(), second.clone()]);
    }
}

#[test]
fn in_place_roundtrip_matches_oracle_on_subnormal_deltas() {
    // Deltas so small that the scale is subnormal and its inverse is
    // infinite: codes saturate or turn NaN→0, identically on both paths.
    let tiny = f32::from_bits(3);
    let base = vec![0.0f32; 64];
    let trained: Vec<f32> = (0..64)
        .map(|i| match i % 4 {
            0 => tiny,
            1 => -tiny,
            2 => 0.0,
            _ => f32::MIN_POSITIVE / 2.0,
        })
        .collect();
    for codec in lossy_codecs() {
        assert_in_place_matches_oracle(codec, &base, &[trained.clone(), trained.clone()]);
    }
}

proptest! {
    /// The in-place upload shaping equals the `encode_delta` → decode
    /// oracle in every bit of the parameters and the residual, over a
    /// stream of uploads so the residual is exercised as an input too.
    #[test]
    fn in_place_roundtrip_matches_oracle(
        base in arb_update(),
        deltas in proptest::collection::vec(arb_update(), 1..4),
        magnitude in prop_oneof![Just(1.0e-6f32), Just(1.0e-3), Just(1.0)],
    ) {
        let rounds: Vec<Vec<f32>> = deltas
            .iter()
            .map(|d| {
                base.iter()
                    .enumerate()
                    .map(|(i, b)| b + d[i % d.len()] * magnitude)
                    .collect()
            })
            .collect();
        for codec in lossy_codecs() {
            assert_in_place_matches_oracle(codec, &base, &rounds);
        }
    }

    /// encode → decode of any update keeps every element inside the
    /// mode's error bound, and the blob never exceeds its advertised
    /// worst-case length.
    #[test]
    fn roundtrip_error_bounded(codec in arb_codec(), x in arb_update()) {
        let mut blob = Vec::new();
        codec.encode_update(&x, &mut blob);
        prop_assert!(
            blob.len() <= codec.blob_len(x.len()),
            "blob {} > advertised {}", blob.len(), codec.blob_len(x.len())
        );
        let mut y = Vec::new();
        codec.decode_update_into(&blob, x.len(), &mut y).expect("own encoding decodes");
        prop_assert_eq!(y.len(), x.len());
        let b = bound(codec, &x);
        for (i, (&xi, &yi)) in x.iter().zip(&y).enumerate() {
            prop_assert!(
                (xi - yi).abs() <= b,
                "{codec:?} elem {i}: |{xi} - {yi}| > {b}"
            );
        }
        // TopK: every transmitted element is exact, and at most k are.
        if let Codec::TopK { k, .. } = codec {
            let sent = y.iter().filter(|v| **v != 0.0).count();
            prop_assert!(sent <= k as usize, "TopK sent {sent} > k {k}");
            for (&xi, &yi) in x.iter().zip(&y) {
                prop_assert!(yi == 0.0 || yi == xi, "TopK must send exact values");
            }
        }
    }

    /// Raw is bit-exact, always.
    #[test]
    fn raw_roundtrip_bitwise(x in arb_update()) {
        let (mut blob, mut y) = (Vec::new(), Vec::new());
        Codec::Raw.encode_update(&x, &mut blob);
        Codec::Raw.decode_update_into(&blob, x.len(), &mut y).unwrap();
        prop_assert!(x.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// With error feedback on, the residual after each step is exactly
    /// `x − y` (what the wire dropped), so the cumulative transmitted
    /// stream differs from the truth by at most one round's residual —
    /// it never drifts and never blows up.
    #[test]
    fn error_feedback_residual_is_exact_and_bounded(
        updates in proptest::collection::vec(arb_update(), 1..8),
        ef_codec in prop_oneof![
            Just(Codec::Int8 { error_feedback: true }),
            Just(Codec::TopK { k: 3, error_feedback: true }),
        ],
    ) {
        let n = updates[0].len();
        let mut acc = vec![0.0f32; n];
        let mut sum_u = vec![0.0f32; n];
        let mut residual = Vec::new();
        for u in &updates {
            let u = &u[..n.min(u.len())];
            let mut new = acc.clone();
            for (nv, &uv) in new.iter_mut().zip(u) {
                *nv += uv;
            }
            for (s, &uv) in sum_u.iter_mut().zip(u) {
                *s += uv;
            }
            // The base for this round is the receiver's state, as for a
            // worker that syncs before every workunit; what comes back is
            // what the receiver holds after the upload.
            apply_update_roundtrip(ef_codec, &acc, &mut new, &mut residual);
            acc = new;
            // Invariant: truth − transmitted == residual (up to f32
            // rounding in the accumulators), elementwise.
            for i in 0..n {
                let drift = sum_u[i] - acc[i];
                let tol = 1.0e-3 * (1.0f32 + sum_u[i].abs().max(acc[i].abs()));
                prop_assert!(
                    (drift - residual[i]).abs() <= tol,
                    "residual must equal untransmitted mass: {} vs {}",
                    drift, residual[i]
                );
                prop_assert!(residual[i].is_finite(), "residual blew up");
            }
        }
    }

    /// No hostile blob panics any decoder: arbitrary bytes, arbitrary
    /// claimed element count. Errors leave the output empty.
    #[test]
    fn hostile_blobs_never_panic(
        codec in arb_codec(),
        blob in proptest::collection::vec(any::<u8>(), 0..512),
        n in 0usize..4096,
    ) {
        let mut out = Vec::new();
        if codec.decode_update_into(&blob, n, &mut out).is_err() {
            prop_assert!(out.is_empty(), "failed decode must leave no output");
        } else {
            prop_assert_eq!(out.len(), n);
        }
    }

    /// Bit-flipping a valid blob never panics; it either still decodes to
    /// `n` elements or fails cleanly.
    #[test]
    fn flipped_blobs_never_panic(
        codec in arb_codec(),
        x in arb_update(),
        flip_pos in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut blob = Vec::new();
        codec.encode_update(&x, &mut blob);
        if !blob.is_empty() {
            let pos = flip_pos as usize % blob.len();
            blob[pos] ^= 1 << flip_bit;
        }
        let mut out = Vec::new();
        match codec.decode_update_into(&blob, x.len(), &mut out) {
            Ok(()) => prop_assert_eq!(out.len(), x.len()),
            Err(_) => prop_assert!(out.is_empty()),
        }
    }
}

fn setup(n: usize, p: usize, supported: &[Codec]) -> (Arc<PsService>, Vec<f32>, Vec<u64>) {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        p,
        Consistency::Eventual,
        AlphaSchedule::Const(0.5),
    ));
    let params: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25).collect();
    assim.seed_params(&params);
    let svc = Arc::new(PsService::new(assim).with_supported(supported));
    let (full, manifest) = svc.assimilator().read_params();
    svc.publish_snapshot(1, &full, &manifest);
    (svc, full, manifest)
}

/// Satellite fix: a client requesting a codec the service does not speak
/// must get a structured error and fall back to Raw on the same
/// connection — not a dead connection, not a panic.
#[test]
fn unsupported_codec_negotiates_down_to_raw() {
    let (svc, want, manifest) = setup(40, 4, &[]); // Raw only
    let mut client = MemClient::new(svc.clone());
    let mut cache = ShardCache::new(*svc.assimilator().layout()).with_codec(Codec::Int8 {
        error_feedback: true,
    });
    let got = cache
        .sync(1, &manifest, &mut client)
        .expect("sync survives");
    assert_eq!(got, &want[..]);
    assert_eq!(cache.codec(), Codec::Raw, "cache downgraded for good");
    // The downgraded connection keeps working: a republish is fetched
    // as plain `Raw` shards, no renegotiation.
    let moved: Vec<f32> = want.iter().map(|v| v + 1.0).collect();
    let full = svc
        .assimilator()
        .finish(svc.assimilator().begin(), &moved, 1);
    let manifest = svc.assimilator().versions();
    svc.publish_snapshot(2, &full, &manifest);
    let got = cache.sync(2, &manifest, &mut client).expect("raw sync");
    assert_eq!(got, &full[..]);
}

/// A supported lossy codec actually ships deltas once the second epoch
/// publishes, and the service accounts the saved bytes.
#[test]
fn supported_lossy_codec_ships_deltas() {
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let n = 400;
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        4,
        Consistency::Eventual,
        AlphaSchedule::Const(0.5),
    ));
    let params: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25).collect();
    assim.seed_params(&params);
    let svc = Arc::new(
        PsService::new(assim)
            .with_codec(codec)
            .with_supported(&[codec]),
    );
    let (full0, manifest) = svc.assimilator().read_params();
    svc.publish_snapshot(1, &full0, &manifest);
    let mut client = MemClient::new(svc.clone());
    let mut cache = ShardCache::new(*svc.assimilator().layout()).with_codec(codec);
    cache.sync(1, &manifest, &mut client).expect("cold sync");
    // Assimilate a nudged replica and publish epoch 2: the fetch should
    // ride deltas.
    let nudged: Vec<f32> = full0.iter().map(|v| v + 0.5).collect();
    let full2 = svc
        .assimilator()
        .finish(svc.assimilator().begin(), &nudged, 1);
    let m2 = svc.assimilator().versions();
    assert_ne!(manifest, m2);
    svc.publish_snapshot(2, &full2, &m2);
    cache.sync(2, &m2, &mut client).expect("warm sync");
    let ops = svc.codec_ops();
    assert!(
        ops.deltas_sent > 0,
        "warm fetch should ship deltas: {ops:?}"
    );
    assert!(ops.bytes_saved > 0, "codec must save bytes: {ops:?}");
}

/// Bytes one workunit round moves under `codec`, counted the way the
/// runtime counts them: the worker trains a blocky-sparse update (1 in 4 of
/// the 64-weight blocks move, rotating per round — the locality real
/// gradient updates have between publishes), shapes its replica for the
/// upload, the upload is priced at `Codec::blob_len` as the coordinator
/// does, the assimilator blends the shaped replica in, the service
/// publishes the result as a new epoch and the worker cache syncs over the
/// wire. Round 0 warms the codec's reference state and is not counted.
fn bytes_per_round(codec: Codec, n: usize, p: usize, rounds: usize) -> u64 {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        p,
        Consistency::Strong,
        AlphaSchedule::Const(0.6),
    ));
    let params: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.01).collect();
    assim.seed_params(&params);
    let svc = Arc::new(
        PsService::new(assim.clone())
            .with_codec(codec)
            .with_supported(&[codec]),
    );
    svc.publish_snapshot(1, &params, &assim.versions());
    let mut client = MemClient::new(svc.clone());
    let mut cache = ShardCache::new(*assim.layout()).with_codec(codec);
    cache
        .sync(1, &assim.versions(), &mut client)
        .expect("cold sync");

    let mut residual = Vec::new();
    let mut counted_from = svc.ops();
    for round in 0..rounds + 1 {
        if round == 1 {
            counted_from = svc.ops();
        }
        let mut replica = cache.params().to_vec();
        for (g, v) in replica.iter_mut().enumerate() {
            if (g / 64 + round).is_multiple_of(4) {
                let sign = if g.is_multiple_of(2) { 1.0 } else { -1.0 };
                *v += sign * 0.01 * ((g % 13) as f32 + 1.0) / 13.0;
            }
        }
        apply_update_roundtrip(codec, cache.params(), &mut replica, &mut residual);
        let epoch = round + 1;
        let full = assim.finish(assim.begin(), &replica, epoch);
        let manifest = assim.versions();
        svc.publish_snapshot(epoch as u64 + 1, &full, &manifest);
        cache
            .sync(epoch as u64 + 1, &manifest, &mut client)
            .expect("round sync");
    }
    let ops = svc.ops();
    let fetched = (ops.bytes_rx - counted_from.bytes_rx) + (ops.bytes_tx - counted_from.bytes_tx);
    fetched / rounds as u64 + codec.blob_len(n) as u64
}

/// The deterministic floor the retired `bench_ps --check` enforced:
/// `int8` + error feedback moves at most a quarter of `raw`'s bytes per
/// fetch + upload round on the blocky-sparse profile, at every shard count.
#[test]
fn int8_ef_moves_at_most_a_quarter_of_raw_bytes_on_blocky_sparse_updates() {
    let int8 = Codec::Int8 {
        error_feedback: true,
    };
    for shards in [1, 4, 16] {
        let raw = bytes_per_round(Codec::Raw, 10_000, shards, 3);
        let lossy = bytes_per_round(int8, 10_000, shards, 3);
        assert!(
            lossy * 4 <= raw,
            "{shards} shards: int8+ef {lossy} B/round vs raw {raw} B/round"
        );
    }
}
