//! Property tests over the parameter codec layer: both modes' round-trip
//! error stays inside its documented bound, error feedback keeps lossy
//! upload streams unbiased with a bounded residual, and no hostile blob —
//! truncated, bit-flipped, or wholly fabricated — ever panics a decoder.
//! The worker's in-place upload shaping is held, bit for bit, to the
//! `encode_delta` → decode oracle it replaced (kept here, as the oracle),
//! the block-wise Int8 encoder to the per-element one it replaced, and the
//! service's fused publish to the compose-from-primitives sequence it
//! replaced — `Shard` and `ShardDelta` frames byte for byte, on the AVX2
//! and the portable kernel bodies.
//! Plain #[test]s at the bottom hold a worker's cache still — bit for bit
//! and without an allocation — under every delta frame that must not apply.

use proptest::prelude::*;
use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore};
use vc_ps::codec::apply_update_roundtrip;
use vc_ps::merge::ShardedAssimilator;
use vc_ps::service::{PS_BYTES_SAVED, PS_DELTAS_SENT};
use vc_ps::wire::DeltaPayload;
use vc_ps::{
    Codec, FetchReq, FetchSink, FetchSummary, Frame, FrameKind, MemClient, PsClient, PsError,
    PsService, SealedFrame, ShardCache,
};
use vc_telemetry::Telemetry;
use vc_tensor::codec::encode_f32s;
use vc_tensor::isa::{with_tier_cap, Tier};
use vc_tensor::quant::int8_scale;

/// The oracle `apply_update_roundtrip` replaced: encode the update
/// `new − base` (plus the error-feedback residual when the codec carries
/// one) into a real blob and decode it back.
///
/// On return `blob` holds the wire bytes, `y` the decoded (quantized)
/// update the receiver would add to its copy of `base`, and `residual` —
/// when error feedback is on — the quantization error to fold into the
/// next update (0 where the update is not finite: a NaN or Inf coordinate
/// must not live on in it). `residual` must be empty (all-zero) or
/// `new.len()` long.
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
            residual[i] = if x[i].is_finite() { x[i] - y[i] } else { 0.0 };
        }
    }
    Ok(())
}

fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        any::<bool>().prop_map(|error_feedback| Codec::Int8 { error_feedback }),
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
        // Symmetric int8: half a quantization step of max/127.
        Codec::Int8 { .. } => max / 254.0 + max * 1.0e-6,
    }
}

/// Every lossy mode the worker can be configured with.
fn lossy_codecs() -> [Codec; 2] {
    [true, false].map(|error_feedback| Codec::Int8 { error_feedback })
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
    ) {
        let ef_codec = Codec::Int8 { error_feedback: true };
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
    let tel = Telemetry::silent();
    let svc = Arc::new(PsService::new(assim).with_codec(codec).with_telemetry(&tel));
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
        .finish(svc.assimilator().begin(), nudged, 1);
    let m2 = svc.assimilator().versions();
    assert_ne!(manifest, m2);
    svc.publish_snapshot(2, &full2, &m2);
    cache.sync(2, &m2, &mut client).expect("warm sync");
    let snap = tel.registry().snapshot();
    let (deltas, saved) = (snap.counter(PS_DELTAS_SENT), snap.counter(PS_BYTES_SAVED));
    assert!(
        deltas > Some(0),
        "warm fetch should ship deltas: {deltas:?}"
    );
    assert!(saved > Some(0), "codec must save bytes: {saved:?}");
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
    let svc = Arc::new(PsService::new(assim.clone()).with_codec(codec));
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
        let full = assim.finish(assim.begin(), replica, epoch);
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

/// One int8 code by its definition: `round(x · inv)` (ties away from
/// zero) clamped to `[-127, 127]`, NaN → 0.
fn int8_quantize_one(x: f32, inv: f32) -> i8 {
    let q = (x * inv).round();
    if q.is_nan() {
        0
    } else {
        q.clamp(-127.0, 127.0) as i8
    }
}

/// The Int8 encoder `Codec::encode_update` replaced: one `roundf`-defined
/// code at a time, each zero run found by looking ahead.
fn encode_int8_per_element(x: &[f32], out: &mut Vec<u8>) {
    out.clear();
    let n = x.len();
    let scale = int8_scale(x);
    let inv = if scale == 0.0 { 0.0 } else { 1.0 / scale };
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&scale.to_le_bytes());
    let mut i = 0;
    while i < n {
        let c = int8_quantize_one(x[i], inv);
        if c != 0 {
            out.push(c as u8);
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < n && j - i < u16::MAX as usize && int8_quantize_one(x[j], inv) == 0 {
            j += 1;
        }
        let run = j - i;
        if run >= 4 {
            out.push(0x80);
            out.extend_from_slice(&(run as u16).to_le_bytes());
        } else {
            out.extend(std::iter::repeat_n(0u8, run));
        }
        i = j;
    }
}

/// Updates whose zero runs sit on every boundary the block-wise encoder
/// has: shorter and longer than the 4-zero escape threshold, across its
/// 1024-element blocks, past the 65 535 zeros one token can carry, and at
/// both ends of the vector.
fn runny_updates() -> Vec<Vec<f32>> {
    let mut updates = Vec::new();
    for n in [0usize, 1, 3, 4, 5, 1023, 1024, 1025, 2050, 70_000, 140_000] {
        // All zero, all nonzero, and one literal at each end.
        updates.push(vec![0.0; n]);
        updates.push((0..n).map(|i| (i % 7) as f32 - 3.5).collect());
        if n >= 2 {
            let mut ends = vec![0.0f32; n];
            ends[0] = 1.0;
            ends[n - 1] = -1.0;
            updates.push(ends);
        }
        // Zero runs of every length 1..=9 in turn, so runs of 3, 4 and 5
        // land on a block boundary somewhere.
        let mut cycling = Vec::with_capacity(n);
        let mut run = 1;
        while cycling.len() < n {
            cycling.extend(std::iter::repeat_n(0.0f32, run));
            cycling.push(if run % 2 == 0 { 0.75 } else { -0.5 });
            run = run % 9 + 1;
        }
        cycling.truncate(n);
        updates.push(cycling);
    }
    updates
}

#[test]
fn block_wise_int8_encoder_matches_the_per_element_encoder() {
    let codec = Codec::Int8 {
        error_feedback: false,
    };
    let (mut blob, mut want) = (Vec::new(), Vec::new());
    for x in runny_updates() {
        encode_int8_per_element(&x, &mut want);
        for portable in [false, true] {
            if portable {
                with_tier_cap(Tier::Portable, || codec.encode_update(&x, &mut blob));
            } else {
                codec.encode_update(&x, &mut blob);
            }
            assert!(blob == want, "n {} portable {portable}", x.len());
        }
        // And the blob decodes, and applies in place, to the same update.
        let (mut y, mut acc) = (Vec::new(), vec![-0.0f32; x.len()]);
        codec
            .decode_update_into(&blob, x.len(), &mut y)
            .expect("own blob decodes");
        codec.add_update_to(&blob, &mut acc).expect("own blob adds");
        for (a, y) in acc.iter().zip(&y) {
            assert_eq!(a.to_bits(), (-0.0f32 + y).to_bits());
        }
    }
}

proptest! {
    #[test]
    fn block_wise_int8_encoder_matches_the_per_element_encoder_on_random_updates(
        x in proptest::collection::vec(-1.0f32..1.0, 0..3000),
        sparsity in 1usize..12,
    ) {
        // Most elements round to zero at the scale the few large ones set.
        let x: Vec<f32> = x
            .iter()
            .enumerate()
            .map(|(i, v)| if i % sparsity == 0 { *v } else { v * 1.0e-3 })
            .collect();
        let (mut blob, mut want) = (Vec::new(), Vec::new());
        encode_int8_per_element(&x, &mut want);
        Codec::Int8 { error_feedback: true }.encode_update(&x, &mut blob);
        prop_assert!(blob == want);
    }
}

fn service_with_codec(n: usize, shards: usize, codec: Codec) -> Arc<PsService> {
    let assim = Arc::new(ShardedAssimilator::new(
        Arc::new(VersionedStore::new()),
        n,
        shards,
        Consistency::Eventual,
        AlphaSchedule::Const(0.5),
    ));
    Arc::new(PsService::new(assim).with_codec(codec))
}

/// The frames a fetch of `epoch` answers `wants` with, summary dropped.
fn fetch_frames(
    svc: &PsService,
    epoch: u64,
    wants: Vec<(u32, u64)>,
    codec: Codec,
) -> Vec<SealedFrame> {
    let mut out = Vec::new();
    svc.handle(
        &FetchReq {
            epoch,
            wants,
            codec,
        }
        .to_frame(),
        &mut out,
    );
    let done = out.pop().expect("a fetch ends with its summary");
    assert_eq!(done.kind, FrameKind::FetchDone, "{:?}", done.payload);
    out
}

/// The publish sequence `PsService::publish_snapshot` replaced, kept as
/// its oracle: a full-precision reference vector beside the frames, each
/// moved shard's update formed in a scratch vector, encoded, decoded and
/// added to the reference, and both frames built from copies.
struct ComposedPublisher {
    codec: Codec,
    reference: Vec<f32>,
    manifest: Vec<u64>,
}

impl ComposedPublisher {
    /// The `Shard` frame of every shard and the `ShardDelta` frame of each
    /// moved one, as publishing `params` under `manifest` must produce.
    fn publish(
        &mut self,
        ranges: &[std::ops::Range<usize>],
        params: &[f32],
        manifest: &[u64],
    ) -> (Vec<SealedFrame>, Vec<Option<SealedFrame>>) {
        let first = self.reference.is_empty();
        if first {
            self.reference = params.to_vec();
        }
        let (mut shards, mut deltas) = (Vec::new(), Vec::new());
        for (i, range) in ranges.iter().enumerate() {
            let mut delta = None;
            if !first && manifest[i] != self.manifest[i] {
                let x: Vec<f32> = range
                    .clone()
                    .map(|g| params[g] - self.reference[g])
                    .collect();
                let (mut blob, mut y) = (Vec::new(), Vec::new());
                self.codec.encode_update(&x, &mut blob);
                self.codec
                    .decode_update_into(&blob, x.len(), &mut y)
                    .expect("own encoding decodes");
                for (g, y) in range.clone().zip(&y) {
                    self.reference[g] += y;
                }
                let payload = DeltaPayload {
                    base: self.manifest[i],
                    codec: self.codec,
                    blob: &blob,
                };
                delta = Some(payload.to_frame(i as u32, manifest[i]).into());
            }
            deltas.push(delta);
            shards.push(
                Frame {
                    kind: FrameKind::Shard,
                    shard_id: i as u32,
                    version: manifest[i],
                    payload: encode_f32s(&self.reference[range.clone()]),
                }
                .into(),
            );
        }
        self.manifest = manifest.to_vec();
        (shards, deltas)
    }
}

/// Publishes eight epochs — every shard moving, some, one, none — through
/// the service and through [`ComposedPublisher`], and holds every `Shard`
/// and `ShardDelta` frame the service then serves to the oracle's, sealed
/// checksum included. The update moves in stretches of `stretch` elements
/// (dense, near-zero, zero) with an outlier every `outlier_every`; returns
/// whether some delta carried a maximal `[0x80][0xFFFF]` zero run.
fn assert_fused_publish_matches_composed(
    codec: Codec,
    n: usize,
    shards: usize,
    stretch: usize,
    outlier_every: usize,
) -> bool {
    let svc = service_with_codec(n, shards, codec);
    let layout = *svc.assimilator().layout();
    let ranges: Vec<_> = layout.iter().map(|(_, r)| r).collect();
    let mut oracle = ComposedPublisher {
        codec,
        reference: Vec::new(),
        manifest: Vec::new(),
    };
    let mut params: Vec<f32> = (0..n)
        .map(|i| ((i * 31 % 211) as f32 - 105.0) * 0.01)
        .collect();
    let mut manifest = vec![1u64; shards];
    // Which shards move at each publish after the first (bit i: shard i).
    let moves = [!0usize, 0b0101, 0, 0b0010, !0, 0b1000, 0b0111];
    let mut saw_max_run = false;
    for (step, moved) in std::iter::once(!0).chain(moves).enumerate() {
        let epoch = step as u64 + 1;
        let before = manifest.clone();
        if step > 0 {
            for (g, p) in params.iter_mut().enumerate() {
                // Dense small steps, a sparse stretch that rounds to long
                // zero runs, and an occasional outlier. Unmoved shards
                // drift too: the service must not look at them.
                let wave = (((g * 7 + step * 13) % 29) as f32 - 14.0) * 1.0e-3;
                *p += match (g / stretch + step) % 3 {
                    0 => wave,
                    1 => wave * 1.0e-3,
                    _ => 0.0,
                };
                if (g + step * 17) % outlier_every == 0 {
                    *p -= 0.8;
                }
            }
            for (i, v) in manifest.iter_mut().enumerate() {
                if moved >> i & 1 == 1 {
                    *v += 1 + step as u64 % 2;
                }
            }
        }
        svc.publish_snapshot(epoch, &params, &manifest);
        let (want_shards, want_deltas) = oracle.publish(&ranges, &params, &manifest);

        let cold = (0..shards as u32).map(|i| (i, 0)).collect();
        let got_shards = fetch_frames(&svc, epoch, cold, Codec::Raw);
        assert!(
            got_shards == want_shards,
            "{codec:?} step {step}: shard frames"
        );
        let tracking = (0..shards as u32).zip(before).collect();
        let got_deltas = fetch_frames(&svc, epoch, tracking, codec);
        let want_deltas: Vec<SealedFrame> = want_deltas.into_iter().flatten().collect();
        assert!(
            got_deltas == want_deltas,
            "{codec:?} step {step}: delta frames"
        );
        saw_max_run |= got_deltas
            .iter()
            .any(|f| f.payload.windows(3).any(|w| w == [0x80, 0xFF, 0xFF]));
        if step > 0 {
            let moved_shards = (0..shards).filter(|i| moved >> i & 1 == 1).count();
            assert_eq!(got_deltas.len(), moved_shards, "{codec:?} step {step}");
        }
        svc.retire_snapshots_before(epoch);
    }
    saw_max_run
}

#[test]
fn fused_publish_matches_compose_from_primitives() {
    for codec in lossy_codecs() {
        // 1250-element shards: one full kernel block and a ragged one.
        assert_fused_publish_matches_composed(codec, 5_000, 4, 700, 1901);
        with_tier_cap(Tier::Portable, || {
            assert_fused_publish_matches_composed(codec, 5_000, 4, 700, 1901)
        });
    }
    // Shards long enough, and updates sparse enough, for a zero run to
    // outgrow the 65 535 elements one token can carry.
    let int8 = Codec::Int8 {
        error_feedback: true,
    };
    assert!(
        assert_fused_publish_matches_composed(int8, 280_003, 4, 100_000, 69_997),
        "no delta carried a maximal zero run"
    );
}

/// A transport that answers every fetch with the same prepared frames.
struct Replay {
    frames: Vec<Frame>,
}

impl PsClient for Replay {
    fn fetch(
        &mut self,
        _epoch: u64,
        _wants: &[(u32, u64)],
        _codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError> {
        for f in &self.frames {
            sink(f.clone());
        }
        Ok(FetchSummary {
            sent: self.frames.len() as u32,
            skipped: 0,
        })
    }
}

/// A delta that does not apply — truncated run, overlong, short, wrong
/// base, non-finite scale, wrong count, or a descriptor that does not say
/// `Int8` — leaves the cache exactly as it was, even when it arrives after
/// a frame that did apply to another shard's range.
#[test]
fn hostile_delta_leaves_the_cache_untouched() {
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let (n, shards) = (64usize, 2usize);
    let svc = service_with_codec(n, shards, codec);
    let params: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 9.0).collect();
    svc.publish_snapshot(1, &params, &[1, 1]);
    let mut cache = ShardCache::new(*svc.assimilator().layout()).with_codec(codec);
    cache
        .sync(1, &[1, 1], &mut MemClient::new(svc.clone()))
        .expect("cold sync");
    let held: Vec<u32> = cache.params().iter().map(|p| p.to_bits()).collect();

    // A valid blob for shard 1 (32 elements) to corrupt.
    let update: Vec<f32> = (0..32)
        .map(|i| if i % 8 < 6 { 0.0 } else { 0.01 * i as f32 })
        .collect();
    let mut good = Vec::new();
    codec.encode_update(&update, &mut good);
    assert!(good.contains(&0x80), "the blob must carry a zero run");
    let with_blob = |base: u64, blob: &[u8]| DeltaPayload { base, codec, blob }.to_frame(1, 2);
    let mut hostile = vec![
        ("wrong base", with_blob(7, &good)),
        ("run cut short", with_blob(1, &good[..good.len() - 1])),
        ("short of n", with_blob(1, &good[..9])),
    ];
    let mut overlong = good.clone();
    overlong.push(5);
    hostile.push(("overlong", with_blob(1, &overlong)));
    let mut escape_at_end = good.clone();
    escape_at_end.extend_from_slice(&[0x80, 1]);
    hostile.push(("escape truncated", with_blob(1, &escape_at_end)));
    let mut long_run = good[..8].to_vec();
    long_run.extend_from_slice(&[0x80, 33, 0]);
    hostile.push(("run past the end", with_blob(1, &long_run)));
    let mut nan_scale = good.clone();
    nan_scale[4..8].copy_from_slice(&f32::NAN.to_le_bytes());
    hostile.push(("scale not finite", with_blob(1, &nan_scale)));
    let mut wrong_count = good.clone();
    wrong_count[0] ^= 1;
    hostile.push(("wrong count", with_blob(1, &wrong_count)));
    // Descriptors that are not `Int8`, each over a blob its own decoder
    // would have taken: a `Raw` frame holds a shard's values, not an update
    // to them, and ids 1 and 3 are retired (DESIGN §12a) — 32 binary16
    // ones, and one `(index, value)` pair of 32.
    let with_desc = |desc: [u8; 6], blob: &[u8]| {
        let mut f = with_blob(1, blob);
        let mut payload = f.payload.to_vec();
        payload[8..14].copy_from_slice(&desc);
        f.payload = payload.into();
        f
    };
    hostile.push(("raw descriptor", with_desc([0; 6], &encode_f32s(&update))));
    let mut halves = 32u32.to_le_bytes().to_vec();
    halves.extend(std::iter::repeat_n([0x00, 0x3c], 32).flatten());
    hostile.push(("retired id 1", with_desc([1, 0, 0, 0, 0, 0], &halves)));
    let pair: Vec<u8> = [32u32, 1, 0, 1.0f32.to_bits()]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    hostile.push(("retired id 3", with_desc([3, 0, 1, 0, 0, 0], &pair)));

    for (what, frame) in hostile {
        let err = cache
            .sync(
                2,
                &[1, 2],
                &mut Replay {
                    frames: vec![frame],
                },
            )
            .expect_err(what);
        assert!(matches!(err, PsError::ShortResponse(_)), "{what}: {err:?}");
        let now: Vec<u32> = cache.params().iter().map(|p| p.to_bits()).collect();
        assert!(now == held, "{what}: params moved");
        assert_eq!(cache.versions(), &[1, 1], "{what}: versions moved");
    }
    // The untampered delta does apply, so the rejections above were about
    // the bytes, not the set-up — whatever the descriptor's four reserved
    // bytes hold.
    let frames = vec![with_desc([2, 1, 0xEF, 0xBE, 0xAD, 0xDE], &good)];
    let got = cache
        .sync(2, &[1, 2], &mut Replay { frames })
        .expect("valid delta");
    let mut y = Vec::new();
    codec.decode_update_into(&good, 32, &mut y).unwrap();
    for i in 0..32 {
        assert_eq!(got[32 + i].to_bits(), (params[32 + i] + y[i]).to_bits());
    }
    assert_eq!(cache.versions(), &[1, 2]);
}

/// One NaN and one Inf in a trained replica must not outlive the round
/// they appeared in. Before the residual was cleared where the update is
/// not finite, the NaN coordinate quantized to 0 and kept `residual = NaN`
/// for the worker's whole life (its upload never moving again, and passing
/// `result_is_valid` as `base + 0`), and the Inf coordinate uploaded
/// `base + 127·scale` every round.
#[test]
fn a_non_finite_coordinate_does_not_poison_the_residual() {
    let (nan_at, inf_at) = (5usize, 21usize);
    let n = 40;
    let codec = Codec::Int8 {
        error_feedback: true,
    };
    let base: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
    // Every round trains the same step onto the base: +1.0 on one
    // coordinate (it sets the Int8 scale), +0.5 and +0.25 on the two
    // that get poisoned, small steps elsewhere.
    let trained: Vec<f32> = (0..n)
        .map(|i| {
            base[i]
                + match i {
                    0 => 1.0,
                    i if i == nan_at => 0.5,
                    i if i == inf_at => 0.25,
                    _ => 0.01 * (i % 5) as f32,
                }
        })
        .collect();
    let (mut clean_residual, mut residual) = (Vec::new(), Vec::new());
    for round in 0..4 {
        let mut clean = trained.clone();
        apply_update_roundtrip(codec, &base, &mut clean, &mut clean_residual);
        let mut poisoned = trained.clone();
        if round == 0 {
            poisoned[nan_at] = f32::NAN;
            poisoned[inf_at] = f32::INFINITY;
        }
        apply_update_roundtrip(codec, &base, &mut poisoned, &mut residual);
        assert!(
            residual.iter().all(|r| r.is_finite()),
            "{codec:?} round {round}: residual {residual:?}"
        );
        if round == 0 {
            assert_eq!(residual[nan_at], 0.0, "{codec:?}");
            assert_eq!(residual[inf_at], 0.0, "{codec:?}");
            continue;
        }
        // From the next round on both coordinates are within one
        // quantization step (1/127 at this scale) of the clean run's,
        // which carries a round-0 residual the poisoned run dropped.
        for at in [nan_at, inf_at] {
            assert!(
                (poisoned[at] - clean[at]).abs() <= 1.0 / 127.0,
                "{codec:?} round {round} coordinate {at}: {} vs clean {}",
                poisoned[at],
                clean[at]
            );
        }
    }
}
