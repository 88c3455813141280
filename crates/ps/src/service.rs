//! The parameter service: one request handler shared by every transport.
//!
//! [`PsService::handle`] maps a request frame to its response frames;
//! `PsService::serve` is the server side of every transport: it reads
//! one request off a byte stream, handles it and writes the responses.
//! A TCP connection thread calls it on its socket and the in-process
//! [`crate::MemClient`] on its loopback stream's flush, so a sweep under
//! the in-memory transport runs the same decoder, writer and bytes as a
//! real socket run.
//!
//! Fetches are served from *epoch snapshots*: at each epoch boundary the
//! coordinator publishes the assembled parameter vector with its per-shard
//! version manifest, and workers fetch against that epoch. A worker that
//! already caches a shard at the manifest version gets it skipped — the
//! partial-fetch path that makes sharding pay off on the wire.
//!
//! Every frame a fetch ships is built and checksummed once, at publish.
//! Under `Raw` the `Shard` frames *are* the store's blobs: a publish reads
//! each shard's stored `Bytes` ([`ShardedAssimilator::read_blobs`]) and
//! makes it the frame payload, so the snapshot costs a checksum pass and
//! no copy of the parameters. Under a lossy codec a publish is one fused
//! pass per *moved* shard, reading the stored blob's values: the
//! previous publish's sealed `Shard` payload is the delta reference, and
//! the pass writes the advanced reference into the new `Shard` payload
//! and the quantized delta into the `ShardDelta` payload as it goes — the
//! latest frames are the only copy of the reference there is — while a
//! shard that did not move keeps its sealed frame, payload and checksum.
//!
//! The service is read-only to workers: `Fetch` is the one request it
//! answers. A trained replica reaches the store through the scheduler's
//! validator and the assimilator ([`ShardedAssimilator::begin`] /
//! [`ShardedAssimilator::finish`]), never over this protocol.

use crate::codec::{advance_reference, Codec};
use crate::merge::ShardedAssimilator;
use crate::wire::{
    err_code, error_frame, error_frame_code, read_frame, DeltaPayload, FetchReq, FetchSummary,
    Frame, FrameKind, FrameReadError, SealedFrame, WireError,
};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use vc_telemetry::{Counter, Histogram, Registry, Telemetry};
use vc_tensor::codec::{decode_f32s_into_slice, encoded_len};

/// Counter: fetch requests served.
pub const PS_FETCHES: &str = "ps_fetches";
/// Counter: shard frames sent (full blobs and deltas).
pub const PS_SHARDS_SENT: &str = "ps_shards_sent";
/// Counter: wanted shards skipped because the worker already held them.
pub const PS_CACHE_HITS: &str = "ps_cache_hits";
/// Counter: request bytes received (frame-encoded size).
pub const PS_BYTES_RX: &str = "ps_bytes_rx";
/// Counter: response bytes sent (frame-encoded size).
pub const PS_BYTES_TX: &str = "ps_bytes_tx";
/// Counter: shard fetches answered with a quantized delta.
pub const PS_DELTAS_SENT: &str = "ps_deltas_sent";
/// Counter: bytes the codec layer kept off the wire (full-blob size minus
/// the delta frame actually sent).
pub const PS_BYTES_SAVED: &str = "ps_bytes_saved";
/// Histogram: seconds spent quantizing updates at snapshot publish.
pub const PS_ENCODE_S: &str = "ps_encode_s";

/// One epoch's published parameters, pre-framed per shard: each blob is
/// checksummed once here, and every fetch that ships it clones the ready
/// frame (a shared payload, no bytes copied). Under `Int8`
/// each *moved* shard also carries its quantized delta against the
/// previous publish (`base_manifest` names the version the delta applies
/// on top of), so a worker that tracked the last epoch downloads the
/// delta instead of the full blob.
struct EpochSnapshot {
    manifest: Vec<u64>,
    /// The full-precision `Shard` frame of every shard.
    shards: Vec<SealedFrame>,
    /// The `ShardDelta` frame per shard, `None` where the shard did not
    /// move (or on the first / `Raw` publish). Indexed like `shards` when
    /// non-empty.
    deltas: Vec<Option<SealedFrame>>,
    /// Version each delta applies on top of (previous publish's manifest).
    base_manifest: Vec<u64>,
}

/// The fetch-response frame carrying shard `i`'s blob at `version`.
fn shard_frame(i: usize, version: u64, payload: Bytes) -> SealedFrame {
    Frame {
        kind: FrameKind::Shard,
        shard_id: i as u32,
        version,
        payload,
    }
    .into()
}

struct PsInstruments {
    tel: Telemetry,
    encode_s: Arc<Histogram>,
}

/// The service's traffic counts, as [`PsService::ops`] reads them. All
/// counts are deterministic functions of the request stream, so DST
/// reports can assert on them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PsOps {
    /// Fetch requests served: one per sync that reaches the wire, on
    /// either transport.
    pub fetches: u64,
    /// Shard blobs actually sent.
    pub shards_sent: u64,
    /// Wanted *parameter* shards skipped because the worker's cache already
    /// held them at the manifest version. Not the middleware's
    /// `ServerMetrics::cache_hits`, which counts sticky *data*-shard
    /// assignments.
    pub cache_hits: u64,
    /// Always 0: the service merges nothing (workers cannot write to
    /// it). The field stays because `RuntimeReport` serialises `PsOps`
    /// and the golden report hashes pin those bytes.
    pub pushes: u64,
    /// Request bytes received (frame-encoded size).
    pub bytes_rx: u64,
    /// Response bytes sent (frame-encoded size).
    pub bytes_tx: u64,
}

/// The service's seven counters, created together: private until
/// [`PsService::with_telemetry`] swaps in the registry's, so `/metrics`
/// exports the very counts [`PsService::ops`] reports.
#[derive(Default)]
struct Counters {
    fetches: Arc<Counter>,
    shards_sent: Arc<Counter>,
    cache_hits: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    deltas_sent: Arc<Counter>,
    bytes_saved: Arc<Counter>,
}

impl Counters {
    fn registered(reg: &Registry) -> Self {
        Counters {
            fetches: reg.counter(PS_FETCHES),
            shards_sent: reg.counter(PS_SHARDS_SENT),
            cache_hits: reg.counter(PS_CACHE_HITS),
            bytes_rx: reg.counter(PS_BYTES_RX),
            bytes_tx: reg.counter(PS_BYTES_TX),
            deltas_sent: reg.counter(PS_DELTAS_SENT),
            bytes_saved: reg.counter(PS_BYTES_SAVED),
        }
    }
}

/// The sharded parameter service.
pub struct PsService {
    assim: Arc<ShardedAssimilator>,
    snapshots: RwLock<HashMap<u64, EpochSnapshot>>,
    counters: Counters,
    codec: Codec,
    /// The `Shard` frames of the latest lossy publish (empty before the
    /// first). They *are* the reference every delta-tracking worker
    /// converges to — the exact sum of the quantized deltas — held in wire
    /// form and shared with the snapshot that serves them, so the
    /// reference costs no memory of its own; each frame's `version` is the
    /// manifest entry the next delta applies on top of.
    ///
    /// Note there is deliberately **no** error-feedback residual here.
    /// Each publish encodes `params − reference`, and the reference only
    /// advances by what was actually transmitted — so any mass a lossy
    /// codec drops is still present in the *next* delta automatically.
    /// Adding an explicit residual on top would count that mass twice per
    /// round and diverge. Explicit residuals belong to the worker's upload
    /// shaping (see [`crate::codec::apply_update_roundtrip`]), where the
    /// base is re-synced each round and dropped mass would otherwise be
    /// lost.
    latest: Mutex<Vec<SealedFrame>>,
    instruments: Option<PsInstruments>,
}

impl PsService {
    /// Wraps an assimilator as a frame-serving service.
    pub fn new(assim: Arc<ShardedAssimilator>) -> Self {
        PsService {
            assim,
            snapshots: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            codec: Codec::Raw,
            latest: Mutex::new(Vec::new()),
            instruments: None,
        }
    }

    /// Selects the codec used when publishing snapshots. Fetch responses
    /// only ship deltas to workers requesting this same codec.
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Attaches telemetry before first use: the traffic counters become
    /// the registry's `ps_*` counters, and publish-time encodes are timed
    /// into [`PS_ENCODE_S`].
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        let reg = tel.registry();
        self.counters = Counters::registered(reg);
        self.instruments = Some(PsInstruments {
            tel: tel.clone(),
            encode_s: reg.histogram(PS_ENCODE_S),
        });
        self
    }

    /// The merge pipeline behind this service.
    pub fn assimilator(&self) -> &Arc<ShardedAssimilator> {
        &self.assim
    }

    /// Publishes `shards` — each shard's VCP1 blob with its store version,
    /// as [`ShardedAssimilator::read_blobs`] returns them — as the snapshot
    /// workers fetch for `epoch`.
    ///
    /// Under `Raw` each blob *is* its `Shard` frame's payload: the store's
    /// own buffer, shared (the store installs a fresh one on every write,
    /// so a published payload never changes under its banked checksum).
    ///
    /// Under a lossy codec the service maintains a *reference* — the exact
    /// value every delta-tracking worker reconstructs — and publishes each
    /// moved shard twice: a full-precision blob of the reference (for cold
    /// or stale workers) and the quantized delta that advanced the
    /// reference from the previous publish. The reference is the previous
    /// publish's `Shard` payloads themselves: a moved shard is one fused
    /// pass (`advance_reference`) from the old payload and the new blob
    /// to the new payload and the delta's, both written where they will be
    /// served from, and a shard that did not move re-uses its sealed frame
    /// as it stands. The first publish is always exact (there is no base
    /// to delta against).
    pub fn publish(&self, epoch: u64, shards: &[(Bytes, u64)]) {
        let layout = self.assim.layout();
        assert_eq!(shards.len(), layout.shards(), "one blob per shard");
        for (i, (blob, _)) in shards.iter().enumerate() {
            assert_eq!(
                blob.len(),
                encoded_len(layout.len(i)),
                "shard {i} blob length"
            );
        }
        let manifest: Vec<u64> = shards.iter().map(|&(_, v)| v).collect();
        let exact =
            |(i, (blob, version)): (usize, &(Bytes, u64))| shard_frame(i, *version, blob.clone());
        if self.codec == Codec::Raw {
            self.snapshots.write().insert(
                epoch,
                EpochSnapshot {
                    manifest,
                    shards: shards.iter().enumerate().map(exact).collect(),
                    deltas: Vec::new(),
                    base_manifest: Vec::new(),
                },
            );
            return;
        }
        let mut latest = self.latest.lock();
        let mut deltas = vec![None; layout.shards()];
        let mut base_manifest = manifest.clone();
        let frames: Vec<SealedFrame> = if latest.is_empty() {
            shards.iter().enumerate().map(exact).collect()
        } else {
            shards
                .iter()
                .enumerate()
                .map(|(i, (blob, version))| {
                    let prev = &latest[i];
                    if *version == prev.version {
                        return prev.clone();
                    }
                    let worst = DeltaPayload::PREFIX_LEN + self.codec.blob_len(layout.len(i));
                    let mut delta = Vec::with_capacity(worst);
                    DeltaPayload::write_prefix(prev.version, self.codec, &mut delta);
                    let t0 = self.instruments.as_ref().map(|ins| ins.tel.now_s());
                    let next = advance_reference(blob, &prev.payload, &mut delta);
                    if let (Some(t0), Some(ins)) = (t0, self.instruments.as_ref()) {
                        ins.encode_s.observe(ins.tel.now_s() - t0);
                    }
                    delta.shrink_to_fit();
                    let delta = Frame {
                        kind: FrameKind::ShardDelta,
                        shard_id: i as u32,
                        version: *version,
                        payload: Bytes::from(delta),
                    };
                    deltas[i] = Some(delta.into());
                    base_manifest[i] = prev.version;
                    shard_frame(i, *version, Bytes::from(next))
                })
                .collect()
        };
        latest.clone_from(&frames);
        self.snapshots.write().insert(
            epoch,
            EpochSnapshot {
                manifest,
                shards: frames,
                deltas,
                base_manifest,
            },
        );
    }

    /// [`Self::publish`] of `params`, encoded along the layout, with
    /// `manifest` as the shard versions. Kept for `benchmark/src/probes.rs`,
    /// tests and a resume, whose checkpointed snapshot is not what the
    /// store holds; every other publish shares the store's blobs.
    #[doc(hidden)]
    pub fn publish_snapshot(&self, epoch: u64, params: &[f32], manifest: &[u64]) {
        assert_eq!(
            manifest.len(),
            self.assim.layout().shards(),
            "manifest length"
        );
        let shards: Vec<(Bytes, u64)> = self
            .assim
            .encode_shards(params)
            .into_iter()
            .zip(manifest.iter().copied())
            .collect();
        self.publish(epoch, &shards);
    }

    /// Drops snapshots older than `keep_from`. Epochs are monotonic; the
    /// coordinator calls this after every publish, keeping the new epoch
    /// and the one before it. A fetch for a retired epoch gets an error
    /// frame and the worker drops that assignment.
    pub fn retire_snapshots_before(&self, keep_from: u64) {
        self.snapshots.write().retain(|&e, _| e >= keep_from);
    }

    /// Reassembles the full parameter vector of a published epoch
    /// snapshot, if still retained.
    pub fn snapshot_params(&self, epoch: u64) -> Option<Vec<f32>> {
        let snaps = self.snapshots.read();
        let snap = snaps.get(&epoch)?;
        let layout = self.assim.layout();
        let mut full = vec![0.0; layout.param_count()];
        for (i, range) in layout.iter() {
            decode_f32s_into_slice(&snap.shards[i].payload, &mut full[range])
                .expect("snapshot blobs are valid");
        }
        Some(full)
    }

    /// Traffic counts so far. The codec's two counters, deltas sent and
    /// bytes saved, are read from the registry (`ps_deltas_sent`,
    /// `ps_bytes_saved`): `PsOps` is serialised in golden-hashed reports.
    pub fn ops(&self) -> PsOps {
        let c = &self.counters;
        PsOps {
            fetches: c.fetches.get(),
            shards_sent: c.shards_sent.get(),
            cache_hits: c.cache_hits.get(),
            pushes: 0,
            bytes_rx: c.bytes_rx.get(),
            bytes_tx: c.bytes_tx.get(),
        }
    }

    /// Handles one request frame, appending response frames to `out`.
    /// Protocol-level failures become [`FrameKind::Error`] frames rather
    /// than errors — the connection survives a bad request.
    pub fn handle(&self, req: &Frame, out: &mut Vec<SealedFrame>) {
        let before = out.len();
        self.counters.bytes_rx.add(req.encoded_len() as u64);
        // Every exchange closes with one frame: the summary, or the error
        // that cut it short.
        let last = match req.kind {
            FrameKind::Fetch => self.handle_fetch(req, out),
            _ => error_frame("unexpected frame kind"),
        };
        out.push(last.into());
        let tx: usize = out[before..].iter().map(|f| f.encoded_len()).sum();
        self.counters.bytes_tx.add(tx as u64);
    }

    fn handle_fetch(&self, req: &Frame, out: &mut Vec<SealedFrame>) -> Frame {
        let fetch = match FetchReq::from_frame(req) {
            Ok(f) => f,
            Err(WireError::UnsupportedCodec(id)) => {
                return error_frame_code(
                    err_code::UNSUPPORTED_CODEC,
                    &format!("unknown codec id {id}"),
                )
            }
            Err(e) => return error_frame(&format!("bad fetch: {e}")),
        };
        let snaps = self.snapshots.read();
        let Some(snap) = snaps.get(&fetch.epoch) else {
            return error_frame(&format!("no snapshot for epoch {}", fetch.epoch));
        };
        // A rejected fetch moves nothing: the whole want list is checked
        // before the first frame goes out.
        let shards = self.assim.layout().shards();
        if let Some((id, _)) = fetch.wants.iter().find(|&&(id, _)| id as usize >= shards) {
            return error_frame(&format!("shard {id} out of range"));
        }
        let c = &self.counters;
        let mut sent = 0u32;
        let mut skipped = 0u32;
        for &(id, cached) in &fetch.wants {
            let i = id as usize;
            if snap.manifest[i] == cached {
                skipped += 1;
                continue;
            }
            sent += 1;
            // A worker tracking the previous publish under the same codec
            // gets the quantized delta; everyone else the full blob.
            if fetch.codec != Codec::Raw
                && fetch.codec == self.codec
                && !snap.deltas.is_empty()
                && cached == snap.base_manifest[i]
            {
                if let Some(delta) = &snap.deltas[i] {
                    let full_len = snap.shards[i].encoded_len();
                    let saved = full_len.saturating_sub(delta.encoded_len()) as u64;
                    c.bytes_saved.add(saved);
                    c.deltas_sent.inc();
                    out.push(delta.clone());
                    continue;
                }
            }
            out.push(snap.shards[i].clone());
        }
        c.fetches.inc();
        c.shards_sent.add(u64::from(sent));
        c.cache_hits.add(u64::from(skipped));
        FetchSummary { sent, skipped }.to_frame(fetch.epoch)
    }

    /// Serves one request off a byte stream: reads a frame
    /// ([`read_frame`]), [handles](Self::handle) it, writes each response
    /// frame with the checksum banked at publish and flushes. Bytes that
    /// are not a frame (bad length, bad CRC, unknown kind) are an error,
    /// and the caller drops the connection; a well-formed request the
    /// service refuses is answered with an `Error` frame.
    pub(crate) fn serve(
        &self,
        r: &mut impl Read,
        w: &mut impl Write,
    ) -> Result<(), FrameReadError> {
        let req = read_frame(r)?;
        // Dropped with the request: a response shares its payloads with
        // the epoch snapshot, and an idle connection must not pin a
        // retired one.
        let mut out = Vec::new();
        self.handle(&req, &mut out);
        for frame in &out {
            frame.write_to(w).map_err(FrameReadError::Io)?;
        }
        w.flush().map_err(FrameReadError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};

    fn service(n: usize, p: usize) -> PsService {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            p,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        ));
        let params: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let seeded = assim.seed_params(&params);
        let svc = PsService::new(assim);
        svc.publish(1, &seeded);
        svc
    }

    fn fetch_all(svc: &PsService, epoch: u64, shards: usize) -> Vec<SealedFrame> {
        let req = FetchReq {
            epoch,
            wants: (0..shards as u32).map(|i| (i, 0)).collect(),
            codec: Codec::Raw,
        }
        .to_frame();
        let mut out = Vec::new();
        svc.handle(&req, &mut out);
        out
    }

    #[test]
    fn fetch_returns_every_shard_then_done() {
        let svc = service(10, 3);
        let out = fetch_all(&svc, 1, 3);
        assert_eq!(out.len(), 4);
        for (i, f) in out[..3].iter().enumerate() {
            assert_eq!(f.kind, FrameKind::Shard);
            assert_eq!(f.shard_id, i as u32);
            assert_eq!(f.version, 1);
        }
        let done = FetchSummary::from_frame(&out[3]).unwrap();
        assert_eq!(
            done,
            FetchSummary {
                sent: 3,
                skipped: 0
            }
        );
        let ops = svc.ops();
        assert_eq!(ops.fetches, 1);
        assert_eq!(ops.shards_sent, 3);
        assert!(ops.bytes_tx > ops.bytes_rx, "shards dominate the wire");
    }

    #[test]
    fn cached_shards_are_skipped() {
        let svc = service(10, 3);
        let req = FetchReq {
            epoch: 1,
            wants: vec![(0, 1), (1, 0), (2, 1)],
            codec: Codec::Raw,
        }
        .to_frame();
        let mut out = Vec::new();
        svc.handle(&req, &mut out);
        assert_eq!(out.len(), 2, "only shard 1 plus the summary");
        assert_eq!(out[0].shard_id, 1);
        let done = FetchSummary::from_frame(&out[1]).unwrap();
        assert_eq!(
            done,
            FetchSummary {
                sent: 1,
                skipped: 2
            }
        );
        assert_eq!(svc.ops().cache_hits, 2);
    }

    #[test]
    fn unknown_epoch_is_an_error_frame() {
        let svc = service(10, 3);
        let out = fetch_all(&svc, 99, 3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, FrameKind::Error);
    }

    /// The byte-stream server side answers with exactly the frames
    /// `handle` returns, and garbage gets no answer at all.
    #[test]
    fn serve_is_the_same_protocol() {
        let svc = service(10, 3);
        let req = FetchReq {
            epoch: 1,
            wants: vec![(0, 0), (1, 0), (2, 0)],
            codec: Codec::Raw,
        }
        .to_frame();
        let mut direct = Vec::new();
        svc.handle(&req, &mut direct);
        let mut wire_out = Vec::new();
        svc.serve(&mut &req.encode()[..], &mut wire_out).unwrap();
        let mut r = &wire_out[..];
        for f in &direct {
            assert_eq!(
                read_frame(&mut r).unwrap(),
                **f,
                "transport changed a frame"
            );
        }
        assert!(r.is_empty());
        let mut garbage = req.encode();
        garbage[20] ^= 1;
        wire_out.clear();
        let err = svc.serve(&mut &garbage[..], &mut wire_out).unwrap_err();
        assert!(
            matches!(err, FrameReadError::Wire(WireError::BadCrc { .. })),
            "{err:?}"
        );
        assert!(wire_out.is_empty());
    }

    #[test]
    fn raw_ops_serialize_without_codec_fields() {
        // PsOps feeds golden-hashed reports, so its wire shape must stay
        // byte-identical to the pre-codec format: the codec counters live
        // in the registry only, never in PsOps.
        let json = serde_json::to_string(&PsOps::default()).unwrap();
        assert!(!json.contains("bytes_saved"), "{json}");
        assert!(!json.contains("deltas_sent"), "{json}");
        // Pre-codec JSON round-trips exactly.
        let old =
            r#"{"fetches":1,"shards_sent":2,"cache_hits":3,"pushes":4,"bytes_rx":5,"bytes_tx":6}"#;
        let ops: PsOps = serde_json::from_str(old).unwrap();
        assert_eq!(serde_json::to_string(&ops).unwrap(), old);
    }

    /// A fetch naming an out-of-range shard after a valid one gets exactly
    /// one `Error` frame and moves no counter but the wire bytes, under
    /// `Raw` and under `Int8` with a delta ready for the valid want.
    #[test]
    fn rejected_fetch_moves_nothing() {
        let int8 = Codec::Int8 {
            error_feedback: true,
        };
        for codec in [Codec::Raw, int8] {
            let tel = Telemetry::silent();
            let svc = service(10, 3).with_codec(codec).with_telemetry(&tel);
            svc.publish(1, &svc.assimilator().read_blobs());
            let assim = svc.assimilator();
            assim.finish(assim.begin(), vec![7.0; 10], 1);
            svc.publish(2, &assim.read_blobs());
            // Under Int8, shard 0 at its epoch-1 version rides a delta.
            let cached = if codec == Codec::Raw { 0 } else { 1 };
            let req = FetchReq {
                epoch: 2,
                wants: vec![(0, cached), (7, 0)],
                codec,
            }
            .to_frame();
            let before = tel.registry().snapshot().counters;
            let mut out = Vec::new();
            svc.handle(&req, &mut out);
            assert_eq!(out.len(), 1, "{codec:?}: one frame closes the exchange");
            assert_eq!(out[0].kind, FrameKind::Error, "{codec:?}");
            let after = tel.registry().snapshot().counters;
            assert_eq!(before.len(), 7, "{codec:?}: every counter registered");
            for (b, a) in before.iter().zip(&after) {
                assert_eq!(b.name, a.name);
                if b.name == PS_BYTES_RX || b.name == PS_BYTES_TX {
                    assert!(a.value > b.value, "{codec:?}: {} moved", a.name);
                } else {
                    assert_eq!(a.value, b.value, "{codec:?}: {} moved", a.name);
                }
            }
        }
    }

    #[test]
    fn snapshot_params_reassembles_and_retires() {
        let svc = service(10, 3);
        let full = svc.snapshot_params(1).unwrap();
        assert_eq!(full, (0..10).map(|i| i as f32).collect::<Vec<_>>());
        svc.retire_snapshots_before(2);
        assert!(svc.snapshot_params(1).is_none());
    }
}
