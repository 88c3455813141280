//! Worker-side access to the parameter service — read-only: a worker
//! fetches the model here and hands its trained replica to the scheduler,
//! which validates it before the assimilator sees it.
//!
//! [`ShardCache`] is the sticky per-worker cache: it remembers which shard
//! versions it holds and asks the service only for shards whose manifest
//! version moved. When nothing moved, [`ShardCache::sync`] returns the
//! assembled vector without touching the transport — and without a single
//! heap allocation (`tests/fetch_alloc.rs` pins that down).
//! [`ShardCache::prime`] installs a vector the holder computed itself —
//! a fresh run's seeded parameters — as if fetched, so the first sync
//! against its versions is such a hit too.
//!
//! Transports implement [`PsClient`], and both run one fetch body
//! (`fetch_over`) over a byte stream: [`crate::TcpClient`] over its
//! socket, [`MemClient`] over an in-process loopback stream whose flush
//! serves the request through `PsService::serve`. Deterministic sweeps
//! therefore run the socket's encoder, decoder and bytes.

use crate::codec::Codec;
use crate::service::PsService;
use crate::wire::{
    read_frame, DeltaPayload, FetchReq, FetchSummary, Frame, FrameKind, FrameReadError,
    SealedFrame, WireError,
};
use crate::ShardLayout;
use std::io::{self, Read, Write};
use std::sync::Arc;
use vc_tensor::codec::decode_f32s_into_slice;

/// Why a parameter-service request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PsError {
    /// Bytes failed to parse as frames.
    Wire(WireError),
    /// The transport failed (socket error, service gone).
    Transport(String),
    /// The service answered with an error frame.
    Server(String),
    /// The response did not cover everything the request asked for.
    ShortResponse(&'static str),
}

impl std::fmt::Display for PsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsError::Wire(e) => write!(f, "wire: {e}"),
            PsError::Transport(e) => write!(f, "transport: {e}"),
            PsError::Server(e) => write!(f, "server: {e}"),
            PsError::ShortResponse(what) => write!(f, "short response: {what}"),
        }
    }
}

impl std::error::Error for PsError {}

impl From<WireError> for PsError {
    fn from(e: WireError) -> Self {
        PsError::Wire(e)
    }
}

/// Receives a fetch's shard and shard-delta frames, one at a time, as the
/// transport reads them.
pub type FetchSink<'a> = dyn FnMut(Frame) + 'a;

/// A transport to the parameter service. Fetch is the whole protocol:
/// nothing a worker sends can change the store.
pub trait PsClient: Send {
    /// Fetches the listed `(shard_id, cached_version)` pairs from the
    /// `epoch` snapshot, advertising which `codec` the caller can decode
    /// deltas in. Each shard or shard-delta frame is handed to `sink` as it
    /// arrives and dropped when `sink` returns, so no transport holds a
    /// whole response; the summary is returned.
    fn fetch(
        &mut self,
        epoch: u64,
        wants: &[(u32, u64)],
        codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError>;
}

/// The one fetch body, over any byte stream: writes the `Fetch` request,
/// flushes, then reads frames, handing each shard or shard-delta frame to
/// `sink`, until the summary (or an error frame) ends the response. The
/// sink cannot stop the read — a response is always consumed to its end,
/// so a stream stays framed whatever the frames held.
pub(crate) fn fetch_over(
    stream: &mut (impl Read + Write),
    epoch: u64,
    wants: &[(u32, u64)],
    codec: Codec,
    sink: &mut FetchSink<'_>,
) -> Result<FetchSummary, PsError> {
    let io_err = |e: io::Error| PsError::Transport(e.to_string());
    let req = FetchReq {
        epoch,
        wants: wants.to_vec(),
        codec,
    };
    SealedFrame::from(req.to_frame())
        .write_to(stream)
        .map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    loop {
        let f = read_frame(stream).map_err(|e| match e {
            FrameReadError::Wire(w) => PsError::Wire(w),
            other => PsError::Transport(other.to_string()),
        })?;
        match f.kind {
            FrameKind::FetchDone => return FetchSummary::from_frame(&f).map_err(PsError::Wire),
            FrameKind::Error => {
                let msg = String::from_utf8_lossy(&f.payload).into_owned();
                return Err(PsError::Server(msg));
            }
            _ => sink(f),
        }
    }
}

/// In-process transport: `fetch_over` a loopback byte stream into a
/// shared [`PsService`]. Writes buffer the request, a flush serves it
/// (`PsService::serve`, as a TCP connection thread does) and reads drain
/// the response. Synchronous, threadless and deterministic.
pub struct MemClient {
    service: Arc<PsService>,
    /// Request bytes written since the last flush.
    req: Vec<u8>,
    /// Response bytes; the first `consumed` of them have been read.
    resp: Vec<u8>,
    consumed: usize,
}

impl MemClient {
    /// A client of `service`.
    pub fn new(service: Arc<PsService>) -> Self {
        MemClient {
            service,
            req: Vec::new(),
            resp: Vec::new(),
            consumed: 0,
        }
    }
}

impl Write for MemClient {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.req.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// Serves every request written since the last flush, appending the
    /// responses behind any bytes not yet read.
    fn flush(&mut self) -> io::Result<()> {
        self.resp.drain(..self.consumed);
        self.consumed = 0;
        let mut req = &self.req[..];
        let mut served = Ok(());
        while !req.is_empty() && served.is_ok() {
            served = self.service.serve(&mut req, &mut self.resp);
        }
        self.req.clear();
        served.map_err(io::Error::other)
    }
}

impl Read for MemClient {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&self.resp[self.consumed..]).read(buf)?;
        self.consumed += n;
        Ok(n)
    }
}

impl PsClient for MemClient {
    fn fetch(
        &mut self,
        epoch: u64,
        wants: &[(u32, u64)],
        codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError> {
        fetch_over(self, epoch, wants, codec, sink)
    }
}

/// A worker's sticky shard cache: versions held, assembled parameters, and
/// a reused want list for the refresh path. With `Int8` attached the cache
/// asks for delta transfer, and fetches apply quantized deltas straight
/// onto the tracked state, undoing each delta's entropy stage into one
/// token scratch the size of the largest shard.
pub struct ShardCache {
    layout: ShardLayout,
    versions: Vec<u64>,
    full: Vec<f32>,
    wants: Vec<(u32, u64)>,
    codec: Codec,
    tokens: Vec<u8>,
}

impl ShardCache {
    /// An empty cache for `layout` (version 0 everywhere — the store's
    /// versions start at 1, so the first sync fetches every shard).
    pub fn new(layout: ShardLayout) -> Self {
        let n = layout.param_count();
        let shards = layout.shards();
        ShardCache {
            layout,
            versions: vec![0; shards],
            full: vec![0.0; n],
            wants: Vec::with_capacity(shards),
            codec: Codec::Raw,
            tokens: Vec::new(),
        }
    }

    /// Selects the codec this cache requests shard deltas in, and sizes
    /// the token scratch deltas decode into: once, here, to the largest
    /// shard, so applying a delta allocates nothing.
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        let largest = self.layout.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        self.tokens = if codec.is_lossy() {
            vec![0; largest]
        } else {
            Vec::new()
        };
        self
    }

    /// The cached shard versions.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// The assembled parameter vector as of the last successful sync.
    pub fn params(&self) -> &[f32] {
        &self.full
    }

    /// Installs the shards of `versions` without a fetch: `params`, the
    /// whole parameter vector, is copied into the cache's own, which then
    /// counts as holding `versions`, so a [`sync`](Self::sync) against them
    /// is a hit and later deltas apply against them. The caller vouches
    /// that `params` is bit for bit what the service publishes at those
    /// versions — a fresh run's seeded store, which the run hands every
    /// worker. Allocates nothing.
    pub fn prime(&mut self, versions: &[u64], params: &[f32]) {
        assert_eq!(versions.len(), self.layout.shards(), "manifest length");
        self.full.copy_from_slice(params);
        self.versions.copy_from_slice(versions);
    }

    /// Marks every shard as not held (version 0, as in a new cache), so the
    /// next sync fetches every shard whole over whatever values it holds:
    /// for a primed cache whose first sync names other versions.
    pub fn forget(&mut self) {
        self.versions.fill(0);
    }

    /// Brings the cache up to `manifest` for `epoch` and returns the
    /// assembled vector. A full cache hit performs no transport call and
    /// no allocation; otherwise the fetch request lists *every* shard with
    /// its cached version and the service ships back only the stale ones
    /// (counting the rest as cache hits). Each response payload is decoded
    /// straight into its range of the assembled vector — a full blob
    /// overwrites it, a delta is validated whole and then added onto it —
    /// and dropped before the next one is read.
    pub fn sync(
        &mut self,
        epoch: u64,
        manifest: &[u64],
        client: &mut dyn PsClient,
    ) -> Result<&[f32], PsError> {
        assert_eq!(manifest.len(), self.layout.shards(), "manifest length");
        if self.versions == manifest {
            return Ok(&self.full);
        }
        self.wants.clear();
        for (i, &have) in self.versions.iter().enumerate() {
            self.wants.push((i as u32, have));
        }
        let (layout, versions, full) = (&self.layout, &mut self.versions, &mut self.full);
        let tokens = &mut self.tokens;
        // Frames applied, or the first one that could not be (the frames
        // after it are dropped unapplied).
        let mut applied = Ok(0usize);
        let mut apply = |f: Frame| {
            let Ok(n) = applied else { return };
            let mut one = || {
                let i = f.shard_id as usize;
                if i >= layout.shards() {
                    return Err("shard id out of range");
                }
                let part = &mut full[layout.range(i)];
                match f.kind {
                    FrameKind::ShardDelta => {
                        let d =
                            DeltaPayload::from_frame(&f).map_err(|_| "delta frame malformed")?;
                        if d.base != versions[i]
                            || d.codec.add_update_to(d.blob, part, tokens).is_err()
                        {
                            return Err("delta base or blob invalid");
                        }
                    }
                    FrameKind::Shard => decode_f32s_into_slice(&f.payload, part)
                        .map_err(|_| "shard blob malformed")?,
                    _ => return Err("unexpected frame in fetch response"),
                }
                versions[i] = f.version;
                Ok(n + 1)
            };
            applied = one().map_err(PsError::ShortResponse);
        };
        let summary = client.fetch(epoch, &self.wants, self.codec, &mut apply)?;
        if applied? != summary.sent as usize {
            return Err(PsError::ShortResponse("shard count != summary"));
        }
        // Every wanted shard must now match the manifest; a skipped shard
        // we did not hold is a protocol violation.
        for (i, &want) in manifest.iter().enumerate() {
            if self.versions[i] != want {
                return Err(PsError::ShortResponse("wanted shard not delivered"));
            }
        }
        Ok(&self.full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::ShardedAssimilator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};

    /// [`MemClient`] with a reordering stage: shard frames are stamped with
    /// deterministic pseudo-random delivery ticks and released by a stable
    /// sort on the tick (ties in arrival order), so they arrive out of
    /// order — the single-thread stand-in for a congested socket. A stream
    /// cannot deliver the terminator ahead of the frames it terminates, so
    /// `FetchDone` (the returned summary) still comes last.
    struct ReorderingClient {
        inner: MemClient,
        rng: StdRng,
    }

    impl PsClient for ReorderingClient {
        fn fetch(
            &mut self,
            epoch: u64,
            wants: &[(u32, u64)],
            codec: Codec,
            sink: &mut FetchSink<'_>,
        ) -> Result<FetchSummary, PsError> {
            let mut held: Vec<(u64, Frame)> = Vec::new();
            let horizon = (wants.len() as u64).max(1) * 4;
            let rng = &mut self.rng;
            let summary = self.inner.fetch(epoch, wants, codec, &mut |f| {
                held.push((rng.gen_range(0..horizon), f));
            })?;
            held.sort_by_key(|&(tick, _)| tick);
            for (_, f) in held {
                sink(f);
            }
            Ok(summary)
        }
    }

    fn setup(n: usize, p: usize) -> (Arc<PsService>, Vec<f32>, Vec<u64>) {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            p,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        ));
        let params: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25).collect();
        assim.seed_params(&params);
        let svc = Arc::new(PsService::new(assim));
        let (full, manifest) = svc.assimilator().read_params();
        svc.publish_snapshot(1, &full, &manifest);
        (svc, full, manifest)
    }

    #[test]
    fn cold_sync_fetches_everything() {
        let (svc, want, manifest) = setup(20, 4);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(got, &want[..]);
        assert_eq!(svc.ops().shards_sent, 4);
    }

    #[test]
    fn warm_sync_is_a_cache_hit() {
        let (svc, want, manifest) = setup(20, 4);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        cache.sync(1, &manifest, &mut client).unwrap();
        let fetches_before = svc.ops().fetches;
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(got, &want[..]);
        assert_eq!(svc.ops().fetches, fetches_before, "no transport call");
    }

    /// A primed cache that forgets holds no version: its next sync asks
    /// for every shard whole, the request and response of a new cache.
    #[test]
    fn a_forgotten_prime_syncs_like_a_new_cache() {
        let (svc, want, manifest) = setup(20, 4);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        cache.prime(&manifest, &[7.0; 20]);
        assert_eq!(cache.versions(), &manifest[..]);
        cache.forget();
        assert_eq!(cache.versions(), &[0; 4]);
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(got, &want[..]);
        let ops = svc.ops();
        assert_eq!((ops.fetches, ops.shards_sent, ops.cache_hits), (1, 4, 0));
    }

    #[test]
    fn partial_sync_fetches_only_moved_shards() {
        let (svc, _, manifest) = setup(20, 4);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        cache.sync(1, &manifest, &mut client).unwrap();
        // One shard merges: its version moves; republish as epoch 2.
        let part = vec![5.0; svc.assimilator().layout().len(2)];
        svc.assimilator().merge_shard(2, &part, 1);
        let (full, manifest2) = svc.assimilator().read_params();
        svc.publish_snapshot(2, &full, &manifest2);
        let before = svc.ops();
        let got = cache.sync(2, &manifest2, &mut client).unwrap();
        assert_eq!(got, &full[..]);
        let after = svc.ops();
        assert_eq!(after.shards_sent - before.shards_sent, 1);
        assert_eq!(after.cache_hits - before.cache_hits, 3);
    }

    #[test]
    fn reordered_shard_frames_assemble_identically() {
        let (svc, want, manifest) = setup(40, 8);
        let mut direct = MemClient::new(svc.clone());
        let mut c1 = ShardCache::new(*svc.assimilator().layout());
        let a = c1.sync(1, &manifest, &mut direct).unwrap().to_vec();
        let mut reordering = ReorderingClient {
            inner: MemClient::new(svc.clone()),
            rng: StdRng::seed_from_u64(0xDEAD),
        };
        let mut c2 = ShardCache::new(*svc.assimilator().layout());
        let b = c2.sync(1, &manifest, &mut reordering).unwrap().to_vec();
        assert_eq!(a, want);
        assert_eq!(b, want, "frame order must not matter");
        assert_eq!(c1.versions(), c2.versions());
    }

    #[test]
    fn server_error_surfaces_as_ps_error() {
        let (svc, _, manifest) = setup(10, 2);
        let mut client = MemClient::new(svc.clone());
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        let err = cache.sync(42, &manifest, &mut client).unwrap_err();
        assert!(matches!(err, PsError::Server(_)), "{err:?}");
    }
}
