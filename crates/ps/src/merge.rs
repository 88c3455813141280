//! Per-shard VC-ASGD merging over the versioned store.
//!
//! The Eq. (1) blend `W_s ← α·W_s + (1−α)·W_c` is elementwise, so
//! splitting the flat parameter vector into contiguous shards — each its
//! own store key with its own version counter — changes *contention and
//! transfer granularity*, never the math: merging shard by shard in order
//! is bitwise-identical to merging the whole vector at once. With one
//! shard this type is the paper's single-value store: one key
//! ([`PARAMS_KEY`]), one get + one versioned put (eventual) or one
//! transaction (strong) per assimilation — the operation sequence the
//! single-shard golden trajectories and the discrete-event driver's
//! recorded bits pin.
//!
//! The consistency mode is decided here once: drivers call
//! [`ShardedAssimilator::begin`] when an assimilation starts and
//! [`ShardedAssimilator::finish`] when it ends, and never name a mode.
//!
//! The store's shard blobs are the server's only copy of `W_s`. `finish`
//! takes the accepted upload by value and blends the stored values into it
//! — `c ← α·s + (1−α)·c`, [`blend_eq1`]'s operands in its order, so the
//! same bits — reading `s` straight from the blob; the upload is then the
//! updated vector the caller scores. An eventual-mode `begin` holds the
//! blobs it read (shared with the store, never mutated), not a decoded
//! copy; and an epoch publish shares the blobs too
//! ([`ShardedAssimilator::read_blobs`] → `PsService::publish`).
//!
//! [`blend_eq1`]: vc_asgd::alpha::blend_eq1

use crate::ShardLayout;
use bytes::Bytes;
use std::sync::Arc;
use vc_asgd::alpha::AlphaSchedule;
use vc_kvstore::{Consistency, VersionedStore, WriteOutcome};
use vc_telemetry::{Histogram, Telemetry};
use vc_tensor::codec::{decode_f32s_into_slice, encode_f32s, value_bytes};

/// Histogram: wall (or virtual) seconds per single-shard merge.
pub const PS_MERGE_S: &str = "ps_merge_s";
/// Histogram: version spread `max-min` across shard versions at each full
/// parameter read — how far the shards have drifted apart.
pub const PS_SHARD_SKEW_VERSIONS: &str = "ps_shard_skew_versions";

/// Key under which the unsharded server parameter blob lives in the store.
pub const PARAMS_KEY: &str = "model/params";

/// The key a shard's blob lives under. One shard collapses to the
/// unsharded key so existing histories and checkpoints line up.
fn shard_key(shards: usize, i: usize) -> String {
    if shards == 1 {
        PARAMS_KEY.to_string()
    } else {
        format!("{PARAMS_KEY}/s{i}")
    }
}

/// An eventual-mode stale read, taken at assimilation start: each shard's
/// stored blob — the store's own buffer, shared — and the version it was
/// read at.
pub struct ShardSnapshot {
    blobs: Vec<Bytes>,
    versions: Vec<u64>,
}

/// Eq. (1) into the upload: `c ← α·s + (1−α)·c`, with the server copy `s`
/// read from its stored blob. The operands [`vc_asgd::alpha::blend_eq1`]
/// multiplies and adds, in its order, so the upload ends up with the bits
/// a decoded copy of the store would have.
fn blend_into_upload(stored: &[u8], upload: &mut [f32], alpha: f32) {
    let s = value_bytes(stored).expect("store holds a valid shard blob");
    assert_eq!(s.len(), 4 * upload.len(), "stored shard length");
    let beta = 1.0 - alpha;
    for (c, s) in upload.iter_mut().zip(s.chunks_exact(4)) {
        let s = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        *c = alpha * s + beta * *c;
    }
}

/// A parameter-server assimilation pipeline over `P` shards.
pub struct ShardedAssimilator {
    store: Arc<VersionedStore>,
    layout: ShardLayout,
    keys: Vec<String>,
    mode: Consistency,
    schedule: AlphaSchedule,
    instruments: Option<Instruments>,
}

struct Instruments {
    tel: Telemetry,
    merge_s: Arc<Histogram>,
    skew: Arc<Histogram>,
}

impl ShardedAssimilator {
    /// Builds the pipeline: `ps_shards` near-equal contiguous shards over a
    /// `param_count`-element vector, stored in `store`.
    pub fn new(
        store: Arc<VersionedStore>,
        param_count: usize,
        ps_shards: usize,
        mode: Consistency,
        schedule: AlphaSchedule,
    ) -> Self {
        let layout = ShardLayout::new(param_count, ps_shards);
        let keys = (0..layout.shards())
            .map(|i| shard_key(layout.shards(), i))
            .collect();
        ShardedAssimilator {
            store,
            layout,
            keys,
            mode,
            schedule,
            instruments: None,
        }
    }

    /// Attaches per-shard merge telemetry.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        let reg = tel.registry();
        self.instruments = Some(Instruments {
            tel: tel.clone(),
            merge_s: reg.histogram(PS_MERGE_S),
            skew: reg.histogram_with(PS_SHARD_SKEW_VERSIONS, Histogram::version_bounds),
        });
        self
    }

    /// The shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The store key of shard `i`.
    pub fn key(&self, i: usize) -> &str {
        &self.keys[i]
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }

    /// `params` cut along the layout into one VCP1 blob per shard — the
    /// form the store and a published snapshot hold shards in.
    pub(crate) fn encode_shards(&self, params: &[f32]) -> Vec<Bytes> {
        assert_eq!(params.len(), self.layout.param_count(), "parameter length");
        self.layout
            .iter()
            .map(|(_, range)| encode_f32s(&params[range]))
            .collect()
    }

    /// Seeds every shard from the initial parameter vector and returns the
    /// blobs it stored with their new versions — what a publish of the seed
    /// shares, without reading them back (no read is recorded).
    pub fn seed_params(&self, params: &[f32]) -> Vec<(Bytes, u64)> {
        self.encode_shards(params)
            .into_iter()
            .zip(&self.keys)
            .map(|(blob, key)| {
                let version = self.store.put(key, blob.clone());
                (blob, version)
            })
            .collect()
    }

    /// Current version of every shard (no read is recorded).
    pub fn versions(&self) -> Vec<u64> {
        self.keys.iter().map(|k| self.store.version(k)).collect()
    }

    /// Reads every shard's stored blob and version: the store's own
    /// buffers, shared and not decoded — what an epoch publish serves.
    /// Observed in [`PS_SHARD_SKEW_VERSIONS`] like any full read.
    pub fn read_blobs(&self) -> Vec<(Bytes, u64)> {
        let blobs: Vec<(Bytes, u64)> = self.keys.iter().map(|k| self.store.get(k)).collect();
        self.observe_skew(blobs.iter().map(|&(_, v)| v));
        blobs
    }

    /// Reads the full parameter vector and the per-shard version manifest.
    /// The store hands back shared blob views, each decoded straight into
    /// its range of the vector.
    pub fn read_params(&self) -> (Vec<f32>, Vec<u64>) {
        let mut params = vec![0.0; self.layout.param_count()];
        let mut manifest = Vec::with_capacity(self.keys.len());
        for (i, range) in self.layout.iter() {
            let (blob, version) = self.store.get(&self.keys[i]);
            decode_f32s_into_slice(&blob, &mut params[range])
                .expect("store holds a valid shard blob of the layout's length");
            manifest.push(version);
        }
        self.observe_skew(manifest.iter().copied());
        (params, manifest)
    }

    fn observe_skew(&self, versions: impl Iterator<Item = u64>) {
        if let Some(ins) = &self.instruments {
            let (min, max) = versions.fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
            ins.skew.observe(max.saturating_sub(min) as f64);
        }
    }

    /// Starts one assimilation under the configured mode. Eventual mode
    /// takes its stale read now — whatever commits before the matching
    /// [`Self::finish`] is clobbered by it; strong mode reads inside the
    /// finish transactions and has nothing to hold.
    pub fn begin(&self) -> Option<ShardSnapshot> {
        match self.mode {
            Consistency::Eventual => Some(self.begin_eventual()),
            Consistency::Strong => None,
        }
    }

    /// Ends the assimilation [`Self::begin`] started: applies Eq. (1) with
    /// the epoch's α into `upload` — the accepted client copy, taken by
    /// value — shard by shard through the mode's store path, and returns
    /// it: the updated full vector.
    pub fn finish(
        &self,
        begun: Option<ShardSnapshot>,
        mut upload: Vec<f32>,
        epoch: usize,
    ) -> Vec<f32> {
        self.blend(begun, &mut upload, epoch);
        upload
    }

    /// The body of [`Self::finish`]: shard by shard, in order, blends the
    /// stored values into `upload` and writes the result back —
    /// last-write-wins against the read `begun` holds (eventual), or in one
    /// serialized read-blend-write transaction per shard (strong: under
    /// concurrency this pipelines, while one merger transacts shard `i+1`
    /// the next can already be in shard `i`, which is where sharding buys
    /// its latency). Returns the clobbered-update count.
    pub(crate) fn blend(
        &self,
        begun: Option<ShardSnapshot>,
        upload: &mut [f32],
        epoch: usize,
    ) -> u64 {
        assert_eq!(upload.len(), self.layout.param_count(), "client length");
        let alpha = self.schedule.alpha(epoch);
        let mut clobbered = 0;
        for (i, range) in self.layout.iter() {
            let part = &mut upload[range];
            let read = begun.as_ref().map(|s| (&s.blobs[i], s.versions[i]));
            clobbered += self.timed(|| self.merge_into(i, part, alpha, read).clobbered);
        }
        clobbered
    }

    /// Eq. (1) on shard `i` into `part`, the client's values of it: against
    /// the `read` an eventual merge holds, written back last-write-wins, or
    /// (no read) inside one strong transaction on the shard's key.
    fn merge_into(
        &self,
        i: usize,
        part: &mut [f32],
        alpha: f32,
        read: Option<(&Bytes, u64)>,
    ) -> WriteOutcome {
        match read {
            Some((blob, version)) => {
                blend_into_upload(blob, part, alpha);
                self.store
                    .put_versioned(&self.keys[i], version, encode_f32s(part))
            }
            None => {
                let (new_version, ()) = self.store.transact(&self.keys[i], |blob, _v| {
                    blend_into_upload(blob, part, alpha);
                    (encode_f32s(part), ())
                });
                WriteOutcome {
                    new_version,
                    clobbered: 0,
                }
            }
        }
    }

    /// The stale read [`Self::begin`] takes in eventual mode: one blob per
    /// shard, as the store holds it now (a get each). Public for
    /// `benchmark/src/probes.rs`; drivers call `begin`.
    #[doc(hidden)]
    pub fn begin_eventual(&self) -> ShardSnapshot {
        let (blobs, versions) = self.keys.iter().map(|k| self.store.get(k)).unzip();
        ShardSnapshot { blobs, versions }
    }

    /// Merges a single client shard, independent of the others, under the
    /// configured consistency mode for just that shard. Returns the
    /// store's write outcome (strong mode never clobbers).
    pub fn merge_shard(&self, shard_id: usize, client_part: &[f32], epoch: usize) -> WriteOutcome {
        assert_eq!(client_part.len(), self.layout.len(shard_id), "shard length");
        let alpha = self.schedule.alpha(epoch);
        let mut part = client_part.to_vec();
        self.timed(|| match self.mode {
            Consistency::Strong => self.merge_into(shard_id, &mut part, alpha, None),
            Consistency::Eventual => {
                let (blob, version) = self.store.get(&self.keys[shard_id]);
                self.merge_into(shard_id, &mut part, alpha, Some((&blob, version)))
            }
        })
    }

    /// Runs one shard's merge, observing its duration in [`PS_MERGE_S`].
    fn timed<T>(&self, merge: impl FnOnce() -> T) -> T {
        let Some(ins) = &self.instruments else {
            return merge();
        };
        let t0 = ins.tel.now_s();
        let out = merge();
        ins.merge_s.observe(ins.tel.now_s() - t0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    fn sharded(n: usize, p: usize, mode: Consistency) -> ShardedAssimilator {
        ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            p,
            mode,
            AlphaSchedule::Const(0.7),
        )
    }

    #[test]
    fn one_shard_uses_the_legacy_key_and_op_sequence() {
        let store = Arc::new(VersionedStore::recording());
        let a = ShardedAssimilator::new(
            store.clone(),
            4,
            1,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        );
        assert_eq!(a.key(0), PARAMS_KEY);
        a.seed_params(&[0.0; 4]);
        let snap = a.begin_eventual();
        a.commit_eventual(snap, &[1.0; 4], 1);
        let history = store.take_history();
        // Exactly Put, Get, PutVersioned on the one legacy key: the
        // single-value store of the paper.
        assert_eq!(history.len(), 3);
        assert!(history.iter().all(|e| e.key == PARAMS_KEY));
    }

    /// The oracle: Eq. (1) over one plain unsharded vector, no store. The
    /// caller spells out which copy each assimilation read.
    fn eq1(server: &[f32], client: &[f32], alpha: f32) -> Vec<f32> {
        let beta = 1.0 - alpha;
        server
            .iter()
            .zip(client)
            .map(|(&s, &c)| alpha * s + beta * c)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sharded_strong_matches_unsharded_bitwise() {
        let n = 103;
        let w0 = vec_of(n, |i| (i as f32).sin());
        let clients: Vec<Vec<f32>> = (0..4)
            .map(|c| vec_of(n, |i| ((i + c * 31) as f32).cos()))
            .collect();
        let want = clients.iter().fold(w0.clone(), |w, c| eq1(&w, c, 0.7));
        for p in [1, 4, 16] {
            let a = sharded(n, p, Consistency::Strong);
            a.seed_params(&w0);
            let mut got = Vec::new();
            for c in &clients {
                assert!(a.begin().is_none(), "strong mode holds no stale read");
                got = a.finish(None, c.clone(), 1);
            }
            assert_eq!(
                bits(&got),
                bits(&want),
                "{p} shards must be bitwise identical"
            );
            assert_eq!(a.store().ops().lost_updates, 0);
        }
    }

    #[test]
    fn sharded_eventual_matches_unsharded_bitwise() {
        let n = 64;
        let w0 = vec_of(n, |i| i as f32 * 0.1);
        let c1 = vec_of(n, |i| -(i as f32));
        let c2 = vec_of(n, |i| (i as f32) * 2.0);
        // Two overlapping assimilations both read the seed, so the second
        // commit blends into the seed and the first one's update is gone.
        let want = eq1(&w0, &c2, 0.7);
        for p in [1, 4] {
            let a = ShardedAssimilator::new(
                Arc::new(VersionedStore::recording()),
                n,
                p,
                Consistency::Eventual,
                AlphaSchedule::Const(0.7),
            );
            a.seed_params(&w0);
            let s1 = a.begin();
            let s2 = a.begin();
            assert_eq!(
                bits(&a.finish(s1, c1.clone(), 1)),
                bits(&eq1(&w0, &c1, 0.7))
            );
            assert_eq!(a.store().ops().lost_updates, 0);
            a.store().take_history();
            let got = a.finish(s2, c2.clone(), 1);
            // Each shard write clobbers exactly one concurrent update.
            let clobbers: Vec<u64> = a
                .store()
                .take_history()
                .iter()
                .filter_map(|e| match e.op {
                    vc_kvstore::history::Op::PutVersioned { clobbered, .. } => Some(clobbered),
                    _ => None,
                })
                .collect();
            assert_eq!(clobbers, vec![1; p], "{p} shards: one clobber per write");
            assert_eq!(a.store().ops().lost_updates, p as u64);
            assert_eq!(bits(&got), bits(&want), "{p} shards");
            assert_eq!(bits(&a.read_params().0), bits(&want));
        }
    }

    #[test]
    fn strong_sequence_matches_eq2() {
        let a = sharded(2, 1, Consistency::Strong);
        let w0 = vec![0.0f32, 1.0];
        a.seed_params(&w0);
        let clients: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, -(i as f32)]).collect();
        let mut last = Vec::new();
        for wc in &clients {
            last = a.finish(a.begin(), wc.clone(), 1);
        }
        let expect = vc_asgd::alpha::eq2_closed_form(&w0, &clients, 0.7);
        for (l, e) in last.iter().zip(&expect) {
            assert!((l - e).abs() < 1e-5);
        }
        assert_eq!(a.store().ops().lost_updates, 0);
    }

    #[test]
    fn eventual_sequential_is_lossless() {
        let a = sharded(1, 1, Consistency::Eventual);
        a.seed_params(&[1.0]);
        for i in 0..10 {
            a.finish(a.begin(), vec![i as f32], 1);
        }
        assert_eq!(a.store().ops().lost_updates, 0);
    }

    #[test]
    fn epoch_drives_alpha_schedule() {
        let var = |epoch| {
            let a = ShardedAssimilator::new(
                Arc::new(VersionedStore::new()),
                1,
                1,
                Consistency::Strong,
                AlphaSchedule::VarEOverE1,
            );
            a.seed_params(&[0.0]);
            a.finish(a.begin(), vec![1.0], epoch)[0]
        };
        // Epoch 1: alpha 0.5 — the server moves halfway to the client.
        assert!((var(1) - 0.5).abs() < 1e-6);
        // Epoch 99: alpha 0.99 — a tiny step.
        assert!(var(99) < 0.02);
    }

    #[test]
    fn read_params_reassembles_and_reports_manifest() {
        let n = 10;
        let a = sharded(n, 3, Consistency::Strong);
        let w0 = vec_of(n, |i| i as f32);
        a.seed_params(&w0);
        let (params, manifest) = a.read_params();
        assert_eq!(params, w0);
        assert_eq!(manifest, vec![1, 1, 1]);
        // Touch only shard 1: its version moves, the others stay.
        let part = vec![9.0; a.layout().len(1)];
        a.merge_shard(1, &part, 1);
        assert_eq!(a.versions(), vec![1, 2, 1]);
    }

    #[test]
    fn merge_shard_updates_only_its_range() {
        let n = 9;
        let a = sharded(n, 3, Consistency::Eventual);
        a.seed_params(&vec![0.0; n]);
        let range = a.layout().range(2);
        let part = vec![10.0; range.len()];
        let outcome = a.merge_shard(2, &part, 1);
        assert_eq!(outcome.clobbered, 0);
        let (params, _) = a.read_params();
        for (i, v) in params.iter().enumerate() {
            if range.contains(&i) {
                assert!((v - 3.0).abs() < 1e-6, "alpha 0.7: 0.7*0 + 0.3*10");
            } else {
                assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn telemetry_counts_per_shard_merges() {
        let tel = Telemetry::silent();
        let a = ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            16,
            4,
            Consistency::Strong,
            AlphaSchedule::Const(0.5),
        )
        .with_telemetry(&tel);
        a.seed_params(&[0.0; 16]);
        a.assimilate_strong(&[1.0; 16], 1);
        a.read_params();
        let reg = tel.registry();
        assert_eq!(reg.histogram(PS_MERGE_S).snapshot().count, 4);
        assert_eq!(reg.histogram(PS_SHARD_SKEW_VERSIONS).snapshot().count, 1);
    }
}
