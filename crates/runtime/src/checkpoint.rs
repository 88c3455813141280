//! Checkpoint format and (atomic) disk I/O.
//!
//! A checkpoint captures everything the coordinator needs to continue an
//! interrupted run mid-epoch: the run configuration, the in-progress
//! epoch's parameter snapshot (what un-assimilated subtasks must train
//! from), the *current* server parameters (what already-assimilated results
//! blended into), which shards already assimilated, and the completed-epoch
//! series. Client results themselves are never checkpointed — subtask
//! training is deterministic per `(seed, epoch, shard)`, so lost in-flight
//! work is simply recomputed, exactly like a BOINC re-issue.
//!
//! Serialization is `serde_json`; `f32` parameters survive the round trip
//! exactly (they widen to `f64` losslessly and print shortest-round-trip).
//! An FNV-1a digest over the *entire* serialized checkpoint (computed with
//! the digest field zeroed) guards against truncation, bit-flips and
//! hand-edits anywhere in the file — config, counters and epoch series
//! included, not just the parameter vectors.

use crate::config::RuntimeConfig;
use crate::report::RuntimeEpoch;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use vc_telemetry::fnv1a;

/// Bumped on incompatible layout changes. Version 2 widened the digest from
/// parameters-only to the whole serialized file.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A point-in-time capture of a running job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The full run configuration, so `Runtime::resume` needs nothing else.
    pub cfg: RuntimeConfig,
    /// The in-progress epoch (1-based).
    pub epoch: usize,
    /// The epoch-start parameter snapshot (Eq. (2)'s `W_{s,e-1}`) the
    /// epoch's remaining subtasks must train from.
    pub snapshot: Vec<f32>,
    /// The current server parameters (snapshot plus the epoch's
    /// assimilations so far).
    pub params: Vec<f32>,
    /// `(shard, post-assimilation validation accuracy)` for shards already
    /// assimilated this epoch.
    pub done: Vec<(usize, f32)>,
    /// Completed epochs.
    pub stats: Vec<RuntimeEpoch>,
    /// Total assimilations so far (drives the checkpoint cadence across
    /// resumes).
    pub assimilations: u64,
    /// Parameter bytes transferred so far.
    pub bytes_transferred: u64,
    /// Wall-clock seconds consumed so far (the resumed clock starts here).
    pub wall_s: f64,
    /// FNV-1a digest over the whole checkpoint as serialized with this
    /// field set to zero.
    pub digest: u64,
}

/// The digest field's serialized marker. `digest` is the struct's last
/// field, so the canonical text ends `…,"digest":N}` and `rfind` always
/// locates the field itself, never a string that mentions it.
const DIGEST_FIELD: &str = "\"digest\":";

impl Checkpoint {
    /// Writes atomically: serialize to `<path>.tmp`, `sync_all` it, then
    /// rename over `path`. A failed save returns `Err`, removes the temp
    /// file and leaves the previous checkpoint untouched; a *process*
    /// killed mid-save leaves `path` old or new, never torn (the rename is
    /// atomic); a *machine* lost mid-save cannot surface an empty or
    /// half-written `path`, because the bytes are on disk before the
    /// rename shows them. Whether the rename itself survives a power cut
    /// is best-effort — the parent directory is synced afterwards, errors
    /// ignored — and the worst case is the previous good checkpoint.
    ///
    /// This is the one place the digest is computed: over the one
    /// serialization written, with the digest field zero — exactly the
    /// bytes [`Checkpoint::load`] verifies — and then recorded on the
    /// checkpoint. `serde_json` emits struct fields in declaration order
    /// and floats shortest-round-trip, so the bytes are stable across
    /// save/load cycles, and any single-byte substitution anywhere in the
    /// file is detected (FNV-1a over a same-length substitution is
    /// injective per position).
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        self.digest = 0;
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        self.digest = fnv1a(json.as_bytes());
        let at = json
            .rfind(DIGEST_FIELD)
            .ok_or("checkpoint serialization lost its digest field")?;
        let sealed = format!("{}{}}}", &json[..at + DIGEST_FIELD.len()], self.digest);
        let tmp = path.with_extension("tmp");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(sealed.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        if let Err(e) = write() {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "save {} via {}: {e}",
                path.display(),
                tmp.display()
            ));
        }
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Ok(dir) = File::open(parent.unwrap_or(Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Loads and verifies a checkpoint. The digest check runs over the raw
    /// bytes as read (with the digest value textually zeroed), before any
    /// JSON parsing, so corruption is reported as corruption rather than
    /// as whatever parse error it happens to cause.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let json =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let at = json
            .rfind(DIGEST_FIELD)
            .ok_or("checkpoint digest field missing: file corrupted")?;
        let num_start = at + DIGEST_FIELD.len();
        let num_len = json[num_start..]
            .find('}')
            .ok_or("checkpoint digest unterminated: file corrupted")?;
        let claimed: u64 = json[num_start..num_start + num_len]
            .parse()
            .map_err(|_| "checkpoint digest unreadable: file corrupted".to_string())?;
        let zeroed = format!("{}0{}", &json[..num_start], &json[num_start + num_len..]);
        if fnv1a(zeroed.as_bytes()) != claimed {
            return Err("checkpoint digest mismatch: file corrupted".into());
        }
        let ck: Checkpoint = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} != supported {CHECKPOINT_VERSION}",
                ck.version
            ));
        }
        if ck.snapshot.len() != ck.params.len() {
            return Err("checkpoint snapshot/params length mismatch".into());
        }
        ck.cfg.validate()?;
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            cfg: RuntimeConfig::test_small(5),
            epoch: 2,
            snapshot: vec![0.1, -0.25, 1e-7],
            params: vec![0.11, -0.26, 2e-7],
            done: vec![(0, 0.3), (4, 0.31)],
            stats: Vec::new(),
            assimilations: 10,
            bytes_transferred: 1234,
            wall_s: 3.5,
            digest: 0,
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = std::env::temp_dir();
        let path = dir.join("vc_runtime_ck_roundtrip.json");
        let mut ck = sample();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back, "f32 parameters must round-trip bit-exactly");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir();
        let path = dir.join("vc_runtime_ck_corrupt.json");
        sample().save(&path).unwrap();
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("-0.25", "-0.75");
        std::fs::write(&path, tampered).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.contains("digest"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }
}
