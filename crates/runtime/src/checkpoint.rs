//! Checkpoint format and (atomic) disk I/O (DESIGN §6c).
//!
//! A checkpoint is what the coordinator needs to continue an interrupted
//! run mid-epoch: a JSON [`CheckpointHeader`] (config, progress, series)
//! under a CRC-32, then the epoch's published snapshot and the store's
//! current blobs as the parameter service holds them, one VCP1 blob per
//! shard in a `Shard` frame ([`vc_ps::SealedFrame::write_to`] /
//! [`read_frame`]). Client results are never checkpointed: training is
//! deterministic per `(seed, epoch, shard)`, so lost in-flight work is
//! recomputed, like a BOINC re-issue.

use crate::config::RuntimeConfig;
use crate::report::RuntimeEpoch;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use vc_ps::service::shard_frame;
use vc_ps::wire::read_frame;
use vc_ps::{crc32, Bytes, FrameKind, ShardLayout, HEADER_LEN};
use vc_tensor::codec::{encoded_len, value_bytes};

/// Bumped on incompatible layout changes. Versions 1 and 2 were one JSON
/// document with the parameters as two float arrays.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Everything a checkpoint holds but the parameters: the file's header.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// The full run configuration, so `Runtime::resume` needs nothing else.
    pub cfg: RuntimeConfig,
    /// The in-progress epoch (1-based).
    pub epoch: usize,
    /// `(shard, validation accuracy)` for the epoch's assimilated shards.
    pub done: Vec<(usize, f32)>,
    /// Completed epochs.
    pub stats: Vec<RuntimeEpoch>,
    /// Total assimilations so far (what `halt_after_assims` counts).
    pub assimilations: u64,
    /// Parameter bytes transferred so far.
    pub bytes_transferred: u64,
    /// Wall-clock seconds consumed so far (the resumed clock starts here).
    pub wall_s: f64,
}

/// A point-in-time capture of a running job.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Configuration, progress and series.
    pub header: CheckpointHeader,
    /// The epoch's published snapshot (Eq. (2)'s `W_{s,e-1}`): each shard's
    /// `Shard` payload (under a lossy codec, the delta reference), version.
    pub snapshot: Vec<(Bytes, u64)>,
    /// The store's shard blobs and versions, as
    /// `ShardedAssimilator::read_blobs` returns them.
    pub params: Vec<(Bytes, u64)>,
}

/// Where a save of `path` writes before its rename: `.<file name>.tmp`
/// beside it. Appending `.tmp` alone would make `ck`'s the file `ck.tmp`.
fn temp_path(path: &Path) -> Result<PathBuf, String> {
    let name = path.file_name().ok_or("checkpoint path names no file")?;
    Ok(path.with_file_name(format!(".{}.tmp", name.to_string_lossy())))
}

/// The little-endian `u32` at `at`, if `bytes` hold one there.
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

impl Checkpoint {
    /// Writes `VCCK`, the version, the header's length and CRC-32 (u32
    /// LE each), the header, then the snapshot's and the store's frames,
    /// to `.<file name>.tmp` beside `path`; syncs it and renames it over
    /// `path`. A failed save removes the temp file and leaves the previous
    /// checkpoint as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let header = serde_json::to_string(&self.header).map_err(|e| e.to_string())?;
        let sum = crc32(header.as_bytes());
        let words = [CHECKPOINT_VERSION, header.len() as u32, sum].map(u32::to_le_bytes);
        let tmp = temp_path(path)?;
        let write = || -> std::io::Result<()> {
            let mut f = BufWriter::new(File::create(&tmp)?);
            f.write_all(b"VCCK")?;
            f.write_all(words.as_flattened())?;
            f.write_all(header.as_bytes())?;
            for blobs in [&self.snapshot, &self.params] {
                for (i, (blob, version)) in blobs.iter().enumerate() {
                    shard_frame(i, *version, blob.clone()).write_to(&mut f)?;
                }
            }
            f.into_inner()?.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("save {} via {}: {e}", path.display(), tmp.display())
        })?;
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Ok(dir) = File::open(parent.unwrap_or(Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Loads and verifies a checkpoint: the prefix, the header under its
    /// CRC, `2 × ps_shards` frames held to the header's layout, nothing
    /// after them. A JSON (version 1 or 2) file is refused by its version.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&bytes).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }

    fn parse(bytes: &[u8]) -> Result<Self, String> {
        if let Some(rest) = bytes.strip_prefix(br#"{"version":"#) {
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let v = String::from_utf8_lossy(&rest[..digits]);
            return Err(format!("version {v} is JSON, not {CHECKPOINT_VERSION}"));
        }
        let word = |i: usize| u32_at(bytes, 4 * i);
        let (Some(b"VCCK"), Some(CHECKPOINT_VERSION), Some(len), Some(crc)) =
            (bytes.get(..4), word(1), word(2), word(3))
        else {
            return Err(format!("not a version {CHECKPOINT_VERSION} checkpoint"));
        };
        let header = bytes[16..].split_at_checked(len as usize);
        let Some((header, mut rest)) = header.filter(|(h, _)| crc32(h) == crc) else {
            return Err(format!("header of {len} B past the end or corrupt"));
        };
        let header = std::str::from_utf8(header).map_err(|e| e.to_string())?;
        let header: CheckpointHeader = serde_json::from_str(header).map_err(|e| e.to_string())?;
        header.cfg.validate()?;
        let job = &header.cfg.job;
        let layout = ShardLayout::new(job.model.param_count(), job.ps_shards);
        let mut part = |name: &str| -> Result<Vec<(Bytes, u64)>, String> {
            let shard = |(i, range): (usize, std::ops::Range<usize>)| {
                read_shard(&mut rest, i, range.len())
                    .map_err(|e| format!("parameters, {name} shard {i}: {e}"))
            };
            layout.iter().map(shard).collect()
        };
        let (snapshot, params) = (part("snapshot")?, part("store")?);
        if !rest.is_empty() {
            return Err(format!("{} trailing bytes", rest.len()));
        }
        Ok(Checkpoint {
            header,
            snapshot,
            params,
        })
    }
}

/// Reads shard `i`'s frame off the front of `rest`: a `Shard` frame whose
/// payload is a VCP1 blob of `len` values. Its declared length is checked
/// against that and against the bytes left before [`read_frame`]
/// allocates the payload.
fn read_shard(rest: &mut &[u8], i: usize, len: usize) -> Result<(Bytes, u64), String> {
    let want = HEADER_LEN + encoded_len(len);
    let declared = u32_at(rest, 0);
    if declared != Some(want as u32) || rest.len() < 4 + want {
        return Err(format!("frame length {declared:?}, not {want}"));
    }
    let frame = read_frame(rest).map_err(|e| e.to_string())?;
    let (kind, id) = (frame.kind, frame.shard_id);
    if kind != FrameKind::Shard || id as usize != i {
        return Err(format!("{kind:?} frame for shard {id}"));
    }
    match value_bytes(&frame.payload).map(|v| v.len() / 4) {
        Ok(n) if n == len => Ok((frame.payload, frame.version)),
        Ok(n) => Err(format!("blob of {n} values, not {len}")),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_tensor::codec::encode_f32s;

    /// `cfg`'s checkpoint with both parts filled from `values` and its
    /// negation, cut along the config's layout.
    fn sample(cfg: RuntimeConfig, values: impl Fn(usize) -> f32) -> Checkpoint {
        let job = &cfg.job;
        let layout = ShardLayout::new(job.model.param_count(), job.ps_shards);
        let part = |sign: f32| {
            layout
                .iter()
                .map(|(i, range)| {
                    let v: Vec<f32> = range.map(|j| sign * values(j)).collect();
                    (encode_f32s(&v), i as u64 + 1)
                })
                .collect()
        };
        Checkpoint {
            header: CheckpointHeader {
                cfg: cfg.clone(),
                epoch: 2,
                done: vec![(0, 0.3), (4, 0.31)],
                stats: Vec::new(),
                assimilations: 10,
                bytes_transferred: 1234,
                wall_s: 3.5,
            },
            snapshot: part(1.0),
            params: part(-1.0),
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let path = std::env::temp_dir().join("vc_runtime_ck_roundtrip.bin");
        let mut cfg = RuntimeConfig::test_small(5);
        cfg.job.ps_shards = 3;
        let ck = sample(cfg, |j| j as f32 * 1e-3 - 0.25);
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back, "shard blobs must round-trip bit-exactly");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let path = std::env::temp_dir().join("vc_runtime_ck_corrupt.bin");
        sample(RuntimeConfig::test_small(5), |j| j as f32)
            .save(&path)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            err.contains("store shard 0") && err.contains("crc"),
            "got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// No temp path is a checkpoint's path, and no two checkpoints share
    /// one, for names that differ only in their extension.
    #[test]
    fn temp_paths_are_nobody_elses() {
        let dir = std::env::temp_dir();
        let targets: Vec<PathBuf> = ["ck.tmp", "ck.json", "ck.bin", "ck"]
            .iter()
            .map(|n| dir.join(n))
            .collect();
        let temps: Vec<PathBuf> = targets.iter().map(|t| temp_path(t).unwrap()).collect();
        for (i, tmp) in temps.iter().enumerate() {
            assert_eq!(
                tmp.parent(),
                Some(dir.as_path()),
                "{tmp:?} leaves the directory"
            );
            assert!(!targets.contains(tmp), "{tmp:?} is a checkpoint's path");
            assert!(!temps[i + 1..].contains(tmp), "{tmp:?} is shared");
        }
        assert!(temp_path(Path::new("/")).is_err());
    }

    /// A JSON checkpoint of the retired layout is refused by its version,
    /// never parsed as something else.
    #[test]
    fn a_version_2_checkpoint_is_refused_by_name() {
        let path = std::env::temp_dir().join("vc_runtime_ck_v2.json");
        std::fs::write(
            &path,
            r#"{"version":2,"cfg":{},"epoch":1,"snapshot":[0.5],"params":[0.5],"digest":7}"#,
        )
        .unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("version 2"), "{err}");
    }
}
