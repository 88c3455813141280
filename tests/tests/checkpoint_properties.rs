//! Property tests for the checkpoint format: round trips are bit-exact,
//! corrupting or truncating *any* byte of the file is detected at load,
//! and hostile bytes are an `Err`, never a panic or an allocation the file
//! does not back.
//!
//! A checkpoint is a JSON header under a CRC-32 followed by the shard
//! blobs as `Shard` frames, each under its own CRC-32, so a same-length
//! substitution anywhere in the file changes one part's checksum — these
//! properties exercise that guarantee with arbitrary parameter bits and
//! arbitrary corruption positions.

use bytes::Bytes;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use vc_ps::{Frame, FrameKind, ShardLayout, HEADER_LEN, MAX_PAYLOAD};
use vc_runtime::checkpoint::{Checkpoint, CheckpointHeader};
use vc_runtime::RuntimeConfig;
use vc_tensor::codec::encode_f32s;

/// Records the largest allocation each thread makes, so a test can bound
/// what one load allocated against the size of the file it read.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The parameter count of [`config`]'s model.
const PARAMS: usize = 789;

/// `RuntimeConfig::test_small(seed)` with a 789-parameter model, at one
/// to four PS shards.
fn config(seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::test_small(seed);
    cfg.job.model = vc_nn::spec::mlp(&cfg.job.data.img, 1, cfg.job.data.classes);
    cfg.job.ps_shards = 1 + seed as usize % 4;
    assert_eq!(cfg.job.model.param_count(), PARAMS);
    cfg
}

/// `values` cut along `cfg`'s layout into one VCP1 blob per shard.
fn blobs(cfg: &RuntimeConfig, values: &[f32], version: u64) -> Vec<(Bytes, u64)> {
    ShardLayout::new(values.len(), cfg.job.ps_shards)
        .iter()
        .map(|(i, range)| (encode_f32s(&values[range]), version + i as u64))
        .collect()
}

fn build(seed: u64, snapshot: &[f32], params: &[f32], wall_s: f64) -> Checkpoint {
    let cfg = config(seed);
    Checkpoint {
        snapshot: blobs(&cfg, snapshot, seed),
        params: blobs(&cfg, params, seed + 3),
        header: CheckpointHeader {
            epoch: 1 + (seed as usize % 3),
            done: vec![(0, 0.25), (3, 0.5)],
            stats: Vec::new(),
            assimilations: seed * 7,
            bytes_transferred: seed * 1024,
            wall_s,
            cfg,
        },
    }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vc_ck_prop_{tag}_{}.bin", std::process::id()))
}

/// The temp file a save of `path` writes before its rename: the file name
/// with a leading dot and `.tmp` appended.
fn temp_of(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap().to_string_lossy();
    path.with_file_name(format!(".{name}.tmp"))
}

/// Loads `bytes` from a file and returns the result with the largest
/// allocation the load made.
fn load_bytes(tag: &str, bytes: &[u8]) -> (Result<Checkpoint, String>, usize) {
    let path = tmp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    LARGEST.with(|m| m.set(0));
    let res = Checkpoint::load(&path);
    let largest = LARGEST.with(|m| m.get());
    std::fs::remove_file(&path).ok();
    (res, largest)
}

/// A saved checkpoint cut into its parts: the 16-byte prefix, the header
/// and the shard frames. `tag` names the file, one per test.
fn parts(tag: &str, ck: &Checkpoint) -> (Vec<u8>, Vec<u8>, Vec<Frame>) {
    let path = tmp_path(tag);
    ck.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut rest = &bytes[16 + header_len..];
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (frame, used) = Frame::decode(rest).unwrap();
        frames.push(frame);
        rest = &rest[used..];
    }
    (
        bytes[..16].to_vec(),
        bytes[16..16 + header_len].to_vec(),
        frames,
    )
}

fn join(prefix: &[u8], header: &[u8], frames: &[Frame]) -> Vec<u8> {
    let mut out = [prefix, header].concat();
    frames.iter().for_each(|f| f.encode_into(&mut out));
    out
}

/// What a hostile file does to a valid checkpoint's bytes.
#[derive(Clone, Debug)]
enum Hostile {
    /// The whole file is these bytes.
    Arbitrary(Vec<u8>),
    /// A valid magic and version, then these bytes.
    AfterPrefix(Vec<u8>),
    /// The header length claims this many bytes past the end.
    HeaderPastEnd(u32),
    /// Frame `.0` declares this many bytes over `MAX_PAYLOAD`.
    OverMaxPayload(usize, u32),
    /// Frame `.0` declares `MAX_PAYLOAD` less this many (up to 1 KiB)
    /// bytes: a length the wire accepts and the file does not back.
    PastEnd(usize, u32),
    /// Frame `.0` is re-sealed as another kind.
    Kind(usize, FrameKind),
    /// Frame `.0` is re-sealed naming shard `.1`.
    ShardId(usize, u32),
    /// Frame `.0` is re-sealed with a blob this many values longer
    /// (negative: shorter).
    BlobLen(usize, i32),
    /// Frame `.0`'s blob is re-sealed with this magic.
    BadMagic(usize, u32),
    /// These bytes follow the last frame.
    Trailing(Vec<u8>),
}

/// Every [`Hostile`] change, drawn from one case's inputs.
fn hostile(j: usize, k: u32, arbitrary: Vec<u8>, tail: Vec<u8>) -> [Hostile; 10] {
    let kinds = [
        FrameKind::Fetch,
        FrameKind::FetchDone,
        FrameKind::Error,
        FrameKind::ShardDelta,
    ];
    let deltas = [-100, -2, -1, 1, 2, 1 << 20];
    let k_usize = k as usize;
    [
        Hostile::Arbitrary(arbitrary.clone()),
        Hostile::AfterPrefix(arbitrary),
        Hostile::HeaderPastEnd(k),
        Hostile::OverMaxPayload(j, k),
        Hostile::PastEnd(j, k % 1024),
        Hostile::Kind(j, kinds[k_usize % kinds.len()]),
        Hostile::ShardId(j, k),
        Hostile::BlobLen(j, deltas[k_usize % deltas.len()]),
        Hostile::BadMagic(j, k),
        Hostile::Trailing(tail),
    ]
}

/// `ck`'s file with `h` applied.
fn apply(ck: &Checkpoint, h: &Hostile) -> Vec<u8> {
    let (prefix, header, mut frames) = parts("hostile_parts", ck);
    let n = frames.len();
    match h {
        Hostile::Arbitrary(bytes) => return bytes.clone(),
        Hostile::AfterPrefix(bytes) => return [&prefix[..8], bytes].concat(),
        Hostile::HeaderPastEnd(k) => {
            let mut file = join(&prefix, &header, &frames);
            let past = (file.len() as u64 - 16 + u64::from(*k)).min(u64::from(u32::MAX));
            file[8..12].copy_from_slice(&(past as u32).to_le_bytes());
            return file;
        }
        Hostile::OverMaxPayload(j, k) | Hostile::PastEnd(j, k) => {
            let mut file = join(&prefix, &header, &frames[..j % n]);
            let max = (HEADER_LEN + MAX_PAYLOAD) as u32;
            let len = match h {
                Hostile::PastEnd(..) => max - k,
                _ => max.saturating_add(*k),
            };
            file.extend_from_slice(&len.to_le_bytes());
            file.extend_from_slice(&[0; 64]);
            return file;
        }
        Hostile::Kind(j, kind) => frames[j % n].kind = *kind,
        Hostile::ShardId(j, d) => {
            let f = &mut frames[j % n];
            f.shard_id = f.shard_id.wrapping_add(*d);
        }
        Hostile::BlobLen(j, d) => {
            let f = &mut frames[j % n];
            let len = ((f.payload.len() as i64 - 12) / 4 + i64::from(*d)).max(0);
            f.payload = encode_f32s(&vec![0.5; len as usize]);
        }
        Hostile::BadMagic(j, m) => {
            let f = &mut frames[j % n];
            let mut payload = f.payload.to_vec();
            if payload[..4] == m.to_le_bytes() {
                payload[0] ^= 1;
            } else {
                payload[..4].copy_from_slice(&m.to_le_bytes());
            }
            f.payload = Bytes::from(payload);
        }
        Hostile::Trailing(tail) => {
            return [join(&prefix, &header, &frames), tail.clone()].concat();
        }
    }
    join(&prefix, &header, &frames)
}

/// Any f32 bit pattern, NaN payloads and subnormals included.
fn values() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(any::<u32>().prop_map(f32::from_bits), PARAMS)
}

proptest! {
    /// Save → load reproduces the checkpoint exactly — every f32 bit
    /// pattern, shard version, counter and header field.
    #[test]
    fn roundtrip_is_bit_exact(
        seed in 1u64..1000,
        snapshot in values(),
        params in values(),
        wall_s in 0.0f64..1e6,
    ) {
        let ck = build(seed, &snapshot, &params, wall_s);
        let path = tmp_path("roundtrip");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        let back = back.unwrap();
        prop_assert_eq!(ck, back);
    }

    /// Substituting any single byte of the saved file — prefix, header,
    /// frame headers, checksums or parameters — makes load fail.
    #[test]
    fn corrupting_any_byte_is_detected(
        seed in 1u64..1000,
        snapshot in values(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let ck = build(seed, &snapshot, &snapshot, 4.25);
        let path = tmp_path("corrupt");
        ck.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip; // guaranteed different: flip is non-zero
        std::fs::write(&path, &bytes).unwrap();
        let res = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(
            res.is_err(),
            "byte {} xor {:#04x} loaded fine",
            pos,
            flip
        );
    }

    /// Truncating the file anywhere is detected.
    #[test]
    fn truncation_is_detected(
        seed in 1u64..1000,
        cut_frac in 0.01f64..0.99,
    ) {
        let ck = build(seed, &[0.5; PARAMS], &[-0.75; PARAMS], 1.0);
        let path = tmp_path("trunc");
        ck.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let res = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(res.is_err(), "kept {keep} of {} bytes", bytes.len());
    }

    /// Hostile bytes — arbitrary files, a header length past the end, a
    /// frame over `MAX_PAYLOAD` or past the end of the file, a re-sealed
    /// frame of the wrong kind, shard id, blob length or VCP1 magic,
    /// trailing bytes — are an `Err`, never a panic, and no load allocates
    /// more than the file it read (plus a little for the header's parse).
    #[test]
    fn hostile_bytes_are_refused(
        seed in 1u64..1000,
        j in 0usize..64,
        k in 1u32..u32::MAX,
        arbitrary in prop::collection::vec(any::<u8>(), 0..4096),
        tail in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let ck = build(seed, &[0.5; PARAMS], &[-0.75; PARAMS], 1.0);
        for h in hostile(j, k, arbitrary, tail) {
            let file = apply(&ck, &h);
            let (res, largest) = load_bytes("hostile", &file);
            prop_assert!(res.is_err(), "{:?} loaded", h);
            prop_assert!(
                largest <= file.len() + (64 << 10),
                "{:?}: a {} B allocation for a {} B file",
                h,
                largest,
                file.len()
            );
        }
    }
}

/// The load bound holds for a valid file too, so the hostile cases'
/// bound is not met by failing early alone.
#[test]
fn a_load_allocates_no_more_than_its_file() {
    let ck = build(5, &[0.5; PARAMS], &[-0.75; PARAMS], 1.0);
    let (prefix, header, frames) = parts("bounded_parts", &ck);
    let file = join(&prefix, &header, &frames);
    let (res, largest) = load_bytes("bounded", &file);
    assert_eq!(res.unwrap(), ck);
    assert!(
        largest <= file.len(),
        "{largest} B for a {} B file",
        file.len()
    );
}

/// A checkpoint of the `mlp_transfer` model (1 578 506 parameters) at four
/// PS shards is its two copies of the parameters' bytes plus at most
/// 64 KiB: the JSON arrays it replaced took about 67 MB.
#[test]
fn an_mlp_transfer_checkpoint_is_its_parameter_bytes() {
    let mut cfg = RuntimeConfig::test_small(1);
    cfg.job.data.img = [3, 32, 32];
    cfg.job.model = vc_nn::spec::mlp(&cfg.job.data.img, 512, cfg.job.data.classes);
    cfg.job.ps_shards = 4;
    let n = cfg.job.model.param_count();
    assert_eq!(n, 1_578_506);
    let values: Vec<f32> = (0..n).map(|i| (i as f32 * 1e-3).sin()).collect();
    let ck = Checkpoint {
        snapshot: blobs(&cfg, &values, 1),
        params: blobs(&cfg, &values, 2),
        header: CheckpointHeader {
            epoch: 3,
            done: (0..8).map(|s| (s, 0.5)).collect(),
            stats: Vec::new(),
            assimilations: 24,
            bytes_transferred: 1 << 30,
            wall_s: 12.0,
            cfg,
        },
    };
    let path = tmp_path("mlp_transfer_size");
    ck.save(&path).unwrap();
    let size = std::fs::metadata(&path).unwrap().len();
    let back = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(size <= 2 * 4 * n as u64 + (64 << 10), "{size} B");
    assert_eq!(back.unwrap(), ck);
}

/// A save that fails — here the temp path cannot be created, because a
/// directory already sits there — reports the failure and leaves the
/// previous good checkpoint loadable; and neither a successful save nor
/// one that fails after writing its temp file leaves a temp file behind.
#[test]
fn failed_save_keeps_the_previous_checkpoint() {
    let path = tmp_path("failed_save");
    let tmp = temp_of(&path);
    let good = build(7, &[0.5; PARAMS], &[-1.5; PARAMS], 1.0);
    good.save(&path).unwrap();
    assert!(!tmp.exists(), "a successful save left its temp file");

    std::fs::create_dir(&tmp).unwrap();
    let newer = build(8, &[9.0; PARAMS], &[9.0; PARAMS], 2.0);
    let failed = newer.save(&path);
    std::fs::remove_dir(&tmp).unwrap();
    assert!(
        failed.is_err(),
        "a directory at the temp path must fail the save"
    );

    let back = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(back.unwrap(), good, "the failed save damaged the old file");
    assert!(!tmp.exists());

    // A failure after the temp file was written (the target is a non-empty
    // directory, so the rename is refused) removes the temp file too.
    let blocked = tmp_path("blocked_rename");
    std::fs::create_dir_all(blocked.join("occupied")).unwrap();
    let failed = newer.save(&blocked);
    let leftover = temp_of(&blocked).exists();
    std::fs::remove_dir_all(&blocked).unwrap();
    assert!(
        failed.is_err(),
        "renaming onto a non-empty directory must fail"
    );
    assert!(!leftover, "a refused rename left its temp file behind");
}

/// A checkpoint embeds its run's config. One written while the retired
/// codecs (DESIGN §12a) could still be configured must fail to load — an
/// error, not a panic, and not a silent read as some other codec.
#[test]
fn retired_codec_names_do_not_parse() {
    let json = serde_json::to_string(&RuntimeConfig::test_small(1)).unwrap();
    assert!(json.contains(r#""codec":"Raw""#), "{json}");
    for retired in [
        r#""codec":"Fp16""#,
        r#""codec":{"TopK":{"k":8,"error_feedback":true}}"#,
    ] {
        let old = json.replace(r#""codec":"Raw""#, retired);
        let parsed = serde_json::from_str::<RuntimeConfig>(&old);
        assert!(parsed.is_err(), "{retired} parsed as {parsed:?}");
    }
}

/// The same for the algorithm layer's retired choices (DESIGN §3): each is
/// an error naming the variant, on its own and inside the config a stale
/// checkpoint embeds.
#[test]
fn retired_algorithm_variants_do_not_parse() {
    fn names(parsed: Result<impl std::fmt::Debug, serde_json::Error>, variant: &str) {
        let err = parsed.expect_err("a retired variant parsed").to_string();
        assert!(err.contains(variant), "error for {variant} reads: {err}");
    }
    use serde_json::from_str;
    names(
        from_str::<vc_optim::OptimizerSpec>(r#"{"Sgd":{"lr":0.1}}"#),
        "Sgd",
    );
    names(
        from_str::<vc_nn::LayerSpec>(r#"{"Dropout":{"p":0.3}}"#),
        "Dropout",
    );
    names(from_str::<vc_asgd::FleetKind>(r#"{"Custom":[]}"#), "Custom");
    names(
        from_str::<vc_asgd::AlphaSchedule>(r#"{"Linear":{"from":0.5,"to":0.95,"over":8}}"#),
        "Linear",
    );
    names(
        from_str::<vc_simnet::PreemptionModel>(r#"{"ExponentialLifetime":{"mean_hours":1.0}}"#),
        "ExponentialLifetime",
    );

    // `PreemptionModel` is the discrete-event driver's, not a field of a
    // `RuntimeConfig`, so only its standalone case above applies.
    let json = serde_json::to_string(&RuntimeConfig::test_small(1)).unwrap();
    let adam = serde_json::to_string(&vc_optim::OptimizerSpec::paper_adam()).unwrap();
    for (current, retired, variant) in [
        (adam.as_str(), r#"{"Sgd":{"lr":0.1}}"#, "Sgd"),
        (r#"["Flatten","#, r#"[{"Dropout":{"p":0.3}},"#, "Dropout"),
        (r#""fleet":"Uniform""#, r#""fleet":{"Custom":[]}"#, "Custom"),
        (
            r#""alpha":{"Const":0.6000000238418579}"#,
            r#""alpha":{"Linear":{"from":0.5,"to":0.95,"over":8}}"#,
            "Linear",
        ),
    ] {
        assert!(json.contains(current), "{current} not in {json}");
        let old = json.replace(current, retired);
        names(from_str::<RuntimeConfig>(&old), variant);
    }
}

/// `RuntimeConfig::test_small(1)` as the runtime serialized it while its
/// `JobConfig` still carried the discrete-event driver's knobs (`compute`,
/// `network`, `preemption`, `replacement_delay_s`, `timing_only`,
/// `track_test_acc`) and the retired ones (`target_accuracy`,
/// `pn_autoscale`, `pn_max`, `warm_start_epochs`), every one at the value a
/// runtime accepted. The text is that build's output, byte for byte apart
/// from line breaks.
const PRE_SPLIT_CONFIG: &str = r#"{"job":{"model":{"name":"mlp","input":[3,16,16],"classes":10,
"layers":["Flatten",{"Dense":{"input":768,"output":32}},"Relu",{"Dense":{"input":32,
"output":10}}]},"data":{"classes":10,"img":[3,16,16],"train_n":400,"val_n":120,"test_n":120,
"noise":1,"label_noise":0,"max_shift":2,"seed":1},"shards":8,"ps_shards":1,"pn":2,"cn":2,
"tn":2,"alpha":{"Const":0.6000000238418579},"epochs":3,"target_accuracy":null,
"consistency":"Eventual","fleet":"Uniform","preemption":"None",
"optimizer":{"Adam":{"lr":0.0010000000474974513,"beta1":0.8999999761581421,
"beta2":0.9990000128746033,"eps":0.00000000999999993922529}},"local_epochs":2,
"batch_size":32,"val_eval_n":120,"middleware":{"timeout_s":2,"max_attempts":8,
"sticky_files":true,"replication":1,"min_timeout_s":2,"max_timeout_s":10,"deadline_grace":3,
"deadline_alpha":0.25,"quorum":1,"backoff_base_s":0.2,"backoff_max_s":2},
"compute":{"base_subtask_s":144,"cores_per_task":1,"concurrency_overhead":0.06,
"ram_per_task_gb":3.5,"paging_penalty":0.35,"assim_cpu_s":16,"cores_per_ps":1.5,
"ps_overhead":0.05,"inflight_overhead":0.03},"network":{"rtt_median_s":0.08,"rtt_sigma":0.5,
"bandwidth_efficiency":0.3,"compression":1},"replacement_delay_s":120,"timing_only":false,
"track_test_acc":false,"pn_autoscale":false,"pn_max":8,"warm_start_epochs":0,"seed":1},
"poll_interval_s":0.01,"reply_timeout_s":1,"faults":{"kill_hosts":[],
"kill_on_nth_assignment":1,"respawn_after_s":null,"max_msg_delay_s":0,"byzantine_hosts":[],
"byzantine_mode":"Poison","seed":0},"checkpoint_every_assims":null,
"checkpoint_every_s":null,"checkpoint_path":null,"halt_after_assims":null,"max_wall_s":600,
"flight_recorder_path":null,"ps_tcp":false,"ops_addr":null,"trace":false,"codec":"Raw"}"#;

/// A checkpoint written before the config split still resumes: its config
/// parses, names the ten keys the runtime no longer has, and reads as
/// today's config — the keys it drops are ones the runtime never read.
#[test]
fn a_pre_split_config_still_parses() {
    for key in [
        "compute",
        "network",
        "preemption",
        "replacement_delay_s",
        "timing_only",
        "track_test_acc",
        "target_accuracy",
        "pn_autoscale",
        "pn_max",
        "warm_start_epochs",
    ] {
        assert!(PRE_SPLIT_CONFIG.contains(&format!("\"{key}\":")), "{key}");
    }
    let parsed: RuntimeConfig = serde_json::from_str(PRE_SPLIT_CONFIG).unwrap();
    assert_eq!(parsed, RuntimeConfig::test_small(1));
    parsed.validate().unwrap();
}

/// `RuntimeConfig::test_small(1)` as the runtime serialized it while the
/// worker's reply timeout (`reply_timeout_s`) and the middleware's
/// deadline policy (`max_attempts`, `deadline_grace`, `deadline_alpha`)
/// were still settings. The text is that build's output, byte for byte
/// apart from line breaks and those four values, which are set away from
/// the defaults the constants now hold.
const PRE_CONSTANTS_CONFIG: &str = r#"{"job":{"model":{"name":"mlp","input":[3,16,16],
"classes":10,"layers":["Flatten",{"Dense":{"input":768,"output":32}},"Relu",{"Dense":{
"input":32,"output":10}}]},"data":{"classes":10,"img":[3,16,16],"train_n":400,"val_n":120,
"test_n":120,"noise":1,"label_noise":0,"max_shift":2,"seed":1},"shards":8,"ps_shards":1,
"pn":2,"cn":2,"tn":2,"alpha":{"Const":0.6000000238418579},"epochs":3,
"consistency":"Eventual","fleet":"Uniform","optimizer":{"Adam":{"lr":0.0010000000474974513,
"beta1":0.8999999761581421,"beta2":0.9990000128746033,"eps":0.00000000999999993922529}},
"local_epochs":2,"batch_size":32,"val_eval_n":120,"middleware":{"timeout_s":2,
"max_attempts":3,"sticky_files":true,"replication":1,"min_timeout_s":2,"max_timeout_s":10,
"deadline_grace":2.5,"deadline_alpha":0.5,"quorum":1,"backoff_base_s":0.2,
"backoff_max_s":2},"seed":1},"poll_interval_s":0.01,"reply_timeout_s":2.5,"faults":{
"kill_hosts":[],"kill_on_nth_assignment":1,"respawn_after_s":null,"max_msg_delay_s":0,
"byzantine_hosts":[],"byzantine_mode":"Poison","seed":0},"checkpoint_every_assims":null,
"checkpoint_every_s":null,"checkpoint_path":null,"halt_after_assims":null,"max_wall_s":600,
"flight_recorder_path":null,"ps_tcp":false,"ops_addr":null,"trace":false,"codec":"Raw"}"#;

/// A checkpoint written while those four values were settings still
/// resumes, whatever they were set to: its config parses, validates, and
/// reads as today's config, which holds them as constants.
#[test]
fn a_config_with_the_retired_settings_still_parses() {
    for key in [
        r#""reply_timeout_s":2.5"#,
        r#""max_attempts":3"#,
        r#""deadline_grace":2.5"#,
        r#""deadline_alpha":0.5"#,
    ] {
        assert!(PRE_CONSTANTS_CONFIG.contains(key), "{key}");
    }
    let parsed: RuntimeConfig = serde_json::from_str(PRE_CONSTANTS_CONFIG).unwrap();
    parsed.validate().unwrap();
    assert_eq!(parsed, RuntimeConfig::test_small(1));
}

/// `RuntimeConfig::test_small(1)` with an every-4-assimilations checkpoint
/// trigger (`checkpoint_every_assims`) and the path it wrote to, as the
/// runtime serialized it while that trigger was a setting. The text is that
/// build's output, byte for byte apart from line breaks.
const PRE_ONE_TRIGGER_CONFIG: &str = r#"{"job":{"model":{"name":"mlp","input":[3,16,16],
"classes":10,"layers":["Flatten",{"Dense":{"input":768,"output":32}},"Relu",{"Dense":{
"input":32,"output":10}}]},"data":{"classes":10,"img":[3,16,16],"train_n":400,"val_n":120,
"test_n":120,"noise":1,"label_noise":0,"max_shift":2,"seed":1},"shards":8,"ps_shards":1,
"pn":2,"cn":2,"tn":2,"alpha":{"Const":0.6000000238418579},"epochs":3,
"consistency":"Eventual","fleet":"Uniform","optimizer":{"Adam":{"lr":0.0010000000474974513,
"beta1":0.8999999761581421,"beta2":0.9990000128746033,"eps":0.00000000999999993922529}},
"local_epochs":2,"batch_size":32,"val_eval_n":120,"middleware":{"timeout_s":2,
"sticky_files":true,"replication":1,"min_timeout_s":2,"max_timeout_s":10,"quorum":1,
"backoff_base_s":0.2,"backoff_max_s":2},"seed":1},"poll_interval_s":0.01,"faults":{
"kill_hosts":[],"kill_on_nth_assignment":1,"respawn_after_s":null,"max_msg_delay_s":0,
"byzantine_hosts":[],"byzantine_mode":"Poison","seed":0},"checkpoint_every_assims":4,
"checkpoint_every_s":null,"checkpoint_path":"run_ck.json","halt_after_assims":null,
"max_wall_s":600,"flight_recorder_path":null,"ps_tcp":false,"ops_addr":null,"trace":false,
"codec":"Raw"}"#;

/// A checkpoint written while assimilation counts could trigger one still
/// resumes: its config parses, validates, and reads as today's config with
/// the same path, whose one periodic trigger is `checkpoint_every_s`.
#[test]
fn a_config_with_the_assimilation_trigger_still_parses() {
    assert!(PRE_ONE_TRIGGER_CONFIG.contains(r#""checkpoint_every_assims":4"#));
    let parsed: RuntimeConfig = serde_json::from_str(PRE_ONE_TRIGGER_CONFIG).unwrap();
    parsed.validate().unwrap();
    let mut today = RuntimeConfig::test_small(1);
    today.checkpoint_path = Some("run_ck.json".into());
    assert_eq!(parsed, today);
}

/// `RuntimeConfig::test_small(1)` with the managed ops server's address
/// (`ops_addr`) and the finalize-time flight-recorder dump
/// (`flight_recorder_path`) set, as the runtime serialized it while those
/// were settings. The text is that build's output, byte for byte apart from
/// line breaks.
const PRE_OPS_ADDR_CONFIG: &str = r#"{"job":{"model":{"name":"mlp","input":[3,16,16],
"classes":10,"layers":["Flatten",{"Dense":{"input":768,"output":32}},"Relu",{"Dense":{
"input":32,"output":10}}]},"data":{"classes":10,"img":[3,16,16],"train_n":400,"val_n":120,
"test_n":120,"noise":1,"label_noise":0,"max_shift":2,"seed":1},"shards":8,"ps_shards":1,
"pn":2,"cn":2,"tn":2,"alpha":{"Const":0.6000000238418579},"epochs":3,
"consistency":"Eventual","fleet":"Uniform","optimizer":{"Adam":{"lr":0.0010000000474974513,
"beta1":0.8999999761581421,"beta2":0.9990000128746033,"eps":0.00000000999999993922529}},
"local_epochs":2,"batch_size":32,"val_eval_n":120,"middleware":{"timeout_s":2,
"sticky_files":true,"replication":1,"min_timeout_s":2,"max_timeout_s":10,"quorum":1,
"backoff_base_s":0.2,"backoff_max_s":2},"seed":1},"poll_interval_s":0.01,"faults":{
"kill_hosts":[],"kill_on_nth_assignment":1,"respawn_after_s":null,"max_msg_delay_s":0,
"byzantine_hosts":[],"byzantine_mode":"Poison","seed":0},"checkpoint_every_s":null,
"checkpoint_path":null,"halt_after_assims":null,"max_wall_s":600,
"flight_recorder_path":"/tmp/x","ps_tcp":false,"ops_addr":"127.0.0.1:0","trace":false,
"codec":"Raw"}"#;

/// A checkpoint written while the runtime could start its own ops server
/// and dump its flight recorder still resumes: its config parses,
/// validates, and reads as today's config. A caller that wants either
/// fronts its hub with `OpsServer::start` or reads the recorder of the
/// telemetry it hands the run.
#[test]
fn a_config_with_the_ops_server_and_recorder_dump_still_parses() {
    for key in [
        r#""ops_addr":"127.0.0.1:0""#,
        r#""flight_recorder_path":"/tmp/x""#,
    ] {
        assert!(PRE_OPS_ADDR_CONFIG.contains(key), "{key}");
    }
    let parsed: RuntimeConfig = serde_json::from_str(PRE_OPS_ADDR_CONFIG).unwrap();
    parsed.validate().unwrap();
    assert_eq!(parsed, RuntimeConfig::test_small(1));
}
