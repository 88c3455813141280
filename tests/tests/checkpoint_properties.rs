//! Property tests for the checkpoint format: round trips are bit-exact,
//! and corrupting *any* byte of the file is detected at load.
//!
//! The digest (FNV-1a) is computed over the raw serialized bytes with the
//! digest field zeroed, so a same-length substitution anywhere in the file
//! changes the hash deterministically — these properties exercise that
//! guarantee with arbitrary parameter vectors and arbitrary corruption
//! positions.

use proptest::prelude::*;
use vc_runtime::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use vc_runtime::RuntimeConfig;

fn build(seed: u64, snapshot: Vec<f32>, params: Vec<f32>, wall_s: f64) -> Checkpoint {
    let mut ck = Checkpoint {
        version: CHECKPOINT_VERSION,
        cfg: RuntimeConfig::test_small(seed),
        epoch: 1 + (seed as usize % 3),
        snapshot,
        params,
        done: vec![(0, 0.25), (3, 0.5)],
        stats: Vec::new(),
        assimilations: seed * 7,
        bytes_transferred: seed * 1024,
        wall_s,
        digest: 0,
    };
    ck.seal();
    ck
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vc_ck_prop_{tag}_{}.json", std::process::id()))
}

proptest! {
    /// Serialize → deserialize reproduces the checkpoint exactly — every
    /// f32 bit pattern, counter and the digest itself.
    #[test]
    fn roundtrip_is_bit_exact(
        seed in 1u64..1000,
        snapshot in prop::collection::vec(-1e30f32..1e30, 1..64),
        wall_s in 0.0f64..1e6,
    ) {
        // params must match snapshot's length (load enforces geometry).
        let params: Vec<f32> = snapshot.iter().map(|v| v * 0.5 + 1e-3).collect();
        let ck = build(seed, snapshot, params, wall_s);
        let path = tmp_path("roundtrip");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        let back = back.unwrap();
        prop_assert_eq!(ck, back);
    }

    /// Substituting any single byte of the saved file — parameters, config,
    /// counters, or the digest itself — makes load fail.
    #[test]
    fn corrupting_any_byte_is_detected(
        seed in 1u64..1000,
        snapshot in prop::collection::vec(-1e3f32..1e3, 1..32),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let params = snapshot.clone();
        let ck = build(seed, snapshot, params, 4.25);
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
        let ck = build(seed, vec![0.5, -1.5], vec![0.25, -0.75], 1.0);
        let path = tmp_path("trunc");
        ck.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let res = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(res.is_err(), "kept {keep} of {} bytes", bytes.len());
    }
}

/// A save that fails — here the temp path cannot be created, because a
/// directory already sits there — reports the failure and leaves the
/// previous good checkpoint loadable; and neither a successful save nor
/// one that fails after writing its temp file leaves a `.tmp` behind.
#[test]
fn failed_save_keeps_the_previous_checkpoint() {
    let path = tmp_path("failed_save");
    let tmp = path.with_extension("tmp");
    let good = build(7, vec![0.5, -1.5], vec![0.25, -0.75], 1.0);
    good.save(&path).unwrap();
    assert!(!tmp.exists(), "a successful save left its temp file");

    std::fs::create_dir(&tmp).unwrap();
    let newer = build(8, vec![9.0, 9.0], vec![9.0, 9.0], 2.0);
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
    let leftover = blocked.with_extension("tmp").exists();
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
