//! Frozen bits of the discrete-event driver, recorded on the commit before
//! it moved out of `vc-asgd` (where it ran over an unsharded assimilator of
//! its own) into `vc_runtime::des` (over `ShardedAssimilator` at one shard,
//! sharing the begin/finish and scoring bodies with the other drivers): the
//! move must not change an accuracy bit, a clock reading or a store
//! operation count.

use vc_asgd::{JobConfig, JobReport};
use vc_kvstore::Consistency;
use vc_runtime::des::{run_job, DesConfig};
use vc_simnet::PreemptionModel;

/// Everything the figures read off a run, as integers: per epoch the
/// mean/min/max accuracy bits and the clock bits, then the store counters
/// (reads, writes, transactions, lost updates), the bytes moved and the
/// preemption count.
fn fingerprint(r: &JobReport) -> Vec<u64> {
    let mut out = Vec::new();
    for e in &r.epochs {
        out.extend([
            u64::from(e.mean_val_acc.to_bits()),
            u64::from(e.min_val_acc.to_bits()),
            u64::from(e.max_val_acc.to_bits()),
            e.end_time_h.to_bits(),
        ]);
    }
    let s = &r.store_ops;
    out.extend([
        s.reads,
        s.writes,
        s.transactions,
        s.lost_updates,
        r.bytes_transferred,
        r.preemptions,
    ]);
    out
}

/// Four parameter servers and no CPU phase, so store updates overlap.
fn pn4(consistency: Consistency) -> DesConfig {
    let mut cfg = DesConfig::new(JobConfig::test_small(6));
    cfg.job.pn = 4;
    cfg.job.epochs = 2;
    cfg.compute.assim_cpu_s = 0.0;
    cfg.job.consistency = consistency;
    cfg
}

#[test]
fn test_small_seed_7_replays_the_recorded_bits() {
    let r = run_job(JobConfig::test_small(7)).unwrap();
    assert_eq!(
        fingerprint(&r),
        [
            1043333120,
            1041305873,
            1044102076,
            4591356193893828395, // epoch 1
            1049519718,
            1047457519,
            1050253722,
            4595842119449279731, // epoch 2
            1054308215,
            1052211063,
            1055846127,
            4598670996845757332, // epoch 3
            27,
            25,
            0,
            1,
            6018560,
            0,
        ]
    );
}

#[test]
fn eventual_pn4_replays_the_recorded_bits() {
    let r = run_job(pn4(Consistency::Eventual)).unwrap();
    assert_eq!(
        fingerprint(&r),
        [
            1043822457,
            1041305873,
            1045779797,
            4590790379515393762, // epoch 1
            1049170193,
            1047457519,
            1049974101,
            4595292821931354671, // epoch 2
            18,
            17,
            0,
            8,
            4422336,
            0,
        ]
    );
}

#[test]
fn strong_pn4_replays_the_recorded_bits() {
    let r = run_job(pn4(Consistency::Strong)).unwrap();
    assert_eq!(
        fingerprint(&r),
        [
            1044451602,
            1041305873,
            1046898278,
            4590793206907210719, // epoch 1
            1049799338,
            1048576000,
            1050812962,
            4595295649323171627, // epoch 2
            2,
            17,
            16,
            0,
            4422336,
            0,
        ]
    );
}

/// Tn = 2 under a 30 % per-subtask preemption storm: kills land on hosts
/// that hold several subtasks, so a dead instance's in-flight events must
/// be told apart from its replacement's. Recorded before the driver read
/// host liveness from the scheduler's incarnation counter; the final
/// accuracies pin the closing evaluation too.
#[test]
fn preempted_tn2_replays_the_recorded_bits() {
    let cfg = DesConfig {
        preemption: PreemptionModel::BernoulliPerSubtask { p: 0.3 },
        ..DesConfig::new(JobConfig::test_small(4))
    };
    assert_eq!(cfg.job.tn, 2);
    let r = run_job(cfg).unwrap();
    assert_eq!(
        fingerprint(&r),
        [
            1043193309,
            1041305873,
            1044661316,
            4600543619007486620, // epoch 1
            1050253721,
            1047457519,
            1051931443,
            4606482603249946148, // epoch 2
            1054028595,
            1053049924,
            1054727646,
            4610619381398388263, // epoch 3
            27,
            25,
            0,
            1,
            15160920,
            16,
        ]
    );
    assert_eq!(
        (r.final_val_acc.to_bits(), r.final_test_acc.to_bits()),
        (1053888785, 1054727646)
    );
}
