//! The four workloads: each is a `RuntimeConfig` generated from the seed.
//!
//! The program under test only ever sees the generated config — the seed
//! feeds the data, model-init, fault-plan and delay-line streams and
//! nothing else. Every workload is a closed loop: a worker thread polls,
//! trains, uploads, and polls again only after the scheduler's reply, so a
//! slower system receives less load rather than a growing queue.

use vc_asgd::{AlphaSchedule, FleetKind, JobConfig};
use vc_data::SyntheticSpec;
use vc_kvstore::Consistency;
use vc_nn::spec::{mlp, resnet_lite};
use vc_ps::Codec;
use vc_runtime::{ByzantineMode, FaultPlan, RuntimeConfig};

/// The image shape every workload trains on (the paper's 32×32×3).
pub const IMG: [usize; 3] = [3, 32, 32];
/// Classes in the synthetic task.
pub const CLASSES: usize = 10;
/// Hidden width of the MB-class MLP (1 578 506 parameters, 6.3 MB).
pub const MLP_HIDDEN: usize = 512;
/// Parameter-service shards in every workload.
pub const PS_SHARDS: usize = 4;
/// Minibatch size in every workload.
pub const BATCH: usize = 32;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ResnetCompute,
    MlpTransfer,
    MlpTransferInt8,
    ChurnQuorum,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ResnetCompute,
        Workload::MlpTransfer,
        Workload::MlpTransferInt8,
        Workload::ChurnQuorum,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ResnetCompute => "resnet_compute",
            Workload::MlpTransfer => "mlp_transfer",
            Workload::MlpTransferInt8 => "mlp_transfer_int8",
            Workload::ChurnQuorum => "churn_quorum",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Epochs in one repetition. Sized so a repetition lasts 3–4 s on two
    /// cores: the measuring window then holds several repetitions (several
    /// set-ups, several hundred turnaround samples). A smoke repetition is
    /// a fraction of that: it shows the path runs, not how fast.
    pub fn epochs(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::ResnetCompute, false) => 2,
            (Workload::ResnetCompute, true) => 1,
            (Workload::MlpTransfer | Workload::MlpTransferInt8, false) => 10,
            (Workload::MlpTransfer | Workload::MlpTransferInt8, true) => 2,
            (Workload::ChurnQuorum, false) => 20,
            // Long enough for host 1 to reach its fifth assignment.
            (Workload::ChurnQuorum, true) => 6,
        }
    }

    /// Lowest `final_val_acc` a correct run may report (`None`: the
    /// workload is too short to learn; its correctness rests on the
    /// loss-decrease probe instead).
    pub fn acc_floor(self, smoke: bool) -> Option<f32> {
        if smoke {
            return None;
        }
        match self {
            Workload::ResnetCompute => None,
            Workload::MlpTransfer | Workload::MlpTransferInt8 => Some(0.30),
            Workload::ChurnQuorum => Some(0.80),
        }
    }

    /// The probe that times one client replica of this workload's model
    /// (the single-worker baseline `runtime.efficiency` is measured against).
    pub fn replica_metric(self) -> &'static str {
        match self {
            Workload::ResnetCompute => "core.replica_s.resnet",
            Workload::MlpTransfer | Workload::MlpTransferInt8 => "core.replica_s.mlp",
            Workload::ChurnQuorum => "core.replica_s.mlp64",
        }
    }

    /// True when the workload injects faults (the only one allowed a
    /// non-zero `failed_frac`).
    pub fn injects_faults(self) -> bool {
        self == Workload::ChurnQuorum
    }

    /// The generated configuration for one repetition.
    pub fn config(self, seed: u64, smoke: bool, trace: bool) -> RuntimeConfig {
        let mut job = base_job(seed);
        job.epochs = self.epochs(smoke);
        match self {
            Workload::ResnetCompute => {
                job.model = resnet_lite(&IMG, 2, CLASSES);
                job.data.train_n = 256;
                job.data.val_n = 128;
                job.data.test_n = 64;
                job.shards = 4;
                job.val_eval_n = 32;
                if smoke {
                    job.data.train_n = 64;
                    job.shards = 2;
                }
            }
            Workload::MlpTransfer | Workload::MlpTransferInt8 => {
                job.model = mlp(&IMG, MLP_HIDDEN, CLASSES);
                job.data.train_n = 128;
                job.data.val_n = 500;
                job.data.test_n = 100;
                job.shards = 4;
                job.val_eval_n = 32;
            }
            Workload::ChurnQuorum => {
                job.model = mlp(&IMG, 64, CLASSES);
                job.data.noise = 1.0;
                job.data.label_noise = 0.0;
                job.data.train_n = 384;
                job.data.val_n = 500;
                job.data.test_n = 100;
                job.shards = 6;
                job.val_eval_n = 32;
                job.cn = 3;
                job.consistency = Consistency::Strong;
                job.middleware.replication = 2;
                job.middleware.quorum = 2;
                job.middleware.timeout_s = 1.0;
                job.middleware.min_timeout_s = 1.0;
                job.middleware.max_timeout_s = 4.0;
                job.middleware.backoff_base_s = 0.2;
                job.middleware.backoff_max_s = 2.0;
                if smoke {
                    job.middleware.timeout_s = 0.4;
                    job.middleware.min_timeout_s = 0.4;
                }
            }
        }
        let mut cfg = RuntimeConfig::new(job);
        cfg.ps_tcp = true;
        cfg.trace = trace;
        cfg.max_wall_s = 120.0;
        match self {
            Workload::MlpTransferInt8 => {
                cfg.codec = Codec::Int8 {
                    error_feedback: true,
                };
            }
            Workload::ChurnQuorum => {
                cfg.faults = FaultPlan {
                    kill_hosts: vec![1],
                    kill_on_nth_assignment: 5,
                    respawn_after_s: Some(if smoke { 0.2 } else { 0.5 }),
                    max_msg_delay_s: 0.005,
                    byzantine_hosts: vec![0],
                    byzantine_mode: ByzantineMode::Poison,
                    seed,
                };
            }
            _ => {}
        }
        cfg
    }
}

/// What every workload shares: 2 workers, 1 assimilator, 1 slot per host,
/// 4 PS shards, batch 32, one local epoch, eventual consistency, wall-clock
/// scaled middleware deadlines.
fn base_job(seed: u64) -> JobConfig {
    let mut job = JobConfig::paper_default(seed);
    job.data = SyntheticSpec {
        classes: CLASSES,
        img: IMG,
        train_n: 0,
        val_n: 0,
        test_n: 0,
        noise: 2.6,
        label_noise: 0.10,
        max_shift: 2,
        seed,
    };
    job.ps_shards = PS_SHARDS;
    job.pn = 1;
    job.cn = 2;
    job.tn = 1;
    job.alpha = AlphaSchedule::Const(0.6);
    job.consistency = Consistency::Eventual;
    job.fleet = FleetKind::Uniform;
    job.local_epochs = 1;
    job.batch_size = BATCH;
    job.middleware.timeout_s = 30.0;
    job.middleware.min_timeout_s = 30.0;
    job.middleware.max_timeout_s = 60.0;
    job.middleware.backoff_base_s = 0.05;
    job.middleware.backoff_max_s = 0.5;
    job
}
