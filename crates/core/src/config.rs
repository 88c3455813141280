//! Training-job configuration.

use crate::alpha::AlphaSchedule;
use serde::{Deserialize, Serialize};
use vc_data::SyntheticSpec;
use vc_kvstore::Consistency;
use vc_middleware::MiddlewareConfig;
use vc_nn::ModelSpec;
use vc_optim::OptimizerSpec;
use vc_simnet::{table1, InstanceSpec};

/// Which instances make up the client fleet.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetKind {
    /// `cn` copies of the reference 8-vCPU/2.2-GHz client (the P5C5T2
    /// fleet shape).
    Uniform,
    /// Cycle through the four Table I client types (§III-E heterogeneity).
    Mixed,
    /// A synthesized volunteer population with a heavy-tailed speed
    /// distribution ([`vc_simnet::generated_fleet`]), deterministic in
    /// `(cn, seed)` — the 10k–100k-host fleets of the scale sweeps.
    Generated {
        /// Population seed (independent of the job seed, so the same
        /// fleet can be reused across schedules).
        seed: u64,
    },
}

impl FleetKind {
    /// Materializes the fleet for `cn` clients.
    pub fn build(&self, cn: usize) -> Vec<InstanceSpec> {
        match self {
            FleetKind::Uniform => table1::uniform_fleet(cn),
            FleetKind::Mixed => table1::mixed_fleet(cn),
            FleetKind::Generated { seed } => vc_simnet::generated_fleet(cn, *seed),
        }
    }
}

/// What every driver of a distributed training run reads. The defaults
/// encode the paper's experimental setup (§IV-A) at the reproduction scale
/// documented in DESIGN.md. A knob only one driver reads lives in that
/// driver's config, which embeds this one: the discrete-event driver's cost
/// models, preemption and timing-only mode in `vc_runtime::des::DesConfig`,
/// the real runtime's cadences, faults and codec in
/// `vc_runtime::RuntimeConfig`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Model architecture (the paper: ResNetV2; default here: the small
    /// CNN over the synthetic dataset's geometry).
    pub model: ModelSpec,
    /// Dataset generator parameters.
    pub data: SyntheticSpec,
    /// Number of data subsets = subtasks per epoch (paper: 50).
    pub shards: usize,
    /// Parameter-service shards: how many contiguous pieces the flat
    /// parameter vector is split into, each with its own store key, version
    /// counter and per-shard VC-ASGD merge (`vc-ps`). 1 reproduces the
    /// paper's single-value store exactly; the Eq. (1) blend is elementwise,
    /// so any shard count is bitwise-identical math under sequential
    /// merges — sharding changes contention and transfer, not results.
    pub ps_shards: usize,
    /// Parameter servers (`Pn`).
    pub pn: usize,
    /// Clients (`Cn`).
    pub cn: usize,
    /// Simultaneous subtasks per client (`Tn`).
    pub tn: usize,
    /// The VC-ASGD α schedule.
    pub alpha: AlphaSchedule,
    /// Epochs to run.
    pub epochs: usize,
    /// Parameter-store consistency (paper default: eventual/Redis).
    pub consistency: Consistency,
    /// Fleet composition.
    pub fleet: FleetKind,
    /// Client optimizer (paper: Adam, lr 0.001).
    pub optimizer: OptimizerSpec,
    /// Local passes a client makes over its shard per subtask.
    pub local_epochs: usize,
    /// Client mini-batch size.
    pub batch_size: usize,
    /// Samples of the validation split scored after each assimilation.
    pub val_eval_n: usize,
    /// Middleware policy (timeout `t_o`, sticky files, …).
    pub middleware: MiddlewareConfig,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl JobConfig {
    /// The paper's P3C3T4 shape at reproduction scale: synthetic CIFAR-like
    /// data, 50 shards, small CNN, Adam(0.001), eventual consistency.
    pub fn paper_default(seed: u64) -> Self {
        let data = SyntheticSpec::cifar_like(seed);
        let model = vc_nn::spec::small_cnn(&data.img, data.classes);
        JobConfig {
            model,
            data,
            shards: 50,
            ps_shards: 1,
            pn: 3,
            cn: 3,
            tn: 4,
            alpha: AlphaSchedule::Const(0.95),
            epochs: 40,
            consistency: Consistency::Eventual,
            fleet: FleetKind::Uniform,
            optimizer: OptimizerSpec::paper_adam(),
            local_epochs: 2,
            batch_size: 32,
            val_eval_n: 256,
            middleware: MiddlewareConfig::default(),
            seed,
        }
    }

    /// A drastically scaled-down configuration for unit/integration tests:
    /// tiny, easier data, few shards, few epochs, an aggressive α — runs in
    /// seconds and still shows learning.
    pub fn test_small(seed: u64) -> Self {
        let mut data = SyntheticSpec::cifar_like(seed);
        data.train_n = 400;
        data.val_n = 120;
        data.test_n = 120;
        data.noise = 1.0;
        data.label_noise = 0.0;
        let model = vc_nn::spec::mlp(&data.img, 32, data.classes);
        JobConfig {
            model,
            data,
            shards: 8,
            pn: 2,
            cn: 2,
            tn: 2,
            epochs: 3,
            val_eval_n: 120,
            local_epochs: 2,
            alpha: AlphaSchedule::Const(0.6),
            ..Self::paper_default(seed)
        }
    }

    /// Configures the paper's `PnCnTn` triple in one call.
    pub fn with_pct(mut self, pn: usize, cn: usize, tn: usize) -> Self {
        self.pn = pn;
        self.cn = cn;
        self.tn = tn;
        self
    }

    /// Validates cross-field invariants; the job constructor calls this.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || self.pn == 0 || self.cn == 0 || self.tn == 0 {
            return Err("shards, pn, cn and tn must all be positive".into());
        }
        if self.ps_shards == 0 {
            return Err("ps_shards must be positive (1 = unsharded store)".into());
        }
        if self.epochs == 0 {
            return Err("need at least one epoch".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.data.train_n < self.shards {
            return Err(format!(
                "cannot split {} samples into {} shards",
                self.data.train_n, self.shards
            ));
        }
        if self.val_eval_n == 0 || self.val_eval_n > self.data.val_n {
            return Err(format!(
                "val_eval_n {} outside 1..={}",
                self.val_eval_n, self.data.val_n
            ));
        }
        self.middleware.validate()?;
        Ok(())
    }

    /// Experiment label in the paper's notation, e.g. `P3C3T4`.
    pub fn pct_label(&self) -> String {
        format!("P{}C{}T{}", self.pn, self.cn, self.tn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = JobConfig::paper_default(1);
        c.validate().unwrap();
        assert_eq!(c.shards, 50);
        assert_eq!(c.pct_label(), "P3C3T4");
        assert_eq!(c.consistency, Consistency::Eventual);
    }

    #[test]
    fn test_small_is_valid_and_small() {
        let c = JobConfig::test_small(2);
        c.validate().unwrap();
        assert!(c.data.train_n <= 500);
        assert!(c.epochs <= 5);
    }

    #[test]
    fn with_pct_relabels() {
        let c = JobConfig::paper_default(1).with_pct(5, 5, 2);
        assert_eq!(c.pct_label(), "P5C5T2");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = JobConfig::test_small(1);
        c.shards = 0;
        assert!(c.validate().is_err());

        let mut c = JobConfig::test_small(1);
        c.data.train_n = 4;
        assert!(c.validate().is_err());

        let mut c = JobConfig::test_small(1);
        c.val_eval_n = 10_000;
        assert!(c.validate().is_err());

        let mut c = JobConfig::test_small(1);
        c.batch_size = 0;
        assert_eq!(c.validate().unwrap_err(), "batch_size must be positive");
    }

    #[test]
    fn fleet_kinds_build() {
        assert_eq!(FleetKind::Uniform.build(3).len(), 3);
        let mixed = FleetKind::Mixed.build(5);
        assert_eq!(mixed.len(), 5);
        assert_ne!(mixed[0].name, mixed[1].name);
    }

    #[test]
    fn config_serializes() {
        let c = JobConfig::test_small(3);
        let json = serde_json::to_string(&c).unwrap();
        let back: JobConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
