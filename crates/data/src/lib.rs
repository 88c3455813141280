//! # vc-data
//!
//! Dataset substrate: a procedural, CIFAR-like image-classification problem
//! plus the sharding machinery the paper's work generator uses to split a
//! training job into per-subset subtasks.
//!
//! ## Substitution note
//!
//! The paper benchmarks on CIFAR10 (50 000 train / 10 000 test 32×32×3
//! images, split into 50 shards of 3.9 MB each). This environment has no
//! network access, so [`synthetic::SyntheticSpec`] generates a dataset with
//! the properties VC-ASGD's dynamics actually depend on:
//!
//! * 10 visually-structured classes (spatially-correlated prototypes) that a
//!   small CNN can learn but not saturate — accuracy plateaus below 1.0 at a
//!   level set by the label/feature noise;
//! * per-shard class balance, so each subtask sees every class but only a
//!   small sample of each — producing the "partial learning / unlearning"
//!   effect the paper uses to explain the behaviour of α (§IV-C);
//! * deterministic generation from a seed, so every experiment is exactly
//!   reproducible.
//!
//! [`shard::ShardSet`] performs the work generator's dataset split and
//! reports realistic byte sizes that `vc-simnet` charges against instance
//! bandwidth, mirroring the paper's 3.9 MB `.npz` subsets.

pub mod dataset;
pub mod shard;
pub mod synthetic;

pub use dataset::Dataset;
pub use shard::{DataShard, ShardSet};
pub use synthetic::SyntheticSpec;
