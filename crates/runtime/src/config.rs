//! Runtime configuration: a [`JobConfig`] plus the knobs that only exist
//! once time is real — polling cadence, fault plan, checkpoint policy.

use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use vc_asgd::JobConfig;
use vc_ps::Codec;

/// Everything a real threaded run (or its deterministic simulation) needs.
///
/// The embedded [`JobConfig`] is interpreted as follows: `cn` is the number
/// of worker OS threads, `pn` the number of parameter-server (assimilator)
/// OS threads, `tn` the per-host slot cap the scheduler enforces, and
/// `middleware.timeout_s` is a *wall-clock* deadline. Every field of it is
/// read. The discrete-event driver's knobs — cost models, preemption,
/// timing-only mode — are `vc_runtime::des::DesConfig`'s and cannot be
/// set here: compute time is real, transfers are channel sends or sockets,
/// and hosts die by [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// The training job (model, data, shards, `PnCnTn`, α, consistency…).
    pub job: JobConfig,
    /// Seconds a worker sleeps after a `NoWork` reply before polling again.
    pub poll_interval_s: f64,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// Write a checkpoint after every N assimilations (requires
    /// `checkpoint_path`).
    pub checkpoint_every_assims: Option<u64>,
    /// Write a checkpoint every this-many seconds of runtime — wall-clock
    /// in the threaded runtime, virtual time in the simulation (requires
    /// `checkpoint_path`). Composes with `checkpoint_every_assims`: either
    /// trigger writes.
    #[serde(default)]
    pub checkpoint_every_s: Option<f64>,
    /// Where checkpoints are written (atomically: temp file + rename).
    pub checkpoint_path: Option<String>,
    /// Test hook: stop the run cleanly after this many assimilations,
    /// writing a final checkpoint when a path is configured. The report is
    /// marked `halted_early`.
    pub halt_after_assims: Option<u64>,
    /// Safety net: abort (with `halted_early`) if the run exceeds this many
    /// wall-clock seconds — a hung fleet must not hang the test suite.
    pub max_wall_s: f64,
    /// Where the coordinator dumps the telemetry flight recorder (JSONL,
    /// one event per line) when it finalizes. `None` disables the dump;
    /// the in-memory recorder still runs either way.
    #[serde(default)]
    pub flight_recorder_path: Option<String>,
    /// Serve parameter fetches over real loopback TCP sockets (one
    /// listener, one stream per worker) instead of the in-process
    /// transport. Both paths send one request per sync through the same
    /// wire codec; TCP adds real sockets and threads.
    #[serde(default)]
    pub ps_tcp: bool,
    /// Bind the live ops HTTP server (`/`, `/metrics`, `/status`,
    /// `/events`, `/trace`, `/healthz`) on this address for the duration
    /// of the run, e.g. `"127.0.0.1:9090"` (port 0 picks an ephemeral
    /// port). `None` disables the server; the in-memory ops hub still
    /// works either way.
    #[serde(default)]
    pub ops_addr: Option<String>,
    /// Enable causal workunit tracing: dispatch → fetch → train → upload
    /// → validate → assimilate spans into the flight recorder plus
    /// per-stage `trace_<stage>_s` histograms. Off by default so untraced
    /// runs record byte-identical output (the golden-bit suites depend on
    /// this).
    #[serde(default)]
    pub trace: bool,
    /// Parameter-transfer codec: how shard fetches are encoded on the
    /// wire, and how a worker shapes (and the coordinator prices) the
    /// upload it hands the scheduler. `Raw` (the default) is the paper's
    /// bit-exact full-precision transfer; `Int8` quantizes deltas against
    /// the version the peer already holds and implies a tolerance
    /// comparator for result quorums (quantization makes honest replicas
    /// differ by up to a quantization step).
    #[serde(default)]
    pub codec: Codec,
}

impl RuntimeConfig {
    /// Wraps a job with no faults, no checkpoints and default cadences.
    pub fn new(job: JobConfig) -> Self {
        RuntimeConfig {
            job,
            poll_interval_s: 0.01,
            faults: FaultPlan::none(),
            checkpoint_every_assims: None,
            checkpoint_every_s: None,
            checkpoint_path: None,
            halt_after_assims: None,
            max_wall_s: 600.0,
            flight_recorder_path: None,
            ps_tcp: false,
            ops_addr: None,
            trace: false,
            codec: Codec::Raw,
        }
    }

    /// The test-scale job with a wall-clock-appropriate middleware timeout:
    /// subtasks take milliseconds of real compute, so a dead worker's
    /// assignment should be declared lost after ~2 s, not the simulated
    /// default of 300 s.
    pub fn test_small(seed: u64) -> Self {
        let mut job = JobConfig::test_small(seed);
        job.middleware.timeout_s = 2.0;
        // Scale the adaptive-deadline clamp and fetch backoff to the same
        // wall-clock regime; the simulated defaults (30 s floor, 15 s base
        // backoff) would make a test run crawl.
        job.middleware.min_timeout_s = 2.0;
        job.middleware.max_timeout_s = 10.0;
        job.middleware.backoff_base_s = 0.2;
        job.middleware.backoff_max_s = 2.0;
        Self::new(job)
    }

    /// Validates cross-field invariants; the runtime constructor calls
    /// this.
    pub fn validate(&self) -> Result<(), String> {
        self.job.validate()?;
        self.faults.validate(self.job.cn)?;
        if self.poll_interval_s <= 0.0 || !self.poll_interval_s.is_finite() {
            return Err(format!("invalid poll_interval_s {}", self.poll_interval_s));
        }
        if self.max_wall_s <= 0.0 || !self.max_wall_s.is_finite() {
            return Err(format!("invalid max_wall_s {}", self.max_wall_s));
        }
        if self.checkpoint_every_assims == Some(0) {
            return Err("checkpoint_every_assims must be >= 1".into());
        }
        if self.checkpoint_every_assims.is_some() && self.checkpoint_path.is_none() {
            return Err("checkpoint_every_assims needs a checkpoint_path".into());
        }
        if let Some(every_s) = self.checkpoint_every_s {
            if every_s <= 0.0 || !every_s.is_finite() {
                return Err(format!("invalid checkpoint_every_s {every_s}"));
            }
            if self.checkpoint_path.is_none() {
                return Err("checkpoint_every_s needs a checkpoint_path".into());
            }
        }
        if self.halt_after_assims == Some(0) {
            return Err("halt_after_assims must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_small_is_valid_and_wall_clock_scaled() {
        let cfg = RuntimeConfig::test_small(1);
        cfg.validate().unwrap();
        assert!(cfg.job.middleware.timeout_s <= 5.0);
    }

    #[test]
    fn rejects_bad_checkpoint_policy() {
        let mut cfg = RuntimeConfig::test_small(1);
        cfg.checkpoint_every_assims = Some(4);
        assert!(cfg.validate().is_err(), "checkpoint interval without path");
        cfg.checkpoint_path = Some("/tmp/ck.json".into());
        cfg.validate().unwrap();

        cfg.checkpoint_every_s = Some(0.0);
        assert!(cfg.validate().is_err(), "timer interval must be positive");
        cfg.checkpoint_every_s = Some(0.5);
        cfg.validate().unwrap();
        cfg.checkpoint_path = None;
        cfg.checkpoint_every_assims = None;
        assert!(cfg.validate().is_err(), "timer interval without path");
    }

    #[test]
    fn config_roundtrips_through_json() {
        let mut cfg = RuntimeConfig::test_small(3);
        cfg.faults.kill_hosts = vec![0];
        cfg.faults.respawn_after_s = Some(1.5);
        cfg.ops_addr = Some("127.0.0.1:0".into());
        cfg.trace = true;
        cfg.codec = Codec::Int8 {
            error_feedback: true,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RuntimeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
