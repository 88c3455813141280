//! Fault injection: scripted worker preemption and message-delivery chaos.
//!
//! The plan is declarative and deterministic so chaos tests are
//! reproducible: the set of doomed workers and the assignment on which each
//! dies are fixed up front; only message-delay draws use an RNG (seeded
//! from the plan).

use serde::{Deserialize, Serialize};

/// How a byzantine worker corrupts the parameter vectors it uploads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ByzantineMode {
    /// Upload a finite but poisoned parameter vector (a constant fill,
    /// salted per host so two byzantine workers never agree bitwise). The
    /// blob passes format validation; only result comparison at quorum ≥ 2
    /// can catch it.
    #[default]
    Poison,
    /// Upload NaNs. The finite-blob validator rejects these even at
    /// quorum 1.
    NonFinite,
}

impl ByzantineMode {
    /// Overwrites `params` with this mode's corruption for `host`.
    pub(crate) fn corrupt(self, host: u32, params: &mut [f32]) {
        let fill = match self {
            ByzantineMode::Poison => 997.0 + host as f32,
            ByzantineMode::NonFinite => f32::NAN,
        };
        params.fill(fill);
    }
}

/// A scripted fault schedule for one runtime run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Host ids of workers that will be preempted. Each dies silently —
    /// mid-subtask, without reporting — exactly once, on its first life.
    pub kill_hosts: Vec<u32>,
    /// The 1-based assignment on which a doomed worker dies (1 = drop the
    /// very first subtask it receives).
    pub kill_on_nth_assignment: u64,
    /// When set, a killed worker comes back as a fresh instance after this
    /// many wall-clock seconds (the analog of the discrete-event driver's
    /// `REPLACEMENT_DELAY_S`). When `None`, the fleet stays shrunken.
    pub respawn_after_s: Option<f64>,
    /// Upper bound of the uniform random delay injected on every
    /// worker→server message. Delayed messages can overtake each other, so
    /// results and poll requests arrive reordered. `0` disables the delay
    /// line entirely.
    pub max_msg_delay_s: f64,
    /// Host ids of workers that train honestly but corrupt every result
    /// they upload (hostile volunteers, §II-C's motivation for redundant
    /// computing).
    #[serde(default)]
    pub byzantine_hosts: Vec<u32>,
    /// What corruption the byzantine hosts apply.
    #[serde(default)]
    pub byzantine_mode: ByzantineMode,
    /// Seed of the delay-draw RNG streams.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults: every worker lives forever, messages arrive in order.
    pub fn none() -> Self {
        FaultPlan {
            kill_hosts: Vec::new(),
            kill_on_nth_assignment: 1,
            respawn_after_s: None,
            max_msg_delay_s: 0.0,
            byzantine_hosts: Vec::new(),
            byzantine_mode: ByzantineMode::default(),
            seed: 0,
        }
    }

    /// `Some(mode)` when `host` is scripted to corrupt its uploads.
    pub(crate) fn byzantine(&self, host: u32) -> Option<ByzantineMode> {
        self.byzantine_hosts
            .contains(&host)
            .then_some(self.byzantine_mode)
    }

    /// The first `ceil(frac · cn)` host ids — a deterministic "kill this
    /// fraction of the fleet" selection for chaos tests.
    pub fn fraction_of(cn: usize, frac: f64) -> Vec<u32> {
        let k = ((cn as f64 * frac).ceil() as usize).min(cn);
        (0..k as u32).collect()
    }

    /// Whether `host`, on life `life` (0 = original instance), should die
    /// while executing its `assignment_no`-th subtask of that life.
    pub fn should_kill(&self, host: u32, life: u32, assignment_no: u64) -> bool {
        life == 0 && assignment_no == self.kill_on_nth_assignment && self.kill_hosts.contains(&host)
    }

    /// Sanity checks, called from `RuntimeConfig::validate`.
    pub fn validate(&self, cn: usize) -> Result<(), String> {
        if self.kill_on_nth_assignment == 0 {
            return Err("kill_on_nth_assignment is 1-based; 0 is meaningless".into());
        }
        if self.max_msg_delay_s < 0.0 || !self.max_msg_delay_s.is_finite() {
            return Err(format!("invalid max_msg_delay_s {}", self.max_msg_delay_s));
        }
        if let Some(d) = self.respawn_after_s {
            if d < 0.0 || !d.is_finite() {
                return Err(format!("invalid respawn_after_s {d}"));
            }
        }
        if self.kill_hosts.iter().any(|&h| h as usize >= cn) {
            return Err(format!("kill_hosts references a host >= cn ({cn})"));
        }
        if !self.kill_hosts.is_empty() && self.kill_hosts.len() >= cn {
            return Err("refusing to kill the whole fleet: the job could never finish".into());
        }
        if self.byzantine_hosts.iter().any(|&h| h as usize >= cn) {
            return Err(format!("byzantine_hosts references a host >= cn ({cn})"));
        }
        if !self.byzantine_hosts.is_empty() && self.byzantine_hosts.len() >= cn {
            return Err("refusing an all-byzantine fleet: no honest result could ever win".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_selects_ceil() {
        assert_eq!(FaultPlan::fraction_of(7, 0.3), vec![0, 1, 2]);
        assert_eq!(FaultPlan::fraction_of(4, 0.5), vec![0, 1]);
        assert_eq!(FaultPlan::fraction_of(3, 0.0), Vec::<u32>::new());
        assert_eq!(FaultPlan::fraction_of(2, 1.0), vec![0, 1]);
    }

    #[test]
    fn kill_fires_once_on_first_life() {
        let mut p = FaultPlan::none();
        p.kill_hosts = vec![1, 3];
        p.kill_on_nth_assignment = 2;
        assert!(!p.should_kill(1, 0, 1));
        assert!(p.should_kill(1, 0, 2));
        assert!(!p.should_kill(1, 1, 2), "respawned instances are safe");
        assert!(!p.should_kill(0, 0, 2), "host 0 is not doomed");
    }

    #[test]
    fn byzantine_lookup_and_validation() {
        let mut p = FaultPlan::none();
        assert!(p.byzantine(0).is_none());
        p.byzantine_hosts = vec![1];
        assert_ne!(p, FaultPlan::none());
        assert_eq!(p.byzantine(1), Some(ByzantineMode::Poison));
        assert!(p.byzantine(0).is_none());
        assert!(p.validate(3).is_ok());
        p.byzantine_hosts = vec![0, 1, 2];
        assert!(p.validate(3).is_err(), "all-byzantine fleet refused");
        p.byzantine_hosts = vec![7];
        assert!(p.validate(3).is_err(), "host id beyond fleet");
    }

    #[test]
    fn corruption_modes_fill_as_specified() {
        let mut a = vec![1.0f32; 4];
        ByzantineMode::Poison.corrupt(2, &mut a);
        assert!(a.iter().all(|&x| x == 999.0));
        let mut b = vec![1.0f32; 4];
        ByzantineMode::Poison.corrupt(3, &mut b);
        assert_ne!(a, b, "per-host salt keeps byzantine hosts from agreeing");
        ByzantineMode::NonFinite.corrupt(0, &mut a);
        assert!(a.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn validate_rejects_fleet_wipeout() {
        let mut p = FaultPlan::none();
        p.kill_hosts = vec![0, 1];
        assert!(p.validate(2).is_err());
        assert!(p.validate(3).is_ok());
        p.kill_hosts = vec![5];
        assert!(p.validate(3).is_err(), "host id beyond fleet");
    }
}
