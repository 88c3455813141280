//! Host (volunteer client) records.
//!
//! Host state is split hot/cold for fleet scale. [`HostHot`] is the
//! fixed-size, `Copy` record every scheduler decision reads — packed into
//! one flat `Vec` indexed by the dense [`HostId`], so a 100k-host fleet's
//! reputation/EWMA/backoff state is a contiguous array scan-free to
//! address. [`HostCold`] holds the rarely-touched allocations (instance
//! spec, sticky-file cache) in a parallel vector; the serializable
//! [`HostSummary`] is materialized only at the API edge.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use vc_simnet::{InstanceSpec, SimTime};

/// Identifier of a client host within one [`crate::BoincServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Smoothing factor of the reliability EMA: one success moves the estimate
/// 15 % of the way to 1, one timeout 15 % of the way to 0.
const RELIABILITY_ALPHA: f64 = 0.15;

/// An invalid (validator-rejected or quorum-outvoted) result is stronger
/// evidence of a hostile or broken host than a timeout, so it moves the
/// reliability estimate twice as hard.
const INVALID_ALPHA: f64 = 0.3;

/// The scheduler-hot per-host state (BOINC's host table, minus the cold
/// allocations): slot ledger, reputation, turnaround EWMA, fetch backoff,
/// incarnation counter. `Copy` and fixed-size so the server can keep the
/// whole fleet in one flat cache-friendly `Vec<HostHot>`.
#[derive(Clone, Copy, Debug)]
pub struct HostHot {
    /// Maximum simultaneous subtasks (the paper's `Tn`).
    pub slots: usize,
    /// Workunits currently assigned to the live incarnation.
    pub in_flight: usize,
    /// Live assignments addressed to this host id across *all*
    /// incarnations — the O(1) orphan count a revive charges to the run
    /// metrics.
    pub live_assignments: usize,
    /// Exponential moving average of result success in [0, 1]; starts at 1
    /// (BOINC starts hosts trusted and demotes them on failures).
    pub reliability: f64,
    /// True while the host is alive (preempted hosts flip to false until
    /// replaced).
    pub alive: bool,
    /// Incarnation counter: bumped each time a replacement instance
    /// registers, so assignments issued to a dead predecessor can be told
    /// apart from the live instance's work.
    pub lives: u32,
    /// Totals for reporting.
    pub completed: u64,
    /// Timeouts attributed to this host.
    pub timeouts: u64,
    /// Results rejected by the validator or outvoted at quorum.
    pub invalids: u64,
    /// EWMA of observed result turnaround in seconds; `None` until the
    /// first observation (the scheduler then falls back to the configured
    /// timeout when computing deadlines).
    pub turnaround_ewma_s: Option<f64>,
    /// Failures (timeouts + invalids) since the last success; exponent of
    /// the fetch backoff.
    pub consecutive_failures: u32,
    /// The host may not fetch new work before this instant.
    pub backoff_until: Option<SimTime>,
    /// Backoff intervals the scheduler has imposed on this host.
    pub backoffs: u64,
}

/// The rarely-touched per-host allocations, kept out of the hot array.
#[derive(Clone, Debug)]
pub struct HostCold {
    /// Instance configuration (Table I row).
    pub spec: InstanceSpec,
    /// Shards cached by the sticky-file feature.
    pub cached_shards: HashSet<usize>,
}

impl HostHot {
    /// A fresh host with `slots` simultaneous-subtask capacity.
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "a host needs at least one slot");
        HostHot {
            slots,
            in_flight: 0,
            live_assignments: 0,
            reliability: 1.0,
            alive: true,
            lives: 0,
            completed: 0,
            timeouts: 0,
            invalids: 0,
            turnaround_ewma_s: None,
            consecutive_failures: 0,
            backoff_until: None,
            backoffs: 0,
        }
    }

    /// Slots the scheduler will actually fill, shrunk for unreliable hosts
    /// ("assign subtasks to more reliable clients", §III-B). A host that
    /// times out persistently degrades to a single probe slot.
    pub(crate) fn effective_slots(&self) -> usize {
        let scaled = (self.slots as f64 * self.reliability).ceil() as usize;
        scaled.max(1)
    }

    /// Whether the host can take one more workunit now.
    pub fn has_capacity(&self) -> bool {
        self.alive && self.in_flight < self.effective_slots()
    }

    /// Records a successful result. Success ends any pending backoff: the
    /// host proved it can deliver.
    pub fn record_success(&mut self) {
        self.completed += 1;
        self.reliability += RELIABILITY_ALPHA * (1.0 - self.reliability);
        self.consecutive_failures = 0;
        self.backoff_until = None;
    }

    /// Records a timeout.
    pub fn record_timeout(&mut self) {
        self.timeouts += 1;
        self.reliability -= RELIABILITY_ALPHA * self.reliability;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
    }

    /// Records an invalid result (validator reject or quorum loss).
    pub fn record_invalid(&mut self) {
        self.invalids += 1;
        self.reliability -= INVALID_ALPHA * self.reliability;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
    }

    /// Folds one observed turnaround (seconds) into the EWMA. The first
    /// observation seeds the estimate directly.
    pub fn record_turnaround(&mut self, secs: f64, alpha: f64) {
        let s = secs.max(0.0);
        self.turnaround_ewma_s = Some(match self.turnaround_ewma_s {
            None => s,
            Some(e) => alpha * s + (1.0 - alpha) * e,
        });
    }

    /// Imposes exponential fetch backoff after a failure: `base · 2^(n−1)`
    /// seconds for `n` consecutive failures, clamped to `max_s`. Returns
    /// the duration, which is 0 when backoff is disabled (`base_s ≤ 0`) or
    /// no failure is on record.
    pub fn start_backoff(&mut self, now: SimTime, base_s: f64, max_s: f64) -> f64 {
        if base_s <= 0.0 || self.consecutive_failures == 0 {
            return 0.0;
        }
        let exp = (self.consecutive_failures - 1).min(20);
        let dur = (base_s * 2f64.powi(exp as i32)).min(max_s);
        self.backoffs += 1;
        self.backoff_until = Some(now + dur);
        dur
    }

    /// True while the host is barred from fetching work.
    pub fn in_backoff(&self, now: SimTime) -> bool {
        self.backoff_until.is_some_and(|until| now < until)
    }

    /// Lifts any pending backoff (a replacement instance gets an immediate
    /// probe rather than inheriting the dead incarnation's penalty clock).
    pub fn clear_backoff(&mut self) {
        self.backoff_until = None;
        self.consecutive_failures = 0;
    }
}

/// A serializable snapshot of one host's scheduler-visible track record,
/// embedded in run reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostSummary {
    /// Host identifier.
    pub id: u32,
    /// Results this host won (solo or as part of a quorum).
    pub completed: u64,
    /// Timeouts attributed to this host.
    pub timeouts: u64,
    /// Results rejected by the validator or outvoted at quorum.
    pub invalids: u64,
    /// Final reliability estimate in [0, 1].
    pub reliability: f64,
    /// Final turnaround EWMA, seconds.
    pub turnaround_ewma_s: Option<f64>,
    /// Backoff intervals imposed over the run.
    pub backoffs: u64,
}

impl HostSummary {
    /// Materializes the API-edge view of one hot record.
    pub fn from_hot(id: HostId, h: &HostHot) -> Self {
        HostSummary {
            id: id.0,
            completed: h.completed,
            timeouts: h.timeouts,
            invalids: h.invalids,
            reliability: h.reliability,
            turnaround_ewma_s: h.turnaround_ewma_s,
            backoffs: h.backoffs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostHot {
        HostHot::new(4)
    }

    #[test]
    fn fresh_host_is_trusted() {
        let h = host();
        assert_eq!(h.reliability, 1.0);
        assert_eq!(h.effective_slots(), 4);
        assert!(h.has_capacity());
    }

    #[test]
    fn capacity_respects_in_flight() {
        let mut h = host();
        h.in_flight = 4;
        assert!(!h.has_capacity());
        h.in_flight = 3;
        assert!(h.has_capacity());
    }

    #[test]
    fn timeouts_shrink_effective_slots() {
        let mut h = host();
        for _ in 0..12 {
            h.record_timeout();
        }
        assert!(h.reliability < 0.2, "{}", h.reliability);
        assert_eq!(h.effective_slots(), 1, "degrades to a probe slot");
        assert_eq!(h.timeouts, 12);
    }

    #[test]
    fn successes_restore_reliability() {
        let mut h = host();
        for _ in 0..10 {
            h.record_timeout();
        }
        let low = h.reliability;
        for _ in 0..20 {
            h.record_success();
        }
        assert!(h.reliability > 0.9, "{low} -> {}", h.reliability);
        assert_eq!(h.effective_slots(), 4);
    }

    #[test]
    fn dead_host_has_no_capacity() {
        let mut h = host();
        h.alive = false;
        assert!(!h.has_capacity());
    }

    #[test]
    fn reliability_stays_in_unit_interval() {
        let mut h = host();
        for _ in 0..1000 {
            h.record_timeout();
        }
        assert!(h.reliability >= 0.0);
        for _ in 0..1000 {
            h.record_success();
        }
        assert!(h.reliability <= 1.0);
    }

    #[test]
    fn invalid_results_penalize_harder_than_timeouts() {
        let mut slow = host();
        let mut hostile = host();
        slow.record_timeout();
        hostile.record_invalid();
        assert!(hostile.reliability < slow.reliability);
        assert_eq!((hostile.invalids, hostile.timeouts), (1, 0));
        assert_eq!((slow.invalids, slow.timeouts), (0, 1));
    }

    #[test]
    fn turnaround_ewma_seeds_then_converges() {
        let mut h = host();
        assert_eq!(h.turnaround_ewma_s, None);
        h.record_turnaround(100.0, 0.25);
        assert_eq!(h.turnaround_ewma_s, Some(100.0), "first sample seeds");
        for _ in 0..40 {
            h.record_turnaround(10.0, 0.25);
        }
        let e = h.turnaround_ewma_s.unwrap();
        assert!((e - 10.0).abs() < 0.01, "converged to the new rate: {e}");
        h.record_turnaround(-5.0, 0.25);
        assert!(h.turnaround_ewma_s.unwrap() >= 0.0, "clamped at zero");
    }

    #[test]
    fn backoff_grows_exponentially_and_clamps() {
        let t = SimTime::from_secs;
        let mut h = host();
        assert_eq!(h.start_backoff(t(0.0), 5.0, 40.0), 0.0, "no failure yet");
        let mut durations = Vec::new();
        for _ in 0..5 {
            h.record_timeout();
            durations.push(h.start_backoff(t(0.0), 5.0, 40.0));
        }
        assert_eq!(durations, vec![5.0, 10.0, 20.0, 40.0, 40.0]);
        assert_eq!(h.backoffs, 5);
        assert!(h.in_backoff(t(39.0)));
        assert!(!h.in_backoff(t(40.0)), "expires exactly at the bound");
    }

    #[test]
    fn success_and_clear_reset_the_backoff_clock() {
        let t = SimTime::from_secs;
        let mut h = host();
        h.record_timeout();
        h.record_timeout();
        h.start_backoff(t(0.0), 5.0, 40.0);
        assert!(h.in_backoff(t(1.0)));
        h.record_success();
        assert!(!h.in_backoff(t(1.0)), "success lifts the bar");
        h.record_timeout();
        assert_eq!(
            h.start_backoff(t(100.0), 5.0, 40.0),
            5.0,
            "failure streak restarted from one"
        );
        h.clear_backoff();
        assert!(!h.in_backoff(t(101.0)));
        assert_eq!(h.consecutive_failures, 0);
    }

    #[test]
    fn disabled_backoff_base_never_bars_a_host() {
        let t = SimTime::from_secs;
        let mut h = host();
        h.record_timeout();
        assert_eq!(h.start_backoff(t(0.0), 0.0, 100.0), 0.0);
        assert!(!h.in_backoff(t(0.0)));
        assert_eq!(h.backoffs, 0);
    }

    #[test]
    fn summary_mirrors_the_record() {
        let mut h = host();
        h.record_success();
        h.record_invalid();
        h.record_turnaround(3.0, 0.25);
        let s = HostSummary::from_hot(HostId(0), &h);
        assert_eq!(s.id, 0);
        assert_eq!((s.completed, s.timeouts, s.invalids), (1, 0, 1));
        assert_eq!(s.turnaround_ewma_s, Some(3.0));
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<HostSummary>(&json).unwrap(), s);
    }
}
