//! Counting tests for the adaptive-deadline EWMA: each blown deadline
//! feeds a host's turnaround estimate **exactly once per incarnation**.
//!
//! The heap-driven transitioner holds one timer entry per issue and
//! invalidates lazily, so the hazards are double-feeding (a due entry
//! surviving into a second scan, or a stale entry of a completed
//! assignment firing late) and mis-blaming (an orphaned predecessor's
//! expiry charged to the replacement incarnation). These tests pin all
//! three boundaries through the public server API.

use vc_middleware::server::{Assignment, BoincServer, MiddlewareConfig};
use vc_middleware::{HostId, ReportStatus, ShardManifest};
use vc_simnet::{table1, SimTime};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn server(hosts: usize) -> BoincServer {
    let fleet = (0..hosts).map(|_| (table1::client_8v_2_2(), 2)).collect();
    BoincServer::new(MiddlewareConfig::default(), fleet)
}

/// The value one blown default-config deadline feeds the (empty) EWMA:
/// deadline / grace × growth = 300 / 3 × 1.5.
const FIRST_TIMEOUT_FEED: f64 = 150.0;

#[test]
fn blown_deadline_feeds_ewma_exactly_once() {
    let mut s = server(1);
    s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
    let a = s.request_work(HostId(0), t(0.0)).unwrap();
    assert_eq!(a.deadline, t(300.0));
    assert_eq!(s.hosts()[0].turnaround_ewma_s, None);

    // The deadline blows: exactly one feed, one timeout, one blame.
    assert_eq!(s.scan_timeouts(t(300.0)), vec![a.wu.id]);
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(FIRST_TIMEOUT_FEED));
    assert_eq!(s.hosts()[0].timeouts, 1);
    assert_eq!(s.metrics().timeouts, 1);

    // Re-scanning the same instant and any later instant finds the entry
    // consumed: no second feed, no second timeout.
    s.scan_timeouts(t(300.0));
    s.scan_timeouts(t(10_000.0));
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(FIRST_TIMEOUT_FEED));
    assert_eq!(s.hosts()[0].timeouts, 1);
    assert_eq!(s.metrics().timeouts, 1);
}

#[test]
fn completed_assignment_leaves_no_timer_residue() {
    let mut s = server(1);
    s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
    let a = s.request_work(HostId(0), t(0.0)).unwrap();
    assert_eq!(
        s.report_result(a.wu.id, HostId(0), &[], t(10.0)),
        ReportStatus::Accepted
    );
    // The 10 s turnaround seeded the EWMA at report time; the assignment's
    // now-stale timer entry must not fire at its old deadline and feed the
    // blown-deadline growth on top.
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(10.0));
    assert!(s.scan_timeouts(t(300.0)).is_empty());
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(10.0));
    assert_eq!((s.hosts()[0].timeouts, s.metrics().timeouts), (0, 0));
}

#[test]
fn reissued_workunit_feeds_once_per_expiry_not_per_entry() {
    let mut s = BoincServer::new(
        MiddlewareConfig {
            backoff_base_s: 0.0,
            ..Default::default()
        },
        vec![(table1::client_8v_2_2(), 2)],
    );
    s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
    let a = s.request_work(HostId(0), t(0.0)).unwrap();
    s.scan_timeouts(t(300.0));
    let after_first = s.hosts()[0].turnaround_ewma_s.unwrap();
    // Same host re-takes the same workunit: a *new* timer entry with a new
    // seq. The expired first entry is gone; only the second expiry feeds.
    let b: Assignment = s.request_work(HostId(0), t(300.0)).unwrap();
    assert_eq!(b.wu.id, a.wu.id);
    assert!(b.attempt > a.attempt);
    s.scan_timeouts(t(b.deadline.as_secs()));
    assert_eq!(s.hosts()[0].timeouts, 2, "two expiries, two blames");
    assert_eq!(s.metrics().timeouts, 2);
    let after_second = s.hosts()[0].turnaround_ewma_s.unwrap();
    assert_ne!(after_first, after_second, "second expiry fed the EWMA");
    // And nothing further without a third expiry.
    s.scan_timeouts(t(10_000.0));
    assert_eq!(s.hosts()[0].timeouts, 2);
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(after_second));
}

#[test]
fn orphaned_expiry_feeds_zero_into_the_new_incarnation() {
    let mut s = server(1);
    s.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
    let a = s.request_work(HostId(0), t(0.0)).unwrap();
    s.preempt_host(HostId(0));
    s.revive_host(HostId(0), t(5.0));
    // The predecessor's deadline blows: the run counts the lost work, but
    // the replacement incarnation's EWMA, timeout tally and backoff all
    // stay untouched — zero feeds per *this* incarnation.
    assert_eq!(s.scan_timeouts(t(300.0)), vec![a.wu.id]);
    assert_eq!(s.metrics().timeouts, 1);
    assert_eq!(s.hosts()[0].turnaround_ewma_s, None);
    assert_eq!(s.hosts()[0].timeouts, 0);
    assert!(!s.hosts()[0].in_backoff(t(300.0)));
}

#[test]
fn each_incarnation_is_blamed_at_most_once_per_blown_deadline() {
    let mut s = server(1);
    s.add_epoch_sharded(1, 2, &ShardManifest::single(1), t(0.0));
    // Incarnation 0 takes one workunit and blows it: one feed.
    s.request_work(HostId(0), t(0.0)).unwrap();
    s.scan_timeouts(t(300.0));
    assert_eq!(s.hosts()[0].timeouts, 1);
    assert_eq!(s.hosts()[0].turnaround_ewma_s, Some(FIRST_TIMEOUT_FEED));

    // Incarnation 0 takes the next workunit, dies holding it; incarnation
    // 1 registers. The orphan's expiry adds a run-level timeout but no
    // second blame — still exactly one feed per incarnation that earned it.
    let backoff_until = s.hosts()[0].backoff_until;
    s.request_work(HostId(0), t(backoff_until.unwrap().as_secs()))
        .unwrap();
    s.preempt_host(HostId(0));
    s.revive_host(HostId(0), t(400.0));
    s.scan_timeouts(t(10_000.0));
    assert_eq!(s.metrics().timeouts, 2);
    assert_eq!(s.hosts()[0].timeouts, 1, "orphan expiry not blamed");
    assert_eq!(
        s.hosts()[0].turnaround_ewma_s,
        Some(FIRST_TIMEOUT_FEED),
        "EWMA fed once, by the incarnation that blew the deadline"
    );
}
