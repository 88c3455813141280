//! Failure-injection tests against the middleware state machine: the
//! §III-B fault-tolerance guarantees under adversarial schedules, driven
//! through a [`vc_simnet::EventQueue`] — time is an explicit event queue,
//! every step is seeded, and any failing seed replays bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_middleware::{
    BoincServer, FiniteBlobValidator, HostId, MiddlewareConfig, ReportStatus, ShardManifest,
    ValidationVerdict, Validator,
};
use vc_simnet::{table1, EventQueue, SimTime};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn fleet(n: usize, slots: usize) -> Vec<(vc_simnet::InstanceSpec, usize)> {
    (0..n).map(|_| (table1::client_8v_2_2(), slots)).collect()
}

/// Randomized schedule across 32 seeds: hosts flap, results arrive or
/// vanish, virtual time jumps — every workunit must still complete exactly
/// once. Time advances through an [`EventQueue`] of wake-ups, so the
/// whole schedule is a pure function of the seed named in any failure.
#[test]
fn every_workunit_completes_exactly_once_under_chaos() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clock: EventQueue<()> = EventQueue::new();
        let mut server = BoincServer::new(
            MiddlewareConfig {
                timeout_s: 100.0,
                // A snappy backoff: flaky hosts sit out briefly instead of
                // stretching the schedule toward the step cap.
                backoff_base_s: 1.0,
                backoff_max_s: 50.0,
                ..Default::default()
            },
            fleet(3, 2),
        );
        let wus = 20usize;
        server.add_epoch_sharded(1, wus, &ShardManifest::single(1), clock.now());

        let mut in_flight: Vec<(vc_middleware::WuId, HostId)> = Vec::new();
        let mut completions = 0usize;
        let mut steps = 0u64;
        clock.schedule_in(rng.gen_range(1.0..40.0), ());
        while !server.all_done() {
            let (now_t, ()) = clock
                .pop()
                .unwrap_or_else(|| panic!("DST seed {seed}: clock ran dry mid-chaos"));
            steps += 1;
            assert!(
                steps < 50_000,
                "DST seed {seed}: schedule failed to converge"
            );
            server.scan_timeouts(now_t);
            // Random host flaps.
            if rng.gen_bool(0.05) {
                let h = HostId(rng.gen_range(0..3));
                server.preempt_host(h);
                in_flight.retain(|&(_, host)| host != h);
            }
            if rng.gen_bool(0.1) {
                let h = HostId(rng.gen_range(0..3));
                server.revive_host(h, now_t);
            }
            // Hosts poll.
            for hid in 0..3 {
                while let Some(a) = server.request_work(HostId(hid), now_t) {
                    in_flight.push((a.wu.id, HostId(hid)));
                }
            }
            // Some in-flight work finishes; some is silently lost.
            let mut still = Vec::new();
            for (wu, host) in in_flight.drain(..) {
                let roll: f64 = rng.gen();
                if roll < 0.3 {
                    if server.report_result(wu, host, &[], now_t) == ReportStatus::Accepted {
                        completions += 1;
                    }
                } else if roll < 0.4 {
                    // lost forever; the transitioner must recover it
                } else {
                    still.push((wu, host));
                }
            }
            in_flight = still;
            // Arm the next step of the schedule.
            clock.schedule_in(rng.gen_range(1.0..40.0), ());
        }
        assert_eq!(
            completions, wus,
            "DST seed {seed}: duplicate or missing completions"
        );
        let m = server.metrics();
        assert_eq!(m.completed as usize, wus, "DST seed {seed}");
        assert!(
            clock.now() > SimTime::ZERO,
            "DST seed {seed}: virtual time never advanced"
        );
    }
}

#[test]
fn validator_rejects_poisoned_uploads_and_job_recovers() {
    let validator = FiniteBlobValidator::with_len(4);
    let mut server = BoincServer::new(MiddlewareConfig::default(), fleet(2, 1));
    server.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));

    let a = server.request_work(HostId(0), t(0.0)).unwrap();

    // Host 0 uploads NaN-poisoned parameters.
    let mut blob = Vec::new();
    blob.extend_from_slice(&0x5643_5031u32.to_le_bytes());
    blob.extend_from_slice(&4u64.to_le_bytes());
    for v in [1.0f32, f32::NAN, 0.0, 2.0] {
        blob.extend_from_slice(&v.to_le_bytes());
    }
    let verdict = validator.validate(&blob);
    assert!(matches!(verdict, ValidationVerdict::Invalid { .. }));
    server.report_invalid(a.wu.id, HostId(0), t(10.0));

    // The workunit is re-issued; a healthy client completes it.
    let b = server.request_work(HostId(1), t(10.0)).unwrap();
    assert_eq!(b.wu.id, a.wu.id);
    let mut good = Vec::new();
    good.extend_from_slice(&0x5643_5031u32.to_le_bytes());
    good.extend_from_slice(&4u64.to_le_bytes());
    for v in [1.0f32, -1.0, 0.0, 2.0] {
        good.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(validator.validate(&good), ValidationVerdict::Valid);
    assert_eq!(
        server.report_result(b.wu.id, HostId(1), &[], t(20.0)),
        ReportStatus::Accepted
    );
    assert!(server.all_done());
    assert_eq!(server.metrics().invalid_results, 1);
    // The offending host lost reliability; the healthy one gained standing.
    assert!(server.hosts()[0].reliability < server.hosts()[1].reliability);
    // The penalty is booked as an *invalid*, never a timeout — the two
    // stay disjoint in both host stats and run metrics.
    assert_eq!(server.hosts()[0].invalids, 1);
    assert_eq!(server.hosts()[0].timeouts, 0);
    assert_eq!(server.metrics().timeouts, 0);
}

#[test]
fn total_host_loss_then_recovery() {
    // Every host dies mid-epoch; after replacements come up, the epoch
    // still completes.
    let mut server = BoincServer::new(
        MiddlewareConfig {
            timeout_s: 60.0,
            ..Default::default()
        },
        fleet(2, 2),
    );
    server.add_epoch_sharded(1, 4, &ShardManifest::single(1), t(0.0));
    let mut assigned = Vec::new();
    for h in 0..2 {
        while let Some(a) = server.request_work(HostId(h), t(0.0)) {
            assigned.push(a);
        }
    }
    assert_eq!(assigned.len(), 4);
    server.preempt_host(HostId(0));
    server.preempt_host(HostId(1));
    // Nothing completes; deadlines pass.
    assert_eq!(server.scan_timeouts(t(61.0)).len(), 4);
    // Replacements arrive (revive also lifts the timeout backoff, so the
    // fresh instances can fetch immediately).
    server.revive_host(HostId(0), t(61.0));
    server.revive_host(HostId(1), t(61.0));
    let mut done = 0;
    for h in 0..2 {
        while let Some(a) = server.request_work(HostId(h), t(61.0)) {
            server.report_result(a.wu.id, HostId(h), &[], t(100.0));
            done += 1;
        }
    }
    assert_eq!(done, 4);
    assert!(server.all_done());
}

#[test]
fn repeated_timeouts_count_attempts() {
    let mut server = BoincServer::new(
        MiddlewareConfig {
            timeout_s: 10.0,
            min_timeout_s: 10.0,
            // Isolate attempt accounting from fetch backoff.
            backoff_base_s: 0.0,
            ..Default::default()
        },
        fleet(1, 1),
    );
    server.add_workunit_sharded(1, 0, ShardManifest::single(1), t(0.0));
    let mut now = 0.0;
    for round in 1..=5u32 {
        let a = server.request_work(HostId(0), t(now)).unwrap();
        assert_eq!(a.attempt, round);
        // Each blown attempt grows the next adaptive deadline; follow the
        // one the scheduler actually granted.
        now = (a.deadline - SimTime::ZERO) + 1.0;
        assert_eq!(server.scan_timeouts(t(now)).len(), 1);
    }
    assert_eq!(server.metrics().timeouts, 5);
    // Reliability collapsed to the probe slot but work continues.
    assert!(server.hosts()[0].has_capacity());
    let a = server.request_work(HostId(0), t(now)).unwrap();
    assert_eq!(a.attempt, 6, "five attempts consumed before this one");
    server.report_result(a.wu.id, HostId(0), &[], t(now + 1.0));
    assert!(server.all_done());
}

/// Regression for the preempt → revive → timeout interleaving: a
/// replacement instance registering before the dead incarnation's
/// deadlines pass must start with a clean slot ledger (no over-commit, no
/// underflow when the orphans expire) and must not eat the timeout
/// penalties for work it never held.
#[test]
fn revive_does_not_charge_the_replacement_for_stale_assignments() {
    let mut server = BoincServer::new(
        MiddlewareConfig {
            timeout_s: 60.0,
            ..Default::default()
        },
        fleet(2, 2),
    );
    server.add_epoch_sharded(1, 4, &ShardManifest::single(1), t(0.0));
    let a = server.request_work(HostId(0), t(0.0)).unwrap();
    let b = server.request_work(HostId(0), t(0.0)).unwrap();
    server.preempt_host(HostId(0));
    // The replacement registers well before the stale deadlines pass.
    server.revive_host(HostId(0), t(5.0));
    // Fresh incarnation, fresh ledger: a full complement of new work and
    // not a subtask more.
    let c = server.request_work(HostId(0), t(5.0)).unwrap();
    let d = server.request_work(HostId(0), t(5.0)).unwrap();
    assert!(server.request_work(HostId(0), t(5.0)).is_none());
    assert!(c.wu.id != a.wu.id && d.wu.id != b.wu.id);
    // The stale deadlines fire: the lost work is still recovered through
    // the timeout path (§III-E)...
    let expired = server.scan_timeouts(t(61.0));
    assert!(expired.contains(&a.wu.id) && expired.contains(&b.wu.id));
    assert_eq!(server.metrics().timeouts, 2);
    // ...but the new incarnation is not blamed, and its own live work is
    // untouched by the orphan expiry.
    assert_eq!(server.hosts()[0].timeouts, 0);
    assert_eq!(server.hosts()[0].reliability, 1.0);
    assert!(!server.hosts()[0].in_backoff(t(61.0)));
    assert_eq!(server.hosts()[0].in_flight, 2);
    // The replacement finishes everything, including the recovered work.
    server.report_result(c.wu.id, HostId(0), &[], t(62.0));
    server.report_result(d.wu.id, HostId(0), &[], t(62.0));
    for _ in 0..2 {
        let e = server.request_work(HostId(0), t(62.0)).unwrap();
        server.report_result(e.wu.id, HostId(0), &[], t(63.0));
    }
    assert!(server.all_done());
}
