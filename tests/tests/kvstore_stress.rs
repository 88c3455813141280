//! Stress tests of the versioned parameter store through the VC-ASGD
//! assimilation paths — deterministic and threaded.
//!
//! Under eventual consistency the read-blend-write cycle is unguarded, so
//! overlapping writers clobber each other (`lost_updates > 0`) — the effect
//! §IV-D quantifies. The *guaranteed-collision* claim lives in the
//! deterministic test: the seeded [`StepScheduler`] interleaves begin/commit
//! windows by construction, so the lost updates are reproducible and the
//! recorded history proves the count. The threaded tests keep the real-lock
//! substrate honest: whatever interleaving the OS happens to produce, the
//! history's independent recount must match the store's counter exactly.

use std::sync::Arc;
use vc_asgd::AlphaSchedule;
use vc_kvstore::{check_sequential, count_lost_updates, Consistency, HistoryEvent, VersionedStore};
use vc_ps::{ShardSnapshot, ShardedAssimilator};
use vc_runtime::StepScheduler;

const WRITERS: usize = 8;
const UPDATES: usize = 100;
const PARAMS: usize = 64;

/// The single-value store of the paper: one shard, one key.
fn assimilator(store: Arc<VersionedStore>, n: usize, mode: Consistency) -> ShardedAssimilator {
    ShardedAssimilator::new(store, n, 1, mode, AlphaSchedule::Const(0.5))
}

fn hammer(mode: Consistency) -> (u64, Vec<f32>, Vec<HistoryEvent>) {
    let store = Arc::new(VersionedStore::recording());
    let assim = Arc::new(assimilator(store.clone(), PARAMS, mode));
    assim.seed_params(&vec![0.0; PARAMS]);

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let assim = assim.clone();
            std::thread::spawn(move || {
                let client = vec![(w + 1) as f32; PARAMS];
                for _ in 0..UPDATES {
                    let begun = assim.begin();
                    // Widen the read-modify-write window the way a network
                    // hop to the store would.
                    std::thread::yield_now();
                    assim.finish(begun, client.clone(), 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (params, _) = assim.read_params();
    (store.ops().lost_updates, params, store.take_history())
}

/// Deterministic collisions: drive overlapping begin/commit windows through
/// the seeded [`StepScheduler`]. Begins are spaced 0.01 virtual seconds
/// apart while each commit lands 0.02 after its begin, so consecutive
/// writers *must* overlap — lost updates are certain, identical on every
/// run of the same seed, and the recorded history proves the exact count.
#[test]
fn deterministic_interleaving_loses_updates_reproducibly() {
    enum Ev {
        Begin(usize),
        Commit(Option<ShardSnapshot>, usize),
    }
    const SEED: u64 = 42;

    let run = || {
        let store = Arc::new(VersionedStore::recording());
        let assim = assimilator(store.clone(), 8, Consistency::Eventual);
        assim.seed_params(&[0.0; 8]);
        let mut sched: StepScheduler<Ev> = StepScheduler::new(SEED, 0.002);
        for w in 0..6usize {
            for round in 0..10usize {
                sched.schedule_in(0.01 * (w + 6 * round) as f64, Ev::Begin(w));
            }
        }
        while let Some((_, ev)) = sched.next() {
            match ev {
                Ev::Begin(w) => {
                    sched.schedule_in(0.02, Ev::Commit(assim.begin(), w));
                }
                Ev::Commit(begun, w) => {
                    assim.finish(begun, vec![(w + 1) as f32; 8], 1);
                }
            }
        }
        (store.ops().lost_updates, store.take_history())
    };

    let (lost, history) = run();
    assert!(
        lost > 0,
        "DST seed {SEED}: overlapping windows must collide by construction"
    );
    assert_eq!(
        count_lost_updates(&history),
        lost,
        "DST seed {SEED}: history recount must equal the metric exactly"
    );
    assert!(
        check_sequential(&history).is_err(),
        "DST seed {SEED}: a clobbering history cannot admit a sequential witness"
    );

    // The whole interleaving is a pure function of the seed.
    let (lost2, history2) = run();
    assert_eq!(
        lost, lost2,
        "DST seed {SEED}: replay changed the loss count"
    );
    assert_eq!(
        history, history2,
        "DST seed {SEED}: replay changed the history"
    );
}

/// Threaded eventual mode: whatever interleaving the OS produced this run,
/// the history's independent recount must equal the store's counter, and
/// every surviving write is a valid blend. (Whether collisions *happen* is
/// the deterministic test's job — this one must not depend on scheduling
/// luck.)
#[test]
fn eventual_consistency_accounts_for_every_lost_update() {
    let (lost, params, history) = hammer(Consistency::Eventual);
    assert_eq!(
        count_lost_updates(&history),
        lost,
        "metric and history evidence disagree"
    );
    // Clobbered or not, every surviving write is a valid blend: parameters
    // stay finite and inside the convex hull of the client values.
    assert!(params
        .iter()
        .all(|p| p.is_finite() && *p >= 0.0 && *p <= WRITERS as f32));
}

/// Threaded strong mode: transactions serialize, so the history must admit
/// a sequential witness and nothing is ever lost.
#[test]
fn strong_consistency_loses_nothing_under_contention() {
    let (lost, params, history) = hammer(Consistency::Strong);
    assert_eq!(lost, 0, "transactional updates must never clobber");
    assert_eq!(count_lost_updates(&history), 0);
    check_sequential(&history).expect("strong history must admit a sequential witness");
    assert!(params.iter().all(|p| p.is_finite()));
}

#[test]
fn store_write_counts_match_the_workload() {
    let store = VersionedStore::shared();
    let assim = assimilator(store.clone(), 8, Consistency::Strong);
    assim.seed_params(&[0.0; 8]);
    let before = store.ops();
    assim.finish(assim.begin(), vec![1.0; 8], 1);
    assim.finish(assim.begin(), vec![2.0; 8], 1);
    let after = store.ops();
    assert_eq!(
        after.transactions - before.transactions,
        2,
        "two transactions"
    );
    assert_eq!(after.lost_updates, 0);
}
