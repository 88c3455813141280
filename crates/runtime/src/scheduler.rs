//! The seeded step scheduler at the heart of deterministic simulation.
//!
//! A [`StepScheduler`] owns an [`EventQueue`] of pending events and the
//! [`VirtualClock`] that shows the instant being executed. Actors never
//! run freely: every state transition is an event scheduled at a virtual
//! instant, and the simulation single-steps by asking
//! [`StepScheduler::next`] for the one event that runs now. Two sources
//! of seeded nondeterminism stand in for the OS scheduler:
//!
//! 1. every `schedule_in` adds a small uniform **scheduling jitter** to the
//!    requested delay — the analog of preemption latency, which perturbs
//!    the global ordering of otherwise-synchronized actors; and
//! 2. when several events land on the *same* virtual instant, `next` picks
//!    uniformly at random which one runs first.
//!
//! Both draws come from one `StdRng` seeded by the scenario seed, so the
//! full interleaving — every race, timeout and reordering — is a pure
//! function of `(events scheduled, seed)` and replays bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_middleware::VirtualClock;
use vc_simnet::{EventQueue, SimTime};

/// A seeded, virtually-timed event scheduler.
pub struct StepScheduler<E> {
    clock: VirtualClock,
    rng: StdRng,
    jitter_s: f64,
    events: EventQueue<E>,
    /// Events due at the instant the clock currently shows, awaiting the
    /// random pick.
    ready: Vec<E>,
}

impl<E> StepScheduler<E> {
    /// An empty scheduler at virtual time zero. `jitter_s` bounds the
    /// uniform scheduling latency added to every delay (0 disables it).
    pub fn new(seed: u64, jitter_s: f64) -> Self {
        assert!(
            jitter_s.is_finite() && jitter_s >= 0.0,
            "invalid scheduling jitter {jitter_s}"
        );
        StepScheduler {
            clock: VirtualClock::new(),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1)),
            jitter_s,
            events: EventQueue::new(),
            ready: Vec::new(),
        }
    }

    /// A shared handle on the scheduler's clock (for code that only reads
    /// `now`, like the run's telemetry time source).
    pub fn clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Schedules `ev` to run `delay_s` virtual seconds from now, plus the
    /// seeded scheduling jitter.
    pub fn schedule_in(&mut self, delay_s: f64, ev: E) {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "invalid delay {delay_s}"
        );
        let jitter = if self.jitter_s > 0.0 {
            self.rng.gen_range(0.0..self.jitter_s)
        } else {
            0.0
        };
        self.events.schedule_in(delay_s + jitter, ev);
    }

    /// Advances virtual time to the next scheduled instant and returns one
    /// event due there — chosen uniformly at random when several are due at
    /// the same instant. `None` when no event is scheduled: every actor is
    /// idle forever.
    #[allow(clippy::should_implement_trait)] // steps the sim, not an Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() {
            let (at, ev) = self.events.pop()?;
            self.clock.set(at);
            self.ready.push(ev);
            while self.events.peek() == Some(at) {
                let (_, ev) = self.events.pop().expect("peeked");
                self.ready.push(ev);
            }
        }
        let i = if self.ready.len() > 1 {
            self.rng.gen_range(0..self.ready.len())
        } else {
            0
        };
        Some((self.events.now(), self.ready.swap_remove(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(seed: u64, jitter: f64) -> Vec<(f64, u32)> {
        drain_with(seed, jitter, false)
    }

    /// Sixteen events over four instants; with `nested`, every third one
    /// schedules a zero-delay follow-up from inside its instant.
    fn drain_with(seed: u64, jitter: f64, nested: bool) -> Vec<(f64, u32)> {
        let mut s: StepScheduler<u32> = StepScheduler::new(seed, jitter);
        for i in 0..16 {
            s.schedule_in(f64::from(i % 4), i);
        }
        let mut out = Vec::new();
        while let Some((t, e)) = s.next() {
            assert_eq!(s.clock().now(), t, "the shared reading shows the instant");
            if nested && e < 16 && e % 3 == 0 {
                s.schedule_in(0.0, e + 100);
            }
            out.push((t.as_secs(), e));
        }
        out
    }

    /// FNV-1a over the drained `(time bits, event)` stream.
    fn fingerprint(run: &[(f64, u32)]) -> u64 {
        run.iter()
            .flat_map(|&(t, e)| [t.to_bits(), u64::from(e)])
            .fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ w).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// `(seed, jitter, nested, fingerprint)`, recorded at 90a46b2 — before
    /// the scheduler's private token heap became the shared event queue.
    const GOLDEN: [(u64, f64, bool, u64); 12] = [
        (1, 0.0, false, 0x7e0afe705334b1a5),
        (1, 0.0, true, 0xf747a31f05925cd0),
        (1, 0.01, false, 0xa81e17cd51798bbd),
        (1, 0.01, true, 0x6fd31140322fbf9a),
        (7, 0.0, false, 0x9516f4c14fa702f5),
        (7, 0.0, true, 0x141eb6d9d0b79620),
        (7, 0.01, false, 0xd4dcd58ff96afec2),
        (7, 0.01, true, 0xc39d5818d3766257),
        (42, 0.0, false, 0x5a40c9eebf27c3a5),
        (42, 0.0, true, 0xe1609b2fc0a0d740),
        (42, 0.01, false, 0xdf3263012d9786b6),
        (42, 0.01, true, 0x422abebce027fb70),
    ];

    #[test]
    fn interleavings_match_recorded_fingerprints() {
        for (seed, jitter, nested, want) in GOLDEN {
            let run = drain_with(seed, jitter, nested);
            assert_eq!(run.len(), if nested { 22 } else { 16 });
            assert_eq!(
                fingerprint(&run),
                want,
                "seed {seed} jitter {jitter} nested {nested}: {run:?}"
            );
        }
    }

    #[test]
    fn same_instant_follow_ups_form_the_next_batch() {
        // Without jitter a zero-delay event lands on the instant that
        // scheduled it, but only after that instant's current batch.
        let run = drain_with(7, 0.0, true);
        let at_zero: Vec<u32> = run.iter().filter(|r| r.0 == 0.0).map(|r| r.1).collect();
        assert_eq!(at_zero.len(), 6);
        assert!(at_zero[..4].iter().all(|&e| e < 16), "{at_zero:?}");
        assert!(at_zero[4..].iter().all(|&e| e >= 100), "{at_zero:?}");
    }

    #[test]
    fn same_seed_replays_bit_for_bit() {
        assert_eq!(drain(7, 0.01), drain(7, 0.01));
        assert_eq!(drain(7, 0.0), drain(7, 0.0));
    }

    #[test]
    fn different_seeds_explore_different_interleavings() {
        // Without jitter every event of a batch lands on the same instant,
        // so ordering is purely the scheduler's random pick.
        let orders: Vec<Vec<u32>> = (0..4)
            .map(|seed| drain(seed, 0.0).into_iter().map(|(_, e)| e).collect())
            .collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "four seeds produced identical same-instant orderings"
        );
    }

    #[test]
    fn time_is_monotone_and_complete() {
        let run = drain(3, 0.05);
        assert_eq!(run.len(), 16, "every scheduled event executes");
        for w in run.windows(2) {
            assert!(w[1].0 >= w[0].0, "virtual time ran backwards");
        }
        // Jitter keeps each event within its requested second + bound.
        for (t, e) in run {
            let base = f64::from(e % 4);
            assert!(t >= base && t < base + 0.05, "event {e} at {t}");
        }
    }

    #[test]
    fn drained_scheduler_accepts_new_events() {
        let mut s: StepScheduler<&str> = StepScheduler::new(1, 0.0);
        s.schedule_in(0.0, "a");
        assert_eq!(s.next().map(|(_, e)| e), Some("a"));
        s.schedule_in(0.0, "b");
        assert_eq!(s.next().map(|(_, e)| e), Some("b"));
        assert!(s.next().is_none());
    }
}
