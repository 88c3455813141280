//! Deterministic event queue.

use crate::queue::DelayQueue;
use crate::time::SimTime;

/// A discrete-event queue over payloads of type `T`.
///
/// The single source of causality in every simulation: all fleet activity —
/// downloads finishing, subtasks completing, assimilations draining,
/// preemptions firing — is an event popped from here in time order.
///
/// A [`DelayQueue`] keyed by [`SimTime`] — earliest first, ties in
/// insertion order, so runs are bit-reproducible — plus the clock reading
/// it implies.
pub struct EventQueue<T> {
    queue: DelayQueue<SimTime, T>,
    now: SimTime,
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            queue: DelayQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`. Panics if `at` is in the
    /// simulated past — causality violations are always bugs.
    fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        self.queue.push(at, payload);
    }

    /// Schedules `payload` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: T) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// The timestamp of the earliest pending event.
    pub fn peek(&self) -> Option<SimTime> {
        self.queue.peek().map(|(at, _)| at)
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (at, payload) = self.queue.pop()?;
        self.now = at;
        Some((at, payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn now_tracks_popped_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule_in(10.0, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10.0));
        q.schedule_in(5.0, ());
        assert_eq!(q.pop().map(|(at, ())| at), Some(SimTime::from_secs(15.0)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(5.0), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(4.0), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime::from_secs(2.0), 2); // still in the future
        q.schedule(SimTime::from_secs(3.0), 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
        assert!(q.pop().is_none());
    }
}
