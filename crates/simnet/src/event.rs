//! Deterministic event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: reversed ordering so the `BinaryHeap` (a max-heap)
/// pops the *earliest* event; ties break by insertion sequence, making runs
/// bit-reproducible.
struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest seq) = greatest priority.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue over payloads of type `T`.
///
/// The single source of causality in every simulation: all fleet activity —
/// downloads finishing, subtasks completing, assimilations draining,
/// preemptions firing — is an event popped from here in time order.
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
    now: SimTime,
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`. Panics if `at` is in the
    /// simulated past — causality violations are always bugs.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules `payload` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: T) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| {
            self.now = s.at;
            (s.at, s.payload)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
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
        assert!(q.is_empty());
    }
}
