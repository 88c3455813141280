//! The one time-ordered queue under every clock.
//!
//! A min-queue over `(key, insertion order)`: the earliest key pops first
//! and equal keys pop FIFO. The key is whatever "when" means to the
//! caller — [`crate::EventQueue`] keys it by [`crate::SimTime`], the
//! middleware's deadline timers by `(deadline, assignment seq)`, the
//! threaded coordinator's hold on early worker messages by their due
//! `SimTime` — so every driver shares one tie-break contract.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry: reversed [`Ord`] so the max-heap pops the *earliest* key,
/// with the insertion sequence number breaking exact ties FIFO.
struct Pending<K, M> {
    key: K,
    seq: u64,
    msg: M,
}

impl<K: Ord, M> PartialEq for Pending<K, M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, M> Eq for Pending<K, M> {}
impl<K: Ord, M> PartialOrd for Pending<K, M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, M> Ord for Pending<K, M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.key, other.seq).cmp(&(&self.key, self.seq))
    }
}

/// A min-queue of messages keyed by delivery time. Messages with different
/// keys overtake each other; equal keys release FIFO.
pub struct DelayQueue<K, M> {
    heap: BinaryHeap<Pending<K, M>>,
    seq: u64,
}

impl<K: Ord + Copy, M> DelayQueue<K, M> {
    /// An empty queue.
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Holds `msg` for delivery at `key`.
    pub fn push(&mut self, key: K, msg: M) {
        self.heap.push(Pending {
            key,
            seq: self.seq,
            msg,
        });
        self.seq += 1;
    }

    /// The earliest pending key and its message.
    pub fn peek(&self) -> Option<(K, &M)> {
        self.heap.peek().map(|p| (p.key, &p.msg))
    }

    /// Removes the earliest message, due or not.
    pub fn pop(&mut self) -> Option<(K, M)> {
        self.heap.pop().map(|p| (p.key, p.msg))
    }

    /// Releases the earliest message if its key has passed (`key <= now`).
    /// Call in a loop to drain everything due.
    pub fn pop_due(&mut self, now: K) -> Option<(K, M)> {
        if self.heap.peek().is_some_and(|p| p.key <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of held messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<K: Ord + Copy, M> Default for DelayQueue<K, M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_delivery_order_fifo_on_ties() {
        let mut q: DelayQueue<u64, &str> = DelayQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(10, "a2");
        q.push(20, "b");
        assert_eq!(q.peek(), Some((10, &"a1")));
        assert_eq!(q.pop_due(9), None, "nothing due yet");
        assert_eq!(q.pop_due(10), Some((10, "a1")), "key == now is due");
        assert_eq!(q.pop_due(25), Some((10, "a2")), "ties release FIFO");
        assert_eq!(q.pop_due(25), Some((20, "b")));
        assert_eq!(q.pop_due(25), None, "30 not due at 25");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((30, "c")), "pop ignores dueness");
        assert!(q.is_empty());
    }
}
