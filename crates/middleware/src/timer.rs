//! Indexed expiry timers for the scheduler's hot paths.
//!
//! Every issued assignment registers one [`TimerEntry`] keyed by its
//! adaptive deadline. The queue is the workspace's one time-ordered
//! min-queue ([`vc_simnet::DelayQueue`]) keyed by `(deadline, seq)` —
//! `seq` is the server's global assignment sequence number, so
//! same-instant deadlines expire in issue order, matching the historical
//! full-scan transitioner bit for bit.
//!
//! Entries are **lazily invalidated**: completing, cancelling, reissuing
//! or orphan-reviving an assignment never touches the heap. A stale entry
//! is simply discarded the first time it reaches the top, identified by
//! its `seq` no longer naming a live assignment (the caller supplies the
//! liveness predicate). This keeps every mutation O(log n) with no
//! tombstone bookkeeping, at the cost of the heap briefly holding dead
//! entries — bounded by the total number of issues, and drained on every
//! scan that reaches them.

use crate::host::HostId;
use crate::workunit::WuId;
use vc_simnet::{DelayQueue, SimTime};

/// One armed expiry timer: the assignment identified by `seq` (on `wu`,
/// issued to `host`) blows at `deadline` unless invalidated first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerEntry {
    /// When the transitioner declares the assignment lost.
    pub deadline: SimTime,
    /// The server-global assignment sequence number — unique per issue,
    /// monotone, and the lazy-invalidation handle.
    pub seq: u64,
    /// The workunit the assignment belongs to.
    pub wu: WuId,
    /// The host the assignment was issued to.
    pub host: HostId,
}

/// Min-queue of [`TimerEntry`]s with lazy invalidation. The queue key is
/// the entry's `(deadline, seq)` and the payload only its `(wu, host)`,
/// so each armed timer stores its deadline and sequence number once.
#[derive(Default)]
pub struct TimerQueue {
    queue: DelayQueue<(SimTime, u64), (WuId, HostId)>,
}

/// The entry a queue slot holds, whole again.
fn from_slot(((deadline, seq), (wu, host)): ((SimTime, u64), (WuId, HostId))) -> TimerEntry {
    TimerEntry {
        deadline,
        seq,
        wu,
        host,
    }
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Arms one timer. O(log n).
    pub fn push(&mut self, entry: TimerEntry) {
        self.queue
            .push((entry.deadline, entry.seq), (entry.wu, entry.host));
    }

    /// Drains every entry with `deadline <= now`, returning the ones
    /// `is_live` confirms (in `(deadline, seq)` order) and discarding the
    /// rest. O(due · log n); O(1) when the earliest deadline lies ahead.
    pub fn pop_due(
        &mut self,
        now: SimTime,
        mut is_live: impl FnMut(&TimerEntry) -> bool,
    ) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        // `(now, u64::MAX)` bounds every key whose deadline is `<= now`.
        while let Some(slot) = self.queue.pop_due((now, u64::MAX)) {
            let e = from_slot(slot);
            if is_live(&e) {
                due.push(e);
            }
        }
        due
    }

    /// The earliest deadline among *live* entries, discarding stale tops on
    /// the way. Amortized O(stale · log n), then O(1) until the next
    /// invalidation.
    pub fn next_deadline(
        &mut self,
        mut is_live: impl FnMut(&TimerEntry) -> bool,
    ) -> Option<SimTime> {
        while let Some((key, &payload)) = self.queue.peek() {
            if is_live(&from_slot((key, payload))) {
                return Some(key.0);
            }
            self.queue.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(deadline: f64, seq: u64) -> TimerEntry {
        TimerEntry {
            deadline: SimTime::from_secs(deadline),
            seq,
            wu: WuId(seq / 2),
            host: HostId(seq as u32),
        }
    }

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let mut q = TimerQueue::new();
        for entry in [e(5.0, 3), e(1.0, 2), e(5.0, 1), e(9.0, 0)] {
            q.push(entry);
        }
        let due = q.pop_due(SimTime::from_secs(5.0), |_| true);
        assert_eq!(
            due.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![2, 1, 3],
            "same-instant ties break by seq"
        );
        assert_eq!(q.queue.len(), 1, "future entry stays armed");
    }

    #[test]
    fn stale_entries_are_discarded_lazily() {
        let mut q = TimerQueue::new();
        for entry in [e(1.0, 0), e(2.0, 1), e(3.0, 2)] {
            q.push(entry);
        }
        // seq 0 and 2 invalidated (reported / reissued elsewhere).
        let due = q.pop_due(SimTime::from_secs(10.0), |x| x.seq == 1);
        assert_eq!(due.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![1]);
        assert!(q.queue.is_empty(), "stale entries were dropped, not kept");
    }

    #[test]
    fn next_deadline_skips_stale_tops() {
        let mut q = TimerQueue::new();
        q.push(e(1.0, 0));
        q.push(e(4.0, 1));
        assert_eq!(
            q.next_deadline(|x| x.seq == 1),
            Some(SimTime::from_secs(4.0))
        );
        assert_eq!(q.queue.len(), 1, "the stale top was pruned");
        assert_eq!(q.next_deadline(|_| false), None);
        assert!(q.queue.is_empty());
    }

    #[test]
    fn nothing_due_is_constant_time_and_empty() {
        let mut q = TimerQueue::new();
        q.push(e(100.0, 0));
        assert!(q.pop_due(SimTime::from_secs(99.0), |_| true).is_empty());
        assert_eq!(q.queue.len(), 1);
    }
}
