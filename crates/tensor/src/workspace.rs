//! Reusable scratch buffers for a replica's passes.
//!
//! A [`Workspace`] is a pool of `Vec<f32>` buffers owned by one model
//! replica (`vc_nn::Sequential` keeps one, so a worker's training replica
//! and a parameter server's scoring replica each have their own). Layers
//! [`take`](Workspace::take) buffers for the batch, activations,
//! convolution staging and gradient scratch at the start of an operation
//! and [`recycle`](Workspace::recycle) them once consumed. After a warm-up
//! pass has populated the pool with every size the model needs, the
//! steady-state training loop and every later scoring pass perform **zero
//! heap allocations**: every `take` is served by reusing a previously
//! recycled buffer's capacity. No request is an
//! im2col column matrix: each convolution geometry has one lowering-free
//! route, and the lowering is only the tests' oracle.
//!
//! The pool is deliberately dumb — a flat list with best-fit-by-capacity
//! matching — because one replica only cycles through a handful of distinct
//! buffer sizes (one or two per layer), so the list stays short and the
//! linear scan is cheaper than any indexing scheme.
//!
//! One rule keeps it from wasting what the layers save: a request is never
//! served by a buffer **twice its size or more**. Much of what a layer
//! takes it keeps until the next step (a training cache), and the pool
//! never shrinks — so a 64-byte statistics vector or a late, small
//! activation answered with an idle 2 MB buffer pins those 2 MB for good
//! and sends the next large request to the allocator. With unbounded best
//! fit a `resnet_lite` replica held 19 MB of its 47 MB that way. The price
//! is paid by a batch under half the usual size (a shard's short last
//! step): it finds no buffer it may use, allocates a set of its own, and
//! that set stays pooled beside the full-size one — 5.5 MB for a batch of
//! 12 after batches of 32 on that replica, which `vc-optim`'s
//! `replica_memory` test keeps inside the same budget.
//!
//! Not `Sync` and not meant to be shared: one workspace per replica, and
//! the replica owns it.

/// A recycling pool of `f32` buffers. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Recycled buffers, unordered. Capacities persist across reuse.
    free: Vec<Vec<f32>>,
    /// `take` calls that could not reuse a pooled buffer (stats only).
    misses: u64,
    /// Total `take` calls (stats only).
    takes: u64,
}

impl Workspace {
    /// An empty workspace; the first pass through a model fills the pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Removes the smallest pooled buffer whose capacity covers `len` but
    /// is less than twice it (bounded best fit, see the module docs),
    /// emptied; counts a miss when there is none.
    fn reuse(&mut self, len: usize) -> Option<Vec<f32>> {
        self.takes += 1;
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if (len..2 * len.max(1)).contains(&buf.capacity())
                && best.is_none_or(|b| buf.capacity() < self.free[b].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                Some(buf)
            }
            None => {
                self.misses += 1;
                // The free list is heap storage too. A miss is about to
                // allocate anyway, so it also reserves a slot for every
                // buffer this pool has put into circulation: recycling
                // them never grows the list in a warm step, however late
                // the number of idle buffers peaks.
                let slots = self.misses as usize;
                self.free.reserve(slots.saturating_sub(self.free.len()));
                None
            }
        }
    }

    /// Hands out a zero-filled buffer of exactly `len` elements, reusing the
    /// smallest pooled buffer that fits (bounded best fit). Allocates only
    /// when no pooled buffer does.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.reuse(len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Hands out a copy of `src` in a pooled buffer — [`take`](Self::take)
    /// without the zero fill the copy would overwrite.
    pub fn take_copy(&mut self, src: &[f32]) -> Vec<f32> {
        match self.reuse(src.len()) {
            Some(mut buf) => {
                buf.extend_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// Returns a buffer's storage to the pool for later reuse. The contents
    /// are discarded; only the capacity matters.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// `(takes, misses)` since construction. A warm steady state shows takes
    /// increasing while misses stay flat — the property the zero-allocation
    /// test asserts.
    pub fn stats(&self) -> (u64, u64) {
        (self.takes, self.misses)
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zero_fills_recycled_garbage() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        a.iter_mut().for_each(|x| *x = 7.0);
        ws.recycle(a);
        let b = ws.take(5);
        assert_eq!(b, vec![0.0; 5], "recycled contents must not leak through");
        assert_eq!(ws.stats(), (2, 1), "served from the recycled buffer");
    }

    #[test]
    fn take_copy_reuses_the_pool_and_copies_exactly() {
        let mut ws = Workspace::new();
        ws.recycle(vec![9.0; 5]);
        let b = ws.take_copy(&[1.0, 2.0, 3.0]);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
        assert_eq!(ws.stats(), (1, 0), "served from the pooled buffer");
        let c = ws.take_copy(&[4.0; 5]);
        assert_eq!(c, vec![4.0; 5]);
        assert_eq!(ws.stats(), (2, 1), "empty pool: a counted miss");
    }

    #[test]
    fn steady_state_has_no_misses() {
        let mut ws = Workspace::new();
        // Warm-up: the two sizes the "model" uses.
        let a = ws.take(100);
        let b = ws.take(50);
        ws.recycle(a);
        ws.recycle(b);
        let (_, warm_misses) = ws.stats();
        for _ in 0..10 {
            let a = ws.take(100);
            let b = ws.take(50);
            ws.recycle(a);
            ws.recycle(b);
        }
        let (takes, misses) = ws.stats();
        assert_eq!(misses, warm_misses, "steady state must reuse, not allocate");
        assert_eq!(takes, 22);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        // Both fit the request, the larger one first: first fit takes 11.
        ws.recycle(Vec::with_capacity(11));
        ws.recycle(Vec::with_capacity(10));
        let buf = ws.take(6);
        assert_eq!(buf.capacity(), 10, "should have taken the smaller buffer");
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn a_small_request_never_pins_a_large_buffer() {
        let mut ws = Workspace::new();
        ws.recycle(Vec::with_capacity(1000));
        // Twice the request or more: left for a request that needs it.
        assert_eq!(ws.take(500).capacity(), 500);
        assert_eq!(ws.take(16).capacity(), 16);
        assert_eq!(ws.stats(), (2, 2));
        assert_eq!(ws.take(501).capacity(), 1000);
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.recycle(Vec::new());
        assert_eq!(ws.pooled(), 0);
    }
}
