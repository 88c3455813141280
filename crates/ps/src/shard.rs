//! Shard layout: how one flat parameter vector maps onto `P` store keys.
//!
//! The paper's coordinator keeps "all the parameters of a model as a single
//! value" — one key, one version counter, one lock. A [`ShardLayout`]
//! splits the same flat vector into `P` contiguous, near-equal ranges so
//! each shard can live under its own key with its own version counter and
//! its own per-key lock in [`vc_kvstore::VersionedStore`]. Because the VC-ASGD
//! blend (Eq. (1)) is elementwise, merging shard-by-shard over disjoint
//! ranges is bitwise-identical to merging the whole vector at once — the
//! layout changes contention and transfer granularity, never the math.

/// A contiguous partition of `param_count` values into `shards` ranges.
///
/// Ranges differ in length by at most one: the first `param_count % shards`
/// shards get the extra element. A layout over zero parameters still has
/// `shards` (empty) ranges so version manifests keep a stable shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    param_count: usize,
    shards: usize,
}

impl ShardLayout {
    /// Builds a layout. `shards` is clamped to at least 1; requesting more
    /// shards than parameters leaves the surplus shards empty rather than
    /// failing, so config validation can stay coarse.
    pub(crate) fn new(param_count: usize, shards: usize) -> Self {
        ShardLayout {
            param_count,
            shards: shards.max(1),
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The half-open index range shard `i` owns.
    ///
    /// # Panics
    /// When `i >= self.shards()`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.shards, "shard {i} out of {}", self.shards);
        let base = self.param_count / self.shards;
        let extra = self.param_count % self.shards;
        // Shards [0, extra) are one longer.
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        start..start + len
    }

    /// Length of shard `i`.
    pub fn len(&self, i: usize) -> usize {
        self.range(i).len()
    }

    /// Iterates `(shard_id, range)` over all shards.
    pub fn iter(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (0..self.shards).map(|i| (i, self.range(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_vector_exactly() {
        for n in [0usize, 1, 7, 64, 1000, 4_973] {
            for p in [1usize, 2, 3, 4, 16, 64] {
                let l = ShardLayout::new(n, p);
                let mut next = 0;
                for (i, r) in l.iter() {
                    assert_eq!(r.start, next, "n={n} p={p} shard {i}");
                    next = r.end;
                    assert_eq!(l.len(i), r.len());
                }
                assert_eq!(next, n, "ranges must cover exactly n={n} at p={p}");
            }
        }
    }

    #[test]
    fn ranges_are_near_equal() {
        let l = ShardLayout::new(10, 4);
        let lens: Vec<usize> = (0..4).map(|i| l.len(i)).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn single_shard_owns_everything() {
        let l = ShardLayout::new(123, 1);
        assert_eq!(l.range(0), 0..123);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let l = ShardLayout::new(5, 0);
        assert_eq!(l.shards(), 1);
        assert_eq!(l.range(0), 0..5);
    }

    #[test]
    fn more_shards_than_params_leaves_empties() {
        let l = ShardLayout::new(2, 4);
        assert_eq!(l.range(0), 0..1);
        assert_eq!(l.range(1), 1..2);
        assert_eq!(l.range(2), 2..2);
        assert_eq!(l.range(3), 2..2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_shard_panics() {
        ShardLayout::new(10, 2).range(2);
    }
}
