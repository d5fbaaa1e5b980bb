//! PCM write-endurance tracking.
//!
//! Phase-change memory cells endure a bounded number of writes, which is
//! why the paper counts every extra metadata write as harm beyond the
//! battery (§II-D: "these updates can lead to significant increase in
//! the number of memory writes (and hence premature wear-out)"). The
//! device keeps a per-block count of controller writes beside each
//! block; a [`WearTracker`] is a snapshot of those counts, so
//! experiments can compare not just *how many* writes a drain scheme
//! issues but *where it concentrates them* — e.g. Horus re-writes the
//! same CHV region every episode, while the baselines spray the metadata
//! regions.

use horus_sim::Histogram;

/// Per-block write counts for the whole device, as returned by
/// [`NvmSystem::wear`](crate::NvmSystem::wear).
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    /// `(block address, writes)` for every worn block, by address.
    blocks: Vec<(u64, u64)>,
    total: u64,
}

impl WearTracker {
    /// A snapshot of address-sorted `(address, writes)` pairs, each with
    /// nonzero writes.
    pub(crate) fn from_sorted(blocks: Vec<(u64, u64)>) -> Self {
        debug_assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0));
        let total = blocks.iter().map(|(_, c)| c).sum();
        Self { blocks, total }
    }

    /// Total writes ever recorded.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.total
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn blocks_touched(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The worst-case (most-written) block's write count — the cell that
    /// dies first under no wear levelling.
    #[must_use]
    pub fn max_wear(&self) -> u64 {
        self.blocks.iter().map(|(_, c)| *c).max().unwrap_or(0)
    }

    /// Mean writes per touched block.
    #[must_use]
    pub fn mean_wear(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.total as f64 / self.blocks.len() as f64
        }
    }

    /// Write count of a specific block.
    #[must_use]
    pub fn wear_of(&self, addr: u64) -> u64 {
        self.blocks
            .binary_search_by_key(&addr, |(a, _)| *a)
            .map_or(0, |i| self.blocks[i].1)
    }

    /// The `n` most-written blocks, hottest first (ties broken by
    /// address for determinism).
    #[must_use]
    pub fn hottest(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v = self.blocks.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Distribution of per-block write counts.
    #[must_use]
    pub fn histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for (_, c) in &self.blocks {
            h.record(*c);
        }
        h
    }

    /// Sums the writes that landed in `[base, base + blocks*64)` — used
    /// to attribute wear to address-map regions.
    #[must_use]
    pub fn writes_in_range(&self, base: u64, blocks: u64) -> u64 {
        let end = base + blocks * 64;
        let lo = self.blocks.partition_point(|(a, _)| *a < base);
        let hi = self.blocks.partition_point(|(a, _)| *a < end);
        self.blocks[lo..hi].iter().map(|(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(blocks: &[(u64, u64)]) -> WearTracker {
        WearTracker::from_sorted(blocks.to_vec())
    }

    #[test]
    fn fresh_tracker_is_zero() {
        let w = WearTracker::default();
        assert_eq!(w.total_writes(), 0);
        assert_eq!(w.blocks_touched(), 0);
        assert_eq!(w.max_wear(), 0);
        assert_eq!(w.mean_wear(), 0.0);
        assert!(w.hottest(5).is_empty());
    }

    #[test]
    fn counts_per_block() {
        let w = tracker(&[(0, 5), (64, 1)]);
        assert_eq!(w.total_writes(), 6);
        assert_eq!(w.blocks_touched(), 2);
        assert_eq!(w.max_wear(), 5);
        assert_eq!(w.wear_of(0), 5);
        assert_eq!(w.wear_of(64), 1);
        assert_eq!(w.wear_of(128), 0);
        assert_eq!(w.mean_wear(), 3.0);
    }

    #[test]
    fn hottest_orders_deterministically() {
        let w = tracker(&[(0, 2), (64, 2), (128, 1)]);
        assert_eq!(w.hottest(2), vec![(0, 2), (64, 2)]);
        assert_eq!(w.hottest(10).len(), 3);
    }

    #[test]
    fn range_attribution() {
        let w = tracker(&[(0, 1), (64, 1), (1024, 1)]);
        assert_eq!(w.writes_in_range(0, 2), 2);
        assert_eq!(w.writes_in_range(0, 17), 3);
        assert_eq!(w.writes_in_range(1024, 1), 1);
        assert_eq!(w.writes_in_range(2048, 4), 0);
    }

    #[test]
    fn histogram_of_counts() {
        let blocks: Vec<(u64, u64)> = (0..10u64).map(|i| (i * 64, i + 1)).collect();
        let h = WearTracker::from_sorted(blocks).histogram();
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), Some(10));
    }
}
