//! Named counters and histograms.
//!
//! Every layer of the simulator records what it did into a [`Stats`]
//! registry — memory reads/writes by request type, MAC computations by
//! purpose, cache hits/misses — and the experiment harness reads these
//! back to print the breakdowns shown in the paper's Figures 6, 12 and 13.

use crate::fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dense handle to one interned counter, issued by
/// [`Stats::counter_id`].
///
/// Hot call sites resolve a name once, cache the id, and then update
/// the counter with [`Stats::add_id`] / [`Stats::incr_id`] — a bounds
/// check and an array add, no hashing and no allocation. Ids are only
/// meaningful for the [`Stats`] instance that issued them (using one
/// against another registry hits whatever counter occupies that slot
/// there, or panics if the slot does not exist); they remain valid
/// across [`Stats::clear`], which resets values but keeps the name
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Cached [`CounterId`]s for the `{prefix}{kind}` counters of one
/// [`Stats`] registry, for call sites that attribute every operation to
/// a request kind (`mem.write.data`, `macop.verify_tree`, …).
///
/// Kinds are `&'static str` literals, so the cache is keyed by the
/// literal's address and length: a hit is one pointer-sized hash probe,
/// with no key concatenation and no string hashing. A literal seen for
/// the first time is interned by name, so two distinct literals with
/// equal text resolve to the same counter. Like the ids it holds, a
/// cache belongs to one registry and stays valid across
/// [`Stats::clear`].
///
/// ```
/// use horus_sim::{KindCounters, Stats};
/// let mut s = Stats::new();
/// let mut reads = KindCounters::new("mem.read.");
/// reads.incr(&mut s, "tree");
/// reads.incr(&mut s, "tree");
/// assert_eq!(s.get("mem.read.tree"), 2);
/// ```
#[derive(Debug, Clone)]
pub struct KindCounters {
    prefix: &'static str,
    ids: FxHashMap<(usize, usize), CounterId>,
}

impl KindCounters {
    /// An empty cache for the counters named `{prefix}{kind}`.
    #[must_use]
    pub fn new(prefix: &'static str) -> Self {
        Self {
            prefix,
            ids: FxHashMap::default(),
        }
    }

    /// Increments `{prefix}{kind}` in `stats`, the registry this cache
    /// serves.
    pub fn incr(&mut self, stats: &mut Stats, kind: &'static str) {
        let prefix = self.prefix;
        let id = *self
            .ids
            .entry((kind.as_ptr() as usize, kind.len()))
            .or_insert_with(|| stats.counter_id(&format!("{prefix}{kind}")));
        stats.incr_id(id);
    }
}

/// A registry of named monotonic counters.
///
/// Names are interned on first touch: the registry maps each distinct
/// name to a dense id and stores counter values in a flat array, so the
/// per-operation cost is one short-string hash (or none, with a cached
/// [`CounterId`]) instead of an ordered-map walk plus allocation. The
/// name table is only consulted for reporting and serialization, both
/// of which present counters in name order so reports stay
/// deterministic.
///
/// ```
/// use horus_sim::Stats;
/// let mut s = Stats::new();
/// s.add("mem.write.data", 3);
/// s.incr("mem.write.data");
/// assert_eq!(s.get("mem.write.data"), 4);
/// assert_eq!(s.get("never.touched"), 0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "StatsRepr", from = "StatsRepr")]
pub struct Stats {
    /// id → name: the slow-path name table, used only when reporting
    /// or serializing.
    names: Vec<Arc<str>>,
    /// name → id.
    index: FxHashMap<Arc<str>, u32>,
    /// Counter values by id.
    counters: Vec<u64>,
    /// Whether the counter was ever added to (a counter touched with
    /// `add(key, 0)` reports and serializes as present-at-zero, an
    /// interned-but-never-added slot does not — matching the previous
    /// map-based behavior).
    touched: Vec<bool>,
    /// Histograms share the id space; `None` until a sample lands.
    histograms: Vec<Option<Histogram>>,
}

/// The serialized face of [`Stats`]: the ordered name→value maps the
/// registry always presented on the wire. Keeping serialization
/// identical to the pre-interning layout preserves golden traces and
/// the harness cache keys derived from canonical JSON.
#[derive(Clone, Serialize, Deserialize)]
struct StatsRepr {
    counters: BTreeMap<String, u64>,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    histograms: BTreeMap<String, Histogram>,
}

impl From<Stats> for StatsRepr {
    fn from(s: Stats) -> Self {
        Self {
            counters: s.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            histograms: s
                .histograms()
                .map(|(k, h)| (k.to_owned(), h.clone()))
                .collect(),
        }
    }
}

impl From<StatsRepr> for Stats {
    fn from(r: StatsRepr) -> Self {
        let mut s = Stats::new();
        for (k, v) in r.counters {
            s.add(&k, v);
        }
        for (k, h) in r.histograms {
            s.insert_histogram(&k, h);
        }
        s
    }
}

/// Counter equality is semantic — same named values, same named
/// histograms — regardless of interning order, so registries built by
/// different merge orders still compare equal.
impl PartialEq for Stats {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter()) && self.histograms().eq(other.histograms())
    }
}

impl Eq for Stats {}

impl Stats {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `key`, growing the tables if it is new.
    fn intern(&mut self, key: &str) -> usize {
        if let Some(&id) = self.index.get(key) {
            return id as usize;
        }
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX distinct counters");
        let name: Arc<str> = Arc::from(key);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, id);
        self.counters.push(0);
        self.touched.push(false);
        self.histograms.push(None);
        id as usize
    }

    /// Resolves (interning if needed) the dense id for `key`, for call
    /// sites hot enough to cache it. The counter stays absent from
    /// reports until first added to.
    pub fn counter_id(&mut self, key: &str) -> CounterId {
        CounterId(self.intern(key) as u32)
    }

    /// Adds `n` to the counter behind a cached id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different registry with more
    /// counters than this one.
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        let slot = id.0 as usize;
        self.counters[slot] += n;
        self.touched[slot] = true;
    }

    /// Increments the counter behind a cached id by one.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different registry with more
    /// counters than this one.
    pub fn incr_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Reads the counter behind a cached id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different registry with more
    /// counters than this one.
    #[must_use]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Adds `n` to the counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, n: u64) {
        let id = self.intern(key);
        self.counters[id] += n;
        self.touched[id] = true;
    }

    /// Increments the counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Reads a counter; absent counters read as zero.
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.index
            .get(key)
            .map_or(0, |&id| self.counters[id as usize])
    }

    /// Sums every counter whose name starts with `prefix`.
    ///
    /// ```
    /// use horus_sim::Stats;
    /// let mut s = Stats::new();
    /// s.add("mem.write.data", 2);
    /// s.add("mem.write.mac", 3);
    /// s.add("mem.read.counter", 5);
    /// assert_eq!(s.sum_prefix("mem.write."), 5);
    /// assert_eq!(s.sum_prefix("mem."), 10);
    /// ```
    #[must_use]
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.names
            .iter()
            .zip(self.counters.iter())
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut pairs: Vec<(&str, u64)> = self
            .touched
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t)
            .map(|(i, _)| (&*self.names[i], self.counters[i]))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }

    /// Merges another registry into this one, saturating-summing shared
    /// counters.
    ///
    /// This is the aggregation path the parallel experiment harness uses
    /// to fold per-worker registries into sweep totals. Saturating
    /// addition is associative and commutative, so the merged totals are
    /// identical no matter how jobs were partitioned across workers —
    /// and identical to what a serial run accumulates.
    ///
    /// ```
    /// use horus_sim::Stats;
    /// let mut a = Stats::new();
    /// a.add("mem.write.data", 2);
    /// let mut b = Stats::new();
    /// b.add("mem.write.data", 3);
    /// b.add("macop.verify_tree", 1);
    /// a.merge(&b);
    /// assert_eq!(a.get("mem.write.data"), 5);
    /// assert_eq!(a.get("macop.verify_tree"), 1);
    ///
    /// // Near-overflow counters clamp instead of panicking.
    /// let mut big = Stats::new();
    /// big.add("mem.write.data", u64::MAX - 1);
    /// big.merge(&b);
    /// assert_eq!(big.get("mem.write.data"), u64::MAX);
    /// ```
    pub fn merge(&mut self, other: &Stats) {
        // Remap by name: the two registries interned in different
        // orders, so ids do not line up.
        for (k, v) in other.iter() {
            let id = self.intern(k);
            self.counters[id] = self.counters[id].saturating_add(v);
            self.touched[id] = true;
        }
        for (k, h) in other.histograms() {
            let id = self.intern(k);
            self.histograms[id]
                .get_or_insert_with(Histogram::new)
                .merge(h);
        }
    }

    /// Records one sample into the named histogram, creating it if
    /// absent.
    ///
    /// ```
    /// use horus_sim::Stats;
    /// let mut s = Stats::new();
    /// s.record_sample("queue.pcm-bank", 400);
    /// s.record_sample("queue.pcm-bank", 0);
    /// assert_eq!(s.histogram("queue.pcm-bank").unwrap().count(), 2);
    /// assert!(s.histogram("queue.hash").is_none());
    /// ```
    pub fn record_sample(&mut self, key: &str, sample: u64) {
        let id = self.intern(key);
        self.histograms[id]
            .get_or_insert_with(Histogram::new)
            .record(sample);
    }

    /// Inserts (or replaces) a whole named histogram.
    pub fn insert_histogram(&mut self, key: &str, histogram: Histogram) {
        let id = self.intern(key);
        self.histograms[id] = Some(histogram);
    }

    /// Reads a named histogram, if any samples were recorded under it.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.index
            .get(key)
            .and_then(|&id| self.histograms[id as usize].as_ref())
    }

    /// Iterates `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        let mut pairs: Vec<(&str, &Histogram)> = self
            .histograms
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|h| (&*self.names[i], h)))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }

    /// Resets every counter and histogram.
    ///
    /// The name table is kept, so [`CounterId`]s issued before the
    /// clear stay valid — the simulator's `reset_timing` paths rely on
    /// this to reuse cached ids across episodes. Cleared counters
    /// become untouched again: they drop out of iteration and
    /// serialization until re-added, exactly as if the registry were
    /// fresh.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.touched.iter_mut().for_each(|t| *t = false);
        self.histograms.iter_mut().for_each(|h| *h = None);
    }

    /// Number of distinct counters (histograms are not counted; see
    /// [`Stats::histograms`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// Whether neither a counter nor a histogram has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.touched.contains(&true) && self.histograms.iter().all(Option::is_none)
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<40} {v:>14}")?;
        }
        Ok(())
    }
}

impl<'a> Extend<(&'a str, u64)> for Stats {
    fn extend<T: IntoIterator<Item = (&'a str, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

impl<'a> FromIterator<(&'a str, u64)> for Stats {
    fn from_iter<T: IntoIterator<Item = (&'a str, u64)>>(iter: T) -> Self {
        let mut s = Stats::new();
        s.extend(iter);
        s
    }
}

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)`, with bucket 0 counting
/// zero and one. Used to characterize e.g. metadata-cache reuse distances
/// and queueing delays.
///
/// ```
/// use horus_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(1000);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), Some(1000));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(sample: u64) -> usize {
        if sample <= 1 {
            0
        } else {
            (64 - (sample - 1).leading_zeros()) as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = Self::bucket_index(sample);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(sample);
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    ///
    /// ```
    /// use horus_sim::Histogram;
    /// let mut h = Histogram::new();
    /// h.record(3);
    /// h.record(7);
    /// assert_eq!(h.sum(), 10);
    /// ```
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// The bucket counts, index `i` covering `[2^(i-1), 2^i)`.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0): the inclusive
    /// upper edge `2^i` of the power-of-two bucket containing that rank,
    /// or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    ///
    /// ```
    /// use horus_sim::Histogram;
    /// let mut h = Histogram::new();
    /// for v in [1u64, 2, 3, 100] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.quantile_bound(0.5), Some(2)); // rank 2 is the sample 2
    /// assert_eq!(h.quantile_bound(1.0), Some(128)); // 100 in (64, 128]
    /// ```
    /// Merges another histogram's samples into this one.
    ///
    /// Bucket counts add (saturating), as do `count` and `sum`; min/max
    /// fold. Like [`Stats::merge`] this is associative and commutative,
    /// so harness workers can fold per-job histograms in any partition
    /// order and reach the same result as a serial run.
    ///
    /// ```
    /// use horus_sim::Histogram;
    /// let mut a = Histogram::new();
    /// a.record(3);
    /// let mut b = Histogram::new();
    /// b.record(100);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// assert_eq!(a.min(), Some(3));
    /// assert_eq!(a.max(), Some(100));
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (slot, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot = slot.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// An upper bound on the `q`-quantile sample: the inclusive upper
    /// edge of the power-of-two bucket the quantile's rank falls in
    /// (tightened to the observed maximum for the last bucket).
    /// `None` when nothing has been recorded.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << self.buckets.len())
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "count={} mean={:.1} min={:?} max={:?}",
            self.count,
            self.mean().unwrap_or(0.0),
            self.min,
            self.max
        )?;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                // Bucket 0 holds {0, 1}; bucket i holds (2^(i-1), 2^i].
                let lo = if i == 0 { 0 } else { (1u64 << (i - 1)) + 1 };
                let hi = 1u64 << i;
                writeln!(f, "  [{lo:>12}, {hi:>12}] {b}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a");
        s.add("a", 4);
        s.incr("b");
        assert_eq!(s.get("a"), 5);
        assert_eq!(s.get("b"), 1);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn prefix_sums() {
        let mut s = Stats::new();
        s.add("x.1", 1);
        s.add("x.2", 2);
        s.add("y.1", 4);
        assert_eq!(s.sum_prefix("x."), 3);
        assert_eq!(s.sum_prefix(""), 7);
        assert_eq!(s.sum_prefix("z."), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats::new();
        a.add("k", 1);
        let mut b = Stats::new();
        b.add("k", 2);
        b.add("only-b", 3);
        a.merge(&b);
        assert_eq!(a.get("k"), 3);
        assert_eq!(a.get("only-b"), 3);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = Stats::new();
        a.add("k", u64::MAX - 1);
        let mut b = Stats::new();
        b.add("k", 5);
        a.merge(&b);
        assert_eq!(a.get("k"), u64::MAX);
        // Merging more keeps the clamp.
        a.merge(&b);
        assert_eq!(a.get("k"), u64::MAX);
    }

    #[test]
    fn merge_order_is_immaterial() {
        let parts: Vec<Stats> = (0..4u64)
            .map(|i| {
                let mut s = Stats::new();
                s.add("shared", i + 1);
                s.add(if i % 2 == 0 { "even" } else { "odd" }, i);
                s
            })
            .collect();
        let mut fwd = Stats::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Stats::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn iteration_is_ordered() {
        let s: Stats = [("b", 2u64), ("a", 1), ("c", 3)].into_iter().collect();
        let keys: Vec<_> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c"]);
    }

    #[test]
    fn counter_ids_bypass_interning() {
        let mut s = Stats::new();
        let id = s.counter_id("mem.read.data");
        assert_eq!(s.get_id(id), 0);
        assert_eq!(s.len(), 0, "interned-but-unadded counters stay absent");
        s.incr_id(id);
        s.add_id(id, 4);
        assert_eq!(s.get_id(id), 5);
        assert_eq!(s.get("mem.read.data"), 5);
        assert_eq!(s.counter_id("mem.read.data"), id, "re-interning is stable");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn counter_ids_survive_clear() {
        let mut s = Stats::new();
        let id = s.counter_id("ops");
        s.add_id(id, 9);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get_id(id), 0);
        s.incr_id(id);
        assert_eq!(s.get("ops"), 1);
    }

    #[test]
    fn kind_counters_resolve_each_literal_once() {
        let mut s = Stats::new();
        let mut writes = KindCounters::new("mem.write.");
        writes.incr(&mut s, "data");
        writes.incr(&mut s, "data");
        writes.incr(&mut s, "tree");
        assert_eq!(s.get("mem.write.data"), 2);
        assert_eq!(s.get("mem.write.tree"), 1);
        s.clear();
        writes.incr(&mut s, "data");
        assert_eq!(s.get("mem.write.data"), 1, "cached ids survive clear");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn distinct_literals_with_equal_text_share_a_counter() {
        let mut s = Stats::new();
        let mut writes = KindCounters::new("mem.write.");
        let copy: &'static str = Box::leak(String::from("data").into_boxed_str());
        assert!(!std::ptr::eq(copy, "data"), "two distinct literals");
        writes.incr(&mut s, "data");
        writes.incr(&mut s, copy);
        s.incr("mem.write.data");
        assert_eq!(s.get("mem.write.data"), 3);
        assert_eq!(s.len(), 1, "one counter behind both literals");
    }

    #[test]
    fn equality_ignores_interning_order() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.incr("x");
        assert_ne!(a, b);
    }

    #[test]
    fn repr_roundtrip_preserves_contents() {
        let mut s = Stats::new();
        s.add("b", 2);
        s.add("a", 0); // touched at zero must survive the round trip
        s.record_sample("q", 77);
        let repr = StatsRepr::from(s.clone());
        assert_eq!(repr.counters.get("a"), Some(&0));
        assert_eq!(
            repr.counters.keys().collect::<Vec<_>>(),
            ["a", "b"],
            "serialized counters are name-ordered"
        );
        let back = Stats::from(repr);
        assert_eq!(back, s);
    }

    #[test]
    fn clear_empties() {
        let mut s = Stats::new();
        s.incr("a");
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn display_nonempty() {
        let mut s = Stats::new();
        s.add("k", 7);
        assert!(format!("{s}").contains('k'));
        let h = Histogram::new();
        assert!(format!("{h}").contains("count=0"));
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);
    }

    #[test]
    fn histogram_registry_merges_order_insensitively() {
        let parts: Vec<Stats> = (0..4u64)
            .map(|i| {
                let mut s = Stats::new();
                s.add("ops", i);
                s.record_sample("queue.pcm", i * 100);
                if i % 2 == 0 {
                    s.record_sample("queue.hash", i + 1);
                }
                s
            })
            .collect();
        let mut fwd = Stats::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Stats::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        let q = fwd.histogram("queue.pcm").unwrap();
        assert_eq!(q.count(), 4);
        assert_eq!(q.max(), Some(300));
        assert_eq!(fwd.histogram("queue.hash").unwrap().count(), 2);
        assert_eq!(fwd.histograms().count(), 2);
    }

    #[test]
    fn clear_and_empty_cover_histograms() {
        let mut s = Stats::new();
        s.record_sample("h", 1);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 0, "len counts counters only");
        s.clear();
        assert!(s.is_empty());
        let mut h = Histogram::new();
        h.record(42);
        s.insert_histogram("direct", h);
        assert_eq!(s.histogram("direct").unwrap().max(), Some(42));
    }

    #[test]
    fn histogram_merge_matches_serial_recording() {
        let mut serial = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            serial.record(v * 13);
            if v % 2 == 0 {
                a.record(v * 13);
            } else {
                b.record(v * 13);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, serial);
        let mut other_order = Histogram::new();
        other_order.merge(&b);
        other_order.merge(&a);
        assert_eq!(other_order, serial);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(7);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max(), Some(6));
        assert!(h.buckets().iter().sum::<u64>() == 3);
    }
}

#[cfg(test)]
mod quantile_tests {
    use super::*;

    #[test]
    fn quantile_bounds_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // The 50th percentile of 1..=1000 is ~500, bucketed into [512, 1024).
        assert_eq!(h.quantile_bound(0.5), Some(512));
        assert_eq!(h.quantile_bound(0.0), Some(1));
        assert_eq!(h.quantile_bound(1.0), Some(1024));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(Histogram::new().quantile_bound(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile_bound(1.5);
    }
}
