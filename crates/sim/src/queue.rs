//! A deterministic discrete-event queue.
//!
//! Drain-path timing comes from chaining
//! [`SlotResource`](crate::schedule::SlotResource) completions; no
//! episode schedules an event. The queue is the event-driven building
//! block for a component that needs explicit future events, and the
//! `crates/benchmark` `sim.event_ns` kernel times it. Events at the same
//! timestamp pop in insertion order, so simulations are fully
//! deterministic.
//!
//! # Implementation
//!
//! The queue is a *calendar queue* (Brown, CACM 1988): pending events
//! hash into `N` circular day-buckets by `(time >> shift) % N`, each
//! bucket kept sorted by `(time, seq)`. Popping scans days forward from
//! the current time — amortized O(1) when the bucket width tracks the
//! average inter-event gap, which a rebuild re-derives whenever the
//! queue grows or shrinks past its calendar size. Simulated event
//! populations are heavily clustered in time (bank completions, drain
//! steps), which is exactly the distribution calendar queues excel at;
//! the prior `BinaryHeap` paid O(log n) plus poor locality per
//! operation.

use crate::clock::Cycles;
use std::collections::VecDeque;

/// Smallest calendar size; also the initial size.
const MIN_BUCKETS: usize = 16;
/// Largest calendar size — bounds rebuild and sparse-scan cost.
const MAX_BUCKETS: usize = 1 << 16;
/// Entries per bucket a rebuild aims for. Multi-entry buckets keep the
/// bucket count (and thus per-bucket allocations and scan length) an
/// order of magnitude below the population while inserts stay cheap:
/// a binary search plus a short move inside one small deque.
const TARGET_OCCUPANCY: usize = 8;

/// An event queue ordered by time, FIFO within a timestamp.
///
/// ```
/// use horus_sim::{Cycles, queue::EventQueue};
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(10), "b");
/// q.schedule(Cycles(5), "a");
/// q.schedule(Cycles(10), "c");
/// assert_eq!(q.pop(), Some((Cycles(5), "a")));
/// assert_eq!(q.pop(), Some((Cycles(10), "b")));
/// assert_eq!(q.pop(), Some((Cycles(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Power-of-two count of day buckets, each sorted by `(time, seq)`.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// log2 of the bucket (day) width in cycles.
    shift: u32,
    len: usize,
    seq: u64,
    now: Cycles,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            shift: 0,
            len: 0,
            seq: 0,
            now: Cycles::ZERO,
        }
    }

    /// The time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, time: Cycles) -> usize {
        ((time.0 >> self.shift) & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current time — events cannot
    /// be scheduled in the past.
    pub fn schedule(&mut self, time: Cycles, event: E) {
        assert!(time >= self.now, "cannot schedule an event in the past");
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let b = self.bucket_of(time);
        let bucket = &mut self.buckets[b];
        // Typical case: times arrive roughly in order, so the entry
        // belongs at the back. Monotonic `seq` means equal-time entries
        // appended after their peers stay in insertion order.
        if !bucket.back().is_some_and(|e| e.time > time) {
            bucket.push_back(entry);
        } else {
            let pos = bucket.partition_point(|e| e.time <= time);
            bucket.insert(pos, entry);
        }
        self.len += 1;
        if self.len > 2 * TARGET_OCCUPANCY * self.buckets.len() && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild();
        }
    }

    /// Schedules `event` `delay` cycles after the current time.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let b = self.next_bucket()?;
        let entry = self.buckets[b]
            .pop_front()
            .expect("next_bucket points at a non-empty bucket");
        self.len -= 1;
        self.now = entry.time;
        if self.buckets.len() > MIN_BUCKETS && self.len < TARGET_OCCUPANCY * self.buckets.len() / 4
        {
            self.rebuild();
        }
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.next_bucket()
            .map(|b| self.buckets[b].front().expect("non-empty bucket").time)
    }

    /// The bucket holding the earliest pending `(time, seq)` entry.
    ///
    /// Scans day by day from the current time (every pending event is at
    /// or after `now`, so nothing can hide behind the scan start). A day
    /// maps to exactly one bucket and a bucket's front is its minimum,
    /// so the first front belonging to the scanned day is the global
    /// minimum. If a whole calendar lap is empty the remaining events
    /// are sparse — fall back to a direct scan of all bucket fronts
    /// (times in distinct buckets are always distinct, so this is
    /// unambiguous).
    fn next_bucket(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let first_day = self.now.0 >> self.shift;
        for day in first_day..first_day + nb {
            let b = (day & (nb - 1)) as usize;
            if let Some(front) = self.buckets[b].front() {
                if front.time.0 >> self.shift == day {
                    return Some(b);
                }
            }
        }
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, bucket)| bucket.front().map(|e| (e.time, i)))
            .min()
            .map(|(_, i)| i)
    }

    /// Removes every event scheduled at or after `cutoff` and returns
    /// them in dispatch order (time, then insertion order), leaving
    /// earlier events queued and the clock untouched. This is the
    /// power-failure primitive: the machine dies at `cutoff`, so nothing
    /// scheduled from that cycle on can ever dispatch.
    pub fn cancel_from(&mut self, cutoff: Cycles) -> Vec<(Cycles, E)> {
        let mut cancelled: Vec<Entry<E>> = Vec::new();
        for bucket in &mut self.buckets {
            // Buckets are time-sorted, so the cancelled range is a suffix.
            let pos = bucket.partition_point(|e| e.time < cutoff);
            cancelled.extend(bucket.drain(pos..));
        }
        self.len -= cancelled.len();
        cancelled.sort_unstable_by_key(|e| (e.time, e.seq));
        if self.buckets.len() > MIN_BUCKETS && self.len < TARGET_OCCUPANCY * self.buckets.len() / 4
        {
            self.rebuild();
        }
        cancelled.into_iter().map(|e| (e.time, e.event)).collect()
    }

    /// Re-sizes the calendar to the current population and re-derives
    /// the day width so one calendar lap roughly covers the pending
    /// time span, then redistributes everything. Existing bucket
    /// buffers are reused (cleared, not dropped) where the new size
    /// allows.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..));
        }
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        let nbuckets = (self.len / TARGET_OCCUPANCY)
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let span = match (entries.first(), entries.last()) {
            (Some(first), Some(last)) => last.time.0 - first.time.0,
            _ => 0,
        };
        let width = (span / nbuckets as u64).max(1);
        self.shift = width.next_power_of_two().trailing_zeros().min(63);
        self.buckets.truncate(nbuckets);
        self.buckets.resize_with(nbuckets, VecDeque::new);
        for entry in entries {
            // Entries arrive in ascending (time, seq) order, so plain
            // appends keep every bucket sorted.
            let b = self.bucket_of(entry.time);
            self.buckets[b].push_back(entry);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), 3);
        q.schedule(Cycles(10), 1);
        q.schedule(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
    }

    #[test]
    fn fifo_within_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(7), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(7));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "first");
        q.pop();
        q.schedule_in(Cycles(5), "second");
        assert_eq!(q.pop(), Some((Cycles(15), "second")));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        q.pop();
        q.schedule(Cycles(5), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles(1), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn sparse_far_future_events_pop_in_order() {
        // Gaps far larger than any sensible day width exercise the
        // direct-scan fallback after an empty calendar lap.
        let mut q = EventQueue::new();
        q.schedule(Cycles(1 << 40), "far");
        q.schedule(Cycles(3), "near");
        q.schedule(Cycles(1 << 50), "farther");
        assert_eq!(q.pop(), Some((Cycles(3), "near")));
        assert_eq!(q.pop(), Some((Cycles(1 << 40), "far")));
        assert_eq!(q.pop(), Some((Cycles(1 << 50), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "4096-event population is minutes under miri")]
    fn grows_and_shrinks_across_rebuilds() {
        // Push enough to force several grow rebuilds, interleave pops to
        // force shrink rebuilds, and verify global order throughout.
        let mut q = EventQueue::new();
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut times: Vec<u64> = (0..4096)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) % 100_000
            })
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i);
        }
        times.sort_unstable();
        let mut last = (Cycles::ZERO, 0usize);
        for &expect in &times {
            let (t, i) = q.pop().expect("queue still has events");
            assert_eq!(t.0, expect);
            // FIFO among equal timestamps: insertion index must rise.
            assert!(t > last.0 || i > last.1, "tie broke insertion order");
            last = (t, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_from_splits_at_cutoff_in_dispatch_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "keep-a");
        q.schedule(Cycles(50), "cut-b");
        q.schedule(Cycles(50), "cut-c");
        q.schedule(Cycles(49), "keep-d");
        q.schedule(Cycles(70), "cut-e");
        let cancelled = q.cancel_from(Cycles(50));
        assert_eq!(
            cancelled,
            vec![
                (Cycles(50), "cut-b"),
                (Cycles(50), "cut-c"),
                (Cycles(70), "cut-e"),
            ]
        );
        assert_eq!(q.now(), Cycles::ZERO, "cancellation leaves the clock");
        assert_eq!(q.pop(), Some((Cycles(10), "keep-a")));
        assert_eq!(q.pop(), Some((Cycles(49), "keep-d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "2000-event population is minutes under miri")]
    fn cancel_from_large_population_matches_reference() {
        let mut q = EventQueue::new();
        let mut reference = Vec::new();
        let mut s: u64 = 42;
        for i in 0..2000usize {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = (s >> 33) % 4096;
            q.schedule(Cycles(t), i);
            reference.push((Cycles(t), i));
        }
        reference.sort_by_key(|&(t, i)| (t, i));
        let expected_cut: Vec<_> = reference
            .iter()
            .copied()
            .filter(|&(t, _)| t >= Cycles(2048))
            .collect();
        let expected_keep: Vec<_> = reference
            .iter()
            .copied()
            .filter(|&(t, _)| t < Cycles(2048))
            .collect();
        assert_eq!(q.cancel_from(Cycles(2048)), expected_cut);
        let mut kept = Vec::new();
        while let Some(e) = q.pop() {
            kept.push(e);
        }
        assert_eq!(kept, expected_keep);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Event-driven usage: each pop schedules follow-ups relative to
        // the advanced clock, like a bank completion chaining a retry.
        let mut q = EventQueue::new();
        q.schedule(Cycles(0), 0u64);
        let mut popped = Vec::new();
        while let Some((t, gen)) = q.pop() {
            popped.push(t);
            if gen < 8 {
                q.schedule_in(Cycles(3), gen + 1);
                q.schedule_in(Cycles(7), gen + 1);
            }
            assert!(popped.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(popped.len(), (1 << 9) - 1);
    }
}
