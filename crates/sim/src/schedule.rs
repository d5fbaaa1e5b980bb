//! Out-of-order slot-scheduled resources.
//!
//! A resource that serves requests in *call* order models an in-order
//! pipeline. That is wrong for a drain engine: the simulator walks
//! flushed blocks one at a time, so the last (late) operation of block
//! *i* is issued before the first (early) operation of block *i+1* — an
//! in-order resource would make the late op's start time gate the early
//! op and serialize entire dependency chains end to end.
//!
//! [`SlotResource`] instead keeps an explicit schedule of occupancy
//! slots and lets a request claim the earliest free slot at or after its
//! ready time, regardless of call order — the backfilling behaviour of
//! a real banked device or pipelined engine with a request queue.
//! Occupancy is a paged bitset: 4096-slot pages, allocated on first
//! claim and keyed by page index, each with a summary word of which
//! occupancy words are full. Finding a free slot costs at most two
//! `trailing_zeros` per page visited, and a hint past the claimed prefix
//! lets ready-at-zero streams skip it outright.

use crate::clock::Cycles;
use crate::fxhash::FxHashMap;
use crate::trace::{Probe, TraceEvent};

/// The outcome of scheduling an operation on a [`SlotResource`].
///
/// Callers chain completions to express data dependencies (e.g. "the
/// MAC computation starts when the ciphertext is ready").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the resource actually accepted the operation (≥ the request
    /// time if the resource was busy).
    pub start: Cycles,
    /// When the result is available.
    pub done: Cycles,
}

/// Slots per occupancy page, as a shift: 64 words of 64 bits.
const PAGE_SHIFT: u32 = 12;
/// Slots per occupancy page.
const PAGE_SLOTS: u64 = 1 << PAGE_SHIFT;

/// 4096 consecutive slots of a [`SlotResource`] schedule.
#[derive(Debug, Clone)]
struct Page {
    /// Bit `b` of `words[w]` is set when slot `64 * w + b` (relative to
    /// the page's first slot) is claimed.
    words: [u64; 64],
    /// Bit `w` is set when `words[w]` is full.
    full: u64,
}

impl Page {
    fn empty() -> Box<Page> {
        Box::new(Page {
            words: [0; 64],
            full: 0,
        })
    }

    /// The first free offset at or after `off` (< [`PAGE_SLOTS`]), if any.
    fn find(&self, off: u64) -> Option<u64> {
        let w = (off >> 6) as usize;
        let free = !self.words[w] & (u64::MAX << (off & 63));
        if free != 0 {
            return Some(off & !63 | u64::from(free.trailing_zeros()));
        }
        let later = !self.full & u64::MAX.checked_shl(w as u32 + 1).unwrap_or(0);
        if later == 0 {
            return None;
        }
        let w = later.trailing_zeros();
        Some(u64::from(w) << 6 | u64::from((!self.words[w as usize]).trailing_zeros()))
    }

    /// Claims up to `*left` of the lowest free offsets at or after `off`,
    /// decrementing `*left` per claim; returns the first and last offsets
    /// claimed, or `None` when no slot at or after `off` is free.
    fn claim(&mut self, off: u64, left: &mut u64) -> Option<(u64, u64)> {
        let first = self.find(off)?;
        let mut at = first;
        loop {
            let w = (at >> 6) as usize;
            let mut free = !self.words[w] & (u64::MAX << (at & 63));
            let mut take = 0;
            while *left > 0 && free != 0 {
                let bit = free & free.wrapping_neg();
                take |= bit;
                free ^= bit;
                *left -= 1;
            }
            self.words[w] |= take;
            if self.words[w] == u64::MAX {
                self.full |= 1 << w;
            }
            let last = at & !63 | u64::from(63 - take.leading_zeros());
            if *left == 0 || last + 1 == PAGE_SLOTS {
                return Some((first, last));
            }
            match self.find(last + 1) {
                Some(next) => at = next,
                None => return Some((first, last)),
            }
        }
    }
}

/// A hardware resource scheduled on fixed-size occupancy slots, serving
/// requests in ready-time order rather than call order.
///
/// * A **pipelined** engine (AES, hash) occupies one slot of size equal
///   to its initiation interval per operation; results appear after the
///   full latency.
/// * An **exclusive** device (a PCM bank) occupies `ceil(latency /
///   quantum)` slots — it is busy for the whole operation — taking the
///   lowest free slots from its ready slot on.
///
/// ```
/// use horus_sim::{Cycles, schedule::SlotResource};
/// let mut hash = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
/// // A late op…
/// let late = hash.issue(Cycles(10_000));
/// // …does not delay an earlier-ready op issued afterwards (backfill):
/// let early = hash.issue(Cycles(0));
/// assert_eq!(early.start, Cycles(0));
/// assert_eq!(late.start, Cycles(10_000));
/// ```
#[derive(Debug, Clone)]
pub struct SlotResource {
    name: &'static str,
    latency: Cycles,
    quantum: u64,
    /// Occupancy pages by `slot >> PAGE_SHIFT`. Sparse because slot
    /// indices scale with simulated *time* — a long serial recovery
    /// reaches billions of cycles — while pages are allocated only on a
    /// claim, so there are never more pages than claimed slots.
    pages: FxHashMap<u64, Box<Page>>,
    /// Every slot below this one is claimed. Slots are only released by
    /// [`SlotResource::reset`], so the hint only moves forward.
    first_free: u64,
    exclusive: bool,
    ops: u64,
    busy_until: Cycles,
    occupied_slots: u64,
    frontier: u64,
    probe: Probe,
}

impl SlotResource {
    /// A pipelined engine: one slot of `interval` per op, `latency` to
    /// the result.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn pipelined(name: &'static str, latency: Cycles, interval: Cycles) -> Self {
        assert!(
            interval.0 > 0,
            "initiation interval must be at least 1 cycle"
        );
        Self {
            name,
            latency,
            quantum: interval.0,
            pages: FxHashMap::default(),
            first_free: 0,
            exclusive: false,
            ops: 0,
            busy_until: Cycles::ZERO,
            occupied_slots: 0,
            frontier: 0,
            probe: Probe::disabled(),
        }
    }

    /// An exclusive device: each op occupies `ceil(latency / quantum)`
    /// slots (see [`SlotResource::issue_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[must_use]
    pub fn exclusive(name: &'static str, latency: Cycles, quantum: u64) -> Self {
        assert!(quantum > 0, "slot quantum must be at least 1 cycle");
        Self {
            name,
            latency,
            quantum,
            pages: FxHashMap::default(),
            first_free: 0,
            exclusive: true,
            ops: 0,
            busy_until: Cycles::ZERO,
            occupied_slots: 0,
            frontier: 0,
            probe: Probe::disabled(),
        }
    }

    /// The resource's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The default per-operation latency.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Operations issued so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// When the busiest scheduled operation completes.
    #[must_use]
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Fraction-free diagnostic: total occupied slot time in cycles.
    #[must_use]
    pub fn occupied_cycles(&self) -> u64 {
        self.occupied_slots * self.quantum
    }

    /// The schedule frontier: the end (in cycles) of the furthest slot
    /// ever claimed. `busy_until` can exceed this by a latency tail.
    #[must_use]
    pub fn frontier_cycles(&self) -> u64 {
        self.frontier * self.quantum
    }

    /// Claims the `k` lowest free slots at or after `from` and returns
    /// the first and last of them.
    fn claim(&mut self, from: u64, k: u64) -> (u64, u64) {
        let mut at = from.max(self.first_free);
        let mut left = k;
        let mut first = None;
        let mut last = at;
        while left > 0 {
            let base = at & !(PAGE_SLOTS - 1);
            // A missing page is empty, so the claim below always lands
            // in it: pages are only allocated for claimed slots.
            let page = self
                .pages
                .entry(at >> PAGE_SHIFT)
                .or_insert_with(Page::empty);
            if let Some((f, l)) = page.claim(at - base, &mut left) {
                first.get_or_insert(base + f);
                last = base + l;
            }
            at = base + PAGE_SLOTS;
        }
        if from <= self.first_free {
            // The claim took the lowest free slots overall, so everything
            // up to `last` is now claimed.
            self.first_free = last + 1;
        }
        self.occupied_slots += k;
        self.frontier = self.frontier.max(last + 1);
        (first.expect("k is at least 1"), last)
    }

    /// Occupancy pages allocated so far.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Issues an operation with the default latency, ready at `ready`.
    pub fn issue(&mut self, ready: Cycles) -> Completion {
        self.issue_for(ready, self.latency)
    }

    /// Like [`SlotResource::issue`], labelling the operation `name` in
    /// the probe's trace.
    pub fn issue_named(&mut self, name: &str, ready: Cycles) -> Completion {
        self.issue_for_named(name, ready, self.latency)
    }

    /// Like [`SlotResource::issue_for`], labelling the operation `name`
    /// in the probe's trace.
    pub fn issue_for_named(&mut self, name: &str, ready: Cycles, latency: Cycles) -> Completion {
        let completion = self.schedule(ready, latency);
        self.probe.record(name, ready, completion);
        completion
    }

    /// Starts recording issued operations under the resource's own name.
    pub fn enable_probe(&mut self) {
        self.probe.enable(self.name);
    }

    /// Starts recording under an explicit track label (bank sets use
    /// bank-indexed labels, e.g. `"pcm-bank[3]"`).
    pub fn enable_probe_as(&mut self, track: String) {
        self.probe.enable(track);
    }

    /// Whether a probe is attached; callers can skip building operation
    /// labels when this is `false`.
    #[must_use]
    pub fn probe_enabled(&self) -> bool {
        self.probe.enabled()
    }

    /// Drains the probe's recorded events (empty when disabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.probe.take()
    }

    /// Issues an operation with an explicit latency (banks serving mixed
    /// reads and writes).
    ///
    /// A pipelined resource claims one initiation slot; an exclusive one
    /// claims `ceil(latency / quantum)` slots. Exclusive slots need not
    /// be contiguous — the device is work-conserving, so contention with
    /// already-scheduled operations stretches this operation's completion
    /// instead of leaving the device idle (the behaviour of a device
    /// front-end that interleaves queued requests).
    pub fn issue_for(&mut self, ready: Cycles, latency: Cycles) -> Completion {
        let completion = self.schedule(ready, latency);
        self.probe.record("op", ready, completion);
        completion
    }

    fn schedule(&mut self, ready: Cycles, latency: Cycles) -> Completion {
        let k = if self.exclusive {
            (latency.0.div_ceil(self.quantum)).max(1)
        } else {
            1
        };
        let (first, last) = self.claim(ready.0.div_ceil(self.quantum), k);
        let start = Cycles(first * self.quantum);
        let done = Cycles(((last + 1) * self.quantum).max(start.0 + latency.0));
        self.busy_until = self.busy_until.max(done);
        self.ops += 1;
        Completion { start, done }
    }

    /// Resets the schedule and counters (a new measurement episode). An
    /// attached probe stays attached but its buffer is dropped.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.first_free = 0;
        self.ops = 0;
        self.busy_until = Cycles::ZERO;
        self.occupied_slots = 0;
        self.frontier = 0;
        self.probe.clear();
    }
}

/// A group of identical [`SlotResource`]s selected by XOR-folded address
/// interleaving, modelling banked memory with backfilling banks.
#[derive(Debug, Clone)]
pub struct SlotBankSet {
    banks: Vec<SlotResource>,
}

impl SlotBankSet {
    /// Slot quantum used by banks: 200 cycles divides both the 600-cycle
    /// read and the 2000-cycle write exactly at the paper's 4 GHz.
    pub const BANK_QUANTUM: u64 = 200;

    /// Creates `n` exclusive banks with a default latency.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(name: &'static str, n: usize, latency: Cycles) -> Self {
        assert!(n > 0, "bank set must contain at least one bank");
        Self {
            banks: vec![SlotResource::exclusive(name, latency, Self::BANK_QUANTUM); n],
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether the set is empty (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// The bank an address maps to (XOR-folded block index, the bank-
    /// address hashing real controllers use so strided streams spread).
    #[must_use]
    pub fn bank_of(&self, address: u64) -> usize {
        let idx = address >> 6;
        let folded = idx ^ (idx >> 4) ^ (idx >> 8) ^ (idx >> 12) ^ (idx >> 16) ^ (idx >> 24);
        (folded % self.banks.len() as u64) as usize
    }

    /// Issues an operation with an explicit latency on the bank owning
    /// `address`.
    pub fn issue_addr_for(&mut self, address: u64, ready: Cycles, latency: Cycles) -> Completion {
        let bank = self.bank_of(address);
        self.banks[bank].issue_for(ready, latency)
    }

    /// Like [`SlotBankSet::issue_addr_for`], labelling the operation
    /// `name` in the owning bank's trace.
    pub fn issue_addr_for_named(
        &mut self,
        name: &str,
        address: u64,
        ready: Cycles,
        latency: Cycles,
    ) -> Completion {
        let bank = self.bank_of(address);
        self.banks[bank].issue_for_named(name, ready, latency)
    }

    /// Starts recording per-bank traces under bank-indexed tracks
    /// (`"pcm-bank[0]"`, `"pcm-bank[1]"`, …).
    pub fn enable_probe(&mut self) {
        for (i, b) in self.banks.iter_mut().enumerate() {
            let track = format!("{}[{i}]", b.name());
            b.enable_probe_as(track);
        }
    }

    /// Whether the banks record traces.
    #[must_use]
    pub fn probe_enabled(&self) -> bool {
        self.banks.first().is_some_and(SlotResource::probe_enabled)
    }

    /// Drains every bank's recorded events, in bank-index order.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.banks
            .iter_mut()
            .flat_map(SlotResource::take_trace)
            .collect()
    }

    /// Total operations across all banks.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.banks.iter().map(SlotResource::ops).sum()
    }

    /// Completion time of the last scheduled operation.
    #[must_use]
    pub fn busy_until(&self) -> Cycles {
        self.banks
            .iter()
            .map(SlotResource::busy_until)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Resets all banks.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_throughput_is_one_per_interval() {
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
        let c0 = r.issue(Cycles(0));
        let c1 = r.issue(Cycles(0));
        let c2 = r.issue(Cycles(0));
        assert_eq!(
            c0,
            Completion {
                start: Cycles(0),
                done: Cycles(160)
            }
        );
        assert_eq!(
            c1,
            Completion {
                start: Cycles(40),
                done: Cycles(200)
            }
        );
        assert_eq!(
            c2,
            Completion {
                start: Cycles(80),
                done: Cycles(240)
            }
        );
        assert_eq!(r.ops(), 3);
    }

    #[test]
    fn backfill_lets_early_ops_pass_late_ones() {
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
        let late = r.issue(Cycles(8_000));
        let early = r.issue(Cycles(0));
        assert_eq!(late.start, Cycles(8_000));
        assert_eq!(
            early.start,
            Cycles(0),
            "early op must not be gated by the late one"
        );
    }

    #[test]
    fn exclusive_occupies_whole_duration() {
        let mut bank = SlotResource::exclusive("pcm", Cycles(2000), 200);
        let a = bank.issue(Cycles(0));
        let b = bank.issue(Cycles(0));
        assert_eq!(
            a,
            Completion {
                start: Cycles(0),
                done: Cycles(2000)
            }
        );
        assert_eq!(
            b,
            Completion {
                start: Cycles(2000),
                done: Cycles(4000)
            }
        );
    }

    #[test]
    fn exclusive_mixed_latencies_backfill_gaps() {
        let mut bank = SlotResource::exclusive("pcm", Cycles(2000), 200);
        // A write far in the future leaves the early slots free.
        let w = bank.issue_for(Cycles(10_000), Cycles(2000));
        assert_eq!(w.start, Cycles(10_000));
        // A read ready now backfills the gap.
        let r = bank.issue_for(Cycles(0), Cycles(600));
        assert_eq!(r.start, Cycles(0));
        assert_eq!(r.done, Cycles(600));
        // Another write must fit before the scheduled one or after it;
        // the gap 600..10000 fits it.
        let w2 = bank.issue_for(Cycles(0), Cycles(2000));
        assert_eq!(w2.start, Cycles(600));
    }

    #[test]
    fn contention_stretches_completion() {
        let mut bank = SlotResource::exclusive("pcm", Cycles(2000), 200);
        // Occupy slots 3..4 (600..1000).
        let r = bank.issue_for(Cycles(600), Cycles(400));
        assert_eq!(r.start, Cycles(600));
        // A 2000-cycle op ready at 0 starts immediately but is
        // interleaved around the busy window, finishing 2 slots late.
        let w = bank.issue_for(Cycles(0), Cycles(2000));
        assert_eq!(w.start, Cycles(0));
        assert_eq!(w.done, Cycles(2400));
        // The device was never idle while work was pending.
        assert_eq!(bank.occupied_cycles(), 2400);
    }

    #[test]
    fn ready_rounds_up_to_slot_boundary() {
        let mut r = SlotResource::pipelined("aes", Cycles(40), Cycles(2));
        let c = r.issue(Cycles(3));
        assert_eq!(c.start, Cycles(4));
    }

    #[test]
    fn reset_clears_schedule() {
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
        r.issue(Cycles(0));
        assert!(r.occupied_cycles() > 0);
        r.reset();
        assert_eq!(r.ops(), 0);
        assert_eq!(r.busy_until(), Cycles::ZERO);
        assert_eq!(r.issue(Cycles(0)).start, Cycles(0));
    }

    #[test]
    fn bank_set_spreads_and_serializes_per_bank() {
        let mut banks = SlotBankSet::new("pcm", 4, Cycles(2000));
        assert_eq!(banks.len(), 4);
        assert!(!banks.is_empty());
        let done: Vec<_> = (0..4)
            .map(|i| banks.issue_addr_for(i * 64, Cycles(0), Cycles(2000)).done)
            .collect();
        assert!(done.iter().all(|d| *d == Cycles(2000)), "{done:?}");
        assert_eq!(banks.ops(), 4);
        banks.reset();
        assert_eq!(banks.ops(), 0);
    }

    #[test]
    fn probe_captures_slot_issues_without_changing_timing() {
        let mut plain = SlotResource::exclusive("pcm-bank", Cycles(2000), 200);
        let mut probed = SlotResource::exclusive("pcm-bank", Cycles(2000), 200);
        probed.enable_probe();
        for i in 0..4u64 {
            let a = plain.issue_for(Cycles(i * 100), Cycles(600));
            let b = probed.issue_for_named("read.counter", Cycles(i * 100), Cycles(600));
            assert_eq!(a, b);
        }
        assert!(plain.take_trace().is_empty());
        let trace = probed.take_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].track, "pcm-bank");
        assert_eq!(trace[0].name, "read.counter");
        // Unnamed issues on a probed resource still show up as "op".
        probed.issue(Cycles(0));
        assert_eq!(probed.take_trace()[0].name, "op");
        probed.reset();
        assert!(probed.probe_enabled());
        assert!(probed.take_trace().is_empty());
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_interval_rejected() {
        let _ = SlotResource::pipelined("bad", Cycles(10), Cycles(0));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn empty_bank_set_rejected() {
        let _ = SlotBankSet::new("pcm", 0, Cycles(1));
    }

    #[test]
    fn slot_bank_set_probe_uses_indexed_tracks() {
        let mut banks = SlotBankSet::new("pcm-bank", 4, Cycles(2000));
        banks.enable_probe();
        assert!(banks.probe_enabled());
        banks.issue_addr_for_named("write.data", 0, Cycles(0), Cycles(2000));
        banks.issue_addr_for_named("read.counter", 64, Cycles(0), Cycles(600));
        let trace = banks.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].track, "pcm-bank[0]");
        assert_eq!(trace[1].track, "pcm-bank[1]");
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k issued ops are minutes under miri")]
    fn heavy_out_of_order_load_is_throughput_bound() {
        // 10k ops, issued in reverse-ready order, on a 40-cycle-interval
        // pipeline: total time must be ~10k * 40, not 10k * (chain gap).
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
        for i in (0..10_000u64).rev() {
            r.issue(Cycles(i * 7));
        }
        let bound = Cycles(10_000 * 40 + 70_000 + 160);
        assert!(r.busy_until() <= bound, "{} > {}", r.busy_until(), bound);
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;

    #[test]
    fn far_future_slots_cost_memory_proportional_to_ops() {
        // The regression this representation fixes: a serial chain
        // reaching billions of cycles must not allocate storage
        // proportional to time.
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(2));
        let mut t = Cycles::ZERO;
        for _ in 0..1_000 {
            // Chain ops two million cycles apart: the last op lands at
            // slot index ~10^9.
            let c = r.issue(t);
            t = c.done + Cycles(2_000_000);
        }
        assert_eq!(r.ops(), 1_000);
        assert!(r.frontier_cycles() > 1_000_000_000, "reached far slots");
        assert_eq!(r.occupied_cycles(), 1_000 * 2);
        // Pages are allocated per claim, not per span of time: at most
        // one page per op, against the ~2.4e5 pages the span covers.
        assert!(r.pages() <= 1_000, "{} pages for 1000 ops", r.pages());
        r.reset();
        assert_eq!(r.pages(), 0);
    }

    #[test]
    fn dense_claims_fill_whole_pages() {
        // One exclusive op of 3 * 4096 slots fills exactly three pages,
        // and the claimed-prefix hint sends the next op straight past.
        let mut bank = SlotResource::exclusive("pcm", Cycles(1), 1);
        let c = bank.issue_for(Cycles::ZERO, Cycles(3 * PAGE_SLOTS));
        assert_eq!((c.start, c.done), (Cycles(0), Cycles(3 * PAGE_SLOTS)));
        assert_eq!(bank.pages(), 3);
        assert_eq!(bank.issue(Cycles::ZERO).start, Cycles(3 * PAGE_SLOTS));
        assert_eq!(bank.pages(), 4);
    }

    #[test]
    fn exclusive_claims_skip_across_word_and_page_boundaries() {
        let mut bank = SlotResource::exclusive("pcm", Cycles(10), 1);
        // Occupy slots 62, 64 and 4095 with one-slot ops.
        for s in [62, 64, PAGE_SLOTS - 1] {
            assert_eq!(bank.issue_for(Cycles(s), Cycles(1)).start, Cycles(s));
        }
        // Ten slots from 60: 60, 61, 63, 65..=71.
        let c = bank.issue_for(Cycles(60), Cycles(10));
        assert_eq!((c.start, c.done), (Cycles(60), Cycles(72)));
        // Three slots from 4094: 4094, then 4096 and 4097 on the next page.
        let c = bank.issue_for(Cycles(PAGE_SLOTS - 2), Cycles(3));
        assert_eq!(
            (c.start, c.done),
            (Cycles(PAGE_SLOTS - 2), Cycles(PAGE_SLOTS + 2))
        );
        assert_eq!(bank.pages(), 2);
        assert_eq!(bank.occupied_cycles(), 3 + 10 + 3);
        assert_eq!(bank.frontier_cycles(), PAGE_SLOTS + 2);
    }

    #[test]
    fn sparse_and_dense_behaviour_agree_on_bursts() {
        let mut r = SlotResource::pipelined("hash", Cycles(160), Cycles(40));
        // A burst of ready-at-zero ops serializes at the interval.
        let starts: Vec<u64> = (0..50).map(|_| r.issue(Cycles::ZERO).start.0).collect();
        for (i, s) in starts.iter().enumerate() {
            assert_eq!(*s, i as u64 * 40);
        }
    }
}
