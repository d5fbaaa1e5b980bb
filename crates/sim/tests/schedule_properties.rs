//! Property tests for the slot scheduler: whatever the arrival order,
//! the schedule must respect readiness, capacity, and work conservation.

use horus_sim::rng::{check, default_cases, Rng};
use horus_sim::schedule::{SlotBankSet, SlotResource};
use horus_sim::Completion;
use horus_sim::Cycles;
use std::collections::BTreeMap;

/// A pipelined resource never starts an op before it is ready, never
/// exceeds one initiation per interval, and never reorders two ops
/// into the same slot.
#[test]
fn pipelined_schedule_is_feasible() {
    check("pipelined_schedule_is_feasible", default_cases(), |rng| {
        let readies = rng.vec(1..200, |r| r.below(10_000));
        let interval = rng.range(1..100);
        let mut r = SlotResource::pipelined("p", Cycles(160), Cycles(interval));
        let mut starts = Vec::new();
        for ready in &readies {
            let c = r.issue(Cycles(*ready));
            assert!(c.start.0 >= *ready, "started before ready");
            assert_eq!(c.done.0, c.start.0 + 160);
            starts.push(c.start.0);
        }
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(
                w[1] - w[0] >= interval,
                "two initiations within one interval"
            );
        }
    });
}

/// An exclusive resource's total busy time equals the work demanded
/// (work conservation): quantized occupancy is exactly
/// sum(ceil(latency/quantum)) * quantum.
#[test]
fn exclusive_schedule_conserves_work() {
    check(
        "exclusive_schedule_conserves_work",
        default_cases(),
        |rng| {
            let ops = rng.vec(1..100, |r| (r.below(5_000), r.range(1..3_000)));
            let quantum = [100u64, 200, 500][rng.below(3) as usize];
            let mut r = SlotResource::exclusive("b", Cycles(2000), quantum);
            let mut demand = 0u64;
            for (ready, latency) in &ops {
                let c = r.issue_for(Cycles(*ready), Cycles(*latency));
                assert!(c.start.0 >= *ready);
                assert!(c.done.0 >= c.start.0 + *latency);
                demand += latency.div_ceil(quantum) * quantum;
            }
            assert_eq!(r.occupied_cycles(), demand);
            assert_eq!(r.ops(), ops.len() as u64);
            // Slots are disjoint, so the makespan can never beat perfect
            // packing of the demand.
            assert!(
                r.busy_until().0 >= demand,
                "makespan {} below total demand {}",
                r.busy_until(),
                demand
            );
        },
    );
}

/// Issue order must not change aggregate throughput: issuing the
/// same ready times forward or reversed gives the same busy_until
/// for a pipelined engine (backfill property).
#[test]
fn order_independence_of_makespan() {
    check("order_independence_of_makespan", default_cases(), |rng| {
        let mut readies = rng.vec(1..100, |r| r.below(2_000));
        let run = |rs: &[u64]| {
            let mut r = SlotResource::pipelined("p", Cycles(160), Cycles(40));
            for x in rs {
                r.issue(Cycles(*x));
            }
            r.busy_until()
        };
        let forward = run(&readies);
        readies.reverse();
        let backward = run(&readies);
        assert_eq!(forward, backward);
    });
}

/// The scheduler the paged bitset replaced, kept as an oracle: sparse
/// occupancy as an ordered map of coalesced occupied runs
/// (`start -> end`, end exclusive), one probe per claimed slot.
struct RunMapScheduler {
    quantum: u64,
    exclusive: bool,
    runs: BTreeMap<u64, u64>,
    busy_until: Cycles,
    occupied_slots: u64,
    frontier: u64,
}

impl RunMapScheduler {
    fn new(quantum: u64, exclusive: bool) -> Self {
        RunMapScheduler {
            quantum,
            exclusive,
            runs: BTreeMap::new(),
            busy_until: Cycles::ZERO,
            occupied_slots: 0,
            frontier: 0,
        }
    }

    /// The earliest free slot at or after `start`: `start` itself unless
    /// it falls inside an occupied run, in which case the run's end.
    fn find(&self, start: u64) -> u64 {
        match self.runs.range(..=start).next_back() {
            Some((_, &end)) if start < end => end,
            _ => start,
        }
    }

    /// Claims the free slot `slot`, coalescing it into adjacent runs.
    fn take(&mut self, slot: u64) {
        let succ_end = self.runs.remove(&(slot + 1));
        let end = succ_end.unwrap_or(slot + 1);
        match self.runs.range_mut(..=slot).next_back() {
            Some((_, pred_end)) if *pred_end == slot => *pred_end = end,
            _ => {
                self.runs.insert(slot, end);
            }
        }
        self.occupied_slots += 1;
        self.frontier = self.frontier.max(slot + 1);
    }

    fn issue_for(&mut self, ready: Cycles, latency: Cycles) -> Completion {
        let k = if self.exclusive {
            (latency.0.div_ceil(self.quantum)).max(1)
        } else {
            1
        };
        let first = self.find(ready.0.div_ceil(self.quantum));
        self.take(first);
        let mut last = first;
        for _ in 1..k {
            last = self.find(last + 1);
            self.take(last);
        }
        let start = Cycles(first * self.quantum);
        let done = Cycles(((last + 1) * self.quantum).max(start.0 + latency.0));
        self.busy_until = self.busy_until.max(done);
        Completion { start, done }
    }

    fn reset(&mut self) {
        *self = RunMapScheduler::new(self.quantum, self.exclusive);
    }
}

/// A ready time (in cycles) from a mix of the shapes that stress the
/// free-slot search: bursts at zero, out-of-order readies, readies on
/// word and page boundaries, readies next to the frontier, and
/// far-future readies above 2^32 slots.
fn ready_time(rng: &mut Rng, quantum: u64, frontier: u64) -> Cycles {
    let slot = match rng.below(6) {
        0 => 0,
        1 => rng.below(20_000),
        2 => {
            let edge = [63u64, 64, 4095, 4096, 8191, 8192][rng.below(6) as usize];
            (edge + rng.below(3)).saturating_sub(1)
        }
        3 => frontier / quantum + rng.below(8),
        4 => (1 << 32) + rng.below(10_000),
        _ => rng.below(frontier / quantum + 1),
    };
    // Unaligned readies round up to the next slot boundary.
    Cycles((slot * quantum).saturating_sub(rng.below(quantum)))
}

/// The paged-bitset scheduler picks exactly the slots the run-map
/// scheduler picks: same completions and the same busy, occupancy and
/// frontier counters after every issue, for pipelined and exclusive
/// resources, across resets.
#[test]
fn paged_bitset_matches_run_map_oracle() {
    check(
        "paged_bitset_matches_run_map_oracle",
        default_cases(),
        |rng| {
            let exclusive = rng.chance(0.5);
            let quantum = rng.range(1..257);
            let latency = Cycles([600, 2000, rng.range(1..5_000)][rng.below(3) as usize]);
            let mut fast = if exclusive {
                SlotResource::exclusive("x", latency, quantum)
            } else {
                SlotResource::pipelined("p", latency, Cycles(quantum))
            };
            let mut oracle = RunMapScheduler::new(quantum, exclusive);
            for i in 0..rng.range(1..400) {
                if rng.chance(0.01) {
                    fast.reset();
                    oracle.reset();
                }
                let ready = ready_time(rng, quantum, fast.frontier_cycles());
                let latency = match rng.below(4) {
                    0 => Cycles(600),
                    1 => Cycles(2000),
                    2 => Cycles(rng.range(1..5_000)),
                    _ => latency,
                };
                let got = fast.issue_for(ready, latency);
                let want = oracle.issue_for(ready, latency);
                assert_eq!(got, want, "op {i}: ready {ready}, latency {latency}");
                assert_eq!(fast.busy_until(), oracle.busy_until, "op {i}");
                assert_eq!(
                    fast.occupied_cycles(),
                    oracle.occupied_slots * quantum,
                    "op {i}"
                );
                assert_eq!(fast.frontier_cycles(), oracle.frontier * quantum, "op {i}");
            }
        },
    );
}

/// FNV-1a digest of the `(start, done)` pairs of a fixed 20k-op mixed
/// read/write stream on a 16-bank set, pinned so any change to which
/// slots the banks pick shows up as a digest change. The value was
/// captured from the run-map scheduler above.
#[test]
fn bank_set_stream_golden() {
    let mut rng = Rng::seed_from_u64(13);
    let mut banks = SlotBankSet::new("pcm-bank", 16, Cycles(2000));
    let mut t = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..20_000 {
        t += rng.below(300);
        let ready = if rng.chance(0.25) {
            t + rng.below(50_000)
        } else {
            t
        };
        let address = rng.below(1 << 30) & !63;
        let latency = if rng.chance(0.5) { 600 } else { 2000 };
        let c = banks.issue_addr_for(address, Cycles(ready), Cycles(latency));
        for word in [c.start.0, c.done.0] {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(banks.ops(), 20_000);
    assert_eq!(digest, 0xd47c_b1f5_37b3_8eb7, "digest {digest:#018x}");
}
