//! The timed NVM front end: functional device + bank timing + accounting.

use crate::crash::{torn_block, CrashOutcome, JournalEntry, TornWriteModel};
use crate::wear::WearTracker;
use crate::{Block, NvmDevice, BLOCK_SIZE};
use horus_sim::{
    Completion, Cycles, Frequency, KindCounters, PowerFailure, SlotBankSet, Stats, TraceEvent,
    WriteFate,
};
use serde::{Deserialize, Serialize};

/// PCM device and channel parameters.
///
/// Defaults are the paper's Table I: 150 ns reads, 500 ns writes, one
/// DDR-based PCM channel modelled with 16 independent banks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Read latency in nanoseconds.
    pub read_ns: f64,
    /// Write latency in nanoseconds.
    pub write_ns: f64,
    /// Number of independently-timed banks.
    pub banks: usize,
    /// The core clock used to express latencies in cycles.
    pub frequency: Frequency,
}

impl NvmConfig {
    /// The paper's Table I memory configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            read_ns: 150.0,
            write_ns: 500.0,
            banks: 16,
            frequency: Frequency::ghz(4),
        }
    }
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The timed, accounted NVM system.
///
/// Every access names a request *kind* (e.g. `"data"`, `"counter"`,
/// `"tree"`, `"chv_data"`); counts accumulate under `mem.read.<kind>` /
/// `mem.write.<kind>` so experiment harnesses can reproduce the request
/// breakdowns of the paper's Figures 6 and 12 directly from the registry.
/// Kinds are string literals: each one's counter is resolved once and
/// then bumped by id.
#[derive(Debug, Clone)]
pub struct NvmSystem {
    config: NvmConfig,
    device: NvmDevice,
    banks: SlotBankSet,
    read_latency: Cycles,
    write_latency: Cycles,
    stats: Stats,
    reads: KindCounters,
    writes: KindCounters,
    /// Armed only during crash-point experiments: records every write's
    /// pre-image and service window so a power failure can be applied
    /// post hoc.
    journal: Option<Vec<JournalEntry>>,
}

impl NvmSystem {
    /// Creates a zeroed NVM system.
    #[must_use]
    pub fn new(config: NvmConfig) -> Self {
        let read_latency = config.frequency.ns_to_cycles(config.read_ns);
        let write_latency = config.frequency.ns_to_cycles(config.write_ns);
        Self {
            config,
            device: NvmDevice::new(),
            banks: SlotBankSet::new("pcm-bank", config.banks, write_latency),
            read_latency,
            write_latency,
            stats: Stats::new(),
            reads: KindCounters::new("mem.read."),
            writes: KindCounters::new("mem.write."),
            journal: None,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// Read latency in cycles.
    #[must_use]
    pub fn read_latency(&self) -> Cycles {
        self.read_latency
    }

    /// Write latency in cycles.
    #[must_use]
    pub fn write_latency(&self) -> Cycles {
        self.write_latency
    }

    /// The accounting registry (`mem.read.*` / `mem.write.*`).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Direct access to the functional store, bypassing timing and
    /// accounting. Used by attackers (who do not pay the controller's
    /// costs) and by test setup.
    pub fn device_mut(&mut self) -> &mut NvmDevice {
        &mut self.device
    }

    /// Read-only access to the functional store.
    #[must_use]
    pub fn device(&self) -> &NvmDevice {
        &self.device
    }

    /// Timed read of the block at `addr`, attributed to `kind`.
    pub fn read(&mut self, addr: u64, kind: &'static str, ready: Cycles) -> (Block, Completion) {
        let (block, completion) = self.read_written(addr, kind, ready);
        (block.unwrap_or([0u8; BLOCK_SIZE]), completion)
    }

    /// Timed read of the block at `addr`, attributed to `kind`, that
    /// also tells a never-written block (`None`) from a written one.
    /// Timing and accounting are exactly [`read`](Self::read)'s.
    pub fn read_written(
        &mut self,
        addr: u64,
        kind: &'static str,
        ready: Cycles,
    ) -> (Option<Block>, Completion) {
        let completion = if self.banks.probe_enabled() {
            self.banks
                .issue_addr_for_named(&format!("read.{kind}"), addr, ready, self.read_latency)
        } else {
            self.banks.issue_addr_for(addr, ready, self.read_latency)
        };
        self.reads.incr(&mut self.stats, kind);
        (self.device.read_written(addr), completion)
    }

    /// Timed write of `data` to `addr`, attributed to `kind`; counts one
    /// write of wear against the block.
    pub fn write(
        &mut self,
        addr: u64,
        data: Block,
        kind: &'static str,
        ready: Cycles,
    ) -> Completion {
        let completion = if self.banks.probe_enabled() {
            self.banks.issue_addr_for_named(
                &format!("write.{kind}"),
                addr,
                ready,
                self.write_latency,
            )
        } else {
            self.banks.issue_addr_for(addr, ready, self.write_latency)
        };
        self.writes.incr(&mut self.stats, kind);
        if let Some(journal) = &mut self.journal {
            journal.push(JournalEntry {
                addr,
                pre: self.device.read_written(addr),
                data,
                kind,
                completion,
            });
        }
        self.device.write_worn(addr, data);
        completion
    }

    // ----- crash-point injection -------------------------------------------

    /// Arms the crash journal: every subsequent write records its
    /// pre-image and service window until [`fire_crash`](Self::fire_crash)
    /// or [`disarm_crash_journal`](Self::disarm_crash_journal). Re-arming
    /// discards any previous journal.
    pub fn arm_crash_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Whether the crash journal is armed.
    #[must_use]
    pub fn crash_journal_armed(&self) -> bool {
        self.journal.is_some()
    }

    /// Drops the crash journal without applying a failure (the
    /// experiment's reference run survived).
    pub fn disarm_crash_journal(&mut self) {
        self.journal = None;
    }

    /// Applies a power failure to the journaled write stream and disarms
    /// the journal: each journaled write is classified against the cut
    /// and — walking the journal backwards so overlapping writes to the
    /// same block unwind correctly — completed writes are kept, writes
    /// that never started are rewound to their pre-image (or to the
    /// erased state), and mid-flight writes are replaced per `model`.
    ///
    /// # Panics
    ///
    /// Panics if the journal was not armed.
    pub fn fire_crash(&mut self, failure: PowerFailure, model: TornWriteModel) -> CrashOutcome {
        let journal = self
            .journal
            .take()
            .expect("fire_crash requires an armed crash journal");
        let mut outcome = CrashOutcome {
            at: failure.cycle().0,
            ..CrashOutcome::default()
        };
        for e in journal.iter().rev() {
            match failure.fate_of(&e.completion) {
                WriteFate::Durable => outcome.durable += 1,
                WriteFate::Lost => {
                    match e.pre {
                        Some(pre) => self.device.write_block(e.addr, pre),
                        None => self.device.erase_range(e.addr, 1),
                    }
                    outcome.lost += 1;
                    outcome.lost_addrs.push(e.addr);
                }
                WriteFate::Torn { elapsed, duration } => {
                    let pre = e.pre.unwrap_or([0u8; BLOCK_SIZE]);
                    let torn = torn_block(&pre, &e.data, e.addr, elapsed, duration, model);
                    self.device.write_block(e.addr, torn);
                    outcome.torn += 1;
                    outcome.torn_addrs.push(e.addr);
                    outcome.torn_kinds.push(e.kind.to_owned());
                }
            }
        }
        outcome
    }

    /// Starts recording per-bank operation traces (bank-indexed tracks,
    /// `"pcm-bank[3]"`).
    pub fn enable_probe(&mut self) {
        self.banks.enable_probe();
    }

    /// Whether the banks record traces.
    #[must_use]
    pub fn probe_enabled(&self) -> bool {
        self.banks.probe_enabled()
    }

    /// Drains the recorded bank events, in bank-index order.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.banks.take_trace()
    }

    /// Total reads issued.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.stats.sum_prefix("mem.read.")
    }

    /// Total writes issued.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.stats.sum_prefix("mem.write.")
    }

    /// Total memory requests (reads + writes).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// The completion time of the latest operation across all banks.
    #[must_use]
    pub fn busy_until(&self) -> Cycles {
        self.banks.busy_until()
    }

    /// Device-lifetime wear statistics: every block's count of timed
    /// writes, snapshotted from the device. Wear survives
    /// [`reset_timing`](Self::reset_timing) and crash rewinds — it is
    /// not per-episode — and ignores [`device_mut`](Self::device_mut)
    /// writes.
    #[must_use]
    pub fn wear(&self) -> WearTracker {
        WearTracker::from_sorted(self.device.worn_blocks_sorted())
    }

    /// Resets device-lifetime wear statistics (a fresh device).
    pub fn reset_wear(&mut self) {
        self.device.clear_wear();
    }

    /// Resets timing state and accounting, keeping memory *contents* — a
    /// new measurement episode over the same persistent data (e.g. the
    /// recovery that follows a drain).
    pub fn reset_timing(&mut self) {
        self.banks.reset();
        self.stats.clear();
    }

    /// Bytes of traffic implied by the recorded requests.
    #[must_use]
    pub fn traffic_bytes(&self) -> u64 {
        self.total_requests() * BLOCK_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_from_table1() {
        let nvm = NvmSystem::new(NvmConfig::paper_default());
        assert_eq!(nvm.read_latency(), Cycles(600));
        assert_eq!(nvm.write_latency(), Cycles(2000));
    }

    #[test]
    fn functional_roundtrip_with_accounting() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        let w = nvm.write(0, [9u8; 64], "data", Cycles(0));
        assert_eq!(w.done, Cycles(2000));
        let (b, r) = nvm.read(0, "counter", w.done);
        assert_eq!(b, [9u8; 64]);
        assert_eq!(r.done, Cycles(2600));
        assert_eq!(nvm.stats().get("mem.write.data"), 1);
        assert_eq!(nvm.stats().get("mem.read.counter"), 1);
        assert_eq!(nvm.total_requests(), 2);
        assert_eq!(nvm.traffic_bytes(), 128);
    }

    #[test]
    fn banks_parallelize() {
        let mut nvm = NvmSystem::new(NvmConfig {
            banks: 4,
            ..NvmConfig::paper_default()
        });
        // Four writes to four consecutive blocks land on four banks.
        let dones: Vec<_> = (0..4)
            .map(|i| nvm.write(i * 64, [0u8; 64], "data", Cycles(0)).done)
            .collect();
        assert!(dones.iter().all(|d| *d == Cycles(2000)));
        // A fifth to bank 0 serializes.
        assert_eq!(
            nvm.write(4 * 64, [0u8; 64], "data", Cycles(0)).done,
            Cycles(4000)
        );
    }

    #[test]
    fn reset_timing_keeps_contents() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.write(0, [5u8; 64], "data", Cycles(0));
        nvm.reset_timing();
        assert_eq!(nvm.total_requests(), 0);
        assert_eq!(nvm.busy_until(), Cycles::ZERO);
        let (b, _) = nvm.read(0, "data", Cycles(0));
        assert_eq!(b, [5u8; 64]);
    }

    #[test]
    fn probe_traces_reads_and_writes_with_kinds() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        assert!(!nvm.probe_enabled());
        nvm.enable_probe();
        assert!(nvm.probe_enabled());
        nvm.write(0, [1u8; 64], "chv_data", Cycles(0));
        nvm.read(64, "counter", Cycles(0));
        let mut trace = nvm.take_trace();
        trace.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].name, "read.counter");
        assert_eq!(trace[1].name, "write.chv_data");
        assert!(trace[1].track.starts_with("pcm-bank["));
        // Timing identical to an unprobed system.
        let mut plain = NvmSystem::new(NvmConfig::paper_default());
        assert_eq!(plain.write(128, [0u8; 64], "data", Cycles(0)), {
            let mut probed = NvmSystem::new(NvmConfig::paper_default());
            probed.enable_probe();
            probed.write(128, [0u8; 64], "data", Cycles(0))
        });
    }

    #[test]
    fn crash_journal_rewinds_unstarted_writes() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.write(0, [1u8; 64], "data", Cycles(0));
        nvm.arm_crash_journal();
        assert!(nvm.crash_journal_armed());
        // Same bank: both serialize behind the pre-arm write (0..2000).
        let c1 = nvm.write(0, [2u8; 64], "data", Cycles(0));
        let c2 = nvm.write(0, [3u8; 64], "data", Cycles(0));
        assert_eq!((c1.done, c2.start), (Cycles(4000), Cycles(4000)));
        // Cut after the first completes, before the second starts.
        let o = nvm.fire_crash(PowerFailure::at(Cycles(4000)), TornWriteModel::Torn);
        assert!(!nvm.crash_journal_armed());
        assert_eq!((o.durable, o.lost, o.torn), (1, 1, 0));
        assert_eq!(o.lost_addrs, vec![0]);
        assert_eq!(o.total(), 2);
        assert_eq!(nvm.device().read_block(0), [2u8; 64]);
    }

    #[test]
    fn crash_journal_rewinds_never_written_blocks_to_erased() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.arm_crash_journal();
        nvm.write(64, [7u8; 64], "data", Cycles(0));
        let o = nvm.fire_crash(PowerFailure::at(Cycles(0)), TornWriteModel::Torn);
        assert_eq!(o.lost, 1);
        assert!(!nvm.device().is_written(64), "rewound to erased, not zeros");
    }

    #[test]
    fn crash_journal_tears_the_in_flight_write() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.write(0, [0x11u8; 64], "data", Cycles(0));
        nvm.arm_crash_journal();
        nvm.write(0, [0xEEu8; 64], "chv_data", Cycles(3000));
        // The write runs 3000..5000; cut half-way.
        let o = nvm.fire_crash(PowerFailure::at(Cycles(4000)), TornWriteModel::Torn);
        assert_eq!((o.durable, o.lost, o.torn), (0, 0, 1));
        assert_eq!(o.torn_addrs, vec![0]);
        assert_eq!(o.torn_kinds, vec!["chv_data".to_owned()]);
        let b = nvm.device().read_block(0);
        assert_eq!(&b[..32], &[0xEEu8; 32][..], "persisted prefix");
        assert_eq!(&b[33..], &[0x11u8; 31][..], "stale suffix");
        assert!(b[32] != 0x11 && b[32] != 0xEE, "garbled boundary byte");
    }

    #[test]
    fn crash_journal_is_deterministic_per_cut() {
        let run = |at: u64| {
            let mut nvm = NvmSystem::new(NvmConfig::paper_default());
            nvm.arm_crash_journal();
            for i in 0..8u64 {
                nvm.write(i * 64, [i as u8 + 1; 64], "data", Cycles(0));
            }
            nvm.fire_crash(PowerFailure::at(Cycles(at)), TornWriteModel::Torn);
            (0..8u64)
                .map(|i| nvm.device().read_block(i * 64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(0), run(2000));
    }

    #[test]
    fn disarm_keeps_contents_and_stops_journaling() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.arm_crash_journal();
        nvm.write(0, [5u8; 64], "data", Cycles(0));
        nvm.disarm_crash_journal();
        assert!(!nvm.crash_journal_armed());
        assert_eq!(nvm.device().read_block(0), [5u8; 64]);
    }

    #[test]
    #[should_panic(expected = "armed crash journal")]
    fn fire_without_arm_panics() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        let _ = nvm.fire_crash(PowerFailure::at(Cycles(0)), TornWriteModel::Torn);
    }

    #[test]
    fn device_access_bypasses_accounting() {
        let mut nvm = NvmSystem::new(NvmConfig::paper_default());
        nvm.device_mut().write_block(64, [1u8; 64]);
        assert_eq!(nvm.total_requests(), 0);
        assert_eq!(nvm.device().read_block(64), [1u8; 64]);
    }
}
