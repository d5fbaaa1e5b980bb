//! The platform model: timed NVM plus crypto-engine timing and
//! accounting.
//!
//! The secure memory controller contains an AES engine (pad generation)
//! and a hash engine (MAC computation). The paper's Table I gives their
//! latencies (AES 40 cycles, single hash 160 cycles); real engines are
//! pipelined, so each also has an initiation interval. Every operation is
//! attributed to a *kind* in the `aesop.*` / `macop.*` counters — the
//! hash-engine breakdown reproduces the paper's Figure 13.

use horus_nvm::{NvmConfig, NvmSystem};
use horus_sim::trace::Probe;
use horus_sim::{Completion, Cycles, KindCounters, SlotResource, Stats, TraceEvent};
use serde::{Deserialize, Serialize};

/// Latency/throughput parameters of the on-chip crypto engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CryptoTimingConfig {
    /// AES block-encryption latency (Table I: 40 cycles).
    pub aes_latency: Cycles,
    /// AES pipeline initiation interval.
    pub aes_interval: Cycles,
    /// Hash/MAC latency (Table I: 160 cycles).
    pub hash_latency: Cycles,
    /// Hash pipeline initiation interval (the engine accepts a new MAC
    /// every this many cycles; 80 models a two-stage pipelined unit).
    pub hash_interval: Cycles,
}

impl CryptoTimingConfig {
    /// The paper's Table I engine parameters. The 40-cycle hash
    /// initiation interval models four pipelined 160-cycle hash units —
    /// the throughput the paper's eager baseline implies (≈13 MACs per
    /// flushed block without becoming hash-bound relative to memory).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            aes_latency: Cycles(40),
            aes_interval: Cycles(2),
            hash_latency: Cycles(160),
            hash_interval: Cycles(40),
        }
    }
}

impl Default for CryptoTimingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The timed platform every controller operation runs against: NVM,
/// AES engine, hash engine, and the crypto-op accounting registry.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The timed, accounted NVM system.
    pub nvm: NvmSystem,
    aes: SlotResource,
    hash: SlotResource,
    stats: Stats,
    macs: KindCounters,
    pads: KindCounters,
    /// Carries drain-phase and recovery markers on a dedicated
    /// `"phase"` track (disabled, hence free, by default).
    phase_probe: Probe,
}

impl Platform {
    /// Builds a platform from NVM and crypto-engine configurations.
    #[must_use]
    pub fn new(nvm: NvmConfig, crypto: CryptoTimingConfig) -> Self {
        Self {
            nvm: NvmSystem::new(nvm),
            aes: SlotResource::pipelined("aes", crypto.aes_latency, crypto.aes_interval),
            hash: SlotResource::pipelined("hash", crypto.hash_latency, crypto.hash_interval),
            stats: Stats::new(),
            macs: KindCounters::new("macop."),
            pads: KindCounters::new("aesop."),
            phase_probe: Probe::disabled(),
        }
    }

    /// The paper's default platform (Table I).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(
            NvmConfig::paper_default(),
            CryptoTimingConfig::paper_default(),
        )
    }

    /// Issues one MAC computation attributed to `kind` (`macop.<kind>`).
    pub fn mac_op(&mut self, kind: &'static str, ready: Cycles) -> Completion {
        self.macs.incr(&mut self.stats, kind);
        if self.hash.probe_enabled() {
            self.hash.issue_named(&format!("mac.{kind}"), ready)
        } else {
            self.hash.issue(ready)
        }
    }

    /// Issues the four pipelined AES operations generating one 64-byte
    /// one-time pad, attributed to `kind` (`aesop.<kind>` counts pads).
    /// Returns the completion of the last lane.
    pub fn otp_op(&mut self, kind: &'static str, ready: Cycles) -> Completion {
        self.pads.incr(&mut self.stats, kind);
        if self.aes.probe_enabled() {
            let name = format!("otp.{kind}");
            let mut last = self.aes.issue_named(&name, ready);
            for _ in 1..4 {
                last = self.aes.issue_named(&name, ready);
            }
            last
        } else {
            let mut last = self.aes.issue(ready);
            for _ in 1..4 {
                last = self.aes.issue(ready);
            }
            last
        }
    }

    /// Starts recording operation traces on every platform resource:
    /// per-bank NVM tracks, the AES and hash engines, and the `"phase"`
    /// marker track.
    pub fn enable_probe(&mut self) {
        self.nvm.enable_probe();
        self.aes.enable_probe();
        self.hash.enable_probe();
        self.phase_probe.enable("phase");
    }

    /// Whether the platform records traces.
    #[must_use]
    pub fn probe_enabled(&self) -> bool {
        self.phase_probe.enabled()
    }

    /// Records a phase marker span (e.g. `"drain.data"`) on the
    /// `"phase"` track. A no-op when the probe is disabled.
    pub fn record_phase(&mut self, name: &str, start: Cycles, end: Cycles) {
        self.phase_probe.record_span(name, start.0, end.0);
    }

    /// Drains every recorded event: NVM banks, AES, hash, then phase
    /// markers, each in recording order.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = self.nvm.take_trace();
        events.extend(self.aes.take_trace());
        events.extend(self.hash.take_trace());
        events.extend(self.phase_probe.take());
        events
    }

    /// The crypto-op accounting registry (`macop.*`, `aesop.*`).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total MAC computations issued.
    #[must_use]
    pub fn total_mac_ops(&self) -> u64 {
        self.stats.sum_prefix("macop.")
    }

    /// Total one-time pads generated.
    #[must_use]
    pub fn total_otp_ops(&self) -> u64 {
        self.stats.sum_prefix("aesop.")
    }

    /// A merged view of platform statistics: memory (`mem.*`) and crypto
    /// (`macop.*`, `aesop.*`) counters.
    #[must_use]
    pub fn merged_stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.merge(self.nvm.stats());
        s
    }

    /// The time the platform becomes fully idle — the draining time when
    /// measured after a drain.
    #[must_use]
    pub fn busy_until(&self) -> Cycles {
        self.nvm
            .busy_until()
            .max(self.aes.busy_until())
            .max(self.hash.busy_until())
    }

    /// Resets timing and accounting, keeping NVM contents (a new
    /// measurement episode, e.g. recovery after a drain).
    pub fn reset_timing(&mut self) {
        self.nvm.reset_timing();
        self.aes.reset();
        self.hash.reset();
        self.stats.clear();
        self.phase_probe.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_ops_are_pipelined_and_counted() {
        let mut p = Platform::paper_default();
        let a = p.mac_op("verify_counter", Cycles(0));
        let b = p.mac_op("verify_counter", Cycles(0));
        assert_eq!(a.done, Cycles(160));
        assert_eq!(b.done, Cycles(200)); // 40-cycle initiation interval
        assert_eq!(p.stats().get("macop.verify_counter"), 2);
        assert_eq!(p.total_mac_ops(), 2);
    }

    #[test]
    fn otp_uses_four_lanes() {
        let mut p = Platform::paper_default();
        let c = p.otp_op("data", Cycles(0));
        // Lanes at 0,2,4,6 + 40-cycle latency.
        assert_eq!(c.done, Cycles(46));
        assert_eq!(p.total_otp_ops(), 1);
    }

    #[test]
    fn busy_until_covers_all_engines() {
        let mut p = Platform::paper_default();
        assert_eq!(p.busy_until(), Cycles::ZERO);
        // Ready 100 rounds up to the next 40-cycle initiation slot (120).
        p.mac_op("x", Cycles(100));
        assert_eq!(p.busy_until(), Cycles(280));
        p.nvm.write(0, [0u8; 64], "data", Cycles(0));
        assert_eq!(p.busy_until(), Cycles(2000));
    }

    #[test]
    fn merged_stats_combines_registries() {
        let mut p = Platform::paper_default();
        p.mac_op("data_mac", Cycles(0));
        p.nvm.write(0, [0u8; 64], "data", Cycles(0));
        let s = p.merged_stats();
        assert_eq!(s.get("macop.data_mac"), 1);
        assert_eq!(s.get("mem.write.data"), 1);
    }

    #[test]
    fn probe_traces_all_engines_and_phases() {
        let mut p = Platform::paper_default();
        assert!(!p.probe_enabled());
        p.enable_probe();
        assert!(p.probe_enabled());
        p.mac_op("data_mac", Cycles(0));
        p.otp_op("data", Cycles(0));
        p.nvm.write(0, [0u8; 64], "data", Cycles(0));
        p.record_phase("drain.data", Cycles(0), Cycles(2000));
        let trace = p.take_trace();
        let tracks: std::collections::BTreeSet<&str> =
            trace.iter().map(|e| e.track.as_str()).collect();
        assert!(tracks.contains("aes"));
        assert!(tracks.contains("hash"));
        assert!(tracks.contains("phase"));
        assert!(tracks.iter().any(|t| t.starts_with("pcm-bank[")));
        // 1 mac + 4 aes lanes + 1 write + 1 phase marker.
        assert_eq!(trace.len(), 7);
        assert_eq!(
            trace.iter().filter(|e| e.name == "otp.data").count(),
            4,
            "all four AES lanes labelled"
        );
        // Probing does not perturb timing.
        let mut plain = Platform::paper_default();
        assert_eq!(plain.mac_op("data_mac", Cycles(0)).done, Cycles(160));
    }

    #[test]
    fn reset_timing_clears_probe_buffers() {
        let mut p = Platform::paper_default();
        p.enable_probe();
        p.mac_op("x", Cycles(0));
        p.record_phase("drain.data", Cycles(0), Cycles(100));
        p.reset_timing();
        assert!(p.probe_enabled(), "probe survives a timing reset");
        assert!(p.take_trace().is_empty());
    }

    #[test]
    fn reset_timing_clears_everything_but_contents() {
        let mut p = Platform::paper_default();
        p.nvm.write(64, [3u8; 64], "data", Cycles(0));
        p.mac_op("x", Cycles(0));
        p.reset_timing();
        assert_eq!(p.busy_until(), Cycles::ZERO);
        assert_eq!(p.total_mac_ops(), 0);
        assert_eq!(p.nvm.device().read_block(64), [3u8; 64]);
    }
}
