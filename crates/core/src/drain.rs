//! The EPD drain engines: what happens between outage detection and
//! power-off (paper §IV, Figure 8).

use crate::chv::{ChvLayout, ChvWriter, MacGranularity};
use crate::report::DrainReport;
use crate::system::{Episode, SecureEpdSystem};
use horus_metadata::UpdateScheme;
use horus_nvm::Block;
use horus_sim::trace::base_resource;
use horus_sim::{critical_path, resource_usage, Cycles, ScratchArena};
use serde::{Deserialize, Serialize};

thread_local! {
    /// Recycled `(addr, block)` scratch buffers for the drain loops (the
    /// hierarchy drain order and the dirty metadata lines). One pool per
    /// thread, so every harness worker recycles independently and
    /// episode results stay bit-identical to a cold run.
    static DRAIN_SCRATCH: ScratchArena<(u64, Block)> = ScratchArena::new();
}

/// The evaluated drain schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DrainScheme {
    /// No memory security: flush dirty lines in place (the reference the
    /// EPD power budget is sized for today).
    NonSecure,
    /// Baseline secure EPD with the lazy run-time update scheme
    /// (the paper's **Base-LU**).
    BaseLazy,
    /// Baseline secure EPD with the eager update scheme (**Base-EU**).
    BaseEager,
    /// Horus with one stored MAC per block (**Horus-SLM**).
    HorusSlm,
    /// Horus with the double-level MAC scheme (**Horus-DLM**).
    HorusDlm,
}

impl DrainScheme {
    /// All five schemes, in the paper's presentation order.
    pub const ALL: [DrainScheme; 5] = [
        DrainScheme::NonSecure,
        DrainScheme::BaseLazy,
        DrainScheme::BaseEager,
        DrainScheme::HorusSlm,
        DrainScheme::HorusDlm,
    ];

    /// The four secure schemes compared in Figures 11–13.
    pub const SECURE: [DrainScheme; 4] = [
        DrainScheme::BaseLazy,
        DrainScheme::BaseEager,
        DrainScheme::HorusSlm,
        DrainScheme::HorusDlm,
    ];

    /// The paper's name for the scheme.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DrainScheme::NonSecure => "Non-Secure",
            DrainScheme::BaseLazy => "Base-LU",
            DrainScheme::BaseEager => "Base-EU",
            DrainScheme::HorusSlm => "Horus-SLM",
            DrainScheme::HorusDlm => "Horus-DLM",
        }
    }

    /// The CHV MAC granularity, for the Horus schemes.
    #[must_use]
    pub fn mac_granularity(self) -> Option<MacGranularity> {
        match self {
            DrainScheme::HorusSlm => Some(MacGranularity::SingleLevel),
            DrainScheme::HorusDlm => Some(MacGranularity::DoubleLevel),
            _ => None,
        }
    }

    /// Whether the scheme uses the Horus CHV path.
    #[must_use]
    pub fn is_horus(self) -> bool {
        self.mac_granularity().is_some()
    }
}

impl std::fmt::Display for DrainScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one execution of the drain loops flushed — shared bookkeeping
/// between the completed-drain path ([`SecureEpdSystem::crash_and_drain`])
/// and the interrupted path (`crash_and_drain_interrupted` in
/// [`crash`](crate::crash)).
pub(crate) struct DrainRun {
    /// Dirty hierarchy blocks streamed.
    pub(crate) flushed: u64,
    /// Metadata blocks flushed (baselines) or vaulted (Horus).
    pub(crate) metadata_blocks: u64,
    /// The CHV rotation slot used (0 for non-Horus schemes).
    pub(crate) chv_slot: u64,
    /// The cycle each Horus CHV push was issued at, in push order — the
    /// instant the DC/eDC registers increment for that block. Empty for
    /// non-Horus schemes.
    pub(crate) push_issue_cycles: Vec<Cycles>,
}

impl SecureEpdSystem {
    /// Simulates an outage: drains the dirty cache hierarchy (and the
    /// security-metadata state the scheme requires) to NVM under
    /// `scheme`, then powers the volatile state off.
    ///
    /// Timing and operation counts are measured from the moment of
    /// outage detection — exactly the window the EPD back-up power must
    /// cover.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is a baseline whose update scheme does not
    /// match the system's run-time configuration (build the system with
    /// [`SecureEpdSystem::for_scheme`]), or if legitimate metadata fails
    /// verification mid-drain (possible only if NVM was tampered with
    /// while the system was live).
    pub fn crash_and_drain(&mut self, scheme: DrainScheme) -> DrainReport {
        let run = self.run_drain_loops(scheme);
        let flushed = run.flushed;
        let metadata_blocks = run.metadata_blocks;

        let cycles = self.platform.busy_until();
        let seconds = self.config.nvm.frequency.cycles_to_seconds(cycles);

        // Power off: all volatile state is lost.
        self.hierarchy.clear();
        if scheme.is_horus() || scheme == DrainScheme::NonSecure {
            // Baselines already cleared their metadata caches in
            // flush_after_drain; Horus drained them into the CHV.
            self.clear_metadata_caches();
        }

        if scheme.is_horus() {
            self.episodes_drained += 1;
            // A completed drain closes the drain-open register, even one
            // an earlier interrupted episode left set: this episode
            // supersedes that one.
            self.drain_open = false;
        }
        self.episode = Some(Episode {
            scheme,
            blocks: flushed + metadata_blocks,
            chv_slot: run.chv_slot,
        });

        let mut stats = self.platform.merged_stats();
        // Probe post-processing: derive per-resource utilization and the
        // critical path from the event stream, fold queueing delays into
        // the stats histograms, and stash the full trace for export
        // (recover_with's reset_timing would otherwise discard it).
        let (utilization, critical_path) = if self.platform.probe_enabled() {
            let events = self.platform.take_trace();
            let resource_events: Vec<_> = events
                .iter()
                .filter(|e| e.track != "phase")
                .cloned()
                .collect();
            for e in &resource_events {
                stats.record_sample(&format!("queue.{}", base_resource(&e.track)), e.wait());
            }
            let usage = resource_usage(&resource_events, cycles.0);
            let cp = critical_path(&resource_events, cycles.0);
            self.episode_trace = Some(events);
            (Some(usage), cp)
        } else {
            (None, None)
        };
        DrainReport {
            scheme: scheme.name().to_owned(),
            flushed_blocks: flushed,
            metadata_blocks,
            cycles: cycles.0,
            seconds,
            reads: self.platform.nvm.total_reads(),
            writes: self.platform.nvm.total_writes(),
            mac_ops: self.platform.total_mac_ops(),
            otp_ops: self.platform.total_otp_ops(),
            stats,
            utilization,
            critical_path,
        }
    }

    /// Runs the scheme's drain loops from outage detection to the last
    /// issued operation, *without* powering off or recording the episode
    /// — the shared core of the completed and interrupted drain paths.
    /// Timing and accounting are reset first; the caller reads
    /// `platform.busy_until()` for the total drain time.
    pub(crate) fn run_drain_loops(&mut self, scheme: DrainScheme) -> DrainRun {
        match scheme {
            DrainScheme::BaseLazy => assert_eq!(
                self.engine.scheme(),
                UpdateScheme::Lazy,
                "Base-LU needs a lazy run-time engine"
            ),
            DrainScheme::BaseEager => assert_eq!(
                self.engine.scheme(),
                UpdateScheme::Eager,
                "Base-EU needs an eager run-time engine"
            ),
            _ => {}
        }

        // Measure the drain in isolation.
        self.platform.reset_timing();
        self.clock = Cycles::ZERO;
        let mut blocks = DRAIN_SCRATCH.with(ScratchArena::take);
        self.hierarchy.drain_order_into(&mut blocks);
        let flushed = blocks.len() as u64;
        let mut metadata_blocks = 0u64;
        let mut chv_slot = 0u64;
        let mut push_issue_cycles = Vec::new();

        // Walk markers: how many unique dirty lines each level
        // contributes (instant markers at cycle 0 on the phase track).
        if self.platform.probe_enabled() {
            let per_level = self.hierarchy.dirty_per_level();
            for (name, count) in ["L1", "L2", "LLC"].iter().zip(per_level) {
                self.platform.record_phase(
                    &format!("walk.{name}:{count}"),
                    Cycles::ZERO,
                    Cycles::ZERO,
                );
            }
        }

        match scheme {
            DrainScheme::NonSecure => {
                // Plain EPD: every dirty line is written in place, full
                // stop. (This models the unprotected system; the write
                // bypasses encryption by design.)
                for (addr, data) in &blocks {
                    self.platform.nvm.write(*addr, *data, "data", Cycles::ZERO);
                }
                let t = self.platform.busy_until();
                self.platform.record_phase("drain.data", Cycles::ZERO, t);
            }
            DrainScheme::BaseLazy | DrainScheme::BaseEager => {
                // Run-time secure path per flushed line (Figure 8-B).
                for (addr, data) in &blocks {
                    self.secure_writeback(*addr, *data, Cycles::ZERO)
                        .expect("legitimate drain must verify");
                }
                // Then flush the metadata caches (§IV-B).
                metadata_blocks = self.count_metadata_lines(scheme);
                let t = self.platform.busy_until();
                self.platform.record_phase("drain.data", Cycles::ZERO, t);
                self.engine.flush_after_drain(&mut self.platform, t);
                let t_flush = self.platform.busy_until();
                self.platform
                    .record_phase("drain.metadata_flush", t, t_flush);
            }
            DrainScheme::HorusSlm | DrainScheme::HorusDlm => {
                let mode = scheme.mac_granularity().expect("Horus scheme");
                // Wear levelling: episodes rotate across the reserved
                // vault slots (the slot index is derived from an on-chip
                // episode counter, so recovery knows where to look).
                let slot = self.episodes_drained % self.config.chv_rotation_slots.max(1);
                chv_slot = slot;
                let layout = ChvLayout::new(self.chv_slot_base(slot), mode);
                // A new episode overwrites the vault; if a previous one
                // was never recovered (e.g. its recovery was aborted),
                // reset the ephemeral counter so positions map to this
                // episode's DC values. DC itself never rewinds.
                self.counters.clear_ephemeral();
                // The dirty metadata lines are fixed for the whole drain
                // (the Horus data pushes bypass the run-time engine), so
                // collect them once: they size the worst case here and
                // are vaulted verbatim after the data stream below.
                let mut meta = DRAIN_SCRATCH.with(ScratchArena::take);
                self.dirty_metadata_lines_into(&mut meta);
                // The vault slot must fit the worst case before starting.
                let worst = layout.blocks_used(flushed + meta.len() as u64);
                assert!(
                    worst <= self.config.chv_slot_blocks(),
                    "CHV slot too small: need {worst} blocks, reserved {}",
                    self.config.chv_slot_blocks()
                );
                let mut writer =
                    ChvWriter::new(layout, &self.config.chv_key(), &self.config.chv_mac_key());
                let mut t = Cycles::ZERO;
                push_issue_cycles.reserve_exact(blocks.len() + meta.len());
                for (addr, data) in &blocks {
                    let dc = self.counters.allocate();
                    push_issue_cycles.push(t);
                    t = writer.push(&mut self.platform, dc, *addr, data, "chv_data", t);
                }
                let t_data = self.platform.busy_until();
                self.platform
                    .record_phase("drain.data", Cycles::ZERO, t_data);
                // Drain the dirty metadata-cache contents through the
                // same vault (they are just more blocks to protect).
                metadata_blocks = meta.len() as u64;
                for (addr, data) in &meta {
                    let dc = self.counters.allocate();
                    push_issue_cycles.push(t);
                    t = writer.push(&mut self.platform, dc, *addr, data, "chv_meta", t);
                }
                DRAIN_SCRATCH.with(|arena| arena.put(meta));
                let t_meta = self.platform.busy_until();
                self.platform.record_phase("drain.metadata", t_data, t_meta);
                writer.finish(&mut self.platform, t);
                let t_finish = self.platform.busy_until();
                self.platform.record_phase("drain.finish", t_meta, t_finish);
            }
        }
        DRAIN_SCRATCH.with(|arena| arena.put(blocks));

        DrainRun {
            flushed,
            metadata_blocks,
            chv_slot,
            push_issue_cycles,
        }
    }

    fn count_metadata_lines(&self, scheme: DrainScheme) -> u64 {
        let m = self.metadata();
        match scheme {
            // Eager flushes dirty lines in place; lazy shadows every
            // valid line.
            DrainScheme::BaseEager => {
                m.counter_cache().dirty_count()
                    + m.mac_cache().dirty_count()
                    + m.tree_cache().dirty_count()
            }
            _ => (m.counter_cache().len() + m.mac_cache().len() + m.tree_cache().len()) as u64,
        }
    }

    fn dirty_metadata_lines_into(&self, out: &mut Vec<(u64, Block)>) {
        out.clear();
        let m = self.metadata();
        for c in [m.counter_cache(), m.mac_cache(), m.tree_cache()] {
            out.extend(c.dirty_lines().map(|(a, b)| (a, *b)));
        }
    }

    pub(crate) fn clear_metadata_caches(&mut self) {
        // Power loss: the engine's caches are volatile. Flushing already
        // cleared them for the baselines; Horus clears them here after
        // vaulting the dirty lines.
        self.engine.clear_caches_on_power_loss();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn filled_system(scheme: DrainScheme) -> SecureEpdSystem {
        let mut s = SecureEpdSystem::for_scheme(SystemConfig::small_test(), scheme);
        // Sparse dirty fill: >=16 KB apart, with the +64 offset cycling
        // cache sets (a bare 16 KB stride aliases every line to set 0).
        for i in 0..40u64 {
            s.write(i * 16448, [i as u8 + 1; 64]).expect("ok");
        }
        s
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(DrainScheme::BaseLazy.name(), "Base-LU");
        assert_eq!(DrainScheme::BaseEager.name(), "Base-EU");
        assert_eq!(DrainScheme::HorusSlm.to_string(), "Horus-SLM");
        assert_eq!(DrainScheme::ALL.len(), 5);
        assert!(DrainScheme::HorusDlm.is_horus());
        assert!(!DrainScheme::BaseLazy.is_horus());
    }

    #[test]
    fn nonsecure_drain_writes_each_block_once() {
        let mut s = filled_system(DrainScheme::NonSecure);
        let dirty = s.hierarchy().drain_order().len() as u64;
        let r = s.crash_and_drain(DrainScheme::NonSecure);
        assert_eq!(r.flushed_blocks, dirty);
        assert_eq!(r.writes, dirty);
        assert_eq!(r.reads, 0);
        assert_eq!(r.mac_ops, 0);
        assert!(
            s.hierarchy().drain_order().is_empty(),
            "hierarchy powered off"
        );
    }

    #[test]
    fn baseline_drain_is_much_more_expensive() {
        let mut ns = filled_system(DrainScheme::NonSecure);
        let base = ns.crash_and_drain(DrainScheme::NonSecure);
        let mut lu = filled_system(DrainScheme::BaseLazy);
        let r = lu.crash_and_drain(DrainScheme::BaseLazy);
        assert!(
            r.memory_requests() > 3 * base.memory_requests(),
            "baseline {} vs non-secure {}",
            r.memory_requests(),
            base.memory_requests()
        );
        assert!(r.mac_ops > 0);
        assert!(r.cycles > base.cycles);
    }

    #[test]
    fn horus_drain_stays_close_to_nonsecure() {
        let mut ns = filled_system(DrainScheme::NonSecure);
        let base = ns.crash_and_drain(DrainScheme::NonSecure);
        let mut hs = filled_system(DrainScheme::HorusSlm);
        let r = hs.crash_and_drain(DrainScheme::HorusSlm);
        // <= 1.5x writes per streamed block (1.25x steady state plus
        // partial-group padding); Horus also vaults dirty metadata lines.
        let streamed = r.flushed_blocks + r.metadata_blocks;
        assert!(streamed >= base.flushed_blocks);
        assert!(
            r.writes <= streamed * 3 / 2,
            "horus {} writes for {streamed} blocks",
            r.writes
        );
        assert_eq!(r.reads, 0, "Horus drain never reads memory");
        // And per flushed data block, Horus stays close to non-secure.
        assert!(
            r.stats.get("mem.write.chv_data") == base.writes,
            "one CHV data write per dirty line"
        );
    }

    #[test]
    fn horus_dlm_writes_fewer_macs_than_slm() {
        let mut slm = filled_system(DrainScheme::HorusSlm);
        let r_slm = slm.crash_and_drain(DrainScheme::HorusSlm);
        let mut dlm = filled_system(DrainScheme::HorusDlm);
        let r_dlm = dlm.crash_and_drain(DrainScheme::HorusDlm);
        assert!(
            r_dlm.stats.get("mem.write.chv_mac") < r_slm.stats.get("mem.write.chv_mac"),
            "DLM must write fewer MAC blocks"
        );
        assert!(
            r_dlm.mac_ops > r_slm.mac_ops,
            "DLM computes extra second-level MACs"
        );
    }

    #[test]
    fn drain_counter_advances_per_block() {
        let mut s = filled_system(DrainScheme::HorusSlm);
        assert_eq!(s.drain_counters().dc(), 0);
        let r = s.crash_and_drain(DrainScheme::HorusSlm);
        assert_eq!(
            s.drain_counters().dc(),
            r.flushed_blocks + r.metadata_blocks
        );
        assert_eq!(s.drain_counters().edc(), s.drain_counters().dc());
    }

    #[test]
    #[should_panic(expected = "eager run-time engine")]
    fn base_eu_on_lazy_engine_panics() {
        let mut s = filled_system(DrainScheme::BaseLazy);
        let _ = s.crash_and_drain(DrainScheme::BaseEager);
    }

    #[test]
    fn probed_drain_matches_unprobed_and_attributes_resources() {
        let mut plain = filled_system(DrainScheme::HorusSlm);
        let r_plain = plain.crash_and_drain(DrainScheme::HorusSlm);
        assert!(r_plain.utilization.is_none());
        assert!(r_plain.critical_path.is_none());
        assert!(plain.take_episode_trace().is_none());

        let mut probed = filled_system(DrainScheme::HorusSlm);
        probed.enable_probe();
        let r = probed.crash_and_drain(DrainScheme::HorusSlm);
        // The probe must not perturb timing or accounting.
        assert_eq!(r.cycles, r_plain.cycles);
        assert_eq!(r.writes, r_plain.writes);
        assert_eq!(r.mac_ops, r_plain.mac_ops);
        for (k, v) in r_plain.stats.iter() {
            assert_eq!(r.stats.get(k), v, "counter {k}");
        }
        // Utilization covers banks, engines; queue histograms recorded.
        let usage = r.utilization.as_ref().expect("probed report has usage");
        assert!(usage.iter().any(|u| u.track.starts_with("pcm-bank[")));
        assert!(usage.iter().any(|u| u.track == "hash"));
        assert!(r.stats.histogram("queue.pcm-bank").is_some());
        // Horus drains are PCM-bank bound (the paper's Figure 6 point:
        // sequential CHV writes keep all banks busy while crypto hides).
        let cp = r.critical_path.as_ref().expect("probed report has path");
        assert_eq!(cp.bounding_resource, "pcm-bank");
        assert_eq!(cp.total_cycles, r.cycles);
        // The episode trace is exportable and includes phase markers.
        let trace = probed.take_episode_trace().expect("trace stashed");
        assert!(trace
            .iter()
            .any(|e| e.track == "phase" && e.name == "drain.data"));
        assert!(trace.iter().any(|e| e.name.starts_with("walk.L1:")));
        assert!(probed.take_episode_trace().is_none(), "take drains");
    }

    #[test]
    fn probed_recovery_stashes_its_own_trace() {
        let mut s = filled_system(DrainScheme::HorusSlm);
        s.enable_probe();
        s.crash_and_drain(DrainScheme::HorusSlm);
        let drain_trace = s.take_episode_trace().expect("drain trace");
        assert!(!drain_trace.is_empty());
        s.recover().expect("verifies");
        let rec_trace = s.take_episode_trace().expect("recovery trace");
        assert!(rec_trace
            .iter()
            .any(|e| e.track == "phase" && e.name.starts_with("recovery.")));
        assert!(rec_trace.iter().any(|e| e.name.starts_with("read.")));
    }

    #[test]
    fn baseline_flushes_metadata_after_drain() {
        let mut s = filled_system(DrainScheme::BaseLazy);
        let r = s.crash_and_drain(DrainScheme::BaseLazy);
        assert!(
            r.stats.get("mem.write.shadow") > 0,
            "lazy baseline shadows its caches"
        );
        assert!(r.metadata_blocks > 0);
    }
}
