//! Recovery after power returns (paper §IV-C.3).
//!
//! For a Horus episode, the CHV is read back, every entry is integrity-
//! verified (MAC over ciphertext + original address + drain-counter
//! value) and decrypted, and the blocks are re-installed: data blocks
//! into the LLC in dirty state, drained metadata blocks into their
//! metadata caches. The eDC register is cleared at the end, arming the
//! next episode.
//!
//! Baseline episodes recover too: Base-EU left memory consistent with
//! the eager root (nothing to do); Base-LU restores its metadata caches
//! from the shadow region and re-verifies the small tree.
//!
//! Reads are modelled as a serial chain (recovery firmware walking the
//! vault), matching the paper's Figure 16 estimation method.

use crate::chv::ChvReader;
use crate::drain::DrainScheme;
use crate::system::SecureEpdSystem;
use horus_metadata::IntegrityError;
use horus_nvm::Region;
use horus_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Why a recovery failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// No unrecovered draining episode exists.
    NoEpisode,
    /// A CHV entry (or DLM group) failed verification: the vault was
    /// tampered with, spliced, replayed, or truncated.
    ChvIntegrity {
        /// The episode position (block index) that failed.
        position: u64,
    },
    /// Metadata verification failed while restoring state.
    Metadata(IntegrityError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoEpisode => write!(f, "no draining episode to recover"),
            RecoveryError::ChvIntegrity { position } => {
                write!(f, "CHV verification failed at episode position {position}")
            }
            RecoveryError::Metadata(e) => write!(f, "metadata recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Where recovered data blocks go (paper §IV-C.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RecoveryMode {
    /// Place recovered blocks back into the LLC in dirty state — the
    /// paper's default for inclusive LLCs ("we opt for the first
    /// option").
    #[default]
    RefillLlc,
    /// Write recovered blocks back to their original memory locations
    /// through the run-time secure path (counter bump, MAC, tree update)
    /// — the paper's lower-complexity option for non-inclusive LLCs.
    WriteThrough,
}

impl std::fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryMode::RefillLlc => write!(f, "refill-llc"),
            RecoveryMode::WriteThrough => write!(f, "write-through"),
        }
    }
}

/// Measurements of one recovery.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RecoveryReport {
    /// The recovered scheme's name.
    pub scheme: String,
    /// Recovery time in cycles.
    pub cycles: u64,
    /// Recovery time in seconds (the paper's Figure 16 metric).
    pub seconds: f64,
    /// Blocks restored into the hierarchy / metadata caches.
    pub restored_blocks: u64,
    /// NVM reads issued.
    pub reads: u64,
    /// MAC computations issued.
    pub mac_ops: u64,
}

impl SecureEpdSystem {
    /// Recovers the system from the most recent draining episode, using
    /// the default [`RecoveryMode::RefillLlc`].
    ///
    /// # Errors
    ///
    /// See [`RecoveryError`]; in particular any tampering with the CHV
    /// between the drain and the recovery is detected here.
    pub fn recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        self.recover_with(RecoveryMode::RefillLlc)
    }

    /// Recovers the system from the most recent draining episode with an
    /// explicit placement mode for data blocks.
    ///
    /// The whole vault must verify: the first CHV group that fails is an
    /// error and nothing is restored, even when the persistent
    /// drain-open register says the episode was interrupted
    /// ([`recover_after_crash`](SecureEpdSystem::recover_after_crash)
    /// salvages a verified prefix instead).
    ///
    /// # Errors
    ///
    /// See [`RecoveryError`].
    pub fn recover_with(&mut self, mode: RecoveryMode) -> Result<RecoveryReport, RecoveryError> {
        self.recover_episode(mode, false)
    }

    /// The one recovery body behind
    /// [`recover_with`](SecureEpdSystem::recover_with) and
    /// [`recover_after_crash`](SecureEpdSystem::recover_after_crash):
    /// restores the episode, arms the drain counters for the next one
    /// and closes the drain-open register. With `salvage`, a Horus vault
    /// walk keeps the verified prefix instead of failing (see
    /// `recover_horus`).
    pub(crate) fn recover_episode(
        &mut self,
        mode: RecoveryMode,
        salvage: bool,
    ) -> Result<RecoveryReport, RecoveryError> {
        let ep = self.episodes.episode().ok_or(RecoveryError::NoEpisode)?;
        self.platform.reset_timing();
        self.clock = Cycles::ZERO;
        let mut restored = 0u64;

        match ep.scheme {
            DrainScheme::NonSecure | DrainScheme::BaseEager => {
                // Memory already holds the complete, (for Base-EU)
                // verifiable state; nothing to restore.
            }
            DrainScheme::BaseLazy => {
                let (n, _) = self
                    .engine
                    .recover_from_shadow(&mut self.platform, Cycles::ZERO)
                    .map_err(RecoveryError::Metadata)?;
                restored = n;
            }
            DrainScheme::HorusSlm | DrainScheme::HorusDlm => {
                restored = self.recover_horus(ep.scheme, ep.blocks, mode, salvage)?;
                self.counters.clear_ephemeral();
            }
        }

        self.episodes.clear();
        let cycles = self.platform.busy_until();
        if self.platform.probe_enabled() {
            let phase = if salvage {
                "recovery.crash"
            } else {
                "recovery"
            };
            self.platform.record_phase(
                &format!("{phase}.{}", ep.scheme.name()),
                Cycles::ZERO,
                cycles,
            );
            self.episode_trace = Some(self.platform.take_trace());
        }
        Ok(RecoveryReport {
            scheme: ep.scheme.name().to_owned(),
            cycles: cycles.0,
            seconds: self.config.nvm.frequency.cycles_to_seconds(cycles),
            restored_blocks: restored,
            reads: self.platform.nvm.total_reads(),
            mac_ops: self.platform.total_mac_ops(),
        })
    }

    /// Walks the `n`-entry vault group by group, verifying and
    /// decrypting every entry, then re-installs what verified and
    /// returns how many blocks that was.
    ///
    /// A group that fails verification is an integrity error at its
    /// 8-aligned base position, before anything is restored. With
    /// `salvage` (an interrupted episode, whose torn or never-written
    /// tail is expected to fail), the walk instead stops there and keeps
    /// the verified prefix: SLM refines the failing group entry by
    /// entry, since each member has its own MAC; a DLM group shares one
    /// MAC and is kept whole or not at all.
    fn recover_horus(
        &mut self,
        scheme: DrainScheme,
        n: u64,
        mode: RecoveryMode,
        salvage: bool,
    ) -> Result<u64, RecoveryError> {
        let layout = self.chv_layout().expect("Horus episode has a layout");
        let reader = ChvReader::new(layout, &self.config.chv_key(), &self.config.chv_mac_key());
        // DC value for episode position i: DC - eDC + i + 1.
        let dc_base = self.counters.dc() - self.counters.edc() + 1;
        let mut t = Cycles::ZERO;
        let mut entries = Vec::with_capacity(n as usize);

        let mut base = 0u64;
        // DLM: one MAC block serves a whole 64-entry supergroup; keep the
        // current one in a register across groups.
        let mut mac_reg: Option<(u64, horus_nvm::Block)> = None;
        while base < n {
            let len = (n - base).min(8) as usize;
            let (es, rt) = match scheme {
                DrainScheme::HorusSlm => {
                    reader.read_group_slm(&mut self.platform, base, len, move |i| dc_base + i, t)
                }
                DrainScheme::HorusDlm => {
                    let mac_addr = reader.layout().mac_block_addr(base);
                    if mac_reg.map(|(a, _)| a) != Some(mac_addr) {
                        let (b, c) = self.platform.nvm.read(mac_addr, "chv_mac", t);
                        t = c.done;
                        mac_reg = Some((mac_addr, b));
                    }
                    let preloaded = mac_reg.map(|(_, b)| b);
                    reader.read_group_dlm(
                        &mut self.platform,
                        base,
                        len,
                        move |i| dc_base + i,
                        preloaded,
                        t,
                    )
                }
                _ => unreachable!("recover_horus called for a non-Horus scheme"),
            };
            t = rt;
            match es {
                Some(es) => entries.extend(es),
                None if !salvage => return Err(RecoveryError::ChvIntegrity { position: base }),
                None => {
                    if scheme == DrainScheme::HorusSlm {
                        for k in base..base + len as u64 {
                            let (e, rt) =
                                reader.read_entry_slm(&mut self.platform, k, dc_base + k, t);
                            t = rt;
                            match e {
                                Some(e) => entries.push(e),
                                None => break,
                            }
                        }
                    }
                    break;
                }
            }
            base += 8;
        }

        let restored = entries.len() as u64;
        // Restore the metadata-cache contents before any data block: a
        // data restore can overflow an LLC set and push the victim
        // through the secure write path, which must see the *pre-crash*
        // metadata state — parts of which (dirty tree nodes, counters)
        // exist only in the vault until re-installed.
        entries.sort_by_key(|e| match self.map.region_of(e.orig_addr) {
            Region::Counter | Region::Mac | Region::Bmt(_) => 0,
            _ => 1,
        });
        for e in entries {
            match self.map.region_of(e.orig_addr) {
                Region::Data => match mode {
                    RecoveryMode::RefillLlc => {
                        if let Some(victim) = self.hierarchy.restore_dirty(e.orig_addr, e.data) {
                            // Recovery overflowed an LLC set: push the
                            // victim through the normal secure write path.
                            t = self
                                .secure_writeback(victim.addr, victim.data, t)
                                .map_err(RecoveryError::Metadata)?;
                        }
                    }
                    RecoveryMode::WriteThrough => {
                        // Treat the recovered block as a normal run-time
                        // write to its original location (§IV-C.3's
                        // second option): counters, MACs and the main
                        // tree absorb it immediately.
                        t = self
                            .secure_writeback(e.orig_addr, e.data, t)
                            .map_err(RecoveryError::Metadata)?;
                    }
                },
                Region::Counter | Region::Mac | Region::Bmt(_) => {
                    t = self
                        .engine
                        .restore_block(&mut self.platform, e.orig_addr, e.data, t)
                        .map_err(RecoveryError::Metadata)?;
                }
                other => {
                    // A verified CHV entry can only name data or metadata
                    // addresses; anything else means the writer was
                    // misused.
                    panic!("CHV entry for unexpected region {other:?}");
                }
            }
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::SecureEpdSystem;

    fn filled(scheme: DrainScheme) -> SecureEpdSystem {
        let mut s = SecureEpdSystem::for_scheme(SystemConfig::small_test(), scheme);
        for i in 0..48u64 {
            s.write(i * 16448, [(i as u8).wrapping_add(1); 64])
                .expect("ok");
        }
        s
    }

    #[test]
    fn recover_without_episode_errors() {
        let mut s = SecureEpdSystem::new(SystemConfig::small_test());
        assert_eq!(s.recover().unwrap_err(), RecoveryError::NoEpisode);
    }

    #[test]
    fn horus_slm_drain_recover_roundtrip() {
        let mut s = filled(DrainScheme::HorusSlm);
        let pre: Vec<(u64, [u8; 64])> = s.hierarchy().drain_order();
        let dr = s.crash_and_drain(DrainScheme::HorusSlm);
        let rec = s.recover().expect("verifies");
        assert_eq!(rec.restored_blocks, dr.flushed_blocks + dr.metadata_blocks);
        // Every pre-crash dirty line is back (possibly spilled to NVM by
        // set-overflow, where the read path finds it too).
        for (addr, data) in pre {
            assert_eq!(s.read(addr).expect("verifies"), data, "addr {addr:#x}");
        }
        assert_eq!(s.drain_counters().edc(), 0, "eDC cleared by recovery");
    }

    #[test]
    fn horus_dlm_drain_recover_roundtrip() {
        let mut s = filled(DrainScheme::HorusDlm);
        let pre = s.hierarchy().drain_order();
        let dr = s.crash_and_drain(DrainScheme::HorusDlm);
        let rec = s.recover().expect("verifies");
        assert_eq!(rec.restored_blocks, dr.flushed_blocks + dr.metadata_blocks);
        for (addr, data) in pre {
            assert_eq!(s.read(addr).expect("verifies"), data);
        }
    }

    #[test]
    fn base_lazy_recovers_metadata_from_shadow() {
        let mut s = filled(DrainScheme::BaseLazy);
        let dr = s.crash_and_drain(DrainScheme::BaseLazy);
        assert!(dr.metadata_blocks > 0);
        let rec = s.recover().expect("shadow verifies");
        assert_eq!(rec.restored_blocks, dr.metadata_blocks);
        assert!(
            !s.metadata().counter_cache().is_empty(),
            "caches repopulated"
        );
    }

    #[test]
    fn base_eager_recovery_is_trivial() {
        let mut s = filled(DrainScheme::BaseEager);
        let _ = s.crash_and_drain(DrainScheme::BaseEager);
        let rec = s.recover().expect("ok");
        assert_eq!(rec.restored_blocks, 0);
        assert_eq!(rec.reads, 0);
    }

    #[test]
    fn baseline_data_is_readable_after_recovery() {
        // After a baseline drain + recovery, the data lives encrypted in
        // NVM and must read back through the verified path.
        let mut s = filled(DrainScheme::BaseEager);
        let pre = s.hierarchy().drain_order();
        let _ = s.crash_and_drain(DrainScheme::BaseEager);
        let _ = s.recover().expect("ok");
        for (addr, data) in pre {
            assert_eq!(s.read(addr).expect("verifies"), data);
        }
    }

    #[test]
    fn write_through_recovery_lands_in_memory_not_llc() {
        let mut s = filled(DrainScheme::HorusSlm);
        let pre = s.hierarchy().drain_order();
        s.crash_and_drain(DrainScheme::HorusSlm);
        let rec = s
            .recover_with(RecoveryMode::WriteThrough)
            .expect("verifies");
        assert!(rec.restored_blocks > 0);
        // Nothing was refilled into the hierarchy…
        assert_eq!(s.hierarchy().dirty_unique(), 0);
        // …but every line reads back through the verified memory path.
        for (addr, data) in pre {
            assert!(!s.hierarchy().llc().contains(addr));
            assert_eq!(s.read(addr).expect("verifies"), data);
        }
    }

    #[test]
    fn recovery_mode_default_and_display() {
        assert_eq!(RecoveryMode::default(), RecoveryMode::RefillLlc);
        assert_eq!(RecoveryMode::WriteThrough.to_string(), "write-through");
        assert_eq!(RecoveryMode::RefillLlc.to_string(), "refill-llc");
    }

    #[test]
    fn abandoned_episode_does_not_poison_the_next() {
        // Drain, do NOT recover (e.g. the vault was found tampered and
        // discarded), refill, drain again: the second vault must verify
        // with its own drain-counter positions.
        let mut s = filled(DrainScheme::HorusSlm);
        s.crash_and_drain(DrainScheme::HorusSlm);
        // Power returns but recovery is skipped; new activity, new crash.
        for i in 0..24u64 {
            s.write(i * 16448 + 128, [0xCD; 64]).expect("write");
        }
        let dr2 = s.crash_and_drain(DrainScheme::HorusSlm);
        let rec = s.recover().expect("second episode verifies on its own");
        assert_eq!(
            rec.restored_blocks,
            dr2.flushed_blocks + dr2.metadata_blocks
        );
        assert_eq!(s.read(128).expect("read"), [0xCD; 64]);
    }

    #[test]
    fn second_episode_works_after_recovery() {
        let mut s = filled(DrainScheme::HorusSlm);
        let _ = s.crash_and_drain(DrainScheme::HorusSlm);
        s.recover().expect("first recovery");
        // New run-time activity, second crash.
        for i in 0..16u64 {
            s.write(i * 16448 + 64, [0xEE; 64]).expect("ok");
        }
        let dr2 = s.crash_and_drain(DrainScheme::HorusSlm);
        assert!(dr2.flushed_blocks >= 16, "got {}", dr2.flushed_blocks);
        s.recover().expect("second recovery");
        assert_eq!(s.read(64).expect("ok"), [0xEE; 64]);
    }
}
