//! The secure EPD memory system: run-time path and crash orchestration.

use crate::chv::ChvLayout;
use crate::config::SystemConfig;
use crate::counter_reg::DrainCounters;
use crate::domain::{PersistBuffer, PersistStats};
use crate::drain::DrainScheme;
use crate::episode::EpisodeState;
use horus_cache::CacheHierarchy;
use horus_crypto::{otp, Aes128, Cmac};
use horus_metadata::{IntegrityError, MetadataEngine, Platform, UpdateScheme};
use horus_nvm::{AddressMap, Block};
use horus_sim::{Cycles, TraceEvent};

/// Bookkeeping for the most recent (unrecovered) draining episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// The drain scheme that produced the episode.
    pub scheme: DrainScheme,
    /// Blocks the episode spans: every block streamed (hierarchy +
    /// metadata) for a drain that ran to completion and for a cut
    /// baseline drain; the CHV pushes issued before the cut for an
    /// interrupted Horus drain.
    pub blocks: u64,
    /// The CHV rotation slot this episode's vault occupies.
    pub chv_slot: u64,
}

/// A complete secure EPD memory system: cache hierarchy, secure memory
/// controller (encryption + MAC + Merkle tree), timed platform, and the
/// Horus drain-counter registers.
///
/// At run time the hierarchy absorbs writes; dirty LLC evictions go
/// through the full secure write path. On a crash,
/// [`crash_and_drain`](crate::SecureEpdSystem::crash_and_drain) flushes
/// the hierarchy with the chosen [`DrainScheme`]; after "power returns",
/// [`recover`](crate::SecureEpdSystem::recover) restores it.
#[derive(Debug, Clone)]
pub struct SecureEpdSystem {
    pub(crate) config: SystemConfig,
    pub(crate) map: AddressMap,
    pub(crate) platform: Platform,
    pub(crate) engine: MetadataEngine,
    pub(crate) hierarchy: CacheHierarchy,
    pub(crate) data_aes: Aes128,
    pub(crate) data_cmac: Cmac,
    pub(crate) counters: DrainCounters,
    /// The persistent drain-open register, the unrecovered episode and
    /// the CHV rotation counter; their only writer is
    /// [`EpisodeState`]'s transitions.
    pub(crate) episodes: EpisodeState,
    pub(crate) persist_buffer: Option<PersistBuffer>,
    pub(crate) persist_stats: PersistStats,
    pub(crate) clock: Cycles,
    /// The trace of the most recent probed episode (drain or recovery),
    /// stashed before `reset_timing` clears the platform's probes.
    pub(crate) episode_trace: Option<Vec<TraceEvent>>,
}

impl SecureEpdSystem {
    /// Builds a fresh system (zeroed NVM, cold caches) from `config`.
    ///
    /// Non-EPD persistence domains (ADR, BBB) force the eager update
    /// scheme: their durable stores must leave the NVM tree verifiable
    /// at any instant, which the lazy scheme cannot do.
    #[must_use]
    pub fn new(mut config: SystemConfig) -> Self {
        if config.domain != crate::domain::PersistenceDomain::Epd {
            config.scheme = UpdateScheme::Eager;
        }
        let map = config.address_map();
        let platform = Platform::new(config.nvm, config.crypto);
        let engine = MetadataEngine::new(
            map.clone(),
            config.scheme,
            config.metadata_caches,
            &config.tree_key(),
        );
        let hierarchy = CacheHierarchy::new(&config.hierarchy);
        Self {
            data_aes: Aes128::new(&config.data_key()),
            data_cmac: Cmac::new(&config.mac_key()),
            map,
            platform,
            engine,
            hierarchy,
            counters: DrainCounters::new(),
            episodes: EpisodeState::new(config.chv_rotation_slots),
            persist_buffer: None,
            persist_stats: PersistStats::default(),
            clock: Cycles::ZERO,
            episode_trace: None,
            config,
        }
    }

    /// Enables the *horus-probe* observability layer: every platform
    /// resource records cycle-stamped operation spans, drains and
    /// recoveries leave their event stream in
    /// [`take_episode_trace`](Self::take_episode_trace), and
    /// [`DrainReport`](crate::DrainReport)s carry utilization and
    /// critical-path attribution. Timing and counters are unaffected.
    pub fn enable_probe(&mut self) {
        self.platform.enable_probe();
    }

    /// Whether the probe layer records.
    #[must_use]
    pub fn probe_enabled(&self) -> bool {
        self.platform.probe_enabled()
    }

    /// Takes the trace of the most recent probed drain or recovery
    /// episode (`None` when unprobed or already taken).
    pub fn take_episode_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.episode_trace.take()
    }

    /// Builds a system whose run-time Merkle-tree update scheme matches
    /// what `scheme` requires (Base-EU needs eager updates; everything
    /// else runs the lazy scheme the paper assumes for EPD run-time
    /// performance).
    #[must_use]
    pub fn for_scheme(mut config: SystemConfig, scheme: DrainScheme) -> Self {
        config.scheme = match scheme {
            DrainScheme::BaseEager => UpdateScheme::Eager,
            _ => UpdateScheme::Lazy,
        };
        Self::new(config)
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The physical address map.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The timed platform (NVM + engines + accounting).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The cache hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable hierarchy access, used by workload generators installing a
    /// crash-time snapshot.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// The metadata engine (caches, tree root).
    #[must_use]
    pub fn metadata(&self) -> &MetadataEngine {
        &self.engine
    }

    /// The drain-counter registers.
    #[must_use]
    pub fn drain_counters(&self) -> &DrainCounters {
        &self.counters
    }

    /// The most recent unrecovered draining episode, if any.
    #[must_use]
    pub fn episode(&self) -> Option<Episode> {
        self.episodes.episode()
    }

    /// Whether the persistent drain-open register is set: a Horus drain
    /// was interrupted by a power failure, and neither a recovery nor a
    /// completed drain has closed the register since. Beside the
    /// persistent DC register on chip; the baselines have no such
    /// register, which is exactly their vulnerability window.
    #[must_use]
    pub fn drain_open(&self) -> bool {
        self.episodes.drain_open()
    }

    /// The CHV layout of the most recent episode, if it was a Horus
    /// drain.
    #[must_use]
    pub fn chv_layout(&self) -> Option<ChvLayout> {
        let ep = self.episodes.episode()?;
        let mode = ep.scheme.mac_granularity()?;
        Some(ChvLayout::new(self.chv_slot_base(ep.chv_slot), mode))
    }

    /// Base address of CHV rotation slot `slot`.
    #[must_use]
    pub(crate) fn chv_slot_base(&self, slot: u64) -> u64 {
        self.map.chv_base() + slot * self.config.chv_slot_blocks() * 64
    }

    /// Enables the Osiris stop-loss discipline (see
    /// [`osiris`](crate::osiris)) on the live system.
    pub fn enable_osiris(&mut self, stop_loss: u64) {
        self.engine.set_osiris(Some(stop_loss));
    }

    /// Test aid: turns the discipline off to simulate updates made
    /// without it.
    #[doc(hidden)]
    pub fn disable_osiris_for_test(&mut self) {
        self.engine.set_osiris(None);
    }

    /// The attacker's view of the off-chip NVM (threat model §IV-A):
    /// unrestricted, unaccounted read/write access to the device. Used
    /// by [`attack`](crate::attack) and by security tests mounting
    /// custom manipulations.
    pub fn attacker_nvm(&mut self) -> &mut horus_nvm::NvmDevice {
        self.platform.nvm.device_mut()
    }

    /// Debug aid: exhaustively checks the metadata verification
    /// invariant (linear in tree size; use small configs).
    ///
    /// # Errors
    ///
    /// A description of the first violated parent/child edge.
    #[doc(hidden)]
    pub fn debug_check_metadata(&self) -> Result<(), String> {
        self.engine.check_consistency(self.platform.nvm.device())
    }

    // ----- run-time path ---------------------------------------------------

    fn assert_data_addr(&self, addr: u64) {
        assert!(
            addr % 64 == 0 && addr < self.map.data_bytes(),
            "address {addr:#x} is not a block-aligned data address (data region is {} bytes)",
            self.map.data_bytes()
        );
    }

    /// A run-time store: writes `data` at `addr` into the hierarchy;
    /// dirty LLC evictions take the secure write path to NVM.
    ///
    /// # Errors
    ///
    /// Propagates an [`IntegrityError`] if metadata verification fails
    /// while handling an eviction (only possible if NVM was tampered
    /// with).
    pub fn write(&mut self, addr: u64, data: Block) -> Result<(), IntegrityError> {
        self.assert_data_addr(addr);
        if let Some(victim) = self.hierarchy.write(addr, data) {
            let t = self.clock;
            let done = self.secure_writeback(victim.addr, victim.data, t)?;
            self.clock = done;
        }
        Ok(())
    }

    /// A run-time load: returns the block at `addr`, from the hierarchy
    /// if cached, otherwise decrypted and verified from NVM (and filled
    /// into L1).
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] if the data MAC or any metadata MAC fails
    /// verification.
    pub fn read(&mut self, addr: u64) -> Result<Block, IntegrityError> {
        self.assert_data_addr(addr);
        if let Some(b) = self.hierarchy.read(addr) {
            return Ok(b);
        }
        let t = self.clock;
        let (ct, c) = self.platform.nvm.read(addr, "data", t);
        let (counter, t1) = self.engine.read_counter(&mut self.platform, addr, c.done)?;
        if counter == 0 {
            // The counter is integrity-verified and zero: no write ever
            // reached this block through the secure path, so it reads as
            // initialization zeros. (An attacker cannot fake this state
            // for a written block — its verified counter is non-zero.)
            self.clock = t1;
            return Ok([0u8; 64]);
        }
        let dec = self.platform.otp_op("data", t1);
        let data = otp::decrypt_block_ctr(&self.data_aes, addr, counter, &ct);
        let (stored_mac, t2) = self.engine.load_mac(&mut self.platform, addr, dec.done)?;
        let vc = self.platform.mac_op("verify_data", t2);
        let mac = self
            .data_cmac
            .mac64(&crate::chv::entry_mac_input(&ct, addr, counter));
        if mac != stored_mac {
            return Err(IntegrityError { addr, what: "data" });
        }
        self.clock = vc.done;
        if let Some(victim) = self.hierarchy.fill(addr, data) {
            let done = self.secure_writeback(victim.addr, victim.data, self.clock)?;
            self.clock = done;
        }
        Ok(data)
    }

    /// The full secure write path for one block leaving the persistence
    /// domain's volatile part: bump + verify the counter, encrypt, MAC,
    /// and write — handling counter overflow by re-encrypting the page.
    pub(crate) fn secure_writeback(
        &mut self,
        addr: u64,
        data: Block,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let update = self
            .engine
            .increment_counter(&mut self.platform, addr, ready)?;
        let mut t = update.ready;
        if update.outcome.overflowed() {
            t = self.reencrypt_page(addr, &update.old, &update.new, t)?;
        }
        let counter = update.outcome.counter();
        let enc = self.platform.otp_op("data", t);
        let ct = otp::encrypt_block_ctr(&self.data_aes, addr, counter, &data);
        let mc = self.platform.mac_op("data_mac", enc.done);
        let mac = self
            .data_cmac
            .mac64(&crate::chv::entry_mac_input(&ct, addr, counter));
        t = self
            .engine
            .store_mac(&mut self.platform, addr, mac, mc.done)?;
        let wc = self.platform.nvm.write(addr, ct, "data", t);
        Ok(wc.done)
    }

    /// Re-encrypts the 4 KB page after a minor-counter overflow: every
    /// sibling block's ciphertext is re-based from its old counter to its
    /// new one, with fresh MACs.
    fn reencrypt_page(
        &mut self,
        addr: u64,
        old: &horus_metadata::CounterBlock,
        new: &horus_metadata::CounterBlock,
        ready: Cycles,
    ) -> Result<Cycles, IntegrityError> {
        let page = addr & !4095;
        let written_slot = self.map.counter_slot(addr);
        let mut t = ready;
        for slot in 0..64 {
            if slot == written_slot {
                continue; // freshly written by the caller
            }
            let saddr = page + (slot as u64) * 64;
            let (ct, c) = self.platform.nvm.read(saddr, "reenc", t);
            let dec = self.platform.otp_op("reenc", c.done);
            let plain = otp::decrypt_block_ctr(&self.data_aes, saddr, old.counter(slot), &ct);
            let new_ct = otp::encrypt_block_ctr(&self.data_aes, saddr, new.counter(slot), &plain);
            let mc = self.platform.mac_op("reenc_mac", dec.done);
            let mac = self.data_cmac.mac64(&crate::chv::entry_mac_input(
                &new_ct,
                saddr,
                new.counter(slot),
            ));
            t = self
                .engine
                .store_mac(&mut self.platform, saddr, mac, mc.done)?;
            let wc = self.platform.nvm.write(saddr, new_ct, "reenc", t);
            t = wc.done;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SecureEpdSystem {
        SecureEpdSystem::new(SystemConfig::small_test())
    }

    fn cached_anywhere(h: &CacheHierarchy, addr: u64) -> bool {
        h.l1().contains(addr) || h.l2().contains(addr) || h.llc().contains(addr)
    }

    #[test]
    fn write_then_read_hits_hierarchy() {
        let mut s = sys();
        s.write(0x1000, [7u8; 64]).expect("ok");
        assert_eq!(s.read(0x1000).expect("ok"), [7u8; 64]);
        // No NVM data traffic yet: it never left the hierarchy.
        assert_eq!(s.platform().nvm.stats().get("mem.write.data"), 0);
    }

    #[test]
    fn eviction_roundtrips_through_encrypted_memory() {
        let mut s = sys();
        // Write far more distinct lines than the hierarchy holds, forcing
        // dirty evictions through the secure path.
        let lines = 512u64;
        for i in 0..lines {
            s.write(i * 4096, [i as u8; 64]).expect("ok");
        }
        assert!(
            s.platform().nvm.stats().get("mem.write.data") > 0,
            "evictions hit NVM"
        );
        // Everything reads back with verification.
        for i in 0..lines {
            assert_eq!(
                s.read(i * 4096).expect("verifies"),
                [i as u8; 64],
                "line {i}"
            );
        }
        // Memory holds ciphertext, not plaintext.
        let some_evicted = (0..lines)
            .map(|i| i * 4096)
            .find(|a| s.platform().nvm.device().is_written(*a))
            .expect("at least one line in NVM");
        let raw = s.platform().nvm.device().read_block(some_evicted);
        assert_ne!(
            raw,
            [(some_evicted / 4096) as u8; 64],
            "NVM content is encrypted"
        );
    }

    #[test]
    fn tampered_data_detected_on_read() {
        let mut s = sys();
        for i in 0..512u64 {
            s.write(i * 4096, [3u8; 64]).expect("ok");
        }
        let victim = (0..512u64)
            .map(|i| i * 4096)
            .find(|a| {
                s.platform().nvm.device().is_written(*a) && !cached_anywhere(s.hierarchy(), *a)
            })
            .expect("an evicted line");
        let mut ct = s.platform().nvm.device().read_block(victim);
        ct[0] ^= 1;
        s.platform.nvm.device_mut().write_block(victim, ct);
        let err = s.read(victim).expect_err("tamper must be detected");
        assert_eq!(err.what, "data");
    }

    #[test]
    fn counter_overflow_reencrypts_page() {
        let mut s = sys();
        let addr = 0x0000u64;
        // Park sibling data in NVM first.
        s.write(addr + 64, [0xAB; 64]).expect("ok");
        // Force the sibling out of the hierarchy so NVM is authoritative.
        for i in 1..2048u64 {
            s.write(i * 4096, [0u8; 64]).expect("ok");
        }
        // Drive one block's minor counter past the 7-bit limit via the
        // secure write path directly.
        let mut t = s.clock;
        for _ in 0..130 {
            t = s.secure_writeback(addr, [0x55; 64], t).expect("ok");
        }
        s.clock = t;
        assert!(
            s.platform().nvm.stats().get("mem.write.reenc") > 0,
            "page re-encrypted"
        );
        // Both the overflowed block and its sibling still verify.
        assert_eq!(s.read(addr).expect("ok"), [0x55; 64]);
        assert_eq!(s.read(addr + 64).expect("ok"), [0xAB; 64]);
    }

    #[test]
    fn for_scheme_picks_runtime_update_scheme() {
        let cfg = SystemConfig::small_test();
        let eager = SecureEpdSystem::for_scheme(cfg.clone(), DrainScheme::BaseEager);
        assert_eq!(eager.metadata().scheme(), UpdateScheme::Eager);
        let lazy = SecureEpdSystem::for_scheme(cfg, DrainScheme::HorusDlm);
        assert_eq!(lazy.metadata().scheme(), UpdateScheme::Lazy);
    }
}
