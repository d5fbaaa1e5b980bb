//! Persistence-domain models: ADR, BBB, and EPD (paper §I, §II-A, §VI).
//!
//! The paper situates Horus in a design space of *where the persistence
//! boundary sits*:
//!
//! * **ADR** — only the memory controller's write-pending queue is
//!   battery-backed. A persistent store must push its line (and, in a
//!   secure system, all its security metadata) through the secure write
//!   path before it is durable — the slow path Dolos and friends
//!   optimize.
//! * **BBB** — a small battery-backed persist buffer near L1
//!   (Alshboul et al., HPCA'21). A store is durable the moment it enters
//!   the buffer; the buffer drains to NVM in the background, so persists
//!   are fast until the NVM write bandwidth saturates the buffer.
//! * **EPD** (eADR) — the whole cache hierarchy is battery-backed;
//!   a store is durable on arrival in L1. Free persists, but the
//!   emergency drain is huge — which is exactly the problem Horus
//!   attacks.
//!
//! [`SecureEpdSystem::persist`](crate::SecureEpdSystem::persist) gives
//! all three a uniform durable-store API so their run-time cost and
//! crash-time work can be compared (`horus-cli ablation domains`).

use crate::system::SecureEpdSystem;
use horus_metadata::IntegrityError;
use horus_nvm::Block;
use horus_sim::Cycles;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Where the persistence boundary sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PersistenceDomain {
    /// Battery-backed WPQ only: persists complete when the secure write
    /// path finishes (data + metadata durable).
    AdrOnly,
    /// A battery-backed persist buffer of the given line capacity; the
    /// buffer drains to NVM in the background.
    Bbb {
        /// Buffer capacity in cache lines.
        buffer_lines: usize,
    },
    /// The whole cache hierarchy is battery-backed (eADR). The default.
    #[default]
    Epd,
}

impl std::fmt::Display for PersistenceDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistenceDomain::AdrOnly => write!(f, "ADR"),
            PersistenceDomain::Bbb { buffer_lines } => write!(f, "BBB({buffer_lines})"),
            PersistenceDomain::Epd => write!(f, "EPD"),
        }
    }
}

/// Run-time persist statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistStats {
    /// Durable stores issued.
    pub persists: u64,
    /// Persists that had to wait for persist-buffer capacity (BBB only).
    pub buffer_stalls: u64,
    /// Total cycles from issue to durability, summed over persists.
    pub total_latency_cycles: u64,
}

impl PersistStats {
    /// Mean cycles from store to durability.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.persists == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.persists as f64
        }
    }
}

/// The battery-backed persist buffer of the BBB domain.
///
/// Entries are inserted with the completion time of their (immediately
/// issued) background write-back; an insert into a full buffer waits for
/// the oldest write-back to finish.
#[derive(Debug, Clone)]
pub(crate) struct PersistBuffer {
    capacity: usize,
    inflight: VecDeque<Cycles>,
}

impl PersistBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "persist buffer must hold at least one line");
        Self {
            capacity,
            inflight: VecDeque::with_capacity(capacity),
        }
    }

    /// Frees completed entries as of `now`, then reports the time at
    /// which a slot is available (>= `now` if the buffer is full).
    fn slot_available(&mut self, now: Cycles) -> Cycles {
        while let Some(done) = self.inflight.front() {
            if *done <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.capacity {
            now
        } else {
            *self.inflight.front().expect("full buffer is non-empty")
        }
    }

    fn push(&mut self, writeback_done: Cycles) {
        self.inflight.push_back(writeback_done);
    }

    /// The completion time of all outstanding write-backs (the BBB crash
    /// flush: the buffer is battery-backed, so this is the only work).
    pub(crate) fn drain_done(&self) -> Cycles {
        self.inflight.back().copied().unwrap_or(Cycles::ZERO)
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.inflight.len()
    }

    pub(crate) fn clear(&mut self) {
        self.inflight.clear();
    }
}

impl SecureEpdSystem {
    /// A *durable* store: completes only when the data is inside the
    /// configured persistence domain.
    ///
    /// * `Epd` — equivalent to [`write`](Self::write): arrival in the
    ///   (battery-backed) hierarchy is durability.
    /// * `Bbb` — the line enters the persist buffer (waiting for a slot
    ///   if full) and its background write-back is issued; the hierarchy
    ///   also receives the store for later loads.
    /// * `AdrOnly` — the line goes through the full secure write path;
    ///   durability is the write-back's completion.
    ///
    /// Returns the cycles from issue to durability.
    ///
    /// # Errors
    ///
    /// Propagates metadata [`IntegrityError`]s from the secure write
    /// path.
    pub fn persist(&mut self, addr: u64, data: Block) -> Result<Cycles, IntegrityError> {
        let issued = self.clock;
        let durable_at = match self.config.domain {
            PersistenceDomain::Epd => {
                self.write(addr, data)?;
                issued // durable immediately on arrival in the hierarchy
            }
            PersistenceDomain::AdrOnly => {
                // The store still lands in the (volatile) hierarchy for
                // locality, but durability requires the full secure
                // write-back *and* durable metadata (§II-D).
                let spill = self.hierarchy.write(addr, data);
                let mut t = self.secure_writeback(addr, data, issued)?;
                t = self.engine.persist_strict(&mut self.platform, addr, t)?;
                if let Some(victim) = spill {
                    if victim.addr != addr {
                        t = self.secure_writeback(victim.addr, victim.data, t)?;
                        t = self
                            .engine
                            .persist_strict(&mut self.platform, victim.addr, t)?;
                    }
                }
                self.clock = t;
                t
            }
            PersistenceDomain::Bbb { buffer_lines } => {
                if self.persist_buffer.is_none() {
                    self.persist_buffer = Some(PersistBuffer::new(buffer_lines));
                }
                let spill = self.hierarchy.write(addr, data);
                // Admission: wait for a buffer slot if needed.
                let buffer = self.persist_buffer.as_mut().expect("just created");
                let admitted = buffer.slot_available(issued);
                let stalled = admitted > issued;
                // Background write-back starts at admission; the entry
                // only leaves the battery-backed buffer once data *and*
                // metadata are durable.
                let done = self.secure_writeback(addr, data, admitted)?;
                let done = self.engine.persist_strict(&mut self.platform, addr, done)?;
                let buffer = self.persist_buffer.as_mut().expect("present");
                buffer.push(done);
                if stalled {
                    self.persist_stats.buffer_stalls += 1;
                }
                let mut t = admitted;
                if let Some(victim) = spill {
                    if victim.addr != addr {
                        t = self
                            .secure_writeback(victim.addr, victim.data, t)?
                            .max(admitted);
                    }
                }
                self.clock = t.max(admitted);
                admitted
            }
        };
        self.persist_stats.persists += 1;
        self.persist_stats.total_latency_cycles += durable_at.saturating_sub(issued).0;
        Ok(durable_at)
    }

    /// Run-time persist statistics.
    #[must_use]
    pub fn persist_stats(&self) -> PersistStats {
        self.persist_stats
    }

    /// Lines currently held by the BBB persist buffer.
    #[must_use]
    pub fn persist_buffer_occupancy(&self) -> usize {
        self.persist_buffer
            .as_ref()
            .map_or(0, PersistBuffer::occupancy)
    }

    /// Simulates an outage for the **non-EPD** domains: the volatile
    /// hierarchy is lost; the battery only finishes the persistence
    /// domain's own contents (nothing for ADR — the WPQ drains in
    /// hardware; the in-flight buffer write-backs for BBB). Returns the
    /// residual hold-up time in cycles.
    ///
    /// For the EPD domain use
    /// [`crash_and_drain`](Self::crash_and_drain) — the whole hierarchy
    /// must be flushed there.
    ///
    /// # Panics
    ///
    /// Panics if the configured domain is [`PersistenceDomain::Epd`].
    pub fn crash_power_loss(&mut self) -> Cycles {
        assert_ne!(
            self.config.domain,
            PersistenceDomain::Epd,
            "EPD systems drain the hierarchy: use crash_and_drain"
        );
        let residual = match (&self.config.domain, &self.persist_buffer) {
            (PersistenceDomain::Bbb { .. }, Some(buf)) => {
                buf.drain_done().saturating_sub(self.clock)
            }
            _ => Cycles::ZERO,
        };
        if let Some(buf) = self.persist_buffer.as_mut() {
            buf.clear();
        }
        self.hierarchy.clear();
        self.engine.clear_caches_on_power_loss();
        self.clock = Cycles::ZERO;
        residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::SecureEpdSystem;

    fn sys(domain: PersistenceDomain) -> SecureEpdSystem {
        let cfg = SystemConfig {
            domain,
            ..SystemConfig::small_test()
        };
        SecureEpdSystem::new(cfg)
    }

    #[test]
    fn adr_persists_survive_power_loss_without_a_drain() {
        let mut s = sys(PersistenceDomain::AdrOnly);
        for i in 0..16u64 {
            s.persist(i * 16448, [i as u8 + 1; 64]).expect("persist");
        }
        let residual = s.crash_power_loss();
        assert_eq!(residual, Cycles::ZERO, "ADR needs no residual hold-up");
        for i in 0..16u64 {
            assert_eq!(s.read(i * 16448).expect("verified"), [i as u8 + 1; 64]);
        }
    }

    #[test]
    fn epd_writes_are_lost_without_the_drain() {
        // The EPD contract: the hierarchy IS the persistence domain, so
        // cutting power without the backed drain loses recent stores.
        let mut s = sys(PersistenceDomain::Epd);
        s.persist(0x4000, [7; 64]).expect("persist");
        // Simulate a failed battery: wipe volatile state directly.
        s.hierarchy_mut().clear();
        assert_eq!(
            s.read(0x4000).expect("verified zeros"),
            [0u8; 64],
            "store was lost"
        );
    }

    #[test]
    fn epd_persists_are_instantaneous() {
        let mut s = sys(PersistenceDomain::Epd);
        for i in 0..32u64 {
            s.persist(i * 16448, [1; 64]).expect("persist");
        }
        assert_eq!(s.persist_stats().persists, 32);
        assert_eq!(s.persist_stats().mean_latency(), 0.0);
    }

    #[test]
    fn adr_persists_pay_the_secure_write_path() {
        let mut s = sys(PersistenceDomain::AdrOnly);
        s.persist(0, [1; 64]).expect("persist");
        let stats = s.persist_stats();
        assert!(
            stats.mean_latency() > 2000.0,
            "ADR persists wait for NVM + metadata ({} cycles)",
            stats.mean_latency()
        );
    }

    #[test]
    fn bbb_absorbs_bursts_then_stalls_at_capacity() {
        let mut s = sys(PersistenceDomain::Bbb { buffer_lines: 4 });
        for i in 0..32u64 {
            s.persist(i * 16448, [2; 64]).expect("persist");
        }
        let stats = s.persist_stats();
        assert!(
            stats.buffer_stalls > 0,
            "a 4-line buffer must fill under a 32-store burst"
        );
        assert!(stats.buffer_stalls < 32, "the first inserts are free");
        // Still far cheaper on average than ADR.
        let mut adr = sys(PersistenceDomain::AdrOnly);
        for i in 0..32u64 {
            adr.persist(i * 16448, [2; 64]).expect("persist");
        }
        assert!(stats.mean_latency() < adr.persist_stats().mean_latency());
    }

    #[test]
    fn bbb_crash_flushes_only_the_buffer() {
        let mut s = sys(PersistenceDomain::Bbb { buffer_lines: 8 });
        for i in 0..8u64 {
            s.persist(i * 16448, [3; 64]).expect("persist");
        }
        assert!(s.persist_buffer_occupancy() > 0);
        let _residual = s.crash_power_loss();
        assert_eq!(s.persist_buffer_occupancy(), 0);
        // Persisted data is in NVM (the background write-backs were
        // issued at admission).
        for i in 0..8u64 {
            assert_eq!(s.read(i * 16448).expect("verified"), [3; 64]);
        }
    }

    #[test]
    #[should_panic(expected = "use crash_and_drain")]
    fn epd_rejects_power_loss_shortcut() {
        let mut s = sys(PersistenceDomain::Epd);
        let _ = s.crash_power_loss();
    }

    #[test]
    fn domain_display() {
        assert_eq!(PersistenceDomain::AdrOnly.to_string(), "ADR");
        assert_eq!(
            PersistenceDomain::Bbb { buffer_lines: 64 }.to_string(),
            "BBB(64)"
        );
        assert_eq!(PersistenceDomain::default(), PersistenceDomain::Epd);
    }
}
