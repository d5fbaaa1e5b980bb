//! Osiris-style disaster recovery (Ye et al., MICRO'18 — the paper's
//! §II-C prior work): reconstructing lost encryption counters from data
//! MACs.
//!
//! The lazy baseline's recoverability normally comes from the
//! Anubis-style shadow flush performed during the drain. If that shadow
//! is lost or was never written (a true disaster: the battery died
//! mid-drain, the shadow region failed), the stored counters lag their
//! true values by however many bumps were still cached — normally
//! unrecoverable.
//!
//! With the **stop-loss** discipline enabled
//! ([`MetadataEngine::with_osiris`](horus_metadata::MetadataEngine::with_osiris)),
//! every counter is persisted whenever it crosses a multiple of `K`, so
//! the true counter always lies in `[stored, stored + K)` — and because
//! each data block's MAC binds its ciphertext, address *and* counter,
//! the recovery can simply try the candidates against the stored MAC.
//! Afterwards the Merkle tree is rebuilt bottom-up from the repaired
//! counters (the Triad-NVM-style reconstruction Anubis was designed to
//! avoid — slow, but it turns a data-loss event into downtime).

use crate::recovery::RecoveryError;
use crate::system::SecureEpdSystem;
use horus_crypto::Mac64;
use horus_metadata::{CounterBlock, IntegrityError};
use horus_nvm::Region;
use horus_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Measurements of one Osiris disaster recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsirisReport {
    /// Data blocks scanned.
    pub blocks_scanned: u64,
    /// Counters whose stored value lagged and was repaired.
    pub counters_repaired: u64,
    /// Candidate-MAC trials performed.
    pub mac_trials: u64,
    /// Tree nodes rewritten during the rebuild.
    pub rebuild_writes: u64,
    /// Recovery time in seconds.
    pub seconds: f64,
}

impl SecureEpdSystem {
    /// Drops the metadata caches *without any flush* — the disaster this
    /// module recovers from (battery died before the metadata flush).
    /// The cache hierarchy is lost too.
    pub fn simulate_metadata_loss(&mut self) {
        self.hierarchy.clear();
        self.engine.clear_caches_on_power_loss();
        self.episodes.clear();
        self.platform.reset_timing();
        self.clock = Cycles::ZERO;
    }

    /// Reconstructs lost counters from data MACs and rebuilds the Merkle
    /// tree (see the module docs). Requires the engine's Osiris
    /// stop-loss discipline to have been active while the lost updates
    /// were made.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Metadata`] if some block's true counter cannot
    /// be found within the stop-loss window (its MAC matches no
    /// candidate — either tampering, or the discipline was not active).
    ///
    /// # Panics
    ///
    /// Panics if the engine has no stop-loss configured.
    pub fn osiris_disaster_recovery(&mut self) -> Result<OsirisReport, RecoveryError> {
        let k = self
            .engine
            .osiris_stop_loss()
            .expect("Osiris recovery requires the stop-loss discipline");
        self.platform.reset_timing();
        let mut report = OsirisReport {
            blocks_scanned: 0,
            counters_repaired: 0,
            mac_trials: 0,
            rebuild_writes: 0,
            seconds: 0.0,
        };
        let mut t = Cycles::ZERO;

        // Pass 1: scan every written data block, find its true counter.
        let data_addrs: Vec<u64> = self
            .platform
            .nvm
            .device()
            .written_addrs_sorted()
            .into_iter()
            .filter(|a| self.map.region_of(*a) == Region::Data)
            .collect();
        for addr in data_addrs {
            report.blocks_scanned += 1;
            let (ct, c1) = self.platform.nvm.read(addr, "osiris_scan", t);
            let cb_addr = self.map.counter_block_addr(addr);
            let (cb_bytes, c2) = self.platform.nvm.read(cb_addr, "osiris_scan", c1.done);
            let mb_addr = self.map.mac_block_addr(addr);
            let (mb, c3) = self.platform.nvm.read(mb_addr, "osiris_scan", c2.done);
            t = c3.done;
            let slot = self.map.counter_slot(addr);
            let mac_slot = self.map.mac_slot(addr);
            let mut stored_mac = [0u8; 8];
            stored_mac.copy_from_slice(&mb[mac_slot * 8..(mac_slot + 1) * 8]);
            let stored_mac = Mac64(stored_mac);

            let mut cb = CounterBlock::from_block(&cb_bytes);
            let stored_counter = cb.counter(slot);
            // The true counter lies within [stored, stored + k].
            let mut found = None;
            for candidate in stored_counter..=stored_counter + k {
                report.mac_trials += 1;
                let mc = self.platform.mac_op("osiris_trial", t);
                t = mc.done;
                let mac = self
                    .data_cmac
                    .mac64(&crate::chv::entry_mac_input(&ct, addr, candidate));
                if mac == stored_mac {
                    found = Some(candidate);
                    break;
                }
            }
            let Some(true_counter) = found else {
                return Err(RecoveryError::Metadata(IntegrityError {
                    addr,
                    what: "counter (no candidate matched within the stop-loss window)",
                }));
            };
            if true_counter != stored_counter {
                report.counters_repaired += 1;
                // Patch the minor counter: the major part cannot lag
                // (overflows force a write-through).
                let major = cb.major();
                let minor = (true_counter - (major << 7)) as u8;
                for _ in cb.minor(slot)..minor {
                    cb.increment(slot);
                }
                let c = self
                    .platform
                    .nvm
                    .write(cb_addr, cb.to_block(), "osiris_repair", t);
                t = c.done;
            }
        }

        // Pass 2: rebuild the tree bottom-up from the repaired counters
        // (Triad-NVM-style full reconstruction).
        t = self.rebuild_tree_from_counters(t, &mut report.rebuild_writes);

        let cycles = self.platform.busy_until().max(t);
        report.seconds = self.config.nvm.frequency.cycles_to_seconds(cycles);
        Ok(report)
    }

    /// Recomputes every Merkle-tree node from the stored counter blocks,
    /// writes the changed nodes, and installs the new root on-chip.
    fn rebuild_tree_from_counters(&mut self, mut t: Cycles, writes: &mut u64) -> Cycles {
        let map = self.map.clone();
        let bmt = self.engine.bmt();
        let mut macs: Vec<Mac64> = Vec::with_capacity(map.counter_blocks() as usize);
        let default_counter_mac = bmt.node_mac(&[0u8; 64]);
        for i in 0..map.counter_blocks() {
            let addr = map.counter_block_addr(0) + i * 64;
            if self.platform.nvm.device().is_written(addr) {
                let bytes = self.platform.nvm.device().read_block(addr);
                macs.push(self.engine.bmt().node_mac(&bytes));
            } else {
                macs.push(default_counter_mac);
            }
        }
        let mut root = Mac64::ZERO;
        for level in 0..self.engine.bmt().levels() {
            let nodes = map.bmt_level_nodes(level);
            let mut next = Vec::with_capacity(nodes as usize);
            for idx in 0..nodes {
                let mut node = [0u8; 64];
                for slot in 0..8usize {
                    if let Some(m) = macs.get(idx as usize * 8 + slot) {
                        node[slot * 8..(slot + 1) * 8].copy_from_slice(&m.0);
                    }
                }
                let addr = map.bmt_node_addr(level, idx);
                let changed = !self.platform.nvm.device().is_written(addr)
                    || self.platform.nvm.device().read_block(addr) != node;
                // Only nodes covering live state differ from defaults;
                // write those (counting the rebuild traffic).
                if changed && node != self.engine.bmt().default_node(level) {
                    let c = self.platform.nvm.write(addr, node, "tree_rebuild", t);
                    t = c.done;
                    *writes += 1;
                } else if changed {
                    // Reverting to the default: store it explicitly so
                    // stale bytes cannot linger.
                    let c = self.platform.nvm.write(addr, node, "tree_rebuild", t);
                    t = c.done;
                    *writes += 1;
                }
                let mc = self.platform.mac_op("tree_rebuild", t);
                t = mc.done;
                next.push(self.engine.bmt().node_mac(&node));
            }
            if nodes == 1 {
                root = next[0];
            }
            macs = next;
        }
        self.engine.install_rebuilt_root(root);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn osiris_system(stop_loss: u64) -> SecureEpdSystem {
        let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
        sys.enable_osiris(stop_loss);
        sys
    }

    /// Push writes through the secure path so both data and (stale)
    /// counters are in NVM, with fresh counter state only in the cache.
    /// 200 distinct lines overflow the 88-line test hierarchy, so every
    /// round forces write-backs.
    const LINES: u64 = 200;

    fn hammer(sys: &mut SecureEpdSystem, rounds: u8) {
        for round in 0..rounds {
            for i in 0..LINES {
                sys.write(i * 16448, [round.wrapping_add(i as u8); 64])
                    .expect("write");
            }
        }
    }

    #[test]
    fn disaster_without_stop_loss_is_unrecoverable() {
        // A hot block whose counter block never leaves the cache: with
        // the discipline off, its stored counter stays at 0 while the
        // true counter races ahead of any stop-loss window.
        let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
        sys.disable_osiris_for_test();
        let mut t = horus_sim::Cycles::ZERO;
        for round in 0..10u8 {
            t = sys.secure_writeback(0, [round; 64], t).expect("writeback");
        }
        // Machinery present at recovery time, but the damage is done.
        sys.enable_osiris(4);
        sys.simulate_metadata_loss();
        let err = sys
            .osiris_disaster_recovery()
            .expect_err("gap exceeds the window");
        assert!(matches!(err, RecoveryError::Metadata(_)), "{err:?}");
    }

    #[test]
    fn disaster_recovery_repairs_counters_and_data_verifies() {
        let mut sys = osiris_system(4);
        hammer(&mut sys, 11);
        // Push every dirty line to NVM through the secure path: the data
        // (and its Osiris-colocated MAC) land in NVM with the freshest
        // counters, while the counter blocks themselves stay cached —
        // exactly the lag the disaster then exposes.
        let dirty = sys.hierarchy().drain_order();
        let mut t = horus_sim::Cycles::ZERO;
        for (addr, data) in &dirty {
            t = sys.secure_writeback(*addr, *data, t).expect("writeback");
        }
        let expected: Vec<(u64, [u8; 64])> = (0..LINES)
            .map(|i| (i * 16448, [(10u8).wrapping_add(i as u8); 64]))
            .collect();
        sys.simulate_metadata_loss();
        let report = sys.osiris_disaster_recovery().expect("recoverable");
        assert!(
            report.blocks_scanned >= 100,
            "scanned {}",
            report.blocks_scanned
        );
        assert!(report.mac_trials >= report.blocks_scanned);
        assert!(report.rebuild_writes > 0);
        // Every block now reads back through full verification.
        for (addr, data) in expected {
            assert_eq!(sys.read(addr).expect("verified"), data, "addr {addr:#x}");
        }
    }

    #[test]
    fn recovery_is_idempotent_when_nothing_lags() {
        let mut sys = osiris_system(1); // stop-loss 1: every bump persists
        hammer(&mut sys, 3);
        sys.simulate_metadata_loss();
        let report = sys.osiris_disaster_recovery().expect("recoverable");
        assert_eq!(report.counters_repaired, 0, "stop-loss 1 never lags");
    }
}
