//! System configuration (the paper's Table I, plus sweep knobs).

use crate::domain::PersistenceDomain;
use horus_cache::HierarchyConfig;
use horus_crypto::Aes128;
use horus_metadata::{CryptoTimingConfig, MetadataCacheConfig, UpdateScheme};
use horus_nvm::{AddressMap, NvmConfig};
use serde::{Deserialize, Serialize};

/// Complete configuration of a secure EPD system.
///
/// [`SystemConfig::paper_default`] reproduces Table I; the evaluation
/// sweeps build variants via [`SystemConfig::with_llc_bytes`]. All keys
/// are derived deterministically from [`seed`](Self::seed) so experiments
/// are reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The processor cache hierarchy to protect.
    pub hierarchy: HierarchyConfig,
    /// NVM device and channel parameters.
    pub nvm: NvmConfig,
    /// On-chip crypto-engine timing.
    pub crypto: CryptoTimingConfig,
    /// Security metadata cache sizes.
    pub metadata_caches: MetadataCacheConfig,
    /// Run-time Merkle-tree update scheme.
    pub scheme: UpdateScheme,
    /// Protected data size in bytes (Table I: 32 GB).
    pub data_bytes: u64,
    /// Where the persistence boundary sits (EPD by default; ADR and BBB
    /// model the paper's related-work design points).
    pub domain: PersistenceDomain,
    /// Number of CHV rotation slots (wear levelling): each draining
    /// episode writes a different slot of the reserved vault region, so
    /// vault cells wear `slots`x slower. 1 = the paper's fixed vault.
    pub chv_rotation_slots: u64,
    /// Key-derivation seed (reproducibility).
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's Table I configuration (lazy run-time updates, the
    /// scheme EPD systems would choose for run-time performance).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            hierarchy: HierarchyConfig::paper_default(),
            nvm: NvmConfig::paper_default(),
            crypto: CryptoTimingConfig::paper_default(),
            metadata_caches: MetadataCacheConfig::paper_default(),
            scheme: UpdateScheme::Lazy,
            data_bytes: 32 << 30,
            domain: PersistenceDomain::Epd,
            chv_rotation_slots: 1,
            seed: 0x4852_5355, // "HORU"
        }
    }

    /// Table I with a different LLC size (Figures 14–16 sweeps).
    #[must_use]
    pub fn with_llc_bytes(llc_bytes: u64) -> Self {
        Self {
            hierarchy: HierarchyConfig::with_llc_bytes(llc_bytes),
            ..Self::paper_default()
        }
    }

    /// A scaled-down configuration for unit tests and doctests: a few-KB
    /// hierarchy over 16 MB of data, with proportionally small metadata
    /// caches. Semantics identical, run time negligible.
    #[must_use]
    pub fn small_test() -> Self {
        Self {
            hierarchy: HierarchyConfig {
                l1_bytes: 8 * 64,
                l1_ways: 2,
                l2_bytes: 16 * 64,
                l2_ways: 2,
                llc_bytes: 64 * 64,
                llc_ways: 4,
            },
            nvm: NvmConfig::paper_default(),
            crypto: CryptoTimingConfig::paper_default(),
            metadata_caches: MetadataCacheConfig {
                counter_cache_bytes: 16 * 64,
                mac_cache_bytes: 16 * 64,
                tree_cache_bytes: 16 * 64,
                ways: 2,
                policy: horus_cache::ReplacementPolicy::Lru,
            },
            scheme: UpdateScheme::Lazy,
            data_bytes: 16 << 20,
            domain: PersistenceDomain::Epd,
            chv_rotation_slots: 1,
            seed: 0x5445_5354, // "TEST"
        }
    }

    /// Builds the physical address map implied by this configuration:
    /// CHV sized by the paper's formula (§IV-D,
    /// `1.25 x cache + 1.125 x metadata cache`) with a 2x safety factor
    /// for the DLM supergroup padding and drained metadata.
    #[must_use]
    pub fn address_map(&self) -> AddressMap {
        let chv_blocks = self.chv_slot_blocks() * self.chv_rotation_slots.max(1);
        let shadow_blocks = self.metadata_caches.total_lines() * 2 + 8;
        AddressMap::new(self.data_bytes, chv_blocks, shadow_blocks)
    }

    /// Blocks reserved per CHV rotation slot (one episode's worst case).
    #[must_use]
    pub fn chv_slot_blocks(&self) -> u64 {
        let drainable = self.hierarchy.total_lines() + self.metadata_caches.total_lines();
        drainable * 2 + 64
    }

    fn derive_key(&self, purpose: u64) -> [u8; 16] {
        // Deterministic key derivation: AES(seed-key, purpose) — not a
        // KDF for production use, but cryptographically distinct keys for
        // the simulator.
        let mut kd = [0u8; 16];
        kd[..8].copy_from_slice(&self.seed.to_le_bytes());
        kd[8..].copy_from_slice(&0x4b44_4659_u64.to_le_bytes()); // "KDFY"
        let aes = Aes128::new(&kd);
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&purpose.to_le_bytes());
        aes.encrypt_block(&input)
    }

    /// The data-encryption key (counter-mode pads for data blocks).
    #[must_use]
    pub fn data_key(&self) -> [u8; 16] {
        self.derive_key(1)
    }

    /// The data-MAC key.
    #[must_use]
    pub fn mac_key(&self) -> [u8; 16] {
        self.derive_key(2)
    }

    /// The Merkle-tree key.
    #[must_use]
    pub fn tree_key(&self) -> [u8; 16] {
        self.derive_key(3)
    }

    /// The CHV encryption key (drain-time pads).
    #[must_use]
    pub fn chv_key(&self) -> [u8; 16] {
        self.derive_key(4)
    }

    /// The CHV MAC key.
    #[must_use]
    pub fn chv_mac_key(&self) -> [u8; 16] {
        self.derive_key(5)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A serializable summary of the configuration, printed by
/// `horus-cli config` to reproduce Table I.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ConfigSummary {
    /// L1/L2/LLC sizes in bytes.
    pub hierarchy_bytes: (u64, u64, u64),
    /// Total drainable cache lines.
    pub total_lines: u64,
    /// NVM size in bytes.
    pub data_bytes: u64,
    /// (read, write) latency in nanoseconds.
    pub nvm_latency_ns: (f64, f64),
    /// (AES, hash) latency in cycles.
    pub engine_latency_cycles: (u64, u64),
    /// (counter, MAC, tree) metadata cache sizes in bytes.
    pub metadata_cache_bytes: (u64, u64, u64),
    /// Stored Merkle-tree levels over NVM.
    pub bmt_levels: usize,
}

impl ConfigSummary {
    /// Summarizes a configuration.
    #[must_use]
    pub fn of(cfg: &SystemConfig) -> Self {
        let map = cfg.address_map();
        Self {
            hierarchy_bytes: (
                cfg.hierarchy.l1_bytes,
                cfg.hierarchy.l2_bytes,
                cfg.hierarchy.llc_bytes,
            ),
            total_lines: cfg.hierarchy.total_lines(),
            data_bytes: cfg.data_bytes,
            nvm_latency_ns: (cfg.nvm.read_ns, cfg.nvm.write_ns),
            engine_latency_cycles: (cfg.crypto.aes_latency.0, cfg.crypto.hash_latency.0),
            metadata_cache_bytes: (
                cfg.metadata_caches.counter_cache_bytes,
                cfg.metadata_caches.mac_cache_bytes,
                cfg.metadata_caches.tree_cache_bytes,
            ),
            bmt_levels: map.bmt_levels(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.hierarchy.llc_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.data_bytes, 32 << 30);
        assert_eq!(cfg.metadata_caches.mac_cache_bytes, 512 * 1024);
        assert_eq!(cfg.hierarchy.total_lines(), 295_936);
    }

    #[test]
    fn keys_are_distinct_and_deterministic() {
        let cfg = SystemConfig::paper_default();
        let keys = [
            cfg.data_key(),
            cfg.mac_key(),
            cfg.tree_key(),
            cfg.chv_key(),
            cfg.chv_mac_key(),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        assert_eq!(cfg.data_key(), SystemConfig::paper_default().data_key());
        let other = SystemConfig { seed: 99, ..cfg };
        assert_ne!(other.data_key(), SystemConfig::paper_default().data_key());
    }

    #[test]
    fn chv_fits_the_drainable_state() {
        for cfg in [SystemConfig::paper_default(), SystemConfig::small_test()] {
            let map = cfg.address_map();
            let drainable = cfg.hierarchy.total_lines() + cfg.metadata_caches.total_lines();
            // Worst case CHV usage: every drained block plus an address
            // block and a MAC block per 8 (SLM).
            assert!(map.chv_blocks() >= drainable + 2 * drainable.div_ceil(8));
        }
    }

    #[test]
    fn summary_captures_table1() {
        let s = ConfigSummary::of(&SystemConfig::paper_default());
        assert_eq!(s.nvm_latency_ns, (150.0, 500.0));
        assert_eq!(s.engine_latency_cycles, (40, 160));
        assert_eq!(s.bmt_levels, 8);
        assert_eq!(s.total_lines, 295_936);
    }

    #[test]
    fn llc_sweep_configs_build() {
        for mb in [8u64, 16, 32, 64, 128] {
            let cfg = SystemConfig::with_llc_bytes(mb << 20);
            let _ = cfg.address_map();
            assert_eq!(cfg.hierarchy.llc_bytes, mb << 20);
        }
    }
}
