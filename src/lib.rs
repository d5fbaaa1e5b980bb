//! # Horus — persistent security for extended-persistence-domain memory
//!
//! A from-scratch Rust reproduction of *"Horus: Persistent Security for
//! Extended Persistence-Domain Memory Systems"* (Han, Tuck, Awad —
//! MICRO 2022): a functional, timed simulator of a secure NVM system
//! with an eADR-style extended persistence domain, the two baseline
//! secure drain schemes, and the Horus cache-hierarchy-vault drain that
//! cuts the EPD hold-up budget ~5x.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `horus-core` | the secure EPD system, drain schemes, CHV, recovery, attacks |
//! | [`metadata`] | `horus-metadata` | split counters, Bonsai Merkle Tree, metadata caches, lazy/eager engines |
//! | [`crypto`] | `horus-crypto` | AES-128, AES-CMAC, counter-mode pads |
//! | [`cache`] | `horus-cache` | set-associative caches and the L1/L2/LLC hierarchy |
//! | [`nvm`] | `horus-nvm` | functional PCM model, bank timing, physical address map |
//! | [`sim`] | `horus-sim` | cycles, slot-scheduled resources, event queue, statistics |
//! | [`energy`] | `horus-energy` | drain energy and battery sizing (Tables II–III) |
//! | [`workload`] | `horus-workload` | crash-snapshot generators and access traces |
//! | [`harness`] | `horus-harness` | parallel, cache-aware experiment orchestration |
//! | [`mod@bench`] | `horus-bench` | the paper's figures/tables, the crash-point sweep, the bench gate |
//! | [`service`] | `horus-service` | the experiment daemon: admission control, dedup, a job queue that local runners and remote workers lease from, load generation |
//!
//! # Quickstart
//!
//! ```
//! use horus::core::{DrainScheme, SecureEpdSystem, SystemConfig};
//!
//! // Build a (small, for doctest speed) secure EPD system.
//! let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
//!
//! // Run some persistent application writes.
//! sys.write(0x0000, [0xAA; 64])?;
//! sys.write(0x4040, [0xBB; 64])?;
//!
//! // Power fails: drain the hierarchy through the Horus vault…
//! let drain = sys.crash_and_drain(DrainScheme::HorusSlm);
//! assert!(drain.flushed_blocks >= 2);
//!
//! // …power returns: verify + decrypt the vault and restore.
//! let recovery = sys.recover()?;
//! assert_eq!(recovery.restored_blocks, drain.flushed_blocks);
//! assert_eq!(sys.read(0x0000)?, [0xAA; 64]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results of every table
//! and figure.

#![forbid(unsafe_code)]

pub use horus_bench as bench;
pub use horus_cache as cache;
pub use horus_core as core;
pub use horus_crypto as crypto;
pub use horus_energy as energy;
pub use horus_harness as harness;
pub use horus_metadata as metadata;
pub use horus_nvm as nvm;
pub use horus_obs as obs;
pub use horus_service as service;
pub use horus_sim as sim;
pub use horus_workload as workload;

/// Commonly-used items, one `use` away.
pub mod prelude {
    pub use horus_core::{
        DrainReport, DrainScheme, RecoveryError, RecoveryReport, SecureEpdSystem, SystemConfig,
    };
    pub use horus_energy::{Battery, DrainEnergyModel};
    pub use horus_workload::{fill_hierarchy, FillPattern};
}
