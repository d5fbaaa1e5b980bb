//! Horus: persistent security for extended-persistence-domain (EPD)
//! memory systems — the paper's core contribution (MICRO 2022).
//!
//! An EPD (Intel eADR-style) platform holds enough back-up power to flush
//! the entire cache hierarchy to NVM on a power failure. With secure
//! memory (counter-mode encryption + Bonsai Merkle Tree), doing that
//! flush through the *run-time* metadata path explodes the number of
//! memory operations — and hence the battery — by an order of magnitude
//! (§III). Horus instead streams the dirty hierarchy into a reserved
//! **cache hierarchy vault** (CHV) protected only by an on-chip monotonic
//! **drain counter** and sequential MACs, making the drain independent of
//! the main security metadata (§IV).
//!
//! The crate provides:
//!
//! * [`SystemConfig`] — the paper's Table I configuration, and knobs for
//!   every sweep in the evaluation;
//! * [`SecureEpdSystem`] — a functional secure memory controller with a
//!   run-time read/write path (encryption, MACs, tree updates);
//! * [`DrainScheme`] — the four evaluated drain schemes (`Base-LU`,
//!   `Base-EU`, `Horus-SLM`, `Horus-DLM`) plus the non-secure reference,
//!   each producing a [`DrainReport`] with the cycle/request/MAC
//!   breakdowns of Figures 6 and 11–13;
//! * recovery ([`SecureEpdSystem::recover`]) and an attacker toolkit
//!   ([`attack`]) showing that tampering, splicing, replay and truncation
//!   of the CHV are all detected (§IV-C.4).
//!
//! # Quickstart
//!
//! ```
//! use horus_core::{DrainScheme, SecureEpdSystem, SystemConfig};
//!
//! // A small system so the doctest is fast.
//! let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
//! sys.write(0x0000, [1u8; 64]);
//! sys.write(0x4000, [2u8; 64]);
//! let report = sys.crash_and_drain(DrainScheme::HorusSlm);
//! assert!(report.flushed_blocks >= 2);
//! let rec = sys.recover().expect("CHV verifies");
//! assert_eq!(rec.restored_blocks, report.flushed_blocks);
//! assert_eq!(sys.read(0x0000).unwrap(), [1u8; 64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod chv;
pub mod config;
pub mod counter_reg;
pub mod crash;
pub mod domain;
pub mod drain;
mod episode;
pub mod osiris;
pub mod recovery;
pub mod report;
pub mod system;

pub use chv::{ChvLayout, MacGranularity};
pub use config::SystemConfig;
pub use counter_reg::DrainCounters;
pub use crash::{
    run_crash_point, CrashPointReport, CrashRecovery, CrashSpec, CrashVerdict, InterruptedDrain,
    TornWriteModel,
};
pub use domain::{PersistStats, PersistenceDomain};
pub use drain::DrainScheme;
pub use osiris::OsirisReport;
pub use recovery::{RecoveryError, RecoveryMode, RecoveryReport};
pub use report::DrainReport;
pub use system::SecureEpdSystem;
