//! Parallel, cache-aware experiment orchestration.
//!
//! Every experiment point of the Horus evaluation — one (scheme,
//! workload, configuration) tuple — is an independent, deterministic
//! simulation. This crate turns each point into a serializable
//! [`JobSpec`], hashes it into a stable content key, executes jobs on a
//! [`std::thread`] worker pool with panic isolation (one diverging
//! configuration cannot kill a sweep), and memoizes finished results in
//! an on-disk JSON cache so re-runs and resumed sweeps skip completed
//! work entirely.
//!
//! The layering:
//!
//! ```text
//!   Harness          front end: jobs, cache dir, progress mode
//!     │
//!     ├── job        JobSpec (scheme + workload + config) → JobResult
//!     ├── cache      target/horus-cache/<content-key>.json memoization
//!     ├── pool       ordered worker pool, catch_unwind isolation
//!     └── progress   JSON-lines progress events with ETA
//! ```
//!
//! # Determinism contract
//!
//! A [`SweepReport`] is a pure function of the submitted job list: job
//! outcomes are returned in submission order regardless of worker count
//! or completion order, cached results are byte-identical to freshly
//! executed ones, and [`SweepReport::merged_stats`] folds per-job
//! registries with the saturating, order-insensitive
//! [`horus_sim::Stats::merge`] — so `--jobs 32` and `--jobs 1` produce
//! identical reports. `tests/props.rs` at the workspace root asserts
//! this property over arbitrary job sets.
//!
//! # Example
//!
//! ```
//! use horus_core::{DrainScheme, SystemConfig};
//! use horus_harness::{Harness, JobSpec};
//! use horus_workload::FillPattern;
//!
//! let cfg = SystemConfig::small_test();
//! let pattern = FillPattern::StridedSparse { min_stride: 16384 };
//! let specs: Vec<JobSpec> = DrainScheme::ALL
//!     .iter()
//!     .map(|s| JobSpec::drain(&cfg, *s, pattern))
//!     .collect();
//!
//! // Two workers, no on-disk cache, no progress output.
//! let report = Harness::with_jobs(2).run(&specs);
//! let drains = report.drains().expect("no job panicked");
//! assert_eq!(drains.len(), 5);
//! // Submission order is preserved.
//! assert_eq!(drains[0].scheme, "Non-Secure");
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod job;
mod metrics;
pub mod pool;
pub mod progress;
mod sweep;

pub use cache::ResultCache;
pub use job::{JobResult, JobSpec};
pub use pool::{run_indexed, run_indexed_workers};
pub use progress::{ProgressEvent, ProgressMode};
pub use sweep::{Harness, HarnessError, HarnessOptions, JobOutcome, SweepBackend, SweepReport};
