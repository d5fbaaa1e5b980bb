//! Experiment harness regenerating every table and figure of the Horus
//! paper, plus the bench gate, the crash sweep and the ablations. A
//! library: `horus-cli` (`repro`, `bench-gate`, `ablation`, `sweep`,
//! `crash-sweep`) is its one executable. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod bench_gate;
pub mod chart;
pub mod cli;
pub mod crash_sweep;
pub mod experiments;
pub mod figures;
pub mod repro_all;
pub mod table;

pub use experiments::*;
