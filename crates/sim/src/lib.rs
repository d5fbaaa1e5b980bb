//! Discrete-event simulation substrate for the Horus reproduction.
//!
//! The paper evaluates Horus on gem5; this crate is the from-scratch
//! equivalent substrate: a small, deterministic timing model consisting of
//!
//! * [`clock`] — the [`clock::Cycles`] time base and
//!   [`clock::Frequency`] conversions between wall-clock
//!   nanoseconds and core cycles (the paper's core runs at 4 GHz);
//! * [`schedule`] — out-of-order slot-scheduled hardware resources
//!   ([`schedule::SlotResource`]) with a latency and an initiation
//!   interval, and banked groups of them ([`schedule::SlotBankSet`]),
//!   used to model PCM banks, AES and hash engines;
//! * [`queue`] — a deterministic calendar [`queue::EventQueue`];
//! * [`power`] — crash-point injection: a [`power::PowerFailure`] cut
//!   that classifies in-flight operations ([`power::WriteFate`]);
//! * [`stats`] — a [`stats::Stats`] registry of named counters and
//!   power-of-two [`stats::Histogram`]s, used by every layer to
//!   report the breakdowns shown in the paper's figures;
//! * [`trace`] — the *horus-probe* observability layer: detachable
//!   per-resource [`trace::Probe`]s recording cycle-stamped
//!   [`trace::TraceEvent`]s (disabled by default), plus the
//!   Chrome-trace JSON exporter, per-resource utilization report and
//!   critical-path attribution built on the event stream;
//! * [`arena`] — [`arena::ScratchArena`], recycling pools for per-episode
//!   scratch vectors so steady-state episodes stay off the allocator;
//! * [`rng`] — [`rng::Rng`], the seeded stream behind every random
//!   workload input, and [`rng::check`], the property-test loop.
//!
//! The drain engines in `horus-core` drive these resources operation by
//! operation; the completion time of the last operation is the draining
//! time that defines the EPD hold-up budget.
//!
//! # Example
//!
//! ```
//! use horus_sim::clock::{Cycles, Frequency};
//! use horus_sim::schedule::SlotResource;
//!
//! // A 4 GHz core and one PCM bank: a 500 ns write occupies the bank
//! // for its whole duration, so a second write waits for the first.
//! let f = Frequency::ghz(4);
//! let lat = f.ns_to_cycles(500.0);
//! let mut bank = SlotResource::exclusive("pcm-bank", lat, lat.0);
//! let first = bank.issue(Cycles(0));
//! let second = bank.issue(Cycles(0));
//! assert_eq!(first.done, lat);
//! assert_eq!(second.done, Cycles(2 * lat.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod clock;
pub mod fxhash;
pub mod power;
pub mod queue;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod trace;

pub use arena::ScratchArena;
pub use clock::{Cycles, Frequency};
pub use fxhash::{FxHashMap, FxHashSet};
pub use power::{PowerFailure, WriteFate};
pub use schedule::{Completion, SlotBankSet, SlotResource};
pub use stats::{Histogram, KindCounters, Stats};
pub use trace::{
    chrome_trace_json, critical_path, resource_usage, ChromeTrace, CriticalPathShare,
    CriticalPathSummary, Probe, ResourceUsage, TraceEvent,
};
