//! Non-volatile memory model for the Horus secure-EPD reproduction.
//!
//! Three pieces:
//!
//! * [`layout::AddressMap`] — the physical address map: the 32 GB data
//!   region plus the reserved regions a secure memory controller needs
//!   (encryption counters, data MACs, Bonsai-Merkle-tree nodes), the
//!   Horus *cache hierarchy vault* (CHV), and the shadow region the
//!   baseline lazy scheme flushes its metadata cache into.
//! * [`device::NvmDevice`] — a functional, byte-accurate (but sparse)
//!   block store: what is written is exactly what is read back, so the
//!   cryptographic layers above operate on real data. Each block's wear
//!   (timed writes absorbed) is kept beside it.
//! * [`system::NvmSystem`] — the timed front end: a bank-interleaved PCM
//!   device with the paper's 150 ns read / 500 ns write latencies, which
//!   also attributes every access to a request *kind* (data, counter,
//!   MAC, tree, CHV…; a string literal) in a [`Stats`](horus_sim::Stats)
//!   registry — the raw material for the paper's Figure 6 and Figure 12
//!   breakdowns — and summarizes device wear as a [`WearTracker`].
//!
//! # Example
//!
//! ```
//! use horus_nvm::{NvmConfig, NvmSystem};
//! use horus_sim::Cycles;
//!
//! let mut nvm = NvmSystem::new(NvmConfig::paper_default());
//! let done = nvm.write(0x40, [7u8; 64], "data", Cycles(0)).done;
//! let (block, _) = nvm.read(0x40, "data", done);
//! assert_eq!(block, [7u8; 64]);
//! assert_eq!(nvm.stats().get("mem.write.data"), 1);
//! assert_eq!(nvm.wear().wear_of(0x40), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod device;
pub mod layout;
pub mod system;
pub mod wear;

pub use crash::{CrashOutcome, TornWriteModel};
pub use device::NvmDevice;
pub use layout::{AddressMap, Region};
pub use system::{NvmConfig, NvmSystem};
pub use wear::WearTracker;

/// Size in bytes of a memory block (one cache line).
pub const BLOCK_SIZE: usize = 64;

/// A 64-byte memory block.
pub type Block = [u8; BLOCK_SIZE];
