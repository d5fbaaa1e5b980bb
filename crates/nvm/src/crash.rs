//! The functional half of crash-point injection: what NVM holds after a
//! power failure cuts a write stream mid-flight.
//!
//! [`NvmSystem`](crate::NvmSystem) applies writes to the functional
//! device at issue time and keeps timing as separate bookkeeping, so a
//! crash at cycle `C` is reconstructed *post hoc*: while the crash
//! journal is armed, every write records its pre-image and completion
//! window; firing the failure walks the journal backwards and rewinds
//! each write according to its [`WriteFate`](horus_sim::WriteFate) —
//! completed writes stay, never-started writes are undone, and the one
//! write per bank the cut can catch mid-service is replaced by what a
//! real PCM array would hold: a torn block under a configurable
//! [`TornWriteModel`].
//!
//! All garbling is deterministic in `(address, cut geometry)`, so a
//! crash experiment is exactly reproducible for a given crash cycle.

use crate::{Block, BLOCK_SIZE};
use horus_sim::{Completion, Cycles};
use serde::{Deserialize, Serialize};

/// What a write caught mid-service leaves in its target block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TornWriteModel {
    /// Byte-granular tearing: a prefix proportional to the write's
    /// progress holds the new data, the suffix holds the old, and the
    /// boundary byte is garbled (the cell row the failure interrupted).
    /// This is the default and the hardest case for verification layers.
    #[default]
    Torn,
    /// The whole block retains its old contents (a device whose row
    /// buffer never commits partial programs).
    Stale,
    /// The whole block is deterministic garbage (a device whose
    /// interrupted program scrambles the row).
    Garbled,
}

impl std::fmt::Display for TornWriteModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornWriteModel::Torn => write!(f, "torn"),
            TornWriteModel::Stale => write!(f, "stale"),
            TornWriteModel::Garbled => write!(f, "garbled"),
        }
    }
}

/// One journaled write: everything needed to rewind or tear it.
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    pub(crate) addr: u64,
    /// The block's contents before this write, `None` if it had never
    /// been written (a never-written block rewinds to *erased*, not to
    /// zeros-as-data).
    pub(crate) pre: Option<Block>,
    /// The data this write carried.
    pub(crate) data: Block,
    /// The request kind the write was attributed to (`"data"`,
    /// `"chv_mac"`, …), for per-kind fate accounting.
    pub(crate) kind: &'static str,
    /// The bank service window the failure is classified against.
    pub(crate) completion: Completion,
}

/// What firing a power failure did to the journaled write stream.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashOutcome {
    /// The failure cycle the journal was cut at.
    pub at: u64,
    /// Writes that completed before the cut.
    pub durable: u64,
    /// Writes rewound because they had not started.
    pub lost: u64,
    /// Writes caught mid-service and torn.
    pub torn: u64,
    /// Addresses of torn blocks, in rewind (reverse-issue) order.
    pub torn_addrs: Vec<u64>,
    /// `kind`s of torn writes, parallel to [`torn_addrs`](Self::torn_addrs).
    pub torn_kinds: Vec<String>,
    /// Addresses of lost (rewound) writes, in rewind order.
    pub lost_addrs: Vec<u64>,
}

impl CrashOutcome {
    /// Total journaled writes the cut classified.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.durable + self.lost + self.torn
    }
}

/// Deterministic byte-stream for the garbled portions of a torn block,
/// seeded by the block address and the cut geometry.
fn garble_stream(addr: u64, elapsed: Cycles, duration: Cycles) -> impl FnMut() -> u8 {
    let mut z = (addr >> 6)
        ^ elapsed.0.rotate_left(17)
        ^ duration.0.rotate_left(31)
        ^ 0x9e37_79b9_7f4a_7c15;
    move || {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (z >> 33) as u8
    }
}

/// Builds the block a torn write leaves behind.
///
/// Under [`TornWriteModel::Torn`], `elapsed / duration` of the block (by
/// bytes, clamped so at least the boundary byte is affected) holds the
/// new data, the rest holds the pre-image, and the boundary byte is
/// garbled — never equal to the old byte or the new byte, so a torn
/// block always differs from both images.
pub(crate) fn torn_block(
    pre: &Block,
    new: &Block,
    addr: u64,
    elapsed: Cycles,
    duration: Cycles,
    model: TornWriteModel,
) -> Block {
    let mut garble = garble_stream(addr, elapsed, duration);
    match model {
        TornWriteModel::Stale => *pre,
        TornWriteModel::Garbled => {
            let mut out = [0u8; BLOCK_SIZE];
            for b in &mut out {
                *b = garble();
            }
            out
        }
        TornWriteModel::Torn => {
            let den = duration.0.max(1);
            let persisted = (((elapsed.0 * BLOCK_SIZE as u64) / den) as usize).min(BLOCK_SIZE - 1);
            let mut out = *pre;
            out[..persisted].copy_from_slice(&new[..persisted]);
            // Garble the boundary byte until it differs from both images.
            loop {
                let g = garble();
                if g != pre[persisted] && g != new[persisted] {
                    out[persisted] = g;
                    break;
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRE: Block = [0x11; 64];
    const NEW: Block = [0xEE; 64];

    #[test]
    fn stale_keeps_pre_image() {
        let b = torn_block(
            &PRE,
            &NEW,
            0x1000,
            Cycles(5),
            Cycles(10),
            TornWriteModel::Stale,
        );
        assert_eq!(b, PRE);
    }

    #[test]
    fn garbled_differs_from_both_images_and_is_deterministic() {
        let a = torn_block(
            &PRE,
            &NEW,
            0x1000,
            Cycles(5),
            Cycles(10),
            TornWriteModel::Garbled,
        );
        let b = torn_block(
            &PRE,
            &NEW,
            0x1000,
            Cycles(5),
            Cycles(10),
            TornWriteModel::Garbled,
        );
        assert_eq!(a, b, "deterministic for the same cut");
        assert_ne!(a, PRE);
        assert_ne!(a, NEW);
        let c = torn_block(
            &PRE,
            &NEW,
            0x2000,
            Cycles(5),
            Cycles(10),
            TornWriteModel::Garbled,
        );
        assert_ne!(a, c, "different address, different garbage");
    }

    #[test]
    fn torn_prefix_is_proportional_to_progress() {
        // Half-way through a 2000-cycle write: 32 bytes persisted.
        let b = torn_block(
            &PRE,
            &NEW,
            0x40,
            Cycles(1000),
            Cycles(2000),
            TornWriteModel::Torn,
        );
        assert_eq!(&b[..32], &NEW[..32]);
        assert_eq!(&b[33..], &PRE[33..]);
        assert_ne!(b[32], PRE[32]);
        assert_ne!(b[32], NEW[32]);
    }

    #[test]
    fn torn_block_never_matches_either_image() {
        for elapsed in [1u64, 3, 999, 1000, 1999] {
            let b = torn_block(
                &PRE,
                &NEW,
                0x80,
                Cycles(elapsed),
                Cycles(2000),
                TornWriteModel::Torn,
            );
            assert_ne!(b, PRE, "elapsed {elapsed}");
            assert_ne!(b, NEW, "elapsed {elapsed}");
        }
    }

    #[test]
    fn torn_clamps_to_leave_a_boundary_byte() {
        // elapsed == duration-1 would round to 64 persisted bytes without
        // the clamp; the boundary byte must still exist.
        let b = torn_block(
            &PRE,
            &NEW,
            0,
            Cycles(1999),
            Cycles(2000),
            TornWriteModel::Torn,
        );
        assert_eq!(&b[..63], &NEW[..63]);
        assert_ne!(b[63], PRE[63]);
        assert_ne!(b[63], NEW[63]);
    }

    #[test]
    fn model_display_and_default() {
        assert_eq!(TornWriteModel::default(), TornWriteModel::Torn);
        assert_eq!(TornWriteModel::Torn.to_string(), "torn");
        assert_eq!(TornWriteModel::Stale.to_string(), "stale");
        assert_eq!(TornWriteModel::Garbled.to_string(), "garbled");
    }
}
