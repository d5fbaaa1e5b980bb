//! Attacker toolkit for the threat model of §IV-A / §IV-C.4.
//!
//! The attacker owns everything outside the processor chip: they can
//! read and rewrite NVM at will between the drain and the recovery (bus
//! snooping, physical theft, replay). These helpers mutate the
//! [`NvmDevice`](horus_nvm::NvmDevice) directly — no controller costs,
//! no verification — exactly what hardware cannot prevent and the MACs
//! must detect.
//!
//! Every attack here must cause [`SecureEpdSystem::recover`] to return
//! [`RecoveryError::ChvIntegrity`](crate::RecoveryError) at the first
//! tampered group, restoring nothing; the tests in `tests/security.rs`
//! assert exactly that.

use crate::chv::ChvLayout;
use crate::system::SecureEpdSystem;
use horus_nvm::Block;

fn layout_and_blocks(sys: &SecureEpdSystem) -> (ChvLayout, u64) {
    let ep = sys.episode().expect("an unrecovered Horus episode");
    let layout = sys.chv_layout().expect("episode used the CHV");
    (layout, ep.blocks)
}

fn flip_bit(sys: &mut SecureEpdSystem, addr: u64, byte: usize, bit: u8) {
    let dev = sys.platform.nvm.device_mut();
    let mut b = dev.read_block(addr);
    b[byte] ^= 1 << bit;
    dev.write_block(addr, b);
}

/// Flips one ciphertext bit of CHV entry `i`.
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode or `i` is out of
/// range.
pub fn tamper_data(sys: &mut SecureEpdSystem, i: u64) {
    let (layout, n) = layout_and_blocks(sys);
    assert!(i < n, "entry {i} out of range ({n} drained)");
    flip_bit(sys, layout.data_addr(i), (i as usize) % 64, (i % 8) as u8);
}

/// Flips one bit of the stored address of CHV entry `i` (a splicing
/// attempt redirecting the block to a different location on recovery).
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode or `i` is out of
/// range.
pub fn tamper_address(sys: &mut SecureEpdSystem, i: u64) {
    let (layout, n) = layout_and_blocks(sys);
    assert!(i < n, "entry {i} out of range");
    let slot = layout.addr_slot(i);
    flip_bit(sys, layout.addr_block_addr(i), slot * 8, 3);
}

/// Flips one bit of the stored MAC covering CHV entry `i`.
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode or `i` is out of
/// range.
pub fn tamper_mac(sys: &mut SecureEpdSystem, i: u64) {
    let (layout, n) = layout_and_blocks(sys);
    assert!(i < n, "entry {i} out of range");
    let slot = layout.mac_slot(i);
    flip_bit(sys, layout.mac_block_addr(i), slot * 8, 0);
}

/// The full splice: swaps entries `i` and `j` *including* their stored
/// addresses and (SLM) their stored MACs — the strongest in-episode
/// position swap an attacker can mount. Detection relies on the drain
/// counter differing by position (§IV-C.4).
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode or an index is out of
/// range.
pub fn splice_entries(sys: &mut SecureEpdSystem, i: u64, j: u64) {
    let (layout, n) = layout_and_blocks(sys);
    assert!(i < n && j < n, "entries out of range");
    let dev = sys.platform.nvm.device_mut();

    // Swap ciphertext blocks.
    let (da, db) = (layout.data_addr(i), layout.data_addr(j));
    let (ba, bb) = (dev.read_block(da), dev.read_block(db));
    dev.write_block(da, bb);
    dev.write_block(db, ba);

    // Swap 8-byte slots between two (possibly equal) blocks.
    let mut swap8 = |addr_a: u64, slot_a: usize, addr_b: u64, slot_b: usize| {
        let mut blk_a = dev.read_block(addr_a);
        if addr_a == addr_b {
            let mut tmp = [0u8; 8];
            tmp.copy_from_slice(&blk_a[slot_a * 8..slot_a * 8 + 8]);
            blk_a.copy_within(slot_b * 8..slot_b * 8 + 8, slot_a * 8);
            blk_a[slot_b * 8..slot_b * 8 + 8].copy_from_slice(&tmp);
            dev.write_block(addr_a, blk_a);
        } else {
            let mut blk_b = dev.read_block(addr_b);
            let mut tmp = [0u8; 8];
            tmp.copy_from_slice(&blk_a[slot_a * 8..slot_a * 8 + 8]);
            blk_a[slot_a * 8..slot_a * 8 + 8].copy_from_slice(&blk_b[slot_b * 8..slot_b * 8 + 8]);
            blk_b[slot_b * 8..slot_b * 8 + 8].copy_from_slice(&tmp);
            dev.write_block(addr_a, blk_a);
            dev.write_block(addr_b, blk_b);
        }
    };

    swap8(
        layout.addr_block_addr(i),
        layout.addr_slot(i),
        layout.addr_block_addr(j),
        layout.addr_slot(j),
    );
    if layout.mode() == crate::chv::MacGranularity::SingleLevel {
        swap8(
            layout.mac_block_addr(i),
            layout.mac_slot(i),
            layout.mac_block_addr(j),
            layout.mac_slot(j),
        );
    }
}

/// A byte-for-byte snapshot of the CHV region, as an attacker with bus
/// access would capture it.
#[derive(Debug, Clone)]
pub struct ChvSnapshot {
    blocks: Vec<(u64, Block)>,
}

impl ChvSnapshot {
    /// Number of captured blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Captures the current episode's CHV contents (for a later replay).
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode.
#[must_use]
pub fn snapshot_chv(sys: &SecureEpdSystem) -> ChvSnapshot {
    let (layout, n) = layout_and_blocks(sys);
    let used = layout.blocks_used(n);
    let base = sys.map().chv_base();
    let dev = sys.platform().nvm.device();
    let blocks = (0..used)
        .map(|b| {
            let addr = base + b * 64;
            (addr, dev.read_block(addr))
        })
        .collect();
    ChvSnapshot { blocks }
}

/// Replays a previously captured CHV over the current one — the classic
/// replay attack restoring stale state. Detection relies on the
/// monotonic drain counter: the old entries were MAC'ed with smaller DC
/// values.
pub fn replay_chv(sys: &mut SecureEpdSystem, snapshot: &ChvSnapshot) {
    let dev = sys.platform.nvm.device_mut();
    for (addr, block) in &snapshot.blocks {
        dev.write_block(*addr, *block);
    }
}

/// Selectively omits the tail of the episode (the attack goal ① of
/// §IV-C.1: replaying shorter content). Zeroes every CHV block from
/// entry `from` onward.
///
/// # Panics
///
/// Panics if there is no unrecovered Horus episode or `from` is out of
/// range.
pub fn truncate_chv(sys: &mut SecureEpdSystem, from: u64) {
    let (layout, n) = layout_and_blocks(sys);
    assert!(from < n, "truncation point beyond episode");
    let dev = sys.platform.nvm.device_mut();
    for i in from..n {
        dev.write_block(layout.data_addr(i), [0u8; 64]);
    }
}
