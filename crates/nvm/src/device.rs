//! The functional (value-level) NVM block store.

use crate::{Block, BLOCK_SIZE};
use horus_sim::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt;

/// Blocks per page: 1 KiB pages of 64-byte blocks.
const PAGE_BLOCKS: usize = 16;
/// Bytes per page.
const PAGE_SIZE: u64 = (PAGE_BLOCKS * BLOCK_SIZE) as u64;
// The written-block mask is one bit per block.
const _: () = assert!(PAGE_BLOCKS == u16::BITS as usize);

const ZERO_BLOCK: Block = [0u8; BLOCK_SIZE];

/// One 1 KiB page of backing store: its blocks, each block's wear
/// (controller writes) and a written-block bitmask.
///
/// The mask distinguishes "written with zeros" from "never written" and
/// makes `written_addrs_sorted` a bit scan instead of a key sort; reads
/// consult it, so an unwritten block's bytes are never observed.
#[derive(Clone)]
struct Page {
    blocks: [Block; PAGE_BLOCKS],
    wear: [u64; PAGE_BLOCKS],
    written: u16,
}

impl Page {
    /// Stores `data` at `idx` and adds `wear`; returns whether the block
    /// was newly written.
    fn store(&mut self, idx: usize, data: Block, wear: u64) -> bool {
        let bit = 1u16 << idx;
        let fresh = self.written & bit == 0;
        self.written |= bit;
        self.blocks[idx] = data;
        self.wear[idx] += wear;
        fresh
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("written_blocks", &self.written.count_ones())
            .finish_non_exhaustive()
    }
}

/// Per-page storage, graded by population.
///
/// Strided-sparse drains touch exactly one block per page; materializing
/// a whole page (and deep-copying it on crash-rewind clones) for each
/// would cost 16x the memory of the blocks actually written. A page
/// holding a single live block — written, worn, or both — stays inline;
/// a second live block promotes it to a full backing page.
#[derive(Debug, Clone)]
enum PageSlot {
    Single {
        idx: u8,
        written: bool,
        wear: u64,
        block: Block,
    },
    Full(Box<Page>),
}

impl PageSlot {
    /// The page's written-block mask.
    fn written_mask(&self) -> u16 {
        match self {
            PageSlot::Single { idx, written, .. } => u16::from(*written) << idx,
            PageSlot::Full(p) => p.written,
        }
    }

    /// Promotes an inline slot to a full page (a no-op on full pages).
    fn full(&mut self) -> &mut Page {
        if let PageSlot::Single {
            idx,
            written,
            wear,
            block,
        } = *self
        {
            let mut p = Box::new(Page {
                blocks: [ZERO_BLOCK; PAGE_BLOCKS],
                wear: [0; PAGE_BLOCKS],
                written: 0,
            });
            let i = usize::from(idx);
            p.blocks[i] = block;
            p.wear[i] = wear;
            p.written = u16::from(written) << i;
            *self = PageSlot::Full(p);
        }
        match self {
            PageSlot::Full(p) => p,
            PageSlot::Single { .. } => unreachable!("promoted above"),
        }
    }
}

/// A sparse, byte-accurate non-volatile block store that also keeps
/// each block's wear.
///
/// The simulated machine has 32 GB of PCM plus reserved metadata regions;
/// experiments touch a few hundred thousand blocks of it, so storage is a
/// two-level page table: a hash map from page number (address bits 10 and
/// up) to 1 KiB pages of 64-byte blocks. Unwritten blocks read as zero
/// (freshly-initialized memory). Workloads are page-clustered, so the
/// common access hits one hash lookup per 16 blocks of locality and the
/// per-block work is an index and a bitmask instead of a `HashMap` probe.
///
/// Wear — the number of timed controller writes a block has absorbed —
/// lives beside the block, so [`NvmSystem`](crate::NvmSystem) counts a
/// write in the same probe that stores it. Plain [`write_block`]
/// (attackers, test setup, crash rewinds) leaves wear alone, and
/// [`erase_range`] forgets contents but not wear.
///
/// [`write_block`]: Self::write_block
/// [`erase_range`]: Self::erase_range
///
/// ```
/// use horus_nvm::NvmDevice;
/// let mut d = NvmDevice::new();
/// assert_eq!(d.read_block(0x80), [0u8; 64]);
/// d.write_block(0x80, [3u8; 64]);
/// assert_eq!(d.read_block(0x80), [3u8; 64]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NvmDevice {
    pages: FxHashMap<u64, PageSlot>,
    written: usize,
}

impl NvmDevice {
    /// Creates an empty (all-zero) device.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits a block address into (page number, block-in-page index).
    fn split(addr: u64) -> (u64, usize) {
        assert!(
            addr % BLOCK_SIZE as u64 == 0,
            "NVM address {addr:#x} is not block-aligned"
        );
        (addr / PAGE_SIZE, ((addr % PAGE_SIZE) as usize) / BLOCK_SIZE)
    }

    /// The address of block `idx` of page `page`.
    fn join(page: u64, idx: usize) -> u64 {
        page * PAGE_SIZE + (idx * BLOCK_SIZE) as u64
    }

    /// Reads the block at `addr`, or `None` if it was never written
    /// (one probe for both answers).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    #[must_use]
    pub fn read_written(&self, addr: u64) -> Option<Block> {
        let (page, idx) = Self::split(addr);
        match self.pages.get(&page)? {
            PageSlot::Single {
                idx: i,
                written: true,
                block,
                ..
            } if usize::from(*i) == idx => Some(*block),
            PageSlot::Full(p) if p.written & (1u16 << idx) != 0 => Some(p.blocks[idx]),
            _ => None,
        }
    }

    /// Reads the block at `addr` (zero if never written).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    #[must_use]
    pub fn read_block(&self, addr: u64) -> Block {
        self.read_written(addr).unwrap_or(ZERO_BLOCK)
    }

    /// Writes the block at `addr` without counting wear.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    pub fn write_block(&mut self, addr: u64, data: Block) {
        self.store(addr, data, 0);
    }

    /// Writes the block at `addr` and counts one write of wear against
    /// it: the controller's write path.
    pub(crate) fn write_worn(&mut self, addr: u64, data: Block) {
        self.store(addr, data, 1);
    }

    fn store(&mut self, addr: u64, data: Block, wear: u64) {
        let (page, idx) = Self::split(addr);
        let fresh = match self.pages.entry(page) {
            Entry::Vacant(v) => {
                v.insert(PageSlot::Single {
                    idx: idx as u8,
                    written: true,
                    wear,
                    block: data,
                });
                true
            }
            Entry::Occupied(o) => match o.into_mut() {
                PageSlot::Single {
                    idx: i,
                    written,
                    wear: w,
                    block,
                } if usize::from(*i) == idx => {
                    *block = data;
                    *w += wear;
                    !std::mem::replace(written, true)
                }
                slot => slot.full().store(idx, data, wear),
            },
        };
        self.written += usize::from(fresh);
    }

    /// Whether the block at `addr` has ever been written.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    #[must_use]
    pub fn is_written(&self, addr: u64) -> bool {
        let (page, idx) = Self::split(addr);
        self.pages
            .get(&page)
            .is_some_and(|slot| slot.written_mask() & (1u16 << idx) != 0)
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn written_blocks(&self) -> usize {
        self.written
    }

    /// The occupied pages in page-number order.
    fn sorted_pages(&self) -> Vec<(u64, &PageSlot)> {
        let mut pages: Vec<(u64, &PageSlot)> = self.pages.iter().map(|(k, v)| (*k, v)).collect();
        pages.sort_unstable_by_key(|(k, _)| *k);
        pages
    }

    /// All written block addresses, sorted (deterministic iteration for
    /// recovery scans over a sparse device).
    #[must_use]
    pub fn written_addrs_sorted(&self) -> Vec<u64> {
        let mut addrs = Vec::with_capacity(self.written);
        for (page, slot) in self.sorted_pages() {
            let mut mask = slot.written_mask();
            while mask != 0 {
                addrs.push(Self::join(page, mask.trailing_zeros() as usize));
                mask &= mask - 1;
            }
        }
        addrs
    }

    /// `(address, wear)` of every block with nonzero wear, sorted by
    /// address.
    pub(crate) fn worn_blocks_sorted(&self) -> Vec<(u64, u64)> {
        let mut worn = Vec::new();
        for (page, slot) in self.sorted_pages() {
            match slot {
                PageSlot::Single { idx, wear, .. } => {
                    if *wear > 0 {
                        worn.push((Self::join(page, usize::from(*idx)), *wear));
                    }
                }
                PageSlot::Full(p) => worn.extend(
                    (0..PAGE_BLOCKS)
                        .filter(|&i| p.wear[i] > 0)
                        .map(|i| (Self::join(page, i), p.wear[i])),
                ),
            }
        }
        worn
    }

    /// Forgets all wear (a fresh device), keeping contents.
    pub(crate) fn clear_wear(&mut self) {
        self.pages.retain(|_, slot| {
            match slot {
                PageSlot::Single { wear, .. } => *wear = 0,
                PageSlot::Full(p) => p.wear = [0; PAGE_BLOCKS],
            }
            slot.written_mask() != 0
        });
    }

    /// Erases a range of blocks back to zero (used when a drain episode's
    /// vault is logically discarded, and by crash rewinds). Wear is
    /// device-lifetime state and survives the erase.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `start` is not block-aligned.
    pub fn erase_range(&mut self, start: u64, blocks: u64) {
        for i in 0..blocks {
            let (page, idx) = Self::split(start + i * BLOCK_SIZE as u64);
            let Entry::Occupied(mut o) = self.pages.entry(page) else {
                continue;
            };
            let live = match o.get_mut() {
                PageSlot::Single {
                    idx: i,
                    written,
                    wear,
                    ..
                } if usize::from(*i) == idx && *written => {
                    *written = false;
                    *wear > 0
                }
                PageSlot::Full(p) if p.written & (1u16 << idx) != 0 => {
                    p.written &= !(1u16 << idx);
                    p.written != 0 || p.wear.iter().any(|&w| w > 0)
                }
                _ => continue,
            };
            self.written -= 1;
            if !live {
                o.remove();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let d = NvmDevice::new();
        assert_eq!(d.read_block(0), [0u8; 64]);
        assert!(!d.is_written(0));
        assert_eq!(d.written_blocks(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut d = NvmDevice::new();
        let b: Block = core::array::from_fn(|i| i as u8);
        d.write_block(1 << 34, b);
        assert_eq!(d.read_block(1 << 34), b);
        assert!(d.is_written(1 << 34));
        assert_eq!(d.written_blocks(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let mut d = NvmDevice::new();
        d.write_block(64, [1u8; 64]);
        d.write_block(64, [2u8; 64]);
        assert_eq!(d.read_block(64), [2u8; 64]);
        assert_eq!(d.written_blocks(), 1);
    }

    #[test]
    fn second_write_promotes_page_and_keeps_first_block() {
        let mut d = NvmDevice::new();
        let last = PAGE_SIZE - BLOCK_SIZE as u64;
        d.write_block(PAGE_SIZE, [1u8; 64]);
        d.write_block(PAGE_SIZE + 64, [2u8; 64]);
        d.write_block(PAGE_SIZE + last, [3u8; 64]);
        assert_eq!(d.read_block(PAGE_SIZE), [1u8; 64]);
        assert_eq!(d.read_block(PAGE_SIZE + 64), [2u8; 64]);
        assert_eq!(d.read_block(PAGE_SIZE + last), [3u8; 64]);
        assert_eq!(d.read_block(PAGE_SIZE + 128), [0u8; 64]);
        assert_eq!(d.read_written(PAGE_SIZE + 128), None);
        assert_eq!(d.written_blocks(), 3);
        assert_eq!(
            d.written_addrs_sorted(),
            vec![PAGE_SIZE, PAGE_SIZE + 64, PAGE_SIZE + last]
        );
    }

    #[test]
    fn wear_counts_worn_writes_only_and_survives_erase() {
        let mut d = NvmDevice::new();
        d.write_worn(0, [1u8; 64]);
        d.write_worn(0, [2u8; 64]);
        d.write_block(64, [3u8; 64]);
        d.write_worn(PAGE_SIZE, [4u8; 64]);
        assert_eq!(d.worn_blocks_sorted(), vec![(0, 2), (PAGE_SIZE, 1)]);
        d.erase_range(0, 2);
        d.erase_range(PAGE_SIZE, 1);
        assert_eq!(d.written_blocks(), 0);
        assert!(d.written_addrs_sorted().is_empty());
        assert_eq!(d.worn_blocks_sorted(), vec![(0, 2), (PAGE_SIZE, 1)]);
        // An erased, worn block takes new writes like a fresh one.
        d.write_worn(PAGE_SIZE, [5u8; 64]);
        assert_eq!(d.read_written(PAGE_SIZE), Some([5u8; 64]));
        assert_eq!(d.written_blocks(), 1);
        d.clear_wear();
        assert!(d.worn_blocks_sorted().is_empty());
        assert_eq!(d.read_block(PAGE_SIZE), [5u8; 64], "contents kept");
        assert_eq!(d.pages.len(), 1, "pages with neither data nor wear dropped");
    }

    #[test]
    fn erase_single_block_page() {
        let mut d = NvmDevice::new();
        d.write_block(8192, [1u8; 64]);
        d.erase_range(8192, 1);
        assert!(!d.is_written(8192));
        assert_eq!(d.read_block(8192), [0u8; 64]);
        assert_eq!(d.written_blocks(), 0);
    }

    #[test]
    fn zero_write_is_still_written() {
        // The bitmask, not the contents, defines written-ness.
        let mut d = NvmDevice::new();
        d.write_block(128, [0u8; 64]);
        assert!(d.is_written(128));
        assert!(!d.is_written(192), "neighbour in the same page unwritten");
        assert_eq!(d.written_blocks(), 1);
        assert_eq!(d.written_addrs_sorted(), vec![128]);
    }

    #[test]
    fn erase_range_zeroes() {
        let mut d = NvmDevice::new();
        d.write_block(0, [1u8; 64]);
        d.write_block(64, [1u8; 64]);
        d.write_block(128, [1u8; 64]);
        d.erase_range(0, 2);
        assert_eq!(d.read_block(0), [0u8; 64]);
        assert_eq!(d.read_block(64), [0u8; 64]);
        assert_eq!(d.read_block(128), [1u8; 64]);
        assert_eq!(d.written_blocks(), 1);
        assert!(!d.is_written(0));
        assert_eq!(d.written_addrs_sorted(), vec![128]);
    }

    #[test]
    fn written_addrs_sorted_across_pages() {
        let mut d = NvmDevice::new();
        // Out-of-order writes spanning several pages and a page boundary.
        for addr in [1 << 30, 1024, 960, 0, 64, (1 << 30) + 64, 2048] {
            d.write_block(addr, [7u8; 64]);
        }
        assert_eq!(
            d.written_addrs_sorted(),
            vec![0, 64, 960, 1024, 2048, 1 << 30, (1 << 30) + 64]
        );
        assert_eq!(d.written_blocks(), 7);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn misaligned_read_panics() {
        let d = NvmDevice::new();
        let _ = d.read_block(7);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn misaligned_write_panics() {
        let mut d = NvmDevice::new();
        d.write_block(100, [0u8; 64]);
    }
}
