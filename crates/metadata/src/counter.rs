//! Split encryption counters (paper §II-B).
//!
//! The state-of-the-art split-counter layout packs, into one 64-byte
//! block, a 64-bit *major* counter shared by a 4 KB page and 64 *minor*
//! 7-bit counters, one per 64-byte data block. A data block's encryption
//! counter is the concatenation `major || minor`; when a minor counter
//! overflows, the major counter is incremented and the whole page must be
//! re-encrypted (every sibling's effective counter changed).

use horus_nvm::Block;

/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 127;

/// Number of minor counters in a block (one 4 KB page of 64 B blocks).
pub const MINORS: usize = 64;

/// The outcome of incrementing a minor counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Increment {
    /// The minor counter advanced; the new full counter is given.
    Advanced(u64),
    /// The minor counter overflowed: the major counter was incremented,
    /// all minors were reset, and this slot now reads 1. Every *other*
    /// block in the page must be re-encrypted with its new full counter.
    /// The new full counter for the written slot is given.
    Overflowed(u64),
}

impl Increment {
    /// The full counter to encrypt the written block with, regardless of
    /// overflow.
    #[must_use]
    pub fn counter(self) -> u64 {
        match self {
            Increment::Advanced(c) | Increment::Overflowed(c) => c,
        }
    }

    /// Whether the increment overflowed the minor counter.
    #[must_use]
    pub fn overflowed(self) -> bool {
        matches!(self, Increment::Overflowed(_))
    }
}

/// A split-counter block: one major + 64 minor counters, held in its
/// packed 64-byte memory layout — major (8 B little-endian) followed by
/// the 64 minors bit-packed 7 bits each, LSB-first (56 B).
///
/// Reads decode one 7-bit field and a bump rewrites only that field, so
/// [`from_block`](Self::from_block) and [`to_block`](Self::to_block) are
/// plain copies. Every 64-byte block is a valid counter block (8 + 64 × 7
/// bits is exactly 512), so the round trip is the identity on bytes.
///
/// ```
/// use horus_metadata::CounterBlock;
/// let mut cb = CounterBlock::new();
/// assert_eq!(cb.counter(3), 0);
/// cb.increment(3);
/// assert_eq!(cb.counter(3), 1);
/// let bytes = cb.to_block();
/// assert_eq!(CounterBlock::from_block(&bytes), cb);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock(Block);

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CounterBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let minors: [u8; MINORS] = std::array::from_fn(|s| self.minor(s));
        f.debug_struct("CounterBlock")
            .field("major", &self.major())
            .field("minors", &minors)
            .finish()
    }
}

impl CounterBlock {
    /// The little-endian two-byte window holding `slot`'s minor, with the
    /// index of its low byte and the field's bit offset within it. The
    /// last slot ends on the block's last byte, so its window starts one
    /// byte early.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    fn window(&self, slot: usize) -> (usize, u32, u16) {
        assert!(slot < MINORS, "minor slot {slot} out of range");
        let bit = 64 + 7 * slot;
        let byte = (bit / 8).min(62);
        let window = u16::from_le_bytes([self.0[byte], self.0[byte + 1]]);
        (byte, (bit - 8 * byte) as u32, window)
    }

    /// A fresh block: all counters zero.
    #[must_use]
    pub fn new() -> Self {
        Self([0; 64])
    }

    /// The major counter.
    #[must_use]
    pub fn major(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8-byte slice"))
    }

    /// The minor counter of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    #[must_use]
    pub fn minor(&self, slot: usize) -> u8 {
        let (_, off, window) = self.window(slot);
        (window >> off) as u8 & MINOR_MAX
    }

    /// The full encryption counter of `slot`: `major << 7 | minor`.
    #[must_use]
    pub fn counter(&self, slot: usize) -> u64 {
        (self.major() << 7) | u64::from(self.minor(slot))
    }

    /// Increments the minor counter of `slot`, handling overflow per the
    /// split-counter scheme.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn increment(&mut self, slot: usize) -> Increment {
        let (byte, off, window) = self.window(slot);
        let minor = (window >> off) as u8 & MINOR_MAX;
        if minor == MINOR_MAX {
            let major = self.major() + 1;
            self.0[..8].copy_from_slice(&major.to_le_bytes());
            self.0[8..].fill(0);
            self.0[byte..byte + 2].copy_from_slice(&(1u16 << off).to_le_bytes());
            Increment::Overflowed((major << 7) | 1)
        } else {
            // The field is below its maximum, so adding one at its offset
            // cannot carry out of it.
            let window = window + (1 << off);
            self.0[byte..byte + 2].copy_from_slice(&window.to_le_bytes());
            Increment::Advanced((self.major() << 7) | u64::from(minor + 1))
        }
    }

    /// The 64-byte memory layout: major (8 B little-endian) followed by
    /// the 64 minors bit-packed 7 bits each (56 B).
    #[must_use]
    pub fn to_block(&self) -> Block {
        self.0
    }

    /// Reads the 64-byte memory layout written by
    /// [`to_block`](Self::to_block).
    #[must_use]
    pub fn from_block(block: &Block) -> Self {
        Self(*block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let cb = CounterBlock::new();
        assert_eq!(cb.major(), 0);
        for s in 0..MINORS {
            assert_eq!(cb.counter(s), 0);
        }
        assert_eq!(cb.to_block(), [0u8; 64]);
    }

    #[test]
    fn increment_advances() {
        let mut cb = CounterBlock::new();
        let inc = cb.increment(0);
        assert_eq!(inc, Increment::Advanced(1));
        assert_eq!(inc.counter(), 1);
        assert!(!inc.overflowed());
        assert_eq!(cb.minor(0), 1);
        assert_eq!(cb.minor(1), 0);
    }

    #[test]
    fn counter_concatenates_major_minor() {
        let mut cb = CounterBlock::new();
        for _ in 0..5 {
            cb.increment(7);
        }
        assert_eq!(cb.counter(7), 5);
        // Force an overflow to bump the major counter.
        for _ in 0..(MINOR_MAX as usize - 5) {
            cb.increment(7);
        }
        assert_eq!(cb.minor(7), MINOR_MAX);
        let inc = cb.increment(7);
        assert!(inc.overflowed());
        assert_eq!(cb.major(), 1);
        assert_eq!(cb.counter(7), (1 << 7) | 1);
        assert_eq!(inc.counter(), (1 << 7) | 1);
        // Siblings were reset.
        assert_eq!(cb.minor(6), 0);
    }

    #[test]
    fn overflow_resets_all_minors() {
        let mut cb = CounterBlock::new();
        cb.increment(3);
        cb.increment(9);
        for _ in 0..=MINOR_MAX as usize {
            cb.increment(0);
        }
        assert_eq!(cb.major(), 1);
        assert_eq!(cb.minor(3), 0);
        assert_eq!(cb.minor(9), 0);
        assert_eq!(cb.minor(0), 1);
    }

    #[test]
    fn counters_never_repeat_across_overflow() {
        // The full counter sequence for a slot must be strictly
        // increasing even across an overflow.
        let mut cb = CounterBlock::new();
        let mut last = cb.counter(0);
        for _ in 0..300 {
            let c = cb.increment(0).counter();
            assert!(c > last, "counter repeated or regressed: {c} after {last}");
            last = c;
        }
    }

    /// Bumps `slot` `n` times from its current value.
    fn bump(cb: &mut CounterBlock, slot: usize, n: usize) {
        for _ in 0..n {
            cb.increment(slot);
        }
    }

    #[test]
    fn block_roundtrip_exhaustive_slots() {
        let mut cb = CounterBlock::new();
        for s in 0..MINORS {
            bump(&mut cb, s, (s % 7) + 1);
        }
        let mut bytes = cb.to_block();
        bytes[..8].copy_from_slice(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
        let cb = CounterBlock::from_block(&bytes);
        assert_eq!(cb.major(), 0x0123_4567_89ab_cdef);
        for s in 0..MINORS {
            assert_eq!(usize::from(cb.minor(s)), (s % 7) + 1, "slot {s}");
        }
        assert_eq!(cb.to_block(), bytes);
        assert_eq!(CounterBlock::from_block(&cb.to_block()), cb);
    }

    #[test]
    fn packing_is_dense() {
        // Slot 63 set to 127 must land in the last byte's top seven bits.
        let mut cb = CounterBlock::new();
        bump(&mut cb, 63, usize::from(MINOR_MAX));
        let block = cb.to_block();
        assert_eq!(block[63], MINOR_MAX << 1);
        assert!(block[..63].iter().all(|&b| b == 0));
        let rt = CounterBlock::from_block(&block);
        assert_eq!(rt.minor(63), MINOR_MAX);
        assert!((0..63).all(|s| rt.minor(s) == 0));
    }

    #[test]
    fn distinct_slots_do_not_interfere() {
        let want = |i: usize| (i as u8).wrapping_mul(37) & 0x7f;
        let mut cb = CounterBlock::new();
        for s in 0..MINORS {
            bump(&mut cb, s, usize::from(want(s)));
        }
        assert_eq!(cb.major(), 0);
        for s in 0..MINORS {
            assert_eq!(cb.minor(s), want(s), "slot {s}");
        }
        let rt = CounterBlock::from_block(&cb.to_block());
        assert_eq!(rt, cb);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let cb = CounterBlock::new();
        let _ = cb.minor(64);
    }
}
