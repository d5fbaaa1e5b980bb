//! Layout oracle for the packed split-counter block.
//!
//! `CounterBlock` holds its 64-byte memory layout and edits one 7-bit
//! field per bump. The reference model below is the unpacked form it
//! replaced — a major counter and an array of 64 minors, encoded and
//! decoded a bit at a time — so these properties pin that the packed
//! block gives the same counters, the same increment outcomes and the
//! same stored bytes as the unpacked one, step for step.

use horus_metadata::counter::{Increment, MINORS, MINOR_MAX};
use horus_metadata::CounterBlock;
use horus_sim::rng::{check, default_cases, Rng};

/// The unpacked split-counter block: one major + 64 minor counters.
#[derive(Debug)]
struct ModelBlock {
    major: u64,
    minors: [u8; MINORS],
}

impl ModelBlock {
    fn new() -> Self {
        Self {
            major: 0,
            minors: [0; MINORS],
        }
    }

    fn counter(&self, slot: usize) -> u64 {
        (self.major << 7) | u64::from(self.minors[slot])
    }

    fn increment(&mut self, slot: usize) -> Increment {
        if self.minors[slot] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; MINORS];
            self.minors[slot] = 1;
            Increment::Overflowed(self.counter(slot))
        } else {
            self.minors[slot] += 1;
            Increment::Advanced(self.counter(slot))
        }
    }

    fn to_block(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (i, &m) in self.minors.iter().enumerate() {
            let v = m & 0x7f;
            let bit = 7 * i;
            let (byte, off) = (bit / 8, (bit % 8) as u32);
            out[8 + byte] |= v << off;
            if off > 1 {
                out[8 + byte + 1] |= v >> (8 - off);
            }
        }
        out
    }

    fn from_block(block: &[u8; 64]) -> Self {
        let major = u64::from_le_bytes(block[..8].try_into().expect("8-byte slice"));
        let mut minors = [0u8; MINORS];
        for (i, m) in minors.iter_mut().enumerate() {
            let bit = 7 * i;
            let (byte, off) = (bit / 8, (bit % 8) as u32);
            let mut v = block[8 + byte] >> off;
            if off > 1 {
                v |= block[8 + byte + 1] << (8 - off);
            }
            *m = v & 0x7f;
        }
        Self { major, minors }
    }
}

/// Asserts the packed block and the model agree on every counter and
/// on the stored bytes.
fn assert_same(packed: &CounterBlock, model: &ModelBlock, step: usize) {
    assert_eq!(packed.major(), model.major, "step {step}: major");
    for s in 0..MINORS {
        assert_eq!(packed.counter(s), model.counter(s), "step {step}: slot {s}");
    }
    assert_eq!(packed.to_block(), model.to_block(), "step {step}: bytes");
}

/// A random block with a major counter far from `u64::MAX`, so bump
/// streams cannot wrap it.
fn start_block(rng: &mut Rng) -> [u8; 64] {
    let mut block = rng.bytes::<64>();
    block[7] &= 0x3f;
    block
}

/// Seeded bump streams from a zero or random starting block: most bumps
/// land on a few hot slots so minors overflow, and every case runs
/// until at least one overflow. Outcomes, counters and bytes match the
/// model after every step.
#[test]
fn increments_match_unpacked_model() {
    check("increments_match_unpacked_model", default_cases(), |rng| {
        let (mut packed, mut model) = if rng.chance(0.5) {
            (CounterBlock::new(), ModelBlock::new())
        } else {
            let start = start_block(rng);
            (
                CounterBlock::from_block(&start),
                ModelBlock::from_block(&start),
            )
        };
        assert_same(&packed, &model, 0);
        let hot: Vec<usize> = rng.vec(1..4, |r| r.below(MINORS as u64) as usize);
        let steps = rng.range(100..600) as usize;
        let mut overflows = 0;
        let mut step = 0;
        while step < steps || overflows == 0 {
            let slot = if rng.chance(0.8) || step >= steps {
                hot[step % hot.len()]
            } else {
                rng.below(MINORS as u64) as usize
            };
            step += 1;
            let got = packed.increment(slot);
            let want = model.increment(slot);
            assert_eq!(got, want, "step {step}: slot {slot}");
            overflows += usize::from(want.overflowed());
            assert_same(&packed, &model, step);
        }
    });
}

/// Any 64 bytes parse to the model's counters and round-trip unchanged.
#[test]
fn random_blocks_parse_like_model_and_roundtrip() {
    check(
        "random_blocks_parse_like_model_and_roundtrip",
        default_cases(),
        |rng| {
            let block = rng.bytes::<64>();
            let packed = CounterBlock::from_block(&block);
            let model = ModelBlock::from_block(&block);
            assert_eq!(packed.major(), model.major);
            for s in 0..MINORS {
                assert_eq!(packed.minor(s), model.minors[s], "slot {s}");
            }
            assert_eq!(packed.to_block(), block);
            assert_eq!(model.to_block(), block, "the layout is a bijection");
        },
    );
}
