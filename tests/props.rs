//! Property-based tests on the core invariants (DESIGN.md's list).

use std::collections::BTreeMap;

use horus::cache::{CacheGeometry, SetAssocCache};
use horus::core::chv::{ChvLayout, MacGranularity};
use horus::core::{DrainScheme, SecureEpdSystem, SystemConfig};
use horus::crypto::{otp, Aes128, Cmac};
use horus::harness::{Harness, JobSpec};
use horus::metadata::CounterBlock;
use horus::sim::rng::{check, Rng};
use horus::sim::{Cycles, SlotResource};
use horus::workload::FillPattern;

/// AES-128 decrypt ∘ encrypt is the identity for any key and block.
#[test]
fn aes_roundtrip() {
    check("aes_roundtrip", 64, |rng| {
        let aes = Aes128::new(&rng.bytes());
        let block = rng.bytes::<16>();
        assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    });
}

/// Counter-mode encryption is an involution, and any change to the
/// (address, counter) seed garbles the decryption.
#[test]
fn ctr_mode_roundtrip_and_seed_sensitivity() {
    check("ctr_mode_roundtrip_and_seed_sensitivity", 64, |rng| {
        let aes = Aes128::new(&rng.bytes());
        let data = rng.bytes::<32>();
        let addr = rng.below(1 << 40) & !63;
        let counter = rng.range(1..1 << 40);
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&data);
        let ct = otp::encrypt_block_ctr(&aes, addr, counter, &block);
        assert_eq!(otp::decrypt_block_ctr(&aes, addr, counter, &ct), block);
        assert_ne!(otp::decrypt_block_ctr(&aes, addr, counter + 1, &ct), block);
        assert_ne!(otp::decrypt_block_ctr(&aes, addr ^ 64, counter, &ct), block);
    });
}

/// CMAC distinguishes any two distinct short messages we generate.
#[test]
fn cmac_detects_any_flip() {
    check("cmac_detects_any_flip", 64, |rng| {
        let cmac = Cmac::new(&rng.bytes());
        let msg = rng.vec(1..128, Rng::byte);
        let tag = cmac.mac64(&msg);
        let mut tampered = msg.clone();
        tampered[rng.below(msg.len() as u64) as usize] ^= 1 << rng.below(8);
        assert_ne!(cmac.mac64(&tampered), tag);
        assert!(cmac.verify64(&msg, tag));
    });
}

/// Split-counter blocks round-trip through their packed 64-byte
/// layout for any counter state, and that layout is the one pinned
/// byte for byte below.
#[test]
fn counter_block_packing_roundtrip() {
    // Slot 2 overflows once (major 1, slot 2 reads 1), then slots 0, 1
    // and 63 are bumped 3, 5 and 127 times. Minors pack 7 bits each,
    // LSB-first from byte 8: slot 0 is bits 0..7 of byte 8, slot 1 is
    // bit 7 of byte 8 plus bits 0..6 of byte 9, slot 2 starts at bit 6
    // of byte 9, and slot 63 is the top seven bits of byte 63.
    let mut cb = CounterBlock::new();
    for (slot, n) in [(2, 128), (0, 3), (1, 5), (63, 127)] {
        for _ in 0..n {
            cb.increment(slot);
        }
    }
    let mut pinned = [0u8; 64];
    pinned[0] = 1;
    pinned[8] = 3 | ((5 & 1) << 7);
    pinned[9] = (5 >> 1) | (1 << 6);
    pinned[63] = 127 << 1;
    assert_eq!(cb.to_block(), pinned);
    assert_eq!(CounterBlock::from_block(&pinned), cb);

    check("counter_block_packing_roundtrip", 64, |rng| {
        let mut cb = CounterBlock::new();
        for (slot, n) in rng.vec(0..40, |r| (r.below(64) as usize, r.range(1..160))) {
            for _ in 0..n {
                cb.increment(slot);
            }
        }
        assert_eq!(CounterBlock::from_block(&cb.to_block()), cb);
    });
}

/// Counters never go backwards for any slot across any bump
/// sequence, and the bumped slot strictly increases (no pad reuse) —
/// even through minor-counter overflows, which jump every sibling to
/// a larger major-based value.
#[test]
fn counters_never_regress() {
    check("counters_never_regress", 64, |rng| {
        let mut cb = CounterBlock::new();
        let mut prev = [0u64; 64];
        for slot in rng.vec(1..600, |r| r.below(64) as usize) {
            let before = prev[slot];
            cb.increment(slot);
            for (s, p) in prev.iter_mut().enumerate() {
                let now = cb.counter(s);
                assert!(now >= *p, "slot {s} regressed: {p} -> {now}");
                *p = now;
            }
            assert!(prev[slot] > before, "bumped slot {slot} did not advance");
        }
    });
}

/// CHV layout: data, address and MAC blocks never collide for either
/// granularity, over arbitrary episode lengths.
#[test]
fn chv_layout_never_overlaps() {
    check("chv_layout_never_overlaps", 64, |rng| {
        let n = rng.range(1..600);
        let dlm = rng.chance(0.5);
        let mode = if dlm {
            MacGranularity::DoubleLevel
        } else {
            MacGranularity::SingleLevel
        };
        let l = ChvLayout::new(1 << 20, mode);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            assert!(seen.insert(l.data_addr(i)), "data {i} collides");
        }
        for i in (0..n).step_by(8) {
            assert!(seen.insert(l.addr_block_addr(i)), "addr block {i} collides");
        }
        let step = if dlm { 64 } else { 8 };
        for i in (0..n).step_by(step) {
            assert!(seen.insert(l.mac_block_addr(i)), "mac block {i} collides");
        }
        // And the episode fits in the accounted footprint.
        let max = seen.iter().max().copied().unwrap_or(0);
        assert!(max < (1 << 20) + l.blocks_used(n) * 64 + 73 * 64);
    });
}

/// Exclusive slot-resource scheduling never double-books a slot —
/// every issued operation gets its own quantum-aligned start — and
/// `reset()` restores a pristine schedule: reissuing the identical
/// ready sequence reproduces the identical completions, and the
/// resource stays overlap-free when reused with a different one.
#[test]
fn slot_resource_exclusive_never_overlaps_across_reset_reuse() {
    check(
        "slot_resource_exclusive_never_overlaps_across_reset_reuse",
        64,
        |rng| {
            let quantum = rng.range(1..64);
            let readies_a = rng.vec(1..60, |r| r.below(10_000));
            let readies_b = rng.vec(1..60, |r| r.below(10_000));
            // Latency <= quantum, so every op claims exactly one slot:
            // distinct start times are exactly the no-overlap property.
            let mut r = SlotResource::exclusive("pcm", Cycles(1), quantum);
            let issue_all = |r: &mut SlotResource, readies: &[u64]| -> Vec<(u64, u64)> {
                readies
                    .iter()
                    .map(|t| {
                        let c = r.issue(Cycles(*t));
                        (c.start.0, c.done.0)
                    })
                    .collect()
            };

            let first = issue_all(&mut r, &readies_a);
            r.reset();
            assert_eq!(r.ops(), 0);
            assert_eq!(r.occupied_cycles(), 0);
            let replay = issue_all(&mut r, &readies_a);
            assert_eq!(&first, &replay, "reset must restore a pristine schedule");
            r.reset();
            let second = issue_all(&mut r, &readies_b);

            for (phase, readies) in [(&first, &readies_a), (&second, &readies_b)] {
                let starts: std::collections::HashSet<u64> =
                    phase.iter().map(|(start, _)| *start).collect();
                assert_eq!(
                    starts.len(),
                    phase.len(),
                    "two exclusive ops were scheduled into the same slot"
                );
                for ((start, done), ready) in phase.iter().zip(readies.iter()) {
                    assert_eq!(start % quantum, 0, "start is slot-aligned");
                    assert!(start >= ready, "op started before it was ready");
                    assert!(done > start);
                }
            }
            // r was reset between phases, so its counters reflect only the
            // most recent one.
            assert_eq!(r.ops(), second.len() as u64);
            assert_eq!(r.occupied_cycles(), second.len() as u64 * quantum);
        },
    );
}

/// A set-associative cache behaves like a map: whatever lookup
/// returns equals the last inserted/written value.
#[test]
fn cache_matches_reference_map() {
    check("cache_matches_reference_map", 64, |rng| {
        let mut cache = SetAssocCache::new(CacheGeometry::new("p", 16 * 64, 2));
        let mut reference = std::collections::HashMap::new();
        for (blk, val, write) in rng.vec(1..300, |r| (r.below(64), r.byte(), r.chance(0.5))) {
            let addr = blk * 64;
            if write {
                cache.insert(addr, [val; 64], true);
                reference.insert(addr, val);
            } else if let Some(data) = cache.lookup(addr) {
                assert_eq!(data, &[reference[&addr]; 64]);
            }
        }
        // Every line still cached matches the reference.
        for (addr, data, _) in cache.iter() {
            assert_eq!(data, &[reference[&addr]; 64]);
        }
    });
}

/// drain → recover round-trips `writes` (block index → fill byte)
/// under `scheme`.
fn assert_drain_recover_identity(writes: &BTreeMap<u64, u8>, scheme: DrainScheme) {
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for (blk, val) in writes {
        // Spread blocks so the tiny hierarchy holds them.
        sys.write(blk * 16448, [*val; 64]).expect("write");
    }
    sys.crash_and_drain(scheme);
    sys.recover().expect("clean vault");
    for (blk, val) in writes {
        assert_eq!(
            sys.read(blk * 16448).expect("read"),
            [*val; 64],
            "block {blk}"
        );
    }
}

/// drain → recover is the identity on arbitrary sets of dirty lines,
/// for both Horus schemes. The end-to-end property is expensive; fewer
/// cases.
#[test]
fn drain_recover_identity() {
    check("drain_recover_identity", 12, |rng| {
        let len = rng.range(1..80) as usize;
        let mut writes = BTreeMap::new();
        while writes.len() < len {
            // Below 1021: block 1021 × 16448 B lies past small_test's 16 MiB data region.
            writes.insert(rng.below(1000), rng.byte());
        }
        let scheme = if rng.chance(0.5) {
            DrainScheme::HorusDlm
        } else {
            DrainScheme::HorusSlm
        };
        assert_drain_recover_identity(&writes, scheme);
    });
}

/// The edges of `drain_recover_identity`'s block domain round-trip
/// under both Horus schemes.
#[test]
fn drain_recover_identity_at_domain_edges() {
    let writes = BTreeMap::from([(0, 0x5a), (999, 0xa5)]);
    for scheme in [DrainScheme::HorusSlm, DrainScheme::HorusDlm] {
        assert_drain_recover_identity(&writes, scheme);
    }
}

/// The harness determinism contract: running a sweep with *any*
/// worker count produces outcomes, merged statistics, and rendered
/// reports byte-identical to the one-worker serial reference. Each case
/// runs every spec twice (serial + parallel); keep the case count small.
#[test]
fn harness_parallel_run_is_byte_identical_to_serial() {
    check(
        "harness_parallel_run_is_byte_identical_to_serial",
        8,
        |rng| {
            let jobs = rng.range(2..9) as usize;
            let seeds = rng.vec(1..4, |r| r.below(1_000));
            let recover = rng.chance(0.5);
            let specs: Vec<JobSpec> = seeds
                .iter()
                .flat_map(|seed| {
                    let mut cfg = SystemConfig::small_test();
                    cfg.seed = *seed;
                    DrainScheme::ALL
                        .iter()
                        .map(|s| {
                            let pattern = FillPattern::StridedSparse { min_stride: 16384 };
                            if recover && s.is_horus() {
                                JobSpec::drain_recover(&cfg, *s, pattern)
                            } else {
                                JobSpec::drain(&cfg, *s, pattern)
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();

            let serial = Harness::serial().run(&specs);
            let parallel = Harness::with_jobs(jobs).run(&specs);

            assert_eq!(&serial.outcomes, &parallel.outcomes);
            assert_eq!(serial.merged_stats(), parallel.merged_stats());
            // Byte-identical over the full serialized surface — the exact
            // artifact a memoizing cache or report renderer would consume.
            assert_eq!(
                serde_json::to_string(&serial.outcomes).expect("serialize"),
                serde_json::to_string(&parallel.outcomes).expect("serialize")
            );
        },
    );
}
