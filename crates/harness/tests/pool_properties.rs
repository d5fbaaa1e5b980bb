//! Property tests for the ordered worker pool.
//!
//! The invariant under test is the one every sweep rests on: for *any*
//! batch of independent tasks and *any* worker count, [`run_indexed`]
//! returns exactly what a serial `(0..n).map(..)` would. The nightly
//! `deep.yml` lane reruns this suite at `PROPTEST_CASES=4096`.

use horus_harness::run_indexed;
use horus_sim::rng::{check, default_cases};

/// A tiny deterministic "episode": mixes its submission index with a seed
/// through a few rounds of integer hashing and returns a digest plus a
/// derived byte vector, so both scalar and heap results are compared.
fn episode_result(seed: u64, index: u64) -> (u64, Vec<u8>) {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..4 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    let bytes = (0..(index % 17) as usize)
        .map(|i| (x >> (i % 8)) as u8)
        .collect();
    (x, bytes)
}

/// `episodes` tasks on `threads` workers, each slot unwrapped (no task
/// panics).
fn pooled(seed: u64, episodes: u64, threads: usize) -> Vec<(u64, Vec<u8>)> {
    run_indexed(episodes as usize, threads, |i| {
        episode_result(seed, i as u64)
    })
    .into_iter()
    .map(|r| r.expect("no task panics"))
    .collect()
}

/// Pool merge == serial map, for thread counts around and beyond the
/// task count.
#[test]
fn merge_equals_serial_map() {
    check("merge_equals_serial_map", default_cases(), |rng| {
        let seed = rng.next_u64();
        let episodes = rng.below(40);
        let threads = [1usize, 2, 3, 4, 8, 16][rng.below(6) as usize];
        let serial: Vec<_> = (0..episodes).map(|i| episode_result(seed, i)).collect();
        assert_eq!(pooled(seed, episodes, threads), serial);
    });
}

/// Running the same batch twice on the same pool size is bit-stable
/// even though worker assignment differs run to run.
#[test]
fn repeated_runs_are_identical() {
    check("repeated_runs_are_identical", default_cases(), |rng| {
        let seed = rng.next_u64();
        let episodes = rng.range(1..24);
        let threads = rng.range(1..9) as usize;
        assert_eq!(
            pooled(seed, episodes, threads),
            pooled(seed, episodes, threads)
        );
    });
}

/// Thread count never leaks into the result: every pool size agrees
/// with the single-worker run.
#[test]
fn all_pool_sizes_agree_with_reference() {
    check(
        "all_pool_sizes_agree_with_reference",
        default_cases(),
        |rng| {
            let seed = rng.next_u64();
            let episodes = rng.below(16);
            let reference = pooled(seed, episodes, 1);
            for threads in [2usize, 8] {
                assert_eq!(
                    pooled(seed, episodes, threads),
                    reference,
                    "threads = {threads}"
                );
            }
        },
    );
}
