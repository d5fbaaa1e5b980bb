//! Fault-injection campaign: random single-bit flips across the vault
//! and the run-time metadata, with detection statistics.
//!
//! The security tests prove *specific* attacks are caught; this campaign
//! samples the space randomly (seeded) — every injected corruption of
//! protected state must surface as a verification failure, never as
//! silently wrong data.
//!
//! Trials are independent, so they run on the `horus-harness` worker
//! pool (`--jobs N`); each trial derives its own RNG seed from the
//! campaign seed and its trial index, making the statistics identical
//! for any worker count. A trial whose invariant check fails is caught
//! by the pool's panic isolation and fails the campaign at the end
//! instead of killing the run mid-way.
//!
//! Usage: `cargo run --release -p horus-bench --bin repro-faults --
//! [--jobs N] [--run-dir DIR]`

use horus_bench::cli::HarnessArgs;
use horus_bench::table;
use horus_core::{DrainScheme, SecureEpdSystem, SystemConfig};
use horus_harness::Harness;
use horus_sim::rng::Rng;

/// What one injection trial observed.
enum Trial {
    /// Recovery/read failed verification — the flip was caught.
    Detected,
    /// The flip landed in bits no verified entry depends on; the trial
    /// proved the restored/read data is still correct.
    Benign,
}

/// Per-trial RNG seed: campaign seed and trial index mixed through a
/// splitmix64-style finalizer so neighbouring trials get unrelated
/// streams regardless of which worker runs them.
fn trial_seed(campaign: u64, trial: usize) -> u64 {
    let mut z = campaign
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(trial as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flips one random bit in one random block of `[base, base+blocks)`.
fn flip_random(sys: &mut SecureEpdSystem, rng: &mut Rng, base: u64, blocks: u64) -> u64 {
    let addr = base + rng.below(blocks) * 64;
    let byte = rng.below(64) as usize;
    let bit = rng.below(8);
    let mut b = sys.attacker_nvm().read_block(addr);
    b[byte] ^= 1 << bit;
    sys.attacker_nvm().write_block(addr, b);
    addr
}

fn drained_system(scheme: DrainScheme) -> SecureEpdSystem {
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for i in 0..64u64 {
        sys.write(i * 16448, [(i as u8).wrapping_mul(7).wrapping_add(3); 64])
            .expect("write");
    }
    sys.crash_and_drain(scheme);
    sys
}

/// One CHV-corruption trial: drain, flip a random vault bit, recover.
fn chv_trial(scheme: DrainScheme, seed: u64) -> Trial {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = drained_system(scheme);
    let layout = sys.chv_layout().expect("layout");
    let n = sys.episode().expect("episode").blocks;
    let used = layout.blocks_used(n);
    let base = sys.map().chv_base();
    flip_random(&mut sys, &mut rng, base, used);
    match sys.recover() {
        Err(_) => Trial::Detected,
        Ok(_) => {
            // A flip can land in the unused tail of a partially filled
            // address/MAC block — bits no entry depends on. That is
            // benign by construction, not a miss; verify the restored
            // data to prove it.
            let ok = (0..64u64).all(|i| {
                sys.read(i * 16448)
                    .map(|b| b[0] == (i as u8).wrapping_mul(7).wrapping_add(3))
                    == Ok(true)
            });
            assert!(
                ok,
                "undetected corruption changed restored data — a real miss"
            );
            Trial::Benign
        }
    }
}

/// One run-time corruption trial: flip a bit of a data block resident
/// only in NVM, then read it back through the secure path.
fn runtime_trial(seed: u64) -> Trial {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for i in 0..256u64 {
        sys.write(i * 4096, [9; 64]).expect("write");
    }
    let candidates: Vec<u64> = (0..256u64)
        .map(|i| i * 4096)
        .filter(|a| {
            sys.platform().nvm.device().is_written(*a) && sys.hierarchy().llc().peek(*a).is_none()
        })
        .collect();
    let victim = candidates[rng.below(candidates.len() as u64) as usize];
    let byte = rng.below(64) as usize;
    let bit = rng.below(8);
    let mut b = sys.attacker_nvm().read_block(victim);
    b[byte] ^= 1 << bit;
    sys.attacker_nvm().write_block(victim, b);
    match sys.read(victim) {
        Err(_) => Trial::Detected,
        Ok(data) => {
            assert_eq!(data, [9; 64], "undetected corruption returned wrong data");
            Trial::Benign
        }
    }
}

/// Runs one campaign on the pool; returns `(detected, benign)` and
/// prints any trial failures. Deterministic for any `--jobs`.
fn campaign(
    harness: &Harness,
    name: &str,
    trials: u32,
    seed: u64,
    trial: impl Fn(u64) -> Trial + Sync,
    failures: &mut u32,
) -> (u32, u32) {
    let outcomes = harness.run_tasks(trials as usize, |i| trial(trial_seed(seed, i)));
    let mut detected = 0;
    let mut benign = 0;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(Trial::Detected) => detected += 1,
            Ok(Trial::Benign) => benign += 1,
            Err(message) => {
                eprintln!("{name}: trial {i} FAILED: {message}");
                *failures += 1;
            }
        }
    }
    (detected, benign)
}

fn main() {
    let args = HarnessArgs::parse_or_exit();
    args.trace_or_exit(&SystemConfig::small_test(), DrainScheme::HorusSlm);
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let trials = 200;
    println!(
        "random single-bit fault injection, {trials} trials per target ({} workers):\n",
        harness.jobs()
    );
    let mut failures = 0;
    let campaigns: [(&str, &(dyn Fn(u64) -> Trial + Sync)); 3] = [
        ("CHV after Horus-SLM drain", &|s| {
            chv_trial(DrainScheme::HorusSlm, s)
        }),
        ("CHV after Horus-DLM drain", &|s| {
            chv_trial(DrainScheme::HorusDlm, s)
        }),
        ("run-time data in NVM", &runtime_trial),
    ];
    let mut rows = Vec::new();
    for (seed, (name, trial)) in campaigns.into_iter().enumerate() {
        let (detected, benign) = campaign(
            &harness,
            name,
            trials,
            seed as u64 + 1,
            trial,
            &mut failures,
        );
        rows.push(vec![
            name.to_owned(),
            detected.to_string(),
            benign.to_string(),
            format!(
                "{:.1}%",
                100.0 * f64::from(detected) / f64::from((detected + benign).max(1))
            ),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["target", "detected", "benign (unused bits)", "detection"],
            &rows
        )
    );
    obs.finish_or_exit(&harness);
    if failures > 0 {
        eprintln!("{failures} trial(s) returned corrupted data or failed an invariant");
        std::process::exit(1);
    }
    println!("every flip was either detected or provably benign (landed in bits no");
    println!("verified entry depends on); no trial ever returned corrupted data.");
}
