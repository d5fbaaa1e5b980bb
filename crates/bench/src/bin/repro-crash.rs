//! Crash-point fault-injection sweep: interrupt every scheme's drain at
//! sampled cycles (phase boundaries ±1 plus even coverage), recover from
//! exactly the persistent state a real machine would hold, and classify
//! each point as recovered / detected / SILENT-CORRUPTION.
//!
//! The contract: the Horus schemes must never land in the silent column
//! — an interrupted drain either restores a verified prefix or reports
//! the loss. The baselines show their documented vulnerability windows.
//!
//! Usage: `cargo run --release -p horus-bench --bin repro-crash --
//! [--quick] [--jobs N] [--metrics-addr ADDR] [--run-dir DIR]`
//!
//! With `--metrics-addr`, a mid-run scrape shows
//! `horus_crash_verdicts_total{scheme, verdict}` filling in live.

use horus_bench::cli::HarnessArgs;
use horus_bench::crash_sweep::{self, CrashSweepPlan};
use horus_core::{DrainScheme, SystemConfig};

fn main() {
    let args = HarnessArgs::parse_or_exit();
    args.trace_or_exit(&SystemConfig::small_test(), DrainScheme::HorusSlm);
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let plan = if args.quick {
        CrashSweepPlan::quick()
    } else {
        CrashSweepPlan::full()
    };
    println!(
        "crash-point sweep: ~{} interruption cycles per scheme, torn-write model \"{}\" ({} workers):\n",
        plan.points_per_scheme,
        plan.model,
        harness.jobs()
    );
    let matrix = crash_sweep::run(&harness, &plan);
    obs.finish_or_exit(&harness);
    println!("{}", matrix.render());
    if matrix.failures() > 0 {
        eprintln!(
            "{} Horus silent corruption(s), {} panicked trial(s) — the sweep FAILED",
            matrix.horus_silent_corruptions(),
            matrix.panics
        );
        std::process::exit(1);
    }
    println!("Horus recovered or detected every sampled crash point — zero silent");
    println!("corruption — and salvaged verified prefixes inside the loss windows.");
    if matrix.silent_corruptions() > 0 {
        println!(
            "the baselines' {} silent-loss point(s) are the documented vulnerability",
            matrix.silent_corruptions()
        );
        println!("window the paper motivates Horus with (expected, not a failure).");
    }
}
