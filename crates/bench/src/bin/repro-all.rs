//! Runs every experiment and writes `EXPERIMENTS.md` (paper-vs-measured
//! for each table and figure).
//!
//! Usage: `cargo run --release -p horus-bench --bin repro-all --
//! [--jobs N] [--cache-dir DIR] [--no-cache] [--quick]
//! [--metrics-addr ADDR] [--run-dir DIR]`
//!
//! Experiment points run on the `horus-harness` worker pool and are
//! memoized in the result cache, so a repeated invocation is pure cache
//! hits and completes in seconds. `--quick` shrinks the LLC sweeps
//! (useful while iterating); a cold full run takes a few minutes.
//!
//! Exits non-zero when any headline claim's measured value deviates
//! from the paper's value beyond its stated tolerance.

use horus_bench::cli::HarnessArgs;
use horus_bench::repro_all::{self, ReproPlan};
use horus_core::{DrainScheme, SystemConfig};

fn main() {
    let args = HarnessArgs::parse_or_exit();
    args.trace_or_exit(&SystemConfig::paper_default(), DrainScheme::HorusSlm);
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let plan = if args.quick {
        ReproPlan::quick()
    } else {
        ReproPlan::full()
    };
    let started = std::time::Instant::now();

    let out = repro_all::run(&harness, &plan);
    std::fs::write("EXPERIMENTS.md", &out.markdown).expect("write EXPERIMENTS.md");
    println!("{}", out.markdown);

    let (executed, cache_hits) = harness.totals();
    eprintln!(
        "wrote EXPERIMENTS.md: {executed} simulations executed, {cache_hits} cache hits, \
         {:.1} s wall clock ({} workers)",
        started.elapsed().as_secs_f64(),
        harness.jobs()
    );

    obs.finish_or_exit(&harness);

    let failures = out.failures();
    if !failures.is_empty() {
        for c in &failures {
            eprintln!(
                "TOLERANCE FAILURE: {} — paper {:.prec$}x, measured {:.prec$}x, allowed ±{:.0}%",
                c.claim,
                c.paper,
                c.measured,
                c.tolerance * 100.0,
                prec = c.precision,
            );
        }
        std::process::exit(1);
    }
}
