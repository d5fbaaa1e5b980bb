//! Acceptance tests for the `horus-cli repro` pipeline: the
//! generated `EXPERIMENTS.md` markdown must be byte-identical for any
//! `--jobs` count, and an immediately repeated invocation against a
//! warm result cache must complete with 100% cache hits — zero
//! re-executed simulations.
//!
//! Runs the real pipeline on [`ReproPlan::smoke`] (same code path as
//! the command, miniature configuration) so the test finishes in
//! seconds.

use horus::harness::{Harness, HarnessOptions, ProgressMode};
use horus_bench::repro_all::{self, ReproPlan};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("horus-repro-all-it-{tag}-{}", std::process::id()))
}

fn cached_harness(dir: &Path, jobs: usize) -> Harness {
    Harness::new(HarnessOptions {
        jobs: Some(jobs),
        cache_dir: Some(dir.to_path_buf()),
        no_cache: false,
        progress: ProgressMode::Silent,
        ..HarnessOptions::default()
    })
}

#[test]
fn parallel_markdown_is_byte_identical_and_repeat_run_is_all_cache_hits() {
    let dir = scratch_dir("accept");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = ReproPlan::smoke();

    // Serial reference: one worker, no cache.
    let serial = repro_all::run(&Harness::serial(), &plan);

    // Parallel, cold cache.
    let cold_harness = cached_harness(&dir, 4);
    let cold = repro_all::run(&cold_harness, &plan);
    assert_eq!(
        serial.markdown, cold.markdown,
        "EXPERIMENTS.md content must not depend on the worker count"
    );
    let (cold_executed, _) = cold_harness.totals();
    assert!(cold_executed > 0, "cold run executes simulations");

    // Immediate repeat: everything memoized, nothing re-simulated.
    let warm_harness = cached_harness(&dir, 4);
    let warm = repro_all::run(&warm_harness, &plan);
    assert_eq!(warm.markdown, serial.markdown);
    let (warm_executed, warm_hits) = warm_harness.totals();
    assert_eq!(warm_executed, 0, "repeat invocation re-executes nothing");
    assert!(warm_hits > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_scale_plans_share_the_sweep_shape() {
    // The full and quick plans drive the same pipeline; this pins their
    // intended scales so an accidental edit can't silently shrink the
    // published full run.
    let full = ReproPlan::full();
    assert_eq!(full.sweep_llc, vec![8 << 20, 16 << 20, 32 << 20]);
    assert_eq!(full.recovery_llc.len(), 5);
    let quick = ReproPlan::quick();
    assert_eq!(quick.base, full.base);
    assert!(quick.sweep_llc.len() < full.sweep_llc.len());
}

#[test]
fn smoke_claim_table_lists_every_headline_claim() {
    // The tolerance gate is wired off these checks; make sure the
    // pipeline emits all eight and that the markdown carries the table.
    let plan = ReproPlan::smoke();
    let out = repro_all::run(&Harness::serial(), &plan);
    assert_eq!(out.checks.len(), 8);
    assert!(out.markdown.contains("## Headline claims"));
    assert!(out
        .markdown
        .contains("| claim | paper | measured | tolerance | within |"));
    for c in &out.checks {
        assert!(
            out.markdown.contains(c.claim),
            "claim '{}' rendered",
            c.claim
        );
    }
}
