//! Golden tests for the episode pool: fanning independent episodes out
//! over `horus_harness::run_indexed` must be byte-identical to the
//! single-worker run — serialized job results (op counts, `Stats` JSON)
//! and exported golden traces alike — at pool sizes {1, 2, 8}.
//!
//! Companion to `trace_golden.rs`: that file pins determinism across
//! the memoizing `Harness`; this one pins the bare pool the harness runs
//! episodes on.

use horus::core::{DrainScheme, SystemConfig};
use horus::harness::{run_indexed, JobSpec};
use horus::sim::chrome_trace_json;
use horus::workload::FillPattern;

fn spec(scheme: DrainScheme) -> JobSpec {
    JobSpec::drain(
        &SystemConfig::small_test(),
        scheme,
        FillPattern::StridedSparse { min_stride: 16384 },
    )
}

/// Runs `episode` once per scheme, in `DrainScheme::ALL` order, on a
/// pool of `threads` workers.
fn per_scheme<T: Send>(threads: usize, episode: impl Fn(JobSpec) -> T + Sync) -> Vec<T> {
    run_indexed(DrainScheme::ALL.len(), threads, |i| {
        episode(spec(DrainScheme::ALL[i]))
    })
    .into_iter()
    .map(|r| r.expect("episode panicked"))
    .collect()
}

/// Serializes the five smoke-scale scheme episodes after fanning them out
/// over a pool of `threads` workers. The JSON string is the comparison
/// unit so every field — op counts, stats counters, histograms — is held
/// to byte identity, not just the headline numbers.
fn results_json(threads: usize) -> String {
    let results = per_scheme(threads, |spec| spec.execute());
    serde_json::to_string(&results).expect("job results serialize")
}

#[test]
fn results_are_byte_identical_across_pool_sizes() {
    let reference = results_json(1);
    for threads in [2usize, 8] {
        assert_eq!(
            results_json(threads),
            reference,
            "a {threads}-worker pool diverged from the single-worker run"
        );
    }
}

#[test]
fn golden_traces_are_byte_identical() {
    // Probed episodes: the full cycle-stamped event stream must survive
    // the pool, not just the aggregate counts.
    let traces = |threads: usize| -> Vec<String> {
        per_scheme(threads, |spec| {
            let (_, trace) = spec.execute_traced();
            chrome_trace_json(&trace)
        })
    };
    let reference = traces(1);
    assert_eq!(reference.len(), DrainScheme::ALL.len());
    for json in &reference {
        assert!(json.starts_with("{\"traceEvents\":["));
    }
    for threads in [2usize, 8] {
        assert_eq!(traces(threads), reference, "threads = {threads}");
    }
}

#[test]
fn merge_preserves_scheme_order() {
    // The merged vector must line up with DrainScheme::ALL submission
    // order, whatever order the workers finished in.
    let results = per_scheme(8, |spec| spec.execute());
    let names: Vec<&str> = results.iter().map(|r| r.drain.scheme.as_str()).collect();
    let expected: Vec<&str> = DrainScheme::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, expected);
}
