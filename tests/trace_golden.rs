//! Golden tests for the observability probe: traces are deterministic
//! (byte-identical JSON across runs and worker counts), and leaving the
//! probe off leaves reports exactly as they were before the probe
//! existed.

use horus::core::{DrainScheme, SystemConfig};
use horus::harness::{Harness, JobSpec};
use horus::sim::chrome_trace_json;
use horus::workload::FillPattern;

fn spec(scheme: DrainScheme) -> JobSpec {
    JobSpec::drain(
        &SystemConfig::small_test(),
        scheme,
        FillPattern::StridedSparse { min_stride: 16384 },
    )
}

#[test]
fn same_seeded_drain_emits_byte_identical_trace_json() {
    let (_, trace_a) = spec(DrainScheme::HorusSlm).execute_traced();
    let (_, trace_b) = spec(DrainScheme::HorusSlm).execute_traced();
    assert_eq!(trace_a, trace_b, "event streams are deterministic");
    let json_a = chrome_trace_json(&trace_a);
    let json_b = chrome_trace_json(&trace_b);
    assert_eq!(json_a, json_b, "exported JSON is byte-identical");
    assert!(json_a.starts_with("{\"traceEvents\":["));
    assert!(json_a.contains("pcm-bank"));
}

#[test]
fn probed_results_are_identical_across_worker_counts() {
    let specs: Vec<JobSpec> = DrainScheme::ALL.iter().map(|s| spec(*s).probed()).collect();
    let serial = Harness::serial().run(&specs);
    let parallel = Harness::with_jobs(4).run(&specs);
    let a = serial.results().expect("serial sweep succeeds");
    let b = parallel.results().expect("parallel sweep succeeds");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "probed results do not depend on worker count");
    }
    // The probe products actually rode along.
    for r in &a {
        assert!(r.drain.utilization.is_some());
        assert!(r.drain.critical_path.is_some());
    }
}

#[test]
fn unprobed_reports_match_pre_probe_output() {
    for scheme in DrainScheme::ALL {
        let plain = spec(scheme).execute();
        let (probed, trace) = spec(scheme).execute_traced();
        assert!(!trace.is_empty(), "{scheme}");

        // Probing never perturbs the measurement.
        assert_eq!(plain.drain.cycles, probed.drain.cycles, "{scheme}");
        assert_eq!(plain.drain.reads, probed.drain.reads, "{scheme}");
        assert_eq!(plain.drain.writes, probed.drain.writes, "{scheme}");
        assert_eq!(plain.drain.mac_ops, probed.drain.mac_ops, "{scheme}");
        assert_eq!(
            plain.drain.flushed_blocks, probed.drain.flushed_blocks,
            "{scheme}"
        );

        // The unprobed report carries no probe products, and (under a
        // real serde_json) none of the new keys appear on the wire —
        // its encoding is exactly the pre-probe one.
        assert!(plain.drain.utilization.is_none(), "{scheme}");
        assert!(plain.drain.critical_path.is_none(), "{scheme}");
        let json = serde_json::to_string(&plain.drain).expect("serialize");
        assert!(!json.contains("utilization"), "{scheme}");
        assert!(!json.contains("critical_path"), "{scheme}");
    }
}

#[test]
fn horus_drain_is_pcm_bank_bound() {
    let (result, _) = spec(DrainScheme::HorusSlm).execute_traced();
    let cp = result.drain.critical_path.expect("probed run attributes");
    assert_eq!(cp.bounding_resource, "pcm-bank");
    // Shares tile the episode: they never attribute more cycles than
    // the drain took.
    let attributed: u64 = cp.shares.iter().map(|s| s.cycles).sum();
    assert!(attributed <= cp.total_cycles);
    let frac: f64 = cp.shares.iter().map(|s| s.fraction).sum();
    assert!((frac - 1.0).abs() < 1e-9);
}
