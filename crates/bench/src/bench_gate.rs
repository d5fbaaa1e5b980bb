//! The bench-regression gate behind `horus-cli bench-gate` and its CI job.
//!
//! [`measure_with`] runs the smoke-scale [`crate::repro_all`] plan and distils
//! it into a [`BenchSnapshot`]: the per-scheme headline op counts
//! (memory requests, MAC operations, drain cycles) from the five-scheme
//! comparison, every headline-claim measurement, and the wall time. The
//! snapshot serializes to `BENCH_smoke.json` committed at the repo root;
//! [`compare`] diffs a fresh measurement against that baseline with a
//! relative tolerance and reports every deviation. Wall time is recorded
//! for trend-watching but never compared — it depends on the runner.
//!
//! The snapshot also carries an `ops_per_sec` section: simulator
//! throughput measured by timing un-memoized smoke episodes directly.
//! Unlike the op counts it is *not* deterministic, so it gets its own
//! gate, [`compare_throughput`], which flags only regressions (a faster
//! runner never fails) at a generous tolerance ([`THROUGHPUT_TOLERANCE`]) to
//! absorb runner noise. A real hot-path regression — an allocation on
//! the per-op path, a hash-map swap, an accidental debug build — shows
//! up as a multiple, not a percentage, so the wide band still catches
//! what matters.
//!
//! A `host_profile` section records the measuring run's own resource
//! usage — CPU seconds, peak RSS, and (under the `alloc-profile`
//! feature) allocation totals — via `horus_obs::profile`. It gets the
//! same regressions-only treatment as throughput through
//! [`compare_host_profile`], at an even wider default tolerance (50%),
//! and the CI job runs it informationally until the committed baseline
//! carries the section.
//!
//! The writer lays the document out by hand, one entity per line, so
//! the committed baseline diffs cleanly; strings go through
//! `serde_json::write_str` and [`BenchSnapshot::parse`] is a derived
//! `serde_json::from_str`.

use crate::repro_all::{self, ReproPlan};
use crate::{figures, table};
use horus_harness::Harness;
use serde::Deserialize;
use std::time::{Duration, Instant};

/// One scheme's headline op counts at smoke scale.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct SchemeOps {
    /// The scheme's paper name.
    pub scheme: String,
    /// NVM requests issued by the drain.
    pub memory_requests: u64,
    /// MAC computations performed by the drain.
    pub mac_ops: u64,
    /// Drain latency in cycles.
    pub cycles: u64,
}

/// One headline claim's measured value.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct HeadlineValue {
    /// The claim, as worded in the `EXPERIMENTS.md` headline table.
    pub claim: String,
    /// The measured value at smoke scale.
    pub measured: f64,
}

/// One throughput metric: units of simulated work retired per wall
/// second, from timing un-memoized smoke episodes.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Throughput {
    /// What is being rated (e.g. `sim_cycles`, `episodes`).
    pub metric: String,
    /// Units per wall second.
    pub per_sec: f64,
}

/// Host-side resource usage of the measuring run: the `host_profile`
/// snapshot section.
///
/// Like `ops_per_sec` this is machine-dependent, so it is gated
/// separately ([`compare_host_profile`], regressions only, wide
/// tolerance) and never by [`compare`]. Fields are `None` when the probe
/// is unavailable (non-Linux `/proc`, or the `alloc-profile` feature off
/// for the allocation counters); absent values are skipped by the gate on
/// either side, so a Linux-recorded baseline still parses and gates
/// everywhere.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct HostProfileSection {
    /// Process CPU seconds (user + system) consumed by the measuring run.
    pub cpu_seconds: Option<f64>,
    /// Peak resident set size in bytes.
    pub peak_rss_bytes: Option<u64>,
    /// Total allocations (requires `alloc-profile`).
    pub allocations: Option<u64>,
    /// Total allocated bytes (requires `alloc-profile`).
    pub allocated_bytes: Option<u64>,
}

impl HostProfileSection {
    /// Captures the current process's resource usage via `horus_obs`.
    /// CPU seconds are measured as a delta from `started` going forward;
    /// here we report the process totals, which is what a whole-run
    /// measuring process wants.
    #[must_use]
    pub fn capture() -> Self {
        let allocs = horus_obs::profile::alloc_counts();
        HostProfileSection {
            cpu_seconds: horus_obs::profile::process_cpu_seconds(),
            peak_rss_bytes: horus_obs::profile::peak_rss_bytes(),
            allocations: allocs.map(|(n, _)| n),
            allocated_bytes: allocs.map(|(_, b)| b),
        }
    }
}

/// Everything the gate compares (plus the informational wall time).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct BenchSnapshot {
    /// Per-scheme op counts, in `DrainScheme::ALL` order.
    pub schemes: Vec<SchemeOps>,
    /// Headline-claim measurements, in headline-table order.
    pub checks: Vec<HeadlineValue>,
    /// Simulator throughput, gated (regressions only) by
    /// [`compare_throughput`] — never by [`compare`]. Empty for
    /// baselines recorded before the section existed.
    #[serde(default)]
    pub ops_per_sec: Vec<Throughput>,
    /// Host resource usage of the measuring run, gated (regressions
    /// only) by [`compare_host_profile`] — never by [`compare`].
    /// `None` for baselines recorded before the section existed.
    pub host_profile: Option<HostProfileSection>,
    /// Wall time of the measuring run, seconds. Informational via
    /// [`compare`], gated (regressions only) by [`compare_host_profile`].
    pub wall_seconds: f64,
}

impl BenchSnapshot {
    /// Serializes the snapshot. Stable format: field order fixed, floats
    /// via Rust's shortest round-trip `Display`, one entity per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"wall_seconds\": {},\n",
            f64_json(self.wall_seconds)
        ));
        if let Some(host) = &self.host_profile {
            out.push_str(&format!(
                "  \"host_profile\": {{\"cpu_seconds\": {}, \"peak_rss_bytes\": {}, \
                 \"allocations\": {}, \"allocated_bytes\": {}}},\n",
                opt_f64_json(host.cpu_seconds),
                opt_u64_json(host.peak_rss_bytes),
                opt_u64_json(host.allocations),
                opt_u64_json(host.allocated_bytes),
            ));
        }
        out.push_str("  \"schemes\": [\n");
        for (i, s) in self.schemes.iter().enumerate() {
            out.push_str("    {\"scheme\": ");
            serde_json::write_str(&mut out, &s.scheme);
            out.push_str(&format!(
                ", \"memory_requests\": {}, \"mac_ops\": {}, \"cycles\": {}}}{}\n",
                s.memory_requests,
                s.mac_ops,
                s.cycles,
                if i + 1 < self.schemes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"checks\": [\n");
        for (i, c) in self.checks.iter().enumerate() {
            out.push_str("    {\"claim\": ");
            serde_json::write_str(&mut out, &c.claim);
            out.push_str(&format!(
                ", \"measured\": {}}}{}\n",
                f64_json(c.measured),
                if i + 1 < self.checks.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"ops_per_sec\": [\n");
        for (i, t) in self.ops_per_sec.iter().enumerate() {
            out.push_str("    {\"metric\": ");
            serde_json::write_str(&mut out, &t.metric);
            out.push_str(&format!(
                ", \"per_sec\": {}}}{}\n",
                f64_json(t.per_sec),
                if i + 1 < self.ops_per_sec.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the JSON error, or a complaint about an empty baseline.
    pub fn parse(text: &str) -> Result<Self, String> {
        let snapshot: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if snapshot.schemes.is_empty() || snapshot.checks.is_empty() {
            return Err("baseline has no scheme or check entries".to_owned());
        }
        Ok(snapshot)
    }

    /// The human-readable summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .schemes
            .iter()
            .map(|s| {
                vec![
                    s.scheme.clone(),
                    s.memory_requests.to_string(),
                    s.mac_ops.to_string(),
                    s.cycles.to_string(),
                ]
            })
            .collect();
        table::render(&["scheme", "mem requests", "MAC ops", "cycles"], &rows)
    }

    /// One line per throughput metric, e.g. `sim_cycles: 2.81e8/s` —
    /// also the line the CI job summary surfaces.
    #[must_use]
    pub fn render_throughput(&self) -> String {
        self.ops_per_sec
            .iter()
            .map(|t| format!("{}: {:.3e}/s", t.metric, t.per_sec))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

fn opt_f64_json(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), f64_json)
}

/// Non-finite values are written as `null` (bare `NaN`/`inf` is not
/// JSON) and read back as NaN.
fn f64_json(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

/// The wall time [`measure_throughput`] keeps timing smoke sets for.
/// One five-episode set takes a few milliseconds in a release build, so
/// a single set's wall time is mostly scheduler noise; a 1 s window
/// averages it out.
const THROUGHPUT_WINDOW: Duration = Duration::from_secs(1);

/// Times un-memoized five-scheme smoke episodes on the calling thread,
/// set after set, until a fixed one-second window has passed, and rates
/// the whole window — simulated cycles retired and scheme episodes
/// completed per wall second. Direct [`horus_harness::JobSpec::execute`]
/// calls, bypassing the harness cache, so the rate reflects real
/// simulation work. One worker, so the rate does not depend on how many
/// CPUs the host lends the run from one moment to the next.
///
/// # Panics
///
/// Panics when an episode panics: a diverging episode aborts the
/// measurement rather than rating a partial set.
#[must_use]
pub fn measure_throughput(plan: &ReproPlan) -> Vec<Throughput> {
    use horus_core::DrainScheme;
    let pattern = crate::experiments::paper_fill();
    let (mut cycles, mut episodes) = (0u64, 0usize);
    let started = Instant::now();
    while started.elapsed() < THROUGHPUT_WINDOW {
        for scheme in DrainScheme::ALL {
            cycles += horus_harness::JobSpec::drain(&plan.base, scheme, pattern)
                .execute()
                .drain
                .cycles;
        }
        episodes += DrainScheme::ALL.len();
    }
    let seconds = started.elapsed().as_secs_f64();
    vec![
        Throughput {
            metric: "sim_cycles".to_owned(),
            per_sec: cycles as f64 / seconds,
        },
        Throughput {
            metric: "episodes".to_owned(),
            per_sec: episodes as f64 / seconds,
        },
    ]
}

/// The committed baseline the gate compares against, relative to the
/// working directory (the repository root).
pub const BASELINE: &str = "BENCH_smoke.json";

/// Relative tolerance on the deterministic op counts and claim values
/// ([`compare`]).
pub const COUNT_TOLERANCE: f64 = 0.02;

/// Regressions-only tolerance on the `ops_per_sec` section
/// ([`compare_throughput`]).
pub const THROUGHPUT_TOLERANCE: f64 = 0.25;

/// Default regressions-only tolerance on the `host_profile` section
/// ([`compare_host_profile`]).
pub const HOST_PROFILE_TOLERANCE: f64 = 0.5;

/// Runs the smoke plan on `harness` and snapshots its headline numbers,
/// then rates throughput ([`measure_throughput`]). The host profile and
/// wall time cover the plan alone, not the throughput window.
#[must_use]
pub fn measure_with(harness: &Harness) -> BenchSnapshot {
    let plan = ReproPlan::smoke();
    let mut snapshot = snapshot_plan(harness, &plan);
    snapshot.ops_per_sec = measure_throughput(&plan);
    snapshot
}

/// Everything [`measure_with`] records except `ops_per_sec`.
fn snapshot_plan(harness: &Harness, plan: &ReproPlan) -> BenchSnapshot {
    let started = Instant::now();
    let all = repro_all::run(harness, plan);
    let cmp = figures::scheme_comparison(harness, &plan.base);
    BenchSnapshot {
        schemes: cmp
            .reports
            .iter()
            .map(|r| SchemeOps {
                scheme: r.scheme.clone(),
                memory_requests: r.memory_requests(),
                mac_ops: r.mac_ops,
                cycles: r.cycles,
            })
            .collect(),
        checks: all
            .checks
            .iter()
            .map(|c| HeadlineValue {
                claim: c.claim.to_owned(),
                measured: c.measured,
            })
            .collect(),
        ops_per_sec: Vec::new(),
        host_profile: Some(HostProfileSection::capture()),
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Diffs `current` against the committed `baseline`; every string in the
/// returned list is one deviation beyond `tolerance` (relative, e.g.
/// `0.02` = 2%). Empty means the gate passes. Wall time is never
/// compared.
#[must_use]
pub fn compare(current: &BenchSnapshot, baseline: &BenchSnapshot, tolerance: f64) -> Vec<String> {
    let mut deviations = Vec::new();
    let drifted = |now: f64, then: f64| {
        let scale = then.abs().max(1e-12);
        ((now - then) / scale).abs() > tolerance
    };
    for base in &baseline.schemes {
        match current.schemes.iter().find(|s| s.scheme == base.scheme) {
            None => deviations.push(format!("scheme {} missing from current run", base.scheme)),
            Some(now) => {
                for (what, now_v, then_v) in [
                    ("memory requests", now.memory_requests, base.memory_requests),
                    ("MAC ops", now.mac_ops, base.mac_ops),
                    ("cycles", now.cycles, base.cycles),
                ] {
                    if drifted(now_v as f64, then_v as f64) {
                        deviations.push(format!(
                            "{} {what}: {now_v} vs baseline {then_v}",
                            base.scheme
                        ));
                    }
                }
            }
        }
    }
    for scheme in &current.schemes {
        if !baseline.schemes.iter().any(|s| s.scheme == scheme.scheme) {
            deviations.push(format!(
                "scheme {} absent from baseline — refresh it",
                scheme.scheme
            ));
        }
    }
    for base in &baseline.checks {
        match current.checks.iter().find(|c| c.claim == base.claim) {
            None => deviations.push(format!("claim \"{}\" missing from current run", base.claim)),
            Some(now) => {
                if drifted(now.measured, base.measured) {
                    deviations.push(format!(
                        "claim \"{}\": {} vs baseline {}",
                        base.claim, now.measured, base.measured
                    ));
                }
            }
        }
    }
    deviations
}

/// Gates the `ops_per_sec` section: flags every metric that fell more
/// than `tolerance` (relative, e.g. `0.25` = 25%) *below* its baseline.
/// Running faster than the baseline never fails — only regressions do.
/// A baseline without the section is itself flagged (refresh with
/// `--update`). Empty means the throughput gate passes.
#[must_use]
pub fn compare_throughput(
    current: &BenchSnapshot,
    baseline: &BenchSnapshot,
    tolerance: f64,
) -> Vec<String> {
    if baseline.ops_per_sec.is_empty() {
        return vec!["baseline has no ops_per_sec section — refresh it with --update".to_owned()];
    }
    let mut deviations = Vec::new();
    for base in &baseline.ops_per_sec {
        match current.ops_per_sec.iter().find(|t| t.metric == base.metric) {
            None => deviations.push(format!(
                "throughput {} missing from current run",
                base.metric
            )),
            Some(now) => {
                let floor = base.per_sec * (1.0 - tolerance);
                if now.per_sec < floor {
                    deviations.push(format!(
                        "throughput {}: {:.3e}/s is {:.0}% below baseline {:.3e}/s \
                         (floor {:.3e}/s)",
                        base.metric,
                        now.per_sec,
                        (1.0 - now.per_sec / base.per_sec) * 100.0,
                        base.per_sec,
                        floor
                    ));
                }
            }
        }
    }
    deviations
}

/// Gates the `host_profile` section: flags every host metric that grew
/// more than `tolerance` (relative, e.g. `0.5` = 50%) *above* its
/// baseline. Using fewer resources than the baseline never fails — only
/// regressions do. Host metrics are far noisier than op counts (CPU time
/// depends on runner contention, RSS on allocator arena geometry), so
/// the CI job uses a wide 50% band and runs this gate informationally
/// until the committed baseline carries the section; a real regression
/// — a leak, an accidental clone on the per-job path — shows up as a
/// multiple, not a percentage.
///
/// Wall time is gated here too (same regressions-only rule), since it is
/// exactly as machine-dependent as CPU time. Metrics absent on *either*
/// side (feature off, non-Linux) are skipped, never flagged. A baseline
/// without the section is itself flagged (refresh with `--update`).
#[must_use]
pub fn compare_host_profile(
    current: &BenchSnapshot,
    baseline: &BenchSnapshot,
    tolerance: f64,
) -> Vec<String> {
    let Some(base) = &baseline.host_profile else {
        return vec!["baseline has no host_profile section — refresh it with --update".to_owned()];
    };
    let now = current.host_profile.clone().unwrap_or(HostProfileSection {
        cpu_seconds: None,
        peak_rss_bytes: None,
        allocations: None,
        allocated_bytes: None,
    });
    let mut deviations = Vec::new();
    let mut check = |what: &str, now_v: Option<f64>, then_v: Option<f64>, unit: &str| {
        let (Some(now_v), Some(then_v)) = (now_v, then_v) else {
            return;
        };
        let ceiling = then_v * (1.0 + tolerance);
        if then_v > 0.0 && now_v > ceiling {
            deviations.push(format!(
                "host {what}: {now_v:.3}{unit} is {:.0}% above baseline {then_v:.3}{unit} \
                 (ceiling {ceiling:.3}{unit})",
                (now_v / then_v - 1.0) * 100.0,
            ));
        }
    };
    check(
        "wall_seconds",
        Some(current.wall_seconds),
        Some(baseline.wall_seconds),
        "s",
    );
    check("cpu_seconds", now.cpu_seconds, base.cpu_seconds, "s");
    check(
        "peak_rss_bytes",
        now.peak_rss_bytes.map(|v| v as f64),
        base.peak_rss_bytes.map(|v| v as f64),
        "B",
    );
    check(
        "allocations",
        now.allocations.map(|v| v as f64),
        base.allocations.map(|v| v as f64),
        "",
    );
    check(
        "allocated_bytes",
        now.allocated_bytes.map(|v| v as f64),
        base.allocated_bytes.map(|v| v as f64),
        "B",
    );
    deviations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        BenchSnapshot {
            schemes: vec![
                SchemeOps {
                    scheme: "Base-LU".to_owned(),
                    memory_requests: 1000,
                    mac_ops: 400,
                    cycles: 90_000,
                },
                SchemeOps {
                    scheme: "Horus-SLM".to_owned(),
                    memory_requests: 120,
                    mac_ops: 64,
                    cycles: 9_000,
                },
            ],
            checks: vec![HeadlineValue {
                claim: "Base-LU drain ops vs Horus-SLM (x)".to_owned(),
                measured: 8.333_333,
            }],
            ops_per_sec: vec![
                Throughput {
                    metric: "sim_cycles".to_owned(),
                    per_sec: 2.0e8,
                },
                Throughput {
                    metric: "episodes".to_owned(),
                    per_sec: 1500.0,
                },
            ],
            host_profile: Some(HostProfileSection {
                cpu_seconds: Some(2.5),
                peak_rss_bytes: Some(64 * 1024 * 1024),
                allocations: None,
                allocated_bytes: None,
            }),
            wall_seconds: 1.25,
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let parsed = BenchSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn quotes_in_claims_survive_the_codec() {
        let mut snap = sample();
        snap.checks[0].claim = "a \"quoted\" claim \\ with backslash".to_owned();
        let parsed = BenchSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn non_finite_values_round_trip_as_null() {
        let mut snap = sample();
        snap.checks[0].measured = f64::NAN;
        snap.ops_per_sec[0].per_sec = f64::INFINITY;
        snap.wall_seconds = f64::NEG_INFINITY;
        let json = snap.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        let parsed = BenchSnapshot::parse(&json).expect("parses");
        assert!(parsed.checks[0].measured.is_nan());
        assert!(parsed.ops_per_sec[0].per_sec.is_nan());
        assert!(parsed.wall_seconds.is_nan());
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn committed_baseline_reserializes_byte_identically() {
        let committed = include_str!("../../../BENCH_smoke.json");
        let parsed = BenchSnapshot::parse(committed).expect("committed baseline parses");
        assert_eq!(parsed.to_json(), committed);
    }

    #[test]
    fn baseline_without_entries_is_rejected() {
        let mut snap = sample();
        snap.checks.clear();
        let err = BenchSnapshot::parse(&snap.to_json()).unwrap_err();
        assert_eq!(err, "baseline has no scheme or check entries");
        assert!(BenchSnapshot::parse("{\"schemes\": [").is_err());
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let snap = sample();
        assert!(compare(&snap, &snap, 0.0).is_empty());
    }

    #[test]
    fn wall_time_is_never_compared() {
        let base = sample();
        let mut now = base.clone();
        now.wall_seconds = base.wall_seconds * 100.0;
        assert!(compare(&now, &base, 0.01).is_empty());
    }

    #[test]
    fn count_drift_beyond_tolerance_is_flagged() {
        let base = sample();
        let mut now = base.clone();
        now.schemes[1].mac_ops = 80;
        let deviations = compare(&now, &base, 0.02);
        assert_eq!(deviations.len(), 1);
        assert!(
            deviations[0].contains("Horus-SLM MAC ops"),
            "{deviations:?}"
        );
        assert!(compare(&now, &base, 0.5).is_empty(), "inside 50% tolerance");
    }

    #[test]
    fn missing_and_extra_schemes_are_flagged() {
        let base = sample();
        let mut now = base.clone();
        now.schemes[0].scheme = "Base-EU".to_owned();
        let deviations = compare(&now, &base, 0.02);
        assert!(deviations
            .iter()
            .any(|d| d.contains("Base-LU missing") || d.contains("scheme Base-LU missing")));
        assert!(deviations.iter().any(|d| d.contains("Base-EU absent")));
    }

    #[test]
    fn claim_drift_is_flagged() {
        let base = sample();
        let mut now = base.clone();
        now.checks[0].measured = 12.0;
        let deviations = compare(&now, &base, 0.02);
        assert_eq!(deviations.len(), 1);
        assert!(deviations[0].starts_with("claim"));
    }

    #[test]
    fn throughput_is_never_gated_by_compare() {
        let base = sample();
        let mut now = base.clone();
        now.ops_per_sec[0].per_sec = 1.0; // catastrophic slowdown
        assert!(compare(&now, &base, 0.0).is_empty());
    }

    #[test]
    fn throughput_gate_flags_only_regressions() {
        let base = sample();
        let mut now = base.clone();
        // 10x faster: passes at any tolerance.
        now.ops_per_sec[0].per_sec = base.ops_per_sec[0].per_sec * 10.0;
        assert!(compare_throughput(&now, &base, 0.25).is_empty());
        // 20% slower: inside the 25% band.
        now.ops_per_sec[0].per_sec = base.ops_per_sec[0].per_sec * 0.8;
        assert!(compare_throughput(&now, &base, 0.25).is_empty());
        // 40% slower: flagged.
        now.ops_per_sec[0].per_sec = base.ops_per_sec[0].per_sec * 0.6;
        let deviations = compare_throughput(&now, &base, 0.25);
        assert_eq!(deviations.len(), 1);
        assert!(deviations[0].contains("sim_cycles"), "{deviations:?}");
    }

    #[test]
    fn throughput_gate_requires_a_baseline_section() {
        let now = sample();
        let mut base = now.clone();
        base.ops_per_sec.clear();
        let deviations = compare_throughput(&now, &base, 0.25);
        assert_eq!(deviations.len(), 1);
        assert!(deviations[0].contains("--update"), "{deviations:?}");
        let mut missing = now.clone();
        missing.ops_per_sec.remove(0);
        let deviations = compare_throughput(&missing, &now, 0.25);
        assert!(
            deviations.iter().any(|d| d.contains("missing")),
            "{deviations:?}"
        );
    }

    #[test]
    fn legacy_baseline_without_throughput_still_parses() {
        let mut snap = sample();
        snap.ops_per_sec.clear();
        snap.host_profile = None;
        let parsed = BenchSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
        // A baseline recorded before the section existed has no key.
        let legacy = snap.to_json().replace(",\n  \"ops_per_sec\": [\n  ]", "");
        assert!(!legacy.contains("ops_per_sec"), "{legacy}");
        assert_eq!(BenchSnapshot::parse(&legacy).expect("parses"), snap);
    }

    #[test]
    fn host_profile_round_trips_including_nulls() {
        let snap = sample();
        let json = snap.to_json();
        assert!(json.contains("\"allocations\": null"), "{json}");
        let parsed = BenchSnapshot::parse(&json).expect("parses");
        assert_eq!(parsed.host_profile, snap.host_profile);
    }

    #[test]
    fn host_profile_is_never_gated_by_compare() {
        let base = sample();
        let mut now = base.clone();
        now.host_profile.as_mut().unwrap().cpu_seconds = Some(9999.0);
        assert!(compare(&now, &base, 0.0).is_empty());
    }

    #[test]
    fn host_profile_gate_flags_only_regressions() {
        let base = sample();
        let mut now = base.clone();
        // Half the CPU and RSS: passes at any tolerance.
        now.host_profile.as_mut().unwrap().cpu_seconds = Some(1.25);
        now.host_profile.as_mut().unwrap().peak_rss_bytes = Some(32 * 1024 * 1024);
        assert!(compare_host_profile(&now, &base, 0.5).is_empty());
        // 40% more CPU: inside the 50% band.
        now.host_profile.as_mut().unwrap().cpu_seconds = Some(3.5);
        assert!(compare_host_profile(&now, &base, 0.5).is_empty());
        // 3x the CPU: flagged.
        now.host_profile.as_mut().unwrap().cpu_seconds = Some(7.5);
        let deviations = compare_host_profile(&now, &base, 0.5);
        assert_eq!(deviations.len(), 1, "{deviations:?}");
        assert!(deviations[0].contains("cpu_seconds"), "{deviations:?}");
    }

    #[test]
    fn host_profile_gate_covers_wall_time_and_skips_absent_metrics() {
        let base = sample();
        let mut now = base.clone();
        // Wall-time blowup is a host regression even though compare()
        // ignores it.
        now.wall_seconds = base.wall_seconds * 10.0;
        let deviations = compare_host_profile(&now, &base, 0.5);
        assert!(
            deviations.iter().any(|d| d.contains("wall_seconds")),
            "{deviations:?}"
        );
        // Metrics the current run could not measure are skipped, not
        // flagged (e.g. alloc-profile off, non-Linux host).
        let mut dark = base.clone();
        dark.host_profile = None;
        assert!(compare_host_profile(&dark, &base, 0.5).is_empty());
    }

    #[test]
    fn host_profile_gate_requires_a_baseline_section() {
        let now = sample();
        let mut base = now.clone();
        base.host_profile = None;
        let deviations = compare_host_profile(&now, &base, 0.5);
        assert_eq!(deviations.len(), 1);
        assert!(deviations[0].contains("--update"), "{deviations:?}");
    }

    #[test]
    fn measured_smoke_snapshot_is_stable_and_self_consistent() {
        let harness = Harness::serial();
        let snap = measure_with(&harness);
        assert_eq!(snap.schemes.len(), 5, "one row per scheme");
        assert!(!snap.checks.is_empty());
        assert!(snap.wall_seconds > 0.0);
        assert_eq!(snap.ops_per_sec.len(), 2);
        assert!(snap.ops_per_sec.iter().all(|t| t.per_sec > 0.0));
        let again = snapshot_plan(&harness, &ReproPlan::smoke());
        assert!(compare(&snap, &again, 0.0).is_empty(), "deterministic");
        let parsed = BenchSnapshot::parse(&snap.to_json()).expect("parses");
        assert!(compare(&parsed, &snap, 0.0).is_empty(), "codec faithful");
    }
}
