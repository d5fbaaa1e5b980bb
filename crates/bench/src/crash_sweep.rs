//! The crash-point verification sweep behind `horus-cli crash-sweep`.
//!
//! For each scheme, one probed reference drain measures the episode's
//! planned length and its phase boundaries (`drain.data` →
//! `drain.metadata` → `drain.finish`, or the baselines'
//! `drain.metadata_flush`) from the trace layer's phase track. Crash
//! cycles are then sampled evenly across `[0, planned]` *plus* an
//! exhaustive ±1-cycle neighbourhood around every phase boundary — the
//! cycles where in-flight state changes shape and bugs hide. Each
//! sampled cycle runs one full [`run_crash_point`] experiment (drain,
//! cut, recover, read back, classify) as an independent task on the
//! `horus-harness` worker pool; results are order-deterministic for any
//! `--jobs` count.
//!
//! The sweep's contract, enforced by the CI `crash-sweep` job: the
//! Horus schemes must classify every sampled cycle as `Recovered` or
//! `Detected` — zero silent corruption, because the persistent
//! drain-open register always knows an episode was interrupted. The
//! baselines show their documented vulnerability windows, *including*
//! silent loss: a Base-EU drain cut before any line reached NVM leaves
//! reads returning fresh-memory contents with no indication anything
//! was lost. Those rows are the finding, not a failure.

use crate::table;
use horus_core::crash::{run_crash_point, CrashPointReport, CrashSpec, CrashVerdict};
use horus_core::{DrainScheme, RecoveryMode, SecureEpdSystem, SystemConfig, TornWriteModel};
use horus_harness::Harness;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What to sweep: which schemes, how many crash points per scheme, and
/// how interrupted writes land.
#[derive(Debug, Clone)]
pub struct CrashSweepPlan {
    /// Schemes to interrupt (default: the four secure schemes).
    pub schemes: Vec<DrainScheme>,
    /// Evenly spaced crash points per scheme; the phase-boundary
    /// neighbourhoods are sampled on top of this budget.
    pub points_per_scheme: usize,
    /// The torn-write model for in-flight blocks.
    pub model: TornWriteModel,
    /// Where recovered blocks go.
    pub mode: RecoveryMode,
}

impl CrashSweepPlan {
    /// The CI-sized sweep: ~64 crash points per secure scheme.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            schemes: DrainScheme::SECURE.to_vec(),
            points_per_scheme: 64,
            model: TornWriteModel::default(),
            mode: RecoveryMode::RefillLlc,
        }
    }

    /// The thorough sweep: 256 points per scheme.
    #[must_use]
    pub fn full() -> Self {
        Self {
            points_per_scheme: 256,
            ..Self::quick()
        }
    }
}

/// One scheme's row of the crash matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeCrashRow {
    /// The scheme's paper name.
    pub scheme: String,
    /// Crash points sampled.
    pub points: u64,
    /// Points classified [`CrashVerdict::Recovered`].
    pub recovered: u64,
    /// Points classified [`CrashVerdict::Detected`].
    pub detected: u64,
    /// Points classified [`CrashVerdict::SilentCorruption`] — must be 0
    /// for the Horus schemes; nonzero rows on the baselines are their
    /// documented vulnerability window.
    pub silent: u64,
    /// The crash-cycle range where data was lost (verdict not
    /// `Recovered`), if any.
    pub loss_window: Option<(u64, u64)>,
    /// The most pre-crash dirty lines any non-`Recovered` point still
    /// read back correctly — the schemes' salvage ability inside their
    /// loss window (Horus's prefix recovery vs. the baselines' zero).
    pub best_salvage: u64,
}

/// The full crash matrix: per-scheme rows plus every sampled point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashMatrix {
    /// Per-scheme summaries, in plan order.
    pub rows: Vec<SchemeCrashRow>,
    /// Every sampled crash point, grouped by scheme in plan order and
    /// sorted by crash cycle within a scheme.
    pub points: Vec<CrashPointReport>,
    /// Worker-pool tasks that panicked (isolation caught them); any
    /// panic fails the sweep.
    pub panics: u64,
}

impl CrashMatrix {
    /// Total silent-corruption classifications across all schemes.
    #[must_use]
    pub fn silent_corruptions(&self) -> u64 {
        self.rows.iter().map(|r| r.silent).sum()
    }

    /// Silent corruptions on the Horus schemes — the acceptance gate.
    #[must_use]
    pub fn horus_silent_corruptions(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.scheme.starts_with("Horus"))
            .map(|r| r.silent)
            .sum()
    }

    /// What fails the sweep: any silent corruption on a scheme that
    /// claims crash consistency (the Horus schemes), or any panicked
    /// trial. Baseline silent-loss windows are reported, not gated —
    /// they are the vulnerability the paper motivates Horus with.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.horus_silent_corruptions() + self.panics
    }

    /// The fixed-width report table (the `repro-tab2` style).
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    r.points.to_string(),
                    r.recovered.to_string(),
                    r.detected.to_string(),
                    r.silent.to_string(),
                    r.loss_window.map_or_else(
                        || "none".to_owned(),
                        |(lo, hi)| format!("cycles {lo}..{hi}"),
                    ),
                    r.best_salvage.to_string(),
                ]
            })
            .collect();
        table::render(
            &[
                "scheme",
                "points",
                "recovered",
                "detected",
                "SILENT",
                "loss window",
                "best salvage",
            ],
            &rows,
        )
    }
}

/// The canonical dirty system every crash point starts from: the
/// repro-faults fill (64 sparse lines) over [`SystemConfig::small_test`].
fn prepared_system(scheme: DrainScheme) -> SecureEpdSystem {
    let mut sys = SecureEpdSystem::for_scheme(SystemConfig::small_test(), scheme);
    for i in 0..64u64 {
        sys.write(i * 16448, [(i as u8).wrapping_mul(7).wrapping_add(3); 64])
            .expect("write");
    }
    sys
}

/// One probed reference drain: the planned episode length and the phase
/// boundary cycles from the `phase` track.
fn reference_drain(scheme: DrainScheme) -> (u64, Vec<u64>) {
    let mut sys = prepared_system(scheme);
    sys.enable_probe();
    let report = sys.crash_and_drain(scheme);
    let mut boundaries = BTreeSet::new();
    if let Some(trace) = sys.take_episode_trace() {
        for e in trace
            .iter()
            .filter(|e| e.track == "phase" && e.name.starts_with("drain."))
        {
            boundaries.insert(e.start);
            boundaries.insert(e.end);
        }
    }
    (report.cycles, boundaries.into_iter().collect())
}

/// The sampled crash cycles: `budget` evenly spaced points across
/// `[0, planned]`, plus the ±1-cycle neighbourhood of every phase
/// boundary. Sorted, deduped.
#[must_use]
pub fn crash_points(planned: u64, boundaries: &[u64], budget: usize) -> Vec<u64> {
    let mut set = BTreeSet::new();
    for &b in boundaries {
        set.insert(b.saturating_sub(1));
        set.insert(b);
        set.insert(b.saturating_add(1).min(planned + 1));
    }
    let even = budget.max(2) as u64;
    for i in 0..even {
        set.insert(i * planned / (even - 1));
    }
    set.into_iter().collect()
}

/// The metric label for a crash-point classification.
fn verdict_label(verdict: CrashVerdict) -> &'static str {
    match verdict {
        CrashVerdict::Recovered => "recovered",
        CrashVerdict::Detected => "detected",
        CrashVerdict::SilentCorruption => "silent_corruption",
    }
}

/// Runs the sweep on the worker pool and builds the matrix. When the
/// harness carries a metrics registry, every classification also
/// increments `horus_crash_verdicts_total{scheme, verdict}`, so a
/// mid-run scrape shows the verdict matrix filling in live.
#[must_use]
pub fn run(harness: &Harness, plan: &CrashSweepPlan) -> CrashMatrix {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut panics = 0u64;
    for &scheme in &plan.schemes {
        let (planned, boundaries) = reference_drain(scheme);
        let cuts = crash_points(planned, &boundaries, plan.points_per_scheme);
        eprintln!(
            "crash-sweep: {} — {} points over {} cycles ({} phase boundaries)",
            scheme.name(),
            cuts.len(),
            planned,
            boundaries.len()
        );
        let model = plan.model;
        let mode = plan.mode;
        let outcomes = harness.run_tasks(cuts.len(), |i| {
            let mut sys = prepared_system(scheme);
            run_crash_point(&mut sys, scheme, CrashSpec { at: cuts[i], model }, mode)
        });
        let mut row = SchemeCrashRow {
            scheme: scheme.name().to_owned(),
            points: 0,
            recovered: 0,
            detected: 0,
            silent: 0,
            loss_window: None,
            best_salvage: 0,
        };
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(report) => {
                    row.points += 1;
                    match report.verdict {
                        CrashVerdict::Recovered => row.recovered += 1,
                        CrashVerdict::Detected => row.detected += 1,
                        CrashVerdict::SilentCorruption => row.silent += 1,
                    }
                    if let Some(registry) = harness.metrics() {
                        registry
                            .counter(
                                horus_obs::names::CRASH_VERDICTS,
                                "Crash-sweep classifications by scheme and verdict.",
                                &[
                                    ("scheme", scheme.name()),
                                    ("verdict", verdict_label(report.verdict)),
                                ],
                            )
                            .inc();
                    }
                    if report.verdict != CrashVerdict::Recovered {
                        row.best_salvage = row.best_salvage.max(report.reads_matched);
                        row.loss_window = Some(match row.loss_window {
                            None => (report.at, report.at),
                            Some((lo, hi)) => (lo.min(report.at), hi.max(report.at)),
                        });
                    }
                    points.push(report);
                }
                Err(message) => {
                    eprintln!(
                        "crash-sweep: {} point {i} (cycle {}) PANICKED: {message}",
                        scheme.name(),
                        cuts[i]
                    );
                    panics += 1;
                }
            }
        }
        rows.push(row);
    }
    CrashMatrix {
        rows,
        points,
        panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_plan() -> CrashSweepPlan {
        CrashSweepPlan {
            points_per_scheme: 10,
            ..CrashSweepPlan::quick()
        }
    }

    #[test]
    fn crash_points_cover_boundaries_and_span() {
        let pts = crash_points(10_000, &[0, 4_000, 10_000], 16);
        assert!(pts.contains(&0));
        assert!(pts.contains(&3_999) && pts.contains(&4_000) && pts.contains(&4_001));
        assert!(pts.contains(&10_000));
        assert!(pts.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(pts.len() >= 10);
    }

    #[test]
    fn mini_sweep_horus_is_never_silent_and_baselines_show_their_window() {
        let matrix = run(&Harness::serial(), &mini_plan());
        assert_eq!(matrix.panics, 0);
        assert_eq!(matrix.horus_silent_corruptions(), 0, "{}", matrix.render());
        assert_eq!(matrix.failures(), 0, "{}", matrix.render());
        assert_eq!(matrix.rows.len(), 4);
        for row in &matrix.rows {
            assert!(row.points >= 10, "{}: {} points", row.scheme, row.points);
            assert!(
                row.recovered > 0,
                "{}: the at/after-planned cuts recover",
                row.scheme
            );
            assert!(row.detected > 0, "{}: mid-drain cuts lose data", row.scheme);
        }
        // Base-EU cut before any line reached NVM: reads return
        // fresh-memory contents with recovery reporting success — the
        // silent-loss window the paper motivates Horus with.
        let eu = matrix.rows.iter().find(|r| r.scheme == "Base-EU").unwrap();
        assert!(eu.silent > 0, "{}", matrix.render());
        assert!(matrix.silent_corruptions() >= eu.silent);
    }

    #[test]
    fn horus_salvages_inside_the_loss_window_and_baselines_do_not() {
        let matrix = run(&Harness::serial(), &mini_plan());
        let by = |name: &str| {
            matrix
                .rows
                .iter()
                .find(|r| r.scheme == name)
                .expect("row present")
        };
        assert!(by("Horus-SLM").best_salvage > 0);
        assert!(by("Horus-DLM").best_salvage > 0);
        assert_eq!(by("Base-LU").best_salvage, 0);
        assert_eq!(by("Base-EU").best_salvage, 0);
        assert!(by("Base-LU").loss_window.is_some());
    }

    #[test]
    fn sweep_is_deterministic_for_any_worker_count() {
        let serial = run(&Harness::serial(), &mini_plan());
        let parallel = run(&Harness::with_jobs(4), &mini_plan());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn verdict_counters_match_the_matrix() {
        use horus_harness::{HarnessOptions, ProgressMode};
        let registry = horus_obs::Registry::shared();
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            no_cache: true,
            progress: ProgressMode::Silent,
            metrics: Some(std::sync::Arc::clone(&registry)),
            ..HarnessOptions::default()
        });
        let matrix = run(&harness, &mini_plan());
        let snapshot = registry.snapshot();
        let count = |scheme: &str, verdict: &str| -> u64 {
            snapshot
                .samples
                .iter()
                .find(|s| {
                    s.name == horus_obs::names::CRASH_VERDICTS
                        && s.labels
                            == vec![
                                ("scheme".to_owned(), scheme.to_owned()),
                                ("verdict".to_owned(), verdict.to_owned()),
                            ]
                })
                .map_or(0, |s| match s.value {
                    horus_obs::SampleValue::Uint(v) => v,
                    _ => panic!("verdict counter is a counter"),
                })
        };
        for row in &matrix.rows {
            assert_eq!(
                count(&row.scheme, "recovered"),
                row.recovered,
                "{}",
                row.scheme
            );
            assert_eq!(
                count(&row.scheme, "detected"),
                row.detected,
                "{}",
                row.scheme
            );
            assert_eq!(
                count(&row.scheme, "silent_corruption"),
                row.silent,
                "{}",
                row.scheme
            );
        }
    }
}
