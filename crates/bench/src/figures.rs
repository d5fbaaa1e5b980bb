//! One driver per table/figure of the paper's evaluation.
//!
//! Each function submits its experiment points to a
//! [`horus_harness::Harness`] as [`JobSpec`]s — so every driver gets
//! parallelism, panic isolation, and result memoization for free — and
//! returns a result struct that knows how to render itself as the
//! rows/series the paper reports. [`crate::repro_all`] composes them
//! into `EXPERIMENTS.md` (`horus-cli repro`).
//!
//! Drivers that sweep the LLC take sizes in **bytes** and derive each
//! point from a base configuration, so the same pipeline runs at the
//! paper's Table I scale and at test scale.

use crate::experiments::{config_at_llc, paper_fill};
use crate::table;
use horus_core::config::ConfigSummary;
use horus_core::{DrainReport, DrainScheme, SystemConfig};
use horus_energy::{Battery, DrainEnergyModel, EnergyBreakdown};
use horus_harness::{Harness, JobSpec};
use serde::Serialize;

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn find(reports: &[DrainReport], scheme: DrainScheme) -> &DrainReport {
    reports
        .iter()
        .find(|r| r.scheme == scheme.name())
        .expect("scheme present in report set")
}

/// "8 MB" / "512 KB" — the paper quotes LLC sizes in MB; test-scale
/// sweeps use sub-MB sizes.
fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

/// Table I: the simulated configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Structured summary.
    pub summary: ConfigSummary,
}

/// Runs the Table I reproduction (a configuration dump).
#[must_use]
pub fn table1(cfg: &SystemConfig) -> Table1 {
    Table1 {
        summary: ConfigSummary::of(cfg),
    }
}

impl Table1 {
    /// Renders the configuration table.
    #[must_use]
    pub fn render(&self) -> String {
        let s = &self.summary;
        let rows = vec![
            vec![
                "L1 cache".into(),
                format!("{} KB", s.hierarchy_bytes.0 / 1024),
            ],
            vec![
                "L2 cache".into(),
                format!("{} MB", s.hierarchy_bytes.1 >> 20),
            ],
            vec![
                "Inclusive LLC".into(),
                format!("{} MB", s.hierarchy_bytes.2 >> 20),
            ],
            vec!["Total drainable lines".into(), s.total_lines.to_string()],
            vec!["PCM size".into(), format!("{} GB", s.data_bytes >> 30)],
            vec![
                "PCM latency (rd/wr)".into(),
                format!(
                    "{:.0} ns / {:.0} ns",
                    s.nvm_latency_ns.0, s.nvm_latency_ns.1
                ),
            ],
            vec![
                "AES / hash latency".into(),
                format!(
                    "{} / {} cycles",
                    s.engine_latency_cycles.0, s.engine_latency_cycles.1
                ),
            ],
            vec![
                "Counter / MAC / tree caches".into(),
                format!(
                    "{} KB / {} KB / {} KB",
                    s.metadata_cache_bytes.0 / 1024,
                    s.metadata_cache_bytes.1 / 1024,
                    s.metadata_cache_bytes.2 / 1024
                ),
            ],
            vec![
                "Merkle-tree levels over NVM".into(),
                s.bmt_levels.to_string(),
            ],
        ];
        table::render(&["parameter", "value"], &rows)
    }
}

/// Figure 6: memory requests for flushing the hierarchy, no-security vs
/// the two secure baselines.
#[derive(Debug, Clone, Serialize)]
pub struct Figure6 {
    /// Non-Secure, Base-EU, Base-LU reports.
    pub reports: Vec<DrainReport>,
}

/// Runs Figure 6 (shares §III's motivation numbers).
#[must_use]
pub fn figure6(harness: &Harness, cfg: &SystemConfig) -> Figure6 {
    let specs: Vec<JobSpec> = [
        DrainScheme::NonSecure,
        DrainScheme::BaseEager,
        DrainScheme::BaseLazy,
    ]
    .iter()
    .map(|s| JobSpec::drain(cfg, *s, paper_fill()))
    .collect();
    Figure6 {
        reports: harness
            .run(&specs)
            .drains()
            .expect("Figure 6 drain panicked"),
    }
}

impl Figure6 {
    /// Renders the request breakdown and blow-up ratios.
    #[must_use]
    pub fn render(&self) -> String {
        let ns = find(&self.reports, DrainScheme::NonSecure);
        let mut rows = Vec::new();
        for r in &self.reports {
            let wb = r.write_breakdown();
            rows.push(vec![
                r.scheme.clone(),
                r.flushed_blocks.to_string(),
                r.reads.to_string(),
                wb.data.to_string(),
                wb.metadata_evictions.to_string(),
                wb.metadata_flush.to_string(),
                r.memory_requests().to_string(),
                format!("{:.2}x", ratio(r.memory_requests(), ns.memory_requests())),
            ]);
        }
        table::render(
            &[
                "scheme",
                "flushed",
                "metadata reads",
                "data writes",
                "metadata evict writes",
                "metadata flush",
                "total requests",
                "vs non-secure",
            ],
            &rows,
        )
    }
}

/// Figures 11–13: the four secure schemes plus non-secure over the
/// paper-default configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeComparison {
    /// All five drain reports, in `DrainScheme::ALL` order.
    pub reports: Vec<DrainReport>,
}

/// Runs the five-scheme comparison used by Figures 11, 12 and 13.
#[must_use]
pub fn scheme_comparison(harness: &Harness, cfg: &SystemConfig) -> SchemeComparison {
    let specs: Vec<JobSpec> = DrainScheme::ALL
        .iter()
        .map(|s| JobSpec::drain(cfg, *s, paper_fill()))
        .collect();
    SchemeComparison {
        reports: harness
            .run(&specs)
            .drains()
            .expect("scheme-comparison drain panicked"),
    }
}

impl SchemeComparison {
    /// Figure 11: normalized draining cycles.
    #[must_use]
    pub fn render_fig11(&self) -> String {
        let ns = find(&self.reports, DrainScheme::NonSecure);
        let slm = find(&self.reports, DrainScheme::HorusSlm);
        let rows = self
            .reports
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    r.cycles.to_string(),
                    format!("{:.2} ms", r.seconds * 1e3),
                    format!("{:.2}x", ratio(r.cycles, ns.cycles)),
                    format!("{:.2}x", ratio(r.cycles, slm.cycles)),
                ]
            })
            .collect::<Vec<_>>();
        let bars: Vec<(&str, f64)> = self
            .reports
            .iter()
            .map(|r| (r.scheme.as_str(), ratio(r.cycles, ns.cycles)))
            .collect();
        format!(
            "{}
{}",
            table::render(
                &[
                    "scheme",
                    "cycles",
                    "drain time",
                    "vs non-secure",
                    "vs Horus-SLM"
                ],
                &rows
            ),
            crate::chart::bars_with(&bars, 48, |v| format!("{v:.2}x"))
        )
    }

    /// Figure 12: breakdown of memory writes.
    #[must_use]
    pub fn render_fig12(&self) -> String {
        let rows = self
            .reports
            .iter()
            .map(|r| {
                let wb = r.write_breakdown();
                vec![
                    r.scheme.clone(),
                    wb.data.to_string(),
                    wb.metadata_evictions.to_string(),
                    wb.chv_protection.to_string(),
                    wb.metadata_flush.to_string(),
                    wb.total().to_string(),
                ]
            })
            .collect::<Vec<_>>();
        let stacked: Vec<(&str, Vec<u64>)> = self
            .reports
            .iter()
            .map(|r| {
                let wb = r.write_breakdown();
                (
                    r.scheme.as_str(),
                    vec![
                        wb.data,
                        wb.metadata_evictions,
                        wb.chv_protection,
                        wb.metadata_flush,
                    ],
                )
            })
            .collect();
        format!(
            "{}
{}",
            table::render(
                &[
                    "scheme",
                    "data",
                    "tree/counter/MAC evict",
                    "CHV MAC+addr",
                    "metadata flush",
                    "total writes"
                ],
                &rows,
            ),
            crate::chart::stacked_bars(
                &["data", "metadata evict", "CHV MAC+addr", "metadata flush"],
                &stacked,
                48,
            )
        )
    }

    /// Figure 13: breakdown of MAC computations.
    #[must_use]
    pub fn render_fig13(&self) -> String {
        let slm = find(&self.reports, DrainScheme::HorusSlm);
        let rows = self
            .reports
            .iter()
            .map(|r| {
                let mb = r.mac_breakdown();
                vec![
                    r.scheme.clone(),
                    mb.verify.to_string(),
                    mb.tree_update.to_string(),
                    mb.data.to_string(),
                    mb.protect.to_string(),
                    mb.total().to_string(),
                    format!("{:.3}x", ratio(mb.total(), slm.mac_breakdown().total())),
                ]
            })
            .collect::<Vec<_>>();
        let stacked: Vec<(&str, Vec<u64>)> = self
            .reports
            .iter()
            .map(|r| {
                let mb = r.mac_breakdown();
                (
                    r.scheme.as_str(),
                    vec![mb.verify, mb.tree_update, mb.data, mb.protect],
                )
            })
            .collect();
        format!(
            "{}
{}",
            table::render(
                &[
                    "scheme",
                    "verify",
                    "tree update",
                    "data MAC",
                    "protect",
                    "total MACs",
                    "vs Horus-SLM"
                ],
                &rows,
            ),
            crate::chart::stacked_bars(
                &["verify", "tree update", "data MAC", "protect"],
                &stacked,
                48
            )
        )
    }
}

/// Figures 14 and 15: LLC-size sensitivity.
#[derive(Debug, Clone, Serialize)]
pub struct LlcSweep {
    /// `(llc_bytes, reports for all schemes)` per swept size.
    pub points: Vec<(u64, Vec<DrainReport>)>,
}

/// Runs the LLC sweep (paper: 8, 16, 32 MB): one job per
/// `(size, scheme)` point, all submitted in a single sweep.
#[must_use]
pub fn llc_sweep(harness: &Harness, base: &SystemConfig, llc_bytes: &[u64]) -> LlcSweep {
    let specs: Vec<JobSpec> = llc_bytes
        .iter()
        .flat_map(|bytes| {
            let cfg = config_at_llc(base, *bytes);
            DrainScheme::ALL
                .iter()
                .map(move |s| JobSpec::drain(&cfg, *s, paper_fill()))
                .collect::<Vec<_>>()
        })
        .collect();
    let drains = harness
        .run(&specs)
        .drains()
        .expect("LLC-sweep drain panicked");
    LlcSweep {
        points: llc_bytes
            .iter()
            .zip(drains.chunks(DrainScheme::ALL.len()))
            .map(|(bytes, chunk)| (*bytes, chunk.to_vec()))
            .collect(),
    }
}

impl LlcSweep {
    /// Figure 14: memory requests normalized to Base-LU at each size.
    #[must_use]
    pub fn render_fig14(&self) -> String {
        self.render_metric("memory requests", |r| r.memory_requests())
    }

    /// Figure 15: MAC computations normalized to Base-LU at each size.
    #[must_use]
    pub fn render_fig15(&self) -> String {
        self.render_metric("MAC computations", |r| r.mac_ops)
    }

    fn render_metric(&self, what: &str, metric: impl Fn(&DrainReport) -> u64) -> String {
        let mut rows = Vec::new();
        for (bytes, reports) in &self.points {
            let lu = find(reports, DrainScheme::BaseLazy);
            for r in reports
                .iter()
                .filter(|r| r.scheme != DrainScheme::NonSecure.name())
            {
                rows.push(vec![
                    size_label(*bytes),
                    r.scheme.clone(),
                    metric(r).to_string(),
                    format!("{:.3}", ratio(metric(r), metric(lu))),
                ]);
            }
        }
        table::render(&["LLC", "scheme", what, "normalized to Base-LU"], &rows)
    }
}

/// Figure 16: recovery time vs LLC size for the Horus schemes.
#[derive(Debug, Clone, Serialize)]
pub struct Figure16 {
    /// `(llc_bytes, scheme name, recovery seconds, restored blocks)`.
    pub points: Vec<(u64, String, f64, u64)>,
}

/// Runs the recovery-time sweep (paper: 8–128 MB): one drain+recover
/// job per `(size, scheme)` point.
#[must_use]
pub fn figure16(harness: &Harness, base: &SystemConfig, llc_bytes: &[u64]) -> Figure16 {
    let pairs: Vec<(u64, DrainScheme)> = llc_bytes
        .iter()
        .flat_map(|bytes| {
            [DrainScheme::HorusSlm, DrainScheme::HorusDlm].map(|scheme| (*bytes, scheme))
        })
        .collect();
    let specs: Vec<JobSpec> = pairs
        .iter()
        .map(|(bytes, scheme)| {
            JobSpec::drain_recover(&config_at_llc(base, *bytes), *scheme, paper_fill())
        })
        .collect();
    let report = harness.run(&specs);
    let results = report.results().expect("recovery point panicked");
    Figure16 {
        points: pairs
            .iter()
            .zip(results)
            .map(|((bytes, scheme), result)| {
                let rec = result
                    .recovery
                    .as_ref()
                    .expect("drain_recover jobs carry a recovery report");
                (
                    *bytes,
                    scheme.name().to_owned(),
                    rec.seconds,
                    rec.restored_blocks,
                )
            })
            .collect(),
    }
}

impl Figure16 {
    /// Renders the recovery-time series.
    #[must_use]
    pub fn render(&self) -> String {
        let rows = self
            .points
            .iter()
            .map(|(bytes, scheme, secs, blocks)| {
                vec![
                    size_label(*bytes),
                    scheme.clone(),
                    format!("{:.4} s", secs),
                    blocks.to_string(),
                ]
            })
            .collect::<Vec<_>>();
        table::render(
            &["LLC", "scheme", "recovery time", "restored blocks"],
            &rows,
        )
    }
}

/// Tables II and III: energy and battery sizing.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyTables {
    /// Table II rows (four secure schemes).
    pub energy: Vec<EnergyBreakdown>,
}

/// Runs the drain-energy estimation over the four secure schemes. The
/// drain specs are identical to the scheme comparison's, so with a
/// result cache enabled these jobs are pure cache hits.
#[must_use]
pub fn energy_tables(harness: &Harness, cfg: &SystemConfig) -> EnergyTables {
    let specs: Vec<JobSpec> = DrainScheme::SECURE
        .iter()
        .map(|s| JobSpec::drain(cfg, *s, paper_fill()))
        .collect();
    let model = DrainEnergyModel::paper_default();
    let energy = harness
        .run(&specs)
        .drains()
        .expect("energy drain panicked")
        .iter()
        .map(|r| model.drain_energy(r))
        .collect();
    EnergyTables { energy }
}

impl EnergyTables {
    /// Table II: energy breakdown.
    #[must_use]
    pub fn render_table2(&self) -> String {
        let rows = self
            .energy
            .iter()
            .map(|e| {
                vec![
                    e.scheme.clone(),
                    format!("{:.2}", e.processor_j),
                    format!("{:.3}", e.write_j),
                    format!("{:.4}", e.read_j),
                    format!("{:.2}", e.total_j),
                ]
            })
            .collect::<Vec<_>>();
        table::render(
            &[
                "scheme",
                "processor (J)",
                "NVM writes (J)",
                "NVM reads (J)",
                "total (J)",
            ],
            &rows,
        )
    }

    /// Table III: battery volume for both technologies.
    #[must_use]
    pub fn render_table3(&self) -> String {
        let sc = Battery::super_capacitor();
        let li = Battery::lithium_thin_film();
        let rows = self
            .energy
            .iter()
            .map(|e| {
                vec![
                    e.scheme.clone(),
                    format!("{:.2}", sc.volume_cm3(e.total_j)),
                    format!("{:.4}", li.volume_cm3(e.total_j)),
                ]
            })
            .collect::<Vec<_>>();
        table::render(&["scheme", "SuperCap (cm^3)", "Li-thin (cm^3)"], &rows)
    }
}
