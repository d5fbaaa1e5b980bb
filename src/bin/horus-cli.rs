//! `horus-cli` — drive the secure-EPD simulator from the command line,
//! and reproduce, gate and ablate the paper.
//!
//! ```text
//! horus-cli config
//! horus-cli drain   --scheme horus-slm [--llc-mb 16] [--stride 16384] [--json]
//! horus-cli recover --scheme horus-dlm [--llc-mb 8] [--write-through]
//! horus-cli attack  --kind splice [--scheme horus-slm]
//! horus-cli sweep   [--llc 8,16,32] [--json] [--jobs N] [--cache-dir DIR] [--no-cache] [--service ADDR] [--run-dir DIR]
//! horus-cli repro   [--quick] [--jobs N] [--cache-dir DIR] [--no-cache] [--service ADDR] [--run-dir DIR]
//! horus-cli bench-gate [--update] [--out FILE] [--host-profile-tolerance F] [--gate-host-profile] [--jobs N]
//! horus-cli ablation wear|metacache|runtime|domains|faults
//! horus-cli crash-sweep [--quick] [--points N] [--model torn|stale|garbled] [--jobs N] [--out FILE] [--json] [--run-dir DIR]
//! horus-cli serve [--addr 127.0.0.1:9900] [--tenant-config FILE] [--jobs N] [--cache-dir DIR] [--run-dir DIR]
//! horus-cli fleet-worker --connect HOST:PORT [--jobs N] [--name NAME]
//! horus-cli insight DIR [--out FILE] [--top N] [--json]
//! ```
//!
//! `sweep` runs on the `horus-harness` worker pool: points execute in
//! parallel (`--jobs`, default all cores) and results are memoized in
//! the on-disk cache, so re-running a sweep is instant. `--service ADDR`
//! submits the points to a `serve` daemon instead, whose runners and
//! `fleet-worker`s (on any host) execute them; the output is
//! byte-identical either way.
//!
//! `repro` runs every table and figure of the paper on the same pool
//! and cache, writes `EXPERIMENTS.md` to the working directory (and
//! prints it), and exits nonzero when a headline claim leaves its
//! tolerance band. `bench-gate` measures the smoke plan and diffs it
//! against the committed `BENCH_smoke.json` (`--update` rewrites it).
//! `ablation NAME` prints one of the experiments the paper argues from
//! but does not plot; ablations run inline and are not cached.
//!
//! `crash-sweep` interrupts every scheme's drain at sampled cycles
//! (phase boundaries ±1 plus even coverage), recovers from the exact
//! persistent state left behind, and classifies each point; it exits
//! nonzero if a Horus scheme ever silently returns corrupted data.
//!
//! `sweep`, `repro`, `bench-gate` and `crash-sweep` parse their flags
//! with the one shared parser (`horus_bench::cli::HarnessArgs`):
//! `--metrics-addr ADDR` serves live Prometheus text (`GET /metrics`)
//! for the duration of the run, and `--run-dir DIR` (also on `serve`)
//! collects the run's artifacts — `summary.json`, `spans.json`,
//! `logs.ndjson`, `progress.ndjson`, and for `repro` the probed
//! `drain-trace.json` — which `insight DIR` joins. With neither,
//! nothing is written; with either, stdout is byte-identical.
//!
//! Every subcommand rejects a flag it does not read, and every one takes
//! `--log-level`.

use horus::bench::ablations;
use horus::bench::bench_gate::{self, BenchSnapshot};
use horus::bench::cli::HarnessArgs;
use horus::bench::crash_sweep as bench_crash;
use horus::bench::repro_all::{self, ReproPlan};
use horus::core::{
    attack, DrainScheme, PersistenceDomain, RecoveryMode, SecureEpdSystem, SystemConfig,
    TornWriteModel,
};
use horus::energy::{Battery, DrainEnergyModel};
use horus::harness::{Harness, HarnessOptions, JobSpec, ProgressMode};
use horus::obs::{log, ObsOptions, ObsSession, SpanBook};
use horus::service::{run_worker, ServiceConfig, WorkerOptions};
use horus::workload::{fill_hierarchy, parse_trace, FillPattern, TraceOp};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn parse_scheme(s: &str) -> Result<DrainScheme, String> {
    match s.to_ascii_lowercase().as_str() {
        "ns" | "non-secure" | "nonsecure" => Ok(DrainScheme::NonSecure),
        "base-lu" | "lazy" => Ok(DrainScheme::BaseLazy),
        "base-eu" | "eager" => Ok(DrainScheme::BaseEager),
        "horus" | "horus-slm" | "slm" => Ok(DrainScheme::HorusSlm),
        "horus-dlm" | "dlm" => Ok(DrainScheme::HorusDlm),
        other => Err(format!(
            "unknown scheme '{other}' (ns, base-lu, base-eu, horus, horus-slm, horus-dlm)"
        )),
    }
}

/// One subcommand's arguments: the `--name value` flags in `values`,
/// the boolean `--name`s in `booleans`, and at most `positionals` bare
/// arguments. Anything else is an error, never silently ignored.
/// `--log-level` is accepted everywhere and applied while parsing.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(
        argv: &[String],
        values: &[&str],
        booleans: &[&str],
        positionals: usize,
    ) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                if positional.len() == positionals {
                    return Err(format!("unexpected argument '{a}'"));
                }
                positional.push(a.clone());
                continue;
            };
            if booleans.contains(&name) {
                flags.push((name.to_owned(), None));
            } else if values.contains(&name) || name == "log-level" {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} requires a value"))?
                    .clone();
                flags.push((name.to_owned(), Some(v)));
            } else {
                return Err(format!("unknown flag '{a}'"));
            }
        }
        let args = Self { positional, flags };
        if let Some(v) = args.get("log-level") {
            log::set_level(
                log::Level::parse(v)
                    .ok_or(format!("--log-level {v}: expected debug|info|warn|error"))?,
            );
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn build(llc_mb: u64, stride: u64, scheme: DrainScheme) -> SecureEpdSystem {
    let cfg = SystemConfig::with_llc_bytes(llc_mb << 20);
    let mut sys = SecureEpdSystem::for_scheme(cfg.clone(), scheme);
    fill_hierarchy(
        sys.hierarchy_mut(),
        FillPattern::StridedSparse { min_stride: stride },
        cfg.data_bytes,
        cfg.seed,
    );
    sys
}

fn cmd_config(argv: &[String]) -> Result<(), String> {
    Args::parse(argv, &[], &[], 0)?;
    let cfg = SystemConfig::paper_default();
    let summary = horus::core::config::ConfigSummary::of(&cfg);
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_drain(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scheme", "llc-mb", "stride"], &["json"], 0)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("horus-slm"))?;
    let llc_mb: u64 = args
        .get("llc-mb")
        .unwrap_or("8")
        .parse()
        .map_err(|e| format!("--llc-mb: {e}"))?;
    let stride: u64 = args
        .get("stride")
        .unwrap_or("16384")
        .parse()
        .map_err(|e| format!("--stride: {e}"))?;
    let mut sys = build(llc_mb, stride, scheme);
    let report = sys.crash_and_drain(scheme);
    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        let energy = DrainEnergyModel::paper_default().drain_energy(&report);
        println!("scheme          {}", report.scheme);
        println!(
            "flushed blocks  {} (+{} metadata)",
            report.flushed_blocks, report.metadata_blocks
        );
        println!(
            "memory          {} reads, {} writes",
            report.reads, report.writes
        );
        println!("MAC ops         {}", report.mac_ops);
        println!(
            "drain time      {:.3} ms ({} cycles)",
            report.seconds * 1e3,
            report.cycles
        );
        println!("energy          {:.3} J", energy.total_j);
        println!(
            "battery         {:.2} cm^3 SuperCap / {:.4} cm^3 Li-thin",
            Battery::super_capacitor().volume_cm3(energy.total_j),
            Battery::lithium_thin_film().volume_cm3(energy.total_j)
        );
    }
    Ok(())
}

fn cmd_recover(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scheme", "llc-mb"], &["write-through", "json"], 0)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("horus-slm"))?;
    if !scheme.is_horus() && scheme != DrainScheme::BaseLazy && scheme != DrainScheme::BaseEager {
        return Err("recover needs a secure scheme".into());
    }
    let llc_mb: u64 = args
        .get("llc-mb")
        .unwrap_or("8")
        .parse()
        .map_err(|e| format!("--llc-mb: {e}"))?;
    let mut sys = build(llc_mb, 16384, scheme);
    let drain = sys.crash_and_drain(scheme);
    let mode = if args.has("write-through") {
        RecoveryMode::WriteThrough
    } else {
        RecoveryMode::RefillLlc
    };
    let rec = sys.recover_with(mode).map_err(|e| e.to_string())?;
    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rec).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "drained         {} blocks in {:.3} ms",
            drain.flushed_blocks + drain.metadata_blocks,
            drain.seconds * 1e3
        );
        println!(
            "recovered       {} blocks in {:.3} ms ({mode})",
            rec.restored_blocks,
            rec.seconds * 1e3
        );
        println!("reads / MACs    {} / {}", rec.reads, rec.mac_ops);
    }
    Ok(())
}

fn cmd_attack(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["kind", "scheme"], &[], 0)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("horus-slm"))?;
    if !scheme.is_horus() {
        return Err("attacks target the Horus vault; pick horus-slm or horus-dlm".into());
    }
    let kind = args.get("kind").unwrap_or("data").to_owned();
    let mut sys = SecureEpdSystem::new(SystemConfig::small_test());
    for i in 0..64u64 {
        sys.write(i * 16448, [i as u8 + 1; 64])
            .map_err(|e| e.to_string())?;
    }
    sys.crash_and_drain(scheme);
    match kind.as_str() {
        "data" => attack::tamper_data(&mut sys, 5),
        "address" => attack::tamper_address(&mut sys, 9),
        "mac" => attack::tamper_mac(&mut sys, 3),
        "splice" => attack::splice_entries(&mut sys, 2, 11),
        "truncate" => {
            let n = sys.episode().expect("episode").blocks;
            attack::truncate_chv(&mut sys, n - 3);
        }
        "replay" => {
            let snap = attack::snapshot_chv(&sys);
            sys.recover().map_err(|e| e.to_string())?;
            for i in 0..64u64 {
                sys.write(i * 16448, [0xEE; 64])
                    .map_err(|e| e.to_string())?;
            }
            sys.crash_and_drain(scheme);
            attack::replay_chv(&mut sys, &snap);
        }
        other => {
            return Err(format!(
                "unknown attack '{other}' (data, address, mac, splice, truncate, replay)"
            ))
        }
    }
    match sys.recover() {
        Err(e) => {
            println!("attack '{kind}' on {scheme}: DETECTED ({e})");
            Ok(())
        }
        Ok(_) => Err(format!("attack '{kind}' went UNDETECTED — this is a bug")),
    }
}

fn cmd_sweep(argv: &[String]) -> Result<(), String> {
    let mut llc = "8,16".to_owned();
    let mut json = false;
    let args =
        HarnessArgs::parse_refusing(argv.iter().cloned(), "sweep", &["--quick"], |flag, it| {
            match flag {
                "--llc" => llc = it.next().ok_or("--llc requires a value")?,
                "--json" => json = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
    let llcs: Vec<u64> = llc
        .split(',')
        .map(|v| v.trim().parse::<u64>().map_err(|e| format!("--llc: {e}")))
        .collect::<Result<_, _>>()?;
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let specs: Vec<JobSpec> = llcs
        .iter()
        .flat_map(|mb| {
            let cfg = SystemConfig::with_llc_bytes(mb << 20);
            DrainScheme::ALL
                .iter()
                .map(move |s| {
                    JobSpec::drain(&cfg, *s, FillPattern::StridedSparse { min_stride: 16384 })
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let report = harness.run(&specs);
    let drains = report.drains().map_err(|e| e.to_string())?;
    let rows: Vec<(u64, String, u64, u64, f64)> = specs
        .iter()
        .zip(&drains)
        .map(|(spec, r)| {
            (
                spec.config.hierarchy.llc_bytes >> 20,
                r.scheme.clone(),
                r.reads + r.writes,
                r.mac_ops,
                r.seconds * 1e3,
            )
        })
        .collect();
    eprintln!(
        "sweep: {} points, {} executed, {} cache hits ({} workers)",
        report.total(),
        report.executed,
        report.cache_hits,
        harness.jobs()
    );
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{:>6} {:<11} {:>12} {:>12} {:>10}",
            "LLC", "scheme", "requests", "MACs", "time(ms)"
        );
        for (mb, scheme, reqs, macs, ms) in rows {
            println!("{mb:>4}MB {scheme:<11} {reqs:>12} {macs:>12} {ms:>10.2}");
        }
    }
    obs.finish_or_exit(&harness);
    Ok(())
}

/// `repro`: every table and figure of the paper, rendered into
/// `EXPERIMENTS.md` in the working directory and printed. Execution
/// accounting goes to stderr, never into the document, so the markdown
/// is byte-identical for any `--jobs` and for cached runs. Returns
/// failure when a headline claim leaves its tolerance band.
fn cmd_repro(argv: &[String]) -> Result<ExitCode, String> {
    let args = HarnessArgs::parse_from(argv.iter().cloned())?;
    args.write_trace_if_requested(&SystemConfig::paper_default(), DrainScheme::HorusSlm)?;
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let plan = if args.quick {
        ReproPlan::quick()
    } else {
        ReproPlan::full()
    };
    let started = Instant::now();
    let out = repro_all::run(&harness, &plan);
    std::fs::write("EXPERIMENTS.md", &out.markdown)
        .map_err(|e| format!("writing EXPERIMENTS.md: {e}"))?;
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
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `v`, the value of `flag`, as a tolerance in `[0, 1)`.
fn fraction(flag: &str, v: &str) -> Result<f64, String> {
    let f = v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"))?;
    if !(0.0..1.0).contains(&f) {
        return Err(format!("{flag} {v}: want a fraction in [0, 1)"));
    }
    Ok(f)
}

/// `bench-gate`: measure the smoke plan's headline op counts and diff
/// them against the committed `BENCH_smoke.json`.
///
/// The simulator is deterministic, so the op counts and claim ratios
/// reproduce exactly run-to-run; the 2% tolerance absorbs only
/// intentional model refinements too small to change a conclusion. The
/// `ops_per_sec` throughput section is gated at 25%, regressions only,
/// because wall-clock rates depend on the runner. The `host_profile`
/// section (CPU seconds, peak RSS, allocation totals) is looser still
/// (`--host-profile-tolerance`, default 50%) and informational unless
/// `--gate-host-profile` is given. `--update` rewrites the baseline
/// instead of comparing; `--out FILE` also writes this run's snapshot.
fn cmd_bench_gate(argv: &[String]) -> Result<ExitCode, String> {
    let mut update = false;
    let mut out = None;
    let mut host_profile_tolerance = bench_gate::HOST_PROFILE_TOLERANCE;
    let mut gate_host_profile = false;
    let args = HarnessArgs::parse_refusing(
        argv.iter().cloned(),
        "bench-gate",
        &["--quick"],
        |flag, it| {
            match flag {
                "--update" => update = true,
                "--out" => out = Some(it.next().ok_or("--out requires a value")?),
                "--host-profile-tolerance" => {
                    let v = it
                        .next()
                        .ok_or("--host-profile-tolerance requires a value")?;
                    host_profile_tolerance = fraction("--host-profile-tolerance", &v)?;
                }
                "--gate-host-profile" => gate_host_profile = true,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let snapshot = bench_gate::measure_with(&harness);
    obs.finish_or_exit(&harness);
    println!(
        "smoke-plan headline op counts ({:.2}s wall, {} workers):\n\n{}",
        snapshot.wall_seconds,
        harness.jobs(),
        snapshot.render()
    );
    println!("ops_per_sec: {}", snapshot.render_throughput());
    if let Some(host) = &snapshot.host_profile {
        println!(
            "host_profile: cpu {} s, peak rss {}, allocs {}",
            host.cpu_seconds
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}")),
            host.peak_rss_bytes
                .map_or_else(|| "n/a".to_owned(), |v| format!("{} MiB", v >> 20)),
            host.allocations.map_or_else(
                || "n/a (build with --features alloc-profile)".to_owned(),
                |v| v.to_string()
            ),
        );
    }
    if let Some(out) = &out {
        std::fs::write(out, snapshot.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("snapshot written to {out}");
    }
    let baseline_path = bench_gate::BASELINE;
    if update {
        std::fs::write(baseline_path, snapshot.to_json())
            .map_err(|e| format!("writing {baseline_path}: {e}"))?;
        println!("baseline refreshed at {baseline_path}");
        return Ok(ExitCode::SUCCESS);
    }
    let text = std::fs::read_to_string(baseline_path).map_err(|e| {
        format!("reading baseline {baseline_path}: {e}\n(run with --update to create it)")
    })?;
    let baseline =
        BenchSnapshot::parse(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
    let mut deviations = bench_gate::compare(&snapshot, &baseline, bench_gate::COUNT_TOLERANCE);
    deviations.extend(bench_gate::compare_throughput(
        &snapshot,
        &baseline,
        bench_gate::THROUGHPUT_TOLERANCE,
    ));
    let host_deviations =
        bench_gate::compare_host_profile(&snapshot, &baseline, host_profile_tolerance);
    if gate_host_profile {
        deviations.extend(host_deviations);
    } else if !host_deviations.is_empty() {
        eprintln!(
            "host-profile note ({} finding(s), informational — pass --gate-host-profile to gate):",
            host_deviations.len()
        );
        for d in &host_deviations {
            eprintln!("  - {d}");
        }
    }
    if deviations.is_empty() {
        println!(
            "bench gate PASSED: headline numbers within {:.1}%, throughput within \
             {:.0}% of {baseline_path} (baseline wall {:.2}s, this run {:.2}s — informational)",
            bench_gate::COUNT_TOLERANCE * 100.0,
            bench_gate::THROUGHPUT_TOLERANCE * 100.0,
            baseline.wall_seconds,
            snapshot.wall_seconds
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "bench gate FAILED: {} deviation(s) beyond {:.1}% (counts) / {:.0}% \
         (throughput) of {baseline_path}:",
        deviations.len(),
        bench_gate::COUNT_TOLERANCE * 100.0,
        bench_gate::THROUGHPUT_TOLERANCE * 100.0,
    );
    for d in &deviations {
        eprintln!("  - {d}");
    }
    eprintln!("fix the regression, or refresh with --update and justify the change");
    Ok(ExitCode::FAILURE)
}

/// `ablation NAME`: one of the experiments in `horus_bench::ablations`,
/// printed. Returns failure when a fault-injection trial returned
/// corrupted data or failed an invariant.
fn cmd_ablation(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &[], &[], 1)?;
    let names = ablations::NAMES.join(", ");
    let name = args
        .positional
        .first()
        .ok_or(format!("ablation needs a name ({names})"))?;
    let (report, failures) = match name.as_str() {
        "wear" => (ablations::wear(), 0),
        "metacache" => (ablations::metacache(), 0),
        "runtime" => (ablations::runtime(), 0),
        "domains" => (ablations::domains(), 0),
        "faults" => {
            let campaign = ablations::faults();
            (campaign.report, campaign.failures)
        }
        other => return Err(format!("unknown ablation '{other}' ({names})")),
    };
    print!("{report}");
    if failures > 0 {
        eprintln!("{failures} trial(s) returned corrupted data or failed an invariant");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `crash-sweep`: the crash-point fault-injection matrix. Returns the
/// process exit code so a Horus silent-corruption classification (or a
/// panicked trial) fails scripts and CI.
fn cmd_crash_sweep(argv: &[String]) -> Result<ExitCode, String> {
    let mut points = None;
    let mut model = None;
    let mut out = None;
    let mut json = false;
    let mut args = HarnessArgs::parse_refusing(
        argv.iter().cloned(),
        "crash-sweep",
        &["--cache-dir", "--no-cache", "--service", "--service-tenant"],
        |flag, it| {
            match flag {
                "--points" => points = Some(it.next().ok_or("--points requires a value")?),
                "--model" => model = Some(it.next().ok_or("--model requires a value")?),
                "--out" => out = Some(it.next().ok_or("--out requires a value")?),
                "--json" => json = true,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    let mut plan = if args.quick {
        bench_crash::CrashSweepPlan::quick()
    } else {
        bench_crash::CrashSweepPlan::full()
    };
    if let Some(points) = points {
        plan.points_per_scheme = points
            .parse::<usize>()
            .map_err(|e| format!("--points: {e}"))?
            .max(2);
    }
    if let Some(model) = model {
        plan.model = match model.to_ascii_lowercase().as_str() {
            "torn" => TornWriteModel::Torn,
            "stale" => TornWriteModel::Stale,
            "garbled" => TornWriteModel::Garbled,
            other => {
                return Err(format!(
                    "unknown torn-write model '{other}' (torn, stale, garbled)"
                ))
            }
        };
    }
    // Crash points are cheap and not JobSpec-shaped: nothing to cache.
    args.no_cache = true;
    let obs = args.obs_or_exit();
    let harness = args.harness_with(&obs);
    let matrix = bench_crash::run(&harness, &plan);
    obs.finish_or_exit(&harness);
    if let Some(out) = &out {
        let json = serde_json::to_string_pretty(&matrix).map_err(|e| e.to_string())?;
        std::fs::write(out, json.as_bytes()).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("crash matrix written to {out}");
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&matrix).map_err(|e| e.to_string())?
        );
    } else {
        println!("{}", matrix.render());
    }
    if matrix.failures() > 0 {
        eprintln!(
            "error: {} Horus silent corruption(s), {} panicked trial(s)",
            matrix.horus_silent_corruptions(),
            matrix.panics
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "\nHorus: zero silent corruption across {} sampled crash points; baseline",
        matrix.points.len()
    );
    println!("silent-loss rows are their documented vulnerability window.");
    Ok(ExitCode::SUCCESS)
}

/// `serve`: the multi-tenant experiment API. Mounts the
/// `horus-service` router in front of the obs HTTP server, so one
/// listener answers `/v1/jobs`, the worker routes, `/metrics`,
/// `/healthz`, and `/readyz`. `--jobs 0` keeps no local pool: every
/// job waits for a `fleet-worker`. Runs until `POST /v1/shutdown`, then
/// drains the queue, joins the runners, and (with `--run-dir`) writes
/// the run's artifacts.
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &["addr", "tenant-config", "jobs", "cache-dir", "run-dir"],
        &["no-cache"],
        0,
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:9900");
    // The API rides the obs HTTP server, so a serve session always has
    // a metrics endpoint.
    let opts = ObsOptions {
        metrics_addr: Some(addr.to_owned()),
        run_dir: args.get("run-dir").map(std::path::PathBuf::from),
    };
    let session = ObsSession::start(&opts)?;
    // Not ready until the runners exist and the router is mounted.
    session.set_ready(false);
    let config = match args.get("tenant-config") {
        Some(path) => ServiceConfig::load(std::path::Path::new(path))
            .map_err(|e| format!("--tenant-config {path}: {e}"))?,
        None => ServiceConfig::default(),
    };
    let jobs = args
        .get("jobs")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--jobs: {e}")))
        .transpose()?;
    let harness = Arc::new(Harness::new(HarnessOptions {
        jobs,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        no_cache: args.has("no-cache"),
        progress: ProgressMode::Silent,
        metrics: Some(session.registry()),
        // The service stamps per-job spans itself; giving the harness
        // the book too would collide on plan ids.
        backend: None,
        spans: None,
    }));
    let spans = session.span_book().unwrap_or_else(SpanBook::shared);
    let service = horus::service::ExperimentService::start(
        &config,
        Arc::clone(&harness),
        Some(session.registry()),
        Some(spans),
    );
    session.install_router(Arc::clone(&service) as Arc<dyn horus::obs::Router>);
    session.set_ready(true);
    let listen = session
        .metrics_addr()
        .map_or_else(|| addr.to_owned(), |a| a.to_string());
    let pool = match harness.jobs() {
        0 => "no local pool: remote workers only".to_owned(),
        n => format!("local pool {n}"),
    };
    eprintln!(
        "serve: experiment API on http://{listen}/v1/jobs ({} runner(s), {pool}, tenants: {})",
        config.effective_runners(),
        config.tenant_names().join(", ")
    );
    service.wait_until_drained();
    service.join();
    eprintln!("serve: drained; shutting down");
    if let Some(dir) = session.finish(service.take_job_profiles())? {
        eprintln!("obs: wrote run artifacts -> {}", dir.display());
    }
    Ok(())
}

/// `fleet-worker`: register with a `serve` daemon, lease job batches,
/// run them on the ordinary local harness pool, and push results back
/// until the daemon drains.
fn cmd_fleet_worker(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["connect", "jobs", "name"], &[], 0)?;
    let connect = args
        .get("connect")
        .ok_or("fleet-worker needs --connect <host:port>")?;
    let mut options = WorkerOptions::new(connect);
    if let Some(name) = args.get("name") {
        options.name = name.to_owned();
    }
    options.jobs = args
        .get("jobs")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--jobs: {e}")))
        .transpose()?;
    let summary = run_worker(&options)?;
    eprintln!(
        "fleet: worker {} executed {} job(s) over {} batch(es); service drained",
        summary.worker, summary.executed, summary.batches
    );
    Ok(())
}

/// `insight DIR`: the offline cross-signal analyzer. Joins a run
/// directory's obs summary, span timeline, and NDJSON structured logs
/// by correlation trace id, then writes `insight.json` (`--out`) and
/// prints the human report: per-tenant and per-scheme stage breakdowns,
/// the slowest end-to-end requests, shed/retry accounting reconciled
/// against the governor counters, and an anomaly section (stage-time
/// outliers, orphan spans/logs no other signal knows).
fn cmd_insight(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["out", "top"], &["json"], 1)?;
    let dir = args
        .positional
        .first()
        .ok_or("insight needs a run directory")?;
    let inputs = horus::obs::insight::InsightInputs::from_run_dir(std::path::Path::new(dir))?;
    let top = args
        .get("top")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--top: {e}")))
        .transpose()?
        .unwrap_or(5);
    let insight = horus::obs::insight::analyze(&inputs)?;
    if let Some(out) = args.get("out") {
        std::fs::write(out, insight.to_json(top).as_bytes()).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("insight: wrote {out}");
    }
    if args.has("json") {
        println!("{}", insight.to_json(top));
    } else {
        println!("{}", insight.human_report(top));
    }
    Ok(())
}

fn parse_domain(s: &str) -> Result<PersistenceDomain, String> {
    match s.to_ascii_lowercase().as_str() {
        "epd" | "eadr" => Ok(PersistenceDomain::Epd),
        "adr" => Ok(PersistenceDomain::AdrOnly),
        other => {
            if let Some(lines) = other.strip_prefix("bbb:") {
                let buffer_lines = lines.parse().map_err(|e| format!("bbb buffer size: {e}"))?;
                Ok(PersistenceDomain::Bbb { buffer_lines })
            } else {
                Err(format!("unknown domain '{other}' (epd, adr, bbb:<lines>)"))
            }
        }
    }
}

fn cmd_trace(argv: &[String]) -> Result<(), String> {
    // Two modes share the verb: `trace --file <path>` replays a
    // workload trace; `trace <scheme>` records one probed drain episode
    // and reports where its cycles went.
    if !argv.iter().any(|a| a == "--file") {
        return cmd_trace_drain(&Args::parse(
            argv,
            &["scheme", "llc-mb", "stride", "out"],
            &[],
            1,
        )?);
    }
    let args = Args::parse(argv, &["file", "domain"], &[], 0)?;
    let path = args.get("file").ok_or("trace needs --file <path>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ops = parse_trace(&text).map_err(|e| e.to_string())?;
    let domain = parse_domain(args.get("domain").unwrap_or("epd"))?;
    let cfg = SystemConfig {
        domain,
        ..SystemConfig::with_llc_bytes(4 << 20)
    };
    let mut sys = SecureEpdSystem::new(cfg);
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut persists = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let r = match *op {
            TraceOp::Write { addr, value } => {
                writes += 1;
                sys.write(addr, [value; 64])
            }
            TraceOp::Read { addr } => {
                reads += 1;
                sys.read(addr).map(|_| ())
            }
            TraceOp::Persist { addr, value } => {
                persists += 1;
                sys.persist(addr, [value; 64]).map(|_| ())
            }
        };
        r.map_err(|e| format!("op {} ({op:?}): {e}", i + 1))?;
    }
    println!(
        "replayed {} ops ({reads} R / {writes} W / {persists} P) on {domain}",
        ops.len()
    );
    let stats = sys.platform().merged_stats();
    println!(
        "NVM: {} reads, {} writes",
        stats.sum_prefix("mem.read."),
        stats.sum_prefix("mem.write.")
    );
    println!("MAC ops: {}", stats.sum_prefix("macop."));
    if persists > 0 {
        println!(
            "persist latency: {:.0} cycles mean ({} stalls)",
            sys.persist_stats().mean_latency(),
            sys.persist_stats().buffer_stalls
        );
    }
    Ok(())
}

/// `trace <scheme>`: one probed worst-case drain, reported as a
/// per-resource utilization table plus critical-path attribution, with
/// an optional Chrome-trace-event JSON export (`--out`) loadable in
/// Perfetto or `chrome://tracing`.
fn cmd_trace_drain(args: &Args) -> Result<(), String> {
    let scheme_name = args
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| args.get("scheme"))
        .unwrap_or("horus-slm");
    let scheme = parse_scheme(scheme_name)?;
    let llc_mb: u64 = args
        .get("llc-mb")
        .unwrap_or("8")
        .parse()
        .map_err(|e| format!("--llc-mb: {e}"))?;
    let stride: u64 = args
        .get("stride")
        .unwrap_or("16384")
        .parse()
        .map_err(|e| format!("--stride: {e}"))?;
    let cfg = horus::core::SystemConfig::with_llc_bytes(llc_mb << 20);
    let spec = JobSpec::drain(
        &cfg,
        scheme,
        FillPattern::StridedSparse { min_stride: stride },
    );
    let (result, trace) = spec.execute_traced();
    let report = &result.drain;
    println!(
        "traced one {} drain: {} events over {} cycles ({:.3} ms)\n",
        report.scheme,
        trace.len(),
        report.cycles,
        report.seconds * 1e3
    );
    if let Some(usage) = &report.utilization {
        println!(
            "{:<14} {:>8} {:>6} {:>10} {:>10} {:>10}",
            "resource", "ops", "util", "wait p50", "wait p99", "wait max"
        );
        for u in usage {
            println!(
                "{:<14} {:>8} {:>5.1}% {:>10} {:>10} {:>10}",
                u.track,
                u.ops,
                u.utilization * 100.0,
                u.queue_p50,
                u.queue_p99,
                u.queue_max
            );
        }
    }
    if let Some(cp) = &report.critical_path {
        println!(
            "\ncritical path: {} steps over {} cycles, bounded by {}",
            cp.steps, cp.total_cycles, cp.bounding_resource
        );
        for share in &cp.shares {
            println!(
                "  {:<12} {:>10} cycles  {:>5.1}%",
                share.resource,
                share.cycles,
                share.fraction * 100.0
            );
        }
    }
    if let Some(out) = args.get("out") {
        let json = horus::sim::chrome_trace_json(&trace);
        std::fs::write(out, json.as_bytes()).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "\nwrote Chrome trace ({} events) to {out} — open in Perfetto",
            trace.len()
        );
    }
    Ok(())
}

const USAGE: &str =
    "usage: horus-cli <config|drain|recover|attack|sweep|repro|bench-gate|ablation|crash-sweep|serve|fleet-worker|insight|trace> [options]
  config                          print the Table I configuration as JSON
  drain   --scheme S [--llc-mb N] [--stride B] [--json]
  recover --scheme S [--llc-mb N] [--write-through] [--json]
  attack  --kind K [--scheme S]   K: data address mac splice truncate replay
  sweep   [--llc 8,16,32] [--json] [--jobs N] [--cache-dir DIR] [--no-cache]
          [--service HOST:PORT [--service-tenant NAME]]   submit the points to a serve
          daemon instead of the local pool; output stays byte-identical to the local run
  repro   [--quick] [--jobs N] [--cache-dir DIR] [--no-cache] [--service HOST:PORT
          [--service-tenant NAME]]   every table and figure of the paper: writes and prints
          EXPERIMENTS.md; exits nonzero when a headline claim leaves its tolerance band
  bench-gate [--update] [--out FILE] [--host-profile-tolerance F] [--gate-host-profile]
          [--jobs N] [--cache-dir DIR] [--no-cache]   smoke-plan op counts (2%) and
          throughput (25%, regressions only) against the committed BENCH_smoke.json;
          --update rewrites it
  ablation wear|metacache|runtime|domains|faults   an experiment beyond the paper's
          figures, run inline; faults exits nonzero on a failed trial
  crash-sweep [--quick] [--points N] [--model torn|stale|garbled] [--jobs N]
          [--out FILE] [--json]   interrupt each drain at sampled cycles, recover,
          classify; exits nonzero on any Horus silent corruption
  serve   [--addr 127.0.0.1:9900] [--tenant-config FILE] [--jobs N] [--cache-dir DIR]
          [--no-cache] [--run-dir DIR]   multi-tenant experiment daemon: POST /v1/jobs
          with admission control, dedup by content key, a job queue its runners (--jobs
          wide; 0 = none) and fleet-workers lease from, /metrics on the same listener;
          with --cache-dir, unfinished plans resume after a restart; POST /v1/shutdown
          drains and exits
  fleet-worker --connect HOST:PORT [--jobs N] [--name NAME]   lease job batches
          from a serve daemon and execute them on the local harness pool until it
          drains
  insight DIR [--out FILE] [--top N] [--json]
          join a run directory's summary, span timeline, and structured logs by trace
          id: stage breakdowns, slowest requests, shed accounting, anomalies
  trace   <scheme> [--llc-mb N] [--stride B] [--out FILE]   probed drain: utilization,
          critical path, optional Chrome-trace JSON (Perfetto-loadable)
  trace   --file <path> [--domain epd|adr|bbb:<lines>]      workload replay
sweep/repro/bench-gate/crash-sweep telemetry: [--metrics-addr ADDR] [--run-dir DIR]
run dir (sweep, repro, bench-gate, crash-sweep, serve): summary.json spans.json logs.ndjson
          progress.ndjson, plus drain-trace.json for repro
every command: [--log-level debug|info|warn|error]
schemes: ns base-lu base-eu horus(-slm) horus-dlm";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .map_or(("help", &[][..]), |(cmd, rest)| (cmd.as_str(), rest));
    let result = match cmd {
        "config" => cmd_config(rest).map(|()| ExitCode::SUCCESS),
        "drain" => cmd_drain(rest).map(|()| ExitCode::SUCCESS),
        "recover" => cmd_recover(rest).map(|()| ExitCode::SUCCESS),
        "attack" => cmd_attack(rest).map(|()| ExitCode::SUCCESS),
        "sweep" => cmd_sweep(rest).map(|()| ExitCode::SUCCESS),
        "repro" => cmd_repro(rest),
        "bench-gate" => cmd_bench_gate(rest),
        "ablation" => cmd_ablation(rest),
        "crash-sweep" => cmd_crash_sweep(rest),
        "serve" => cmd_serve(rest).map(|()| ExitCode::SUCCESS),
        "fleet-worker" => cmd_fleet_worker(rest).map(|()| ExitCode::SUCCESS),
        "insight" => cmd_insight(rest).map(|()| ExitCode::SUCCESS),
        "trace" => cmd_trace(rest).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}
