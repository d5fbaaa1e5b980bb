//! `horus-cli` — drive the secure-EPD simulator from the command line.
//!
//! ```text
//! horus-cli config
//! horus-cli drain   --scheme horus-slm [--llc-mb 16] [--stride 16384] [--json]
//! horus-cli recover --scheme horus-dlm [--llc-mb 8] [--write-through]
//! horus-cli attack  --kind splice [--scheme horus-slm]
//! horus-cli sweep   --llc 8,16,32 [--jobs N] [--cache-dir DIR] [--no-cache] [--progress] [--json] [--service ADDR]
//! horus-cli crash-sweep [--quick] [--points N] [--model torn|stale|garbled] [--jobs N] [--out FILE] [--json]
//! horus-cli serve [--addr 127.0.0.1:9900] [--tenant-config FILE] [--jobs N] [--cache-dir DIR]
//! horus-cli fleet-worker --connect HOST:PORT [--jobs N] [--name NAME]
//! horus-cli serve-metrics [--addr 127.0.0.1:9464] [--for-seconds S]
//! horus-cli insight [--obs FILE] [--spans FILE] [--logs FILE] [--out FILE] [--top N] [--json]
//! ```
//!
//! `sweep` runs on the `horus-harness` worker pool: points execute in
//! parallel (`--jobs`, default all cores) and results are memoized in
//! the on-disk cache, so re-running a sweep is instant. `--service ADDR`
//! submits the points to a `serve` daemon instead, whose runners and
//! `fleet-worker`s (on any host) execute them; the output is
//! byte-identical either way.
//!
//! `crash-sweep` interrupts every scheme's drain at sampled cycles
//! (phase boundaries ±1 plus even coverage), recovers from the exact
//! persistent state left behind, and classifies each point; it exits
//! nonzero if a Horus scheme ever silently returns corrupted data.
//!
//! `sweep` and `crash-sweep` also take the fleet-telemetry flags:
//! `--metrics-addr ADDR` serves live Prometheus text (`GET /metrics`)
//! for the duration of the run, `--dashboard` renders the live TTY
//! panel (degrading to `--progress` JSON lines off-TTY), and
//! `--obs-out FILE` writes the end-of-run obs summary JSON. With none
//! of them given, output is byte-identical to the uninstrumented run.
//! `serve-metrics` stands up the scrape endpoint on its own, exposing
//! this process's host profile — useful for smoke-testing a Prometheus
//! scrape config against the exposition format.

use horus::bench::crash_sweep as bench_crash;
use horus::core::{
    attack, DrainScheme, PersistenceDomain, RecoveryMode, SecureEpdSystem, SystemConfig,
    TornWriteModel,
};
use horus::energy::{Battery, DrainEnergyModel};
use horus::harness::{Harness, HarnessOptions, JobSpec, ProgressMode, SweepBackend};
use horus::obs::{log, MetricsServer, ObsOptions, ObsSession, Registry, SpanBook};
use horus::service::{run_worker, ServiceBackend, ServiceConfig, WorkerOptions};
use horus::workload::{fill_hierarchy, parse_trace, FillPattern, TraceOp};
use std::process::ExitCode;
use std::sync::Arc;

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

/// Minimal flag parser: `--key value` pairs plus boolean `--flag`s.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String], booleans: &[&str]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if booleans.contains(&name) {
                    flags.push((name.to_owned(), None));
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?
                        .clone();
                    flags.push((name.to_owned(), Some(v)));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
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

fn cmd_config() -> Result<(), String> {
    let cfg = SystemConfig::paper_default();
    let summary = horus::core::config::ConfigSummary::of(&cfg);
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_drain(args: &Args) -> Result<(), String> {
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

fn cmd_recover(args: &Args) -> Result<(), String> {
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

fn cmd_attack(args: &Args) -> Result<(), String> {
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

/// Applies the global `--log-level`/`--log-json` flags to the
/// process-wide structured logger before any subcommand runs.
fn apply_log_flags(args: &Args) -> Result<(), String> {
    if let Some(v) = args.get("log-level") {
        let level = log::Level::parse(v)
            .ok_or(format!("--log-level {v}: expected debug|info|warn|error"))?;
        log::set_level(level);
    }
    if args.has("log-json") {
        log::set_json_stderr(true);
    }
    Ok(())
}

/// Starts the telemetry session the `--metrics-addr`/`--dashboard`/
/// `--obs-out`/`--span-out` flags describe, announcing the scrape URL.
/// `None` when no obs flag was given. When telemetry is on but no
/// `--obs-out` path was given, the summary defaults to
/// `obs-summary.json` (gitignored).
fn obs_session(args: &Args) -> Result<Option<ObsSession>, String> {
    let opts = ObsOptions {
        metrics_addr: args.get("metrics-addr").map(str::to_owned),
        dashboard: args.has("dashboard"),
        summary_out: args
            .get("obs-out")
            .map(std::path::PathBuf::from)
            .or_else(|| {
                (args.get("metrics-addr").is_some() || args.has("dashboard"))
                    .then(|| std::path::PathBuf::from("obs-summary.json"))
            }),
        span_out: args.get("span-out").map(std::path::PathBuf::from),
    };
    if !opts.is_active() {
        return Ok(None);
    }
    let session = ObsSession::start(&opts)?;
    if let Some(addr) = session.metrics_addr() {
        eprintln!("metrics: serving Prometheus text on http://{addr}/metrics");
    }
    Ok(Some(session))
}

/// The progress mode for a run: explicit `--progress`, or a `--dashboard`
/// request that could not become a live TTY panel degrading to the
/// JSON-lines stream.
fn progress_mode(args: &Args, obs: Option<&ObsSession>) -> ProgressMode {
    let dashboard_live = obs.is_some_and(ObsSession::dashboard_active);
    if args.has("progress") || (args.has("dashboard") && !dashboard_live) {
        ProgressMode::JsonLines
    } else {
        ProgressMode::Silent
    }
}

/// Drains per-job profiles and writes the summary artifact, if a session
/// is running.
fn finish_obs(obs: Option<ObsSession>, harness: &Harness) -> Result<(), String> {
    if let Some(session) = obs {
        if let Some(path) = session.finish(harness.take_job_profiles())? {
            eprintln!("obs: wrote run summary -> {}", path.display());
        }
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let llcs: Vec<u64> = args
        .get("llc")
        .unwrap_or("8,16")
        .split(',')
        .map(|v| v.trim().parse::<u64>().map_err(|e| format!("--llc: {e}")))
        .collect::<Result<_, _>>()?;
    let jobs = args
        .get("jobs")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--jobs: {e}")))
        .transpose()?;
    let obs = obs_session(args)?;
    let harness = Harness::new(HarnessOptions {
        jobs,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        no_cache: args.has("no-cache"),
        progress: progress_mode(args, obs.as_ref()),
        metrics: obs.as_ref().map(ObsSession::registry),
        backend: args
            .get("service")
            .map(|addr| Arc::new(ServiceBackend::new(addr)) as Arc<dyn SweepBackend>),
        spans: obs.as_ref().and_then(ObsSession::span_book),
    });
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
    if args.has("json") {
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
    finish_obs(obs, &harness)
}

/// `crash-sweep`: the crash-point fault-injection matrix. Returns the
/// process exit code so a Horus silent-corruption classification (or a
/// panicked trial) fails scripts and CI.
fn cmd_crash_sweep(args: &Args) -> Result<ExitCode, String> {
    let mut plan = if args.has("quick") {
        bench_crash::CrashSweepPlan::quick()
    } else {
        bench_crash::CrashSweepPlan::full()
    };
    if let Some(points) = args.get("points") {
        plan.points_per_scheme = points
            .parse::<usize>()
            .map_err(|e| format!("--points: {e}"))?
            .max(2);
    }
    if let Some(model) = args.get("model") {
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
    let jobs = args
        .get("jobs")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--jobs: {e}")))
        .transpose()?;
    let obs = obs_session(args)?;
    let harness = Harness::new(HarnessOptions {
        jobs,
        no_cache: true, // crash points are cheap and not JobSpec-shaped
        progress: progress_mode(args, obs.as_ref()),
        metrics: obs.as_ref().map(ObsSession::registry),
        ..HarnessOptions::default()
    });
    let matrix = bench_crash::run(&harness, &plan);
    finish_obs(obs, &harness)?;
    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&matrix).map_err(|e| e.to_string())?;
        std::fs::write(out, json.as_bytes()).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("crash matrix written to {out}");
    }
    if args.has("json") {
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

/// `serve-metrics`: a standalone Prometheus scrape endpoint exposing
/// this process's host profile (CPU seconds, peak RSS, uptime),
/// refreshed every 250 ms. Serves until killed, or for `--for-seconds S`
/// when given (how the CI smoke job bounds it).
fn cmd_serve_metrics(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:9464");
    let registry = Registry::shared();
    let server = MetricsServer::bind(addr, std::sync::Arc::clone(&registry))
        .map_err(|e| format!("cannot bind metrics address {addr}: {e}"))?;
    eprintln!(
        "serving Prometheus text on http://{}/metrics (Ctrl-C to stop)",
        server.local_addr()
    );
    let deadline = args
        .get("for-seconds")
        .map(|v| v.parse::<f64>().map_err(|e| format!("--for-seconds: {e}")))
        .transpose()?;
    let cpu = registry.float_gauge(
        "horus_host_cpu_seconds",
        "Process CPU seconds (user + system) of this serve-metrics process.",
        &[],
    );
    let rss = registry.gauge(
        "horus_host_peak_rss_bytes",
        "Peak resident set size of this serve-metrics process, bytes.",
        &[],
    );
    let uptime = registry.float_gauge(
        "horus_host_uptime_seconds",
        "Seconds since this serve-metrics process started.",
        &[],
    );
    let started = std::time::Instant::now();
    loop {
        if let Some(c) = horus::obs::profile::process_cpu_seconds() {
            cpu.set(c);
        }
        if let Some(r) = horus::obs::profile::peak_rss_bytes() {
            rss.set(i64::try_from(r).unwrap_or(i64::MAX));
        }
        uptime.set(started.elapsed().as_secs_f64());
        if deadline.is_some_and(|d| started.elapsed().as_secs_f64() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
    server.shutdown();
    Ok(())
}

/// `serve`: the multi-tenant experiment API. Mounts the
/// `horus-service` router in front of the obs HTTP server, so one
/// listener answers `/v1/jobs`, the worker routes, `/metrics`,
/// `/healthz`, and `/readyz`. `--jobs 0` keeps no local pool: every
/// job waits for a `fleet-worker`. Runs until `POST /v1/shutdown`, then
/// drains the queue, joins the runners, and writes the obs summary.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:9900");
    // The API rides the obs HTTP server, so a serve session always has
    // a metrics endpoint and always writes a summary artifact.
    let opts = ObsOptions {
        metrics_addr: Some(addr.to_owned()),
        dashboard: false,
        summary_out: Some(
            args.get("obs-out")
                .map_or_else(|| std::path::PathBuf::from("obs-summary.json"), Into::into),
        ),
        span_out: args.get("span-out").map(std::path::PathBuf::from),
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
    if let Some(path) = session.finish(service.take_job_profiles())? {
        eprintln!("obs: wrote run summary -> {}", path.display());
    }
    Ok(())
}

/// `fleet-worker`: register with a `serve` daemon, lease job batches,
/// run them on the ordinary local harness pool, and push results back
/// until the daemon drains.
fn cmd_fleet_worker(args: &Args) -> Result<(), String> {
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

/// `insight`: the offline cross-signal analyzer. Joins a run's obs
/// summary (`--obs`), span timeline (`--spans`), and NDJSON structured
/// logs (`--logs`) by correlation trace id, then writes `insight.json`
/// (`--out`) and prints the human report: per-tenant and per-scheme
/// stage breakdowns, the slowest end-to-end requests, shed/retry
/// accounting reconciled against the governor counters, and an anomaly
/// section (stage-time outliers, orphan spans/logs no other signal
/// knows).
fn cmd_insight(args: &Args) -> Result<(), String> {
    let read_artifact = |flag: &str| -> Result<Option<String>, String> {
        args.get(flag)
            .map(|path| std::fs::read_to_string(path).map_err(|e| format!("--{flag} {path}: {e}")))
            .transpose()
    };
    let inputs = horus::obs::insight::InsightInputs {
        obs_summary: read_artifact("obs")?,
        spans: read_artifact("spans")?,
        logs: read_artifact("logs")?,
    };
    if inputs.obs_summary.is_none() && inputs.spans.is_none() && inputs.logs.is_none() {
        return Err("insight needs at least one of --obs, --spans, --logs".into());
    }
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

fn cmd_trace(args: &Args) -> Result<(), String> {
    // Two modes share the verb: `trace --file <path>` replays a
    // workload trace; `trace <scheme>` records one probed drain episode
    // and reports where its cycles went.
    if args.get("file").is_none() {
        return cmd_trace_drain(args);
    }
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
        .get(1)
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
    "usage: horus-cli <config|drain|recover|attack|sweep|crash-sweep|serve|fleet-worker|serve-metrics|insight|trace> [options]
  config                          print the Table I configuration as JSON
  drain   --scheme S [--llc-mb N] [--stride B] [--json]
  recover --scheme S [--llc-mb N] [--write-through] [--json]
  attack  --kind K [--scheme S]   K: data address mac splice truncate replay
  sweep   --llc 8,16,32 [--jobs N] [--cache-dir DIR] [--no-cache] [--progress] [--json]
          [--service HOST:PORT]   submit the points to a serve daemon instead of the
          local pool; output stays byte-identical to the local run
  crash-sweep [--quick] [--points N] [--model torn|stale|garbled] [--jobs N]
          [--out FILE] [--json]   interrupt each drain at sampled cycles, recover,
          classify; exits nonzero on any Horus silent corruption
  serve   [--addr 127.0.0.1:9900] [--tenant-config FILE] [--jobs N] [--cache-dir DIR]
          [--no-cache] [--obs-out FILE] [--span-out FILE]   multi-tenant experiment
          daemon: POST /v1/jobs with admission control, dedup by content key, a job
          queue its runners (--jobs wide; 0 = none) and fleet-workers lease from,
          /metrics on the same listener; with --cache-dir, unfinished plans resume
          after a restart; POST /v1/shutdown drains and exits
  fleet-worker --connect HOST:PORT [--jobs N] [--name NAME]   lease job batches
          from a serve daemon and execute them on the local harness pool until it
          drains
  serve-metrics [--addr 127.0.0.1:9464] [--for-seconds S]   standalone Prometheus
          scrape endpoint exposing this process's host profile
  insight [--obs FILE] [--spans FILE] [--logs FILE] [--out FILE] [--top N] [--json]
          join a run's obs summary, span timeline, and structured logs by trace id:
          stage breakdowns, slowest requests, shed accounting, anomalies
  trace   <scheme> [--llc-mb N] [--stride B] [--out FILE]   probed drain: utilization,
          critical path, optional Chrome-trace JSON (Perfetto-loadable)
  trace   --file <path> [--domain epd|adr|bbb:<lines>]      workload replay
sweep/crash-sweep telemetry: [--metrics-addr ADDR] [--dashboard]
          [--obs-out FILE] [--span-out FILE]
global logging: [--log-level debug|info|warn|error] [--log-json]
schemes: ns base-lu base-eu horus(-slm) horus-dlm";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(
        &argv,
        &[
            "json",
            "write-through",
            "no-cache",
            "progress",
            "quick",
            "dashboard",
            "log-json",
        ],
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = apply_log_flags(&args) {
        eprintln!("error: {e}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match cmd {
        "config" => cmd_config(),
        "drain" => cmd_drain(&args),
        "recover" => cmd_recover(&args),
        "attack" => cmd_attack(&args),
        "sweep" => cmd_sweep(&args),
        "crash-sweep" => match cmd_crash_sweep(&args) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "serve" => cmd_serve(&args),
        "fleet-worker" => cmd_fleet_worker(&args),
        "serve-metrics" => cmd_serve_metrics(&args),
        "insight" => cmd_insight(&args),
        "trace" => cmd_trace(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
