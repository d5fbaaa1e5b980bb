//! Shared command-line plumbing for the `repro-*` binaries.
//!
//! Every reproduction binary accepts the same orchestration flags:
//!
//! ```text
//! --jobs N          worker threads (default: available parallelism)
//! --cache-dir DIR   result-cache directory (default: target/horus-cache)
//! --no-cache        bypass the result cache (always re-simulate)
//! --progress        stream JSON-lines progress events to stderr
//! --quick           shrink the sweeps (binaries that sweep)
//! --trace-out FILE  also write a Chrome-trace JSON of one probed drain
//! --metrics-addr A  serve live Prometheus text on A (e.g. 127.0.0.1:9464)
//! --dashboard       render the live TTY telemetry panel on stderr
//! --obs-out FILE    write the end-of-run obs summary JSON to FILE
//! --service ADDR    submit sweeps to the `horus-cli serve` daemon at ADDR
//!                   instead of the local pool (output stays byte-identical)
//! --service-tenant NAME  submit under tenant NAME (with --service)
//! --span-out FILE   write a Chrome-trace JSON of per-job lifecycle spans
//!                   (queued → leased → executing → pushed → committed)
//! --sim-threads N   shard independent episodes over N simulation worker
//!                   threads (default 1; output is byte-identical for any N)
//! --log-level LVL   structured-log threshold: debug|info|warn|error
//! --log-json        emit structured log lines as NDJSON on stderr
//! ```
//!
//! The three `--metrics-addr`/`--dashboard`/`--obs-out` flags together
//! drive an [`ObsRuntime`]: build it once with
//! [`HarnessArgs::obs_or_exit`], construct the harness through
//! [`HarnessArgs::harness_with`] so sweep metrics land in the session's
//! registry, and call [`ObsRuntime::finish_or_exit`] after the run to
//! drain per-job profiles and write the summary artifact. With none of
//! the flags given the runtime is inert and the binary's outputs are
//! byte-identical to the uninstrumented ones.
//!
//! `--out` is accepted as an alias for `--trace-out` (one binary
//! historically spelled it that way; both now work everywhere). A
//! binary with flags of its own composes them onto the shared set via
//! [`HarnessArgs::parse_from_with`] — its handler sees every flag
//! first, so it may claim a shared spelling (e.g. `bench-gate` keeps
//! `--out` for its snapshot path) without forking the parser.

use horus_core::{DrainScheme, SystemConfig};
use horus_harness::{Harness, HarnessOptions, JobSpec, ProgressMode, SweepBackend};
use horus_obs::{log, ObsOptions, ObsSession};
use horus_service::ServiceBackend;
use horus_sim::chrome_trace_json;
use horus_workload::FillPattern;
use std::path::PathBuf;
use std::sync::Arc;

/// The harness-related flags common to all `repro-*` binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--cache-dir DIR`.
    pub cache_dir: Option<PathBuf>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--progress`.
    pub progress: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--trace-out FILE`.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-addr ADDR`.
    pub metrics_addr: Option<String>,
    /// `--dashboard`.
    pub dashboard: bool,
    /// `--obs-out FILE`.
    pub obs_out: Option<PathBuf>,
    /// `--service ADDR`.
    pub service: Option<String>,
    /// `--service-tenant NAME`.
    pub service_tenant: Option<String>,
    /// `--span-out FILE`.
    pub span_out: Option<PathBuf>,
    /// `--sim-threads N`.
    pub sim_threads: Option<usize>,
    /// `--log-level LVL`.
    pub log_level: Option<log::Level>,
    /// `--log-json`.
    pub log_json: bool,
}

/// The usage string fragment for the shared flags.
pub const HARNESS_USAGE: &str = "[--jobs N] [--cache-dir DIR] [--no-cache] [--progress] \
     [--quick] [--trace-out FILE] [--metrics-addr ADDR] [--dashboard] [--obs-out FILE] \
     [--service ADDR] [--service-tenant NAME] [--span-out FILE] \
     [--sim-threads N] [--log-level LVL] [--log-json]";

impl HarnessArgs {
    /// Parses the process arguments; unknown flags are an error.
    pub fn parse() -> Result<Self, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (testable).
    pub fn parse_from(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        Self::parse_from_with(argv, |_, _| Ok(false))
    }

    /// [`parse_from`](Self::parse_from) with binary-specific flags
    /// composed in. `extra` is offered every flag *before* the shared
    /// parser; it returns `Ok(true)` after consuming one (pulling any
    /// value from the iterator itself), `Ok(false)` to pass it through
    /// to the shared set, or `Err` to reject its value. Because `extra`
    /// runs first, a binary may claim a shared spelling for itself.
    pub fn parse_from_with(
        argv: impl Iterator<Item = String>,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv;
        while let Some(a) = it.next() {
            if extra(a.as_str(), &mut it)? {
                continue;
            }
            match a.as_str() {
                "--jobs" => {
                    let v = it.next().ok_or("--jobs requires a value")?;
                    args.jobs = Some(
                        v.parse::<usize>()
                            .map_err(|e| format!("--jobs {v}: {e}"))?
                            .max(1),
                    );
                }
                "--cache-dir" => {
                    let v = it.next().ok_or("--cache-dir requires a value")?;
                    args.cache_dir = Some(PathBuf::from(v));
                }
                "--no-cache" => args.no_cache = true,
                "--progress" => args.progress = true,
                "--quick" => args.quick = true,
                "--trace-out" | "--out" => {
                    let v = it.next().ok_or(format!("{a} requires a value"))?;
                    args.trace_out = Some(PathBuf::from(v));
                }
                "--metrics-addr" => {
                    let v = it.next().ok_or("--metrics-addr requires a value")?;
                    args.metrics_addr = Some(v);
                }
                "--dashboard" => args.dashboard = true,
                "--obs-out" => {
                    let v = it.next().ok_or("--obs-out requires a value")?;
                    args.obs_out = Some(PathBuf::from(v));
                }
                "--service" => {
                    let v = it.next().ok_or("--service requires a value")?;
                    args.service = Some(v);
                }
                "--service-tenant" => {
                    let v = it.next().ok_or("--service-tenant requires a value")?;
                    args.service_tenant = Some(v);
                }
                "--span-out" => {
                    let v = it.next().ok_or("--span-out requires a value")?;
                    args.span_out = Some(PathBuf::from(v));
                }
                "--sim-threads" => {
                    let v = it.next().ok_or("--sim-threads requires a value")?;
                    args.sim_threads = Some(
                        v.parse::<usize>()
                            .map_err(|e| format!("--sim-threads {v}: {e}"))?
                            .max(1),
                    );
                }
                "--log-level" => {
                    let v = it.next().ok_or("--log-level requires a value")?;
                    args.log_level = Some(
                        log::Level::parse(&v)
                            .ok_or(format!("--log-level {v}: expected debug|info|warn|error"))?,
                    );
                }
                "--log-json" => args.log_json = true,
                other => return Err(format!("unknown flag '{other}' ({HARNESS_USAGE})")),
            }
        }
        if args.service_tenant.is_some() && args.service.is_none() {
            return Err("--service-tenant requires --service".to_string());
        }
        Ok(args)
    }

    /// Builds the harness these flags describe, with no telemetry
    /// attached. Binaries that honor the obs flags should use
    /// [`Self::harness_with`] instead.
    #[must_use]
    pub fn harness(&self) -> Harness {
        self.harness_with(&ObsRuntime { session: None })
    }

    /// Builds the harness with `obs`'s registry attached (when a session
    /// is running), so sweep metrics stream to the scrape endpoint,
    /// dashboard, and summary artifact.
    ///
    /// Progress-mode resolution: `--progress` always streams JSON
    /// lines; a `--dashboard` request that could not become a live
    /// panel (stderr is not a TTY) *degrades* to the JSON-lines stream
    /// rather than going dark; a live dashboard keeps line progress off
    /// so the two don't fight over stderr.
    #[must_use]
    pub fn harness_with(&self, obs: &ObsRuntime) -> Harness {
        let dashboard_live = obs
            .session
            .as_ref()
            .is_some_and(ObsSession::dashboard_active);
        let progress = if self.progress || (self.dashboard && !dashboard_live) {
            ProgressMode::JsonLines
        } else {
            ProgressMode::Silent
        };
        Harness::new(HarnessOptions {
            jobs: self.jobs,
            cache_dir: self.cache_dir.clone(),
            no_cache: self.no_cache,
            progress,
            metrics: obs.session.as_ref().map(ObsSession::registry),
            backend: self.backend(),
            spans: obs.session.as_ref().and_then(ObsSession::span_book),
        })
    }

    /// The remote execution backend these flags select: a
    /// `horus-cli serve` daemon (`--service`, optionally submitting as
    /// `--service-tenant`), or none — the local pool. The backend keeps
    /// the harness's determinism contract, so a binary's output is
    /// byte-identical wherever its sweeps ran.
    #[must_use]
    pub fn backend(&self) -> Option<Arc<dyn SweepBackend>> {
        self.service.as_ref().map(|addr| {
            let mut backend = ServiceBackend::new(addr.clone());
            if let Some(tenant) = &self.service_tenant {
                backend = backend.with_tenant(tenant.clone());
            }
            Arc::new(backend) as Arc<dyn SweepBackend>
        })
    }

    /// The simulation-episode worker pool `--sim-threads` describes.
    /// Defaults to the single-thread reference configuration, whose
    /// output every other thread count must reproduce byte-for-byte.
    #[must_use]
    pub fn episode_shards(&self) -> horus_sim::EpisodeShards {
        horus_sim::EpisodeShards::new(self.sim_threads.unwrap_or(1))
    }

    /// The [`ObsOptions`] these flags describe. When telemetry was
    /// requested but no `--obs-out` path given, the summary defaults to
    /// `obs-summary.json` in the working directory (gitignored).
    #[must_use]
    pub fn obs_options(&self) -> ObsOptions {
        let summary_out = self.obs_out.clone().or_else(|| {
            (self.metrics_addr.is_some() || self.dashboard)
                .then(|| PathBuf::from("obs-summary.json"))
        });
        ObsOptions {
            metrics_addr: self.metrics_addr.clone(),
            dashboard: self.dashboard,
            summary_out,
            span_out: self.span_out.clone(),
        }
    }

    /// Starts the telemetry session these flags describe (inert when no
    /// obs flag was given), exiting the process when the metrics address
    /// cannot be bound. Announces the scrape URL on stderr so an
    /// operator can curl it mid-run.
    /// Applies `--log-level` / `--log-json` to the process-wide
    /// structured logger. Idempotent; a no-op when neither flag was
    /// given (so the logger keeps its defaults).
    pub fn apply_log_flags(&self) {
        if let Some(level) = self.log_level {
            log::set_level(level);
        }
        if self.log_json {
            log::set_json_stderr(true);
        }
    }

    #[must_use]
    pub fn obs_or_exit(&self) -> ObsRuntime {
        self.apply_log_flags();
        let opts = self.obs_options();
        if !opts.is_active() {
            return ObsRuntime { session: None };
        }
        match ObsSession::start(&opts) {
            Ok(session) => {
                if let Some(addr) = session.metrics_addr() {
                    eprintln!("metrics: serving Prometheus text on http://{addr}/metrics");
                }
                ObsRuntime {
                    session: Some(session),
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// When `--trace-out FILE` was given, runs one probed worst-case
    /// drain of `scheme` under `cfg` (shrunk to a 2 MB LLC under
    /// `--quick`) and writes its Chrome-trace-event JSON to FILE —
    /// loadable in Perfetto / `chrome://tracing`. A no-op otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error when FILE cannot be written.
    pub fn write_trace_if_requested(
        &self,
        cfg: &SystemConfig,
        scheme: DrainScheme,
    ) -> Result<(), String> {
        let Some(path) = &self.trace_out else {
            return Ok(());
        };
        let cfg = if self.quick {
            SystemConfig::with_llc_bytes(2 << 20)
        } else {
            cfg.clone()
        };
        let spec = JobSpec::drain(
            &cfg,
            scheme,
            FillPattern::StridedSparse { min_stride: 16384 },
        );
        let (result, trace) = spec.execute_traced();
        let json = chrome_trace_json(&trace);
        std::fs::write(path, json.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        let bounding = result
            .drain
            .critical_path
            .as_ref()
            .map_or("unknown", |cp| cp.bounding_resource.as_str());
        eprintln!(
            "trace: {} events from one {} drain -> {} (critical path bounded by {bounding})",
            trace.len(),
            result.drain.scheme,
            path.display()
        );
        Ok(())
    }

    /// [`write_trace_if_requested`](Self::write_trace_if_requested),
    /// exiting the process on I/O failure (for binary `main`s).
    pub fn trace_or_exit(&self, cfg: &SystemConfig, scheme: DrainScheme) {
        if let Err(e) = self.write_trace_if_requested(cfg, scheme) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// Parses the process arguments and exits with usage on error.
    #[must_use]
    pub fn parse_or_exit() -> Self {
        match Self::parse() {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\nusage: {HARNESS_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// [`parse_from_with`](Self::parse_from_with) over the process
    /// arguments, exiting with the combined usage (`extra_usage` then
    /// the shared flags) on error.
    #[must_use]
    pub fn parse_or_exit_with(
        extra_usage: &str,
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Self {
        match Self::parse_from_with(std::env::args().skip(1), extra) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\nusage: {extra_usage} {HARNESS_USAGE}");
                std::process::exit(2);
            }
        }
    }
}

/// One run's telemetry, as requested on the command line: an
/// [`ObsSession`] when any obs flag was given, inert otherwise.
///
/// Lifecycle in a binary's `main`:
///
/// ```no_run
/// # use horus_bench::cli::HarnessArgs;
/// let args = HarnessArgs::parse_or_exit();
/// let obs = args.obs_or_exit();
/// let harness = args.harness_with(&obs);
/// // ... run the sweep ...
/// obs.finish_or_exit(&harness);
/// ```
pub struct ObsRuntime {
    session: Option<ObsSession>,
}

impl ObsRuntime {
    /// True when a telemetry session is running.
    #[must_use]
    pub fn active(&self) -> bool {
        self.session.is_some()
    }

    /// Drains the harness's per-job profiles, writes the summary
    /// artifact, and stops the endpoint/dashboard; exits the process if
    /// the summary cannot be written. A no-op for an inert runtime.
    pub fn finish_or_exit(self, harness: &Harness) {
        let Some(session) = self.session else {
            return;
        };
        match session.finish(harness.take_job_profiles()) {
            Ok(Some(path)) => eprintln!("obs: wrote run summary -> {}", path.display()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--jobs",
            "8",
            "--cache-dir",
            "/tmp/x",
            "--no-cache",
            "--progress",
            "--quick",
        ])
        .expect("valid");
        assert_eq!(a.jobs, Some(8));
        assert_eq!(a.cache_dir, Some(PathBuf::from("/tmp/x")));
        assert!(a.no_cache && a.progress && a.quick);
        assert_eq!(a.harness().jobs(), 8);
    }

    #[test]
    fn service_backend_flags_select_correctly() {
        assert!(parse(&["--service-tenant", "team-a"]).is_err());
        let a =
            parse(&["--service", "127.0.0.1:9900", "--service-tenant", "team-a"]).expect("valid");
        let backend = a.backend().expect("service backend");
        assert_eq!(
            backend.describe(),
            "service at 127.0.0.1:9900 (tenant team-a)"
        );
        assert!(parse(&[]).expect("empty").backend().is_none());
    }

    #[test]
    fn trace_out_parses_and_writes_chrome_json() {
        let a = parse(&["--trace-out", "/tmp/t.json", "--quick"]).expect("valid");
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert!(parse(&["--trace-out"]).is_err());

        let dir = std::env::temp_dir().join("horus-trace-out-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("drain.json");
        let args = HarnessArgs {
            trace_out: Some(path.clone()),
            quick: true,
            ..HarnessArgs::default()
        };
        args.write_trace_if_requested(&SystemConfig::small_test(), DrainScheme::HorusSlm)
            .expect("trace written");
        let json = std::fs::read_to_string(&path).expect("read back");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("pcm-bank"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_trace_out_is_a_no_op() {
        let args = parse(&[]).expect("valid");
        args.write_trace_if_requested(&SystemConfig::small_test(), DrainScheme::NonSecure)
            .expect("no-op");
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(parse(&["--jobs", "0"]).expect("valid").jobs, Some(1));
    }

    #[test]
    fn sim_threads_parses_and_defaults_to_one() {
        let a = parse(&["--sim-threads", "8"]).expect("valid");
        assert_eq!(a.sim_threads, Some(8));
        assert_eq!(a.episode_shards().threads(), 8);
        // Default is the single-thread reference configuration.
        assert_eq!(parse(&[]).expect("valid").episode_shards().threads(), 1);
        // Zero clamps rather than erroring, like --jobs.
        assert_eq!(
            parse(&["--sim-threads", "0"]).expect("valid").sim_threads,
            Some(1)
        );
        assert!(parse(&["--sim-threads"]).is_err());
        assert!(parse(&["--sim-threads", "lots"]).is_err());
    }

    #[test]
    fn rejects_unknown_and_valueless_flags() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn out_is_an_alias_for_trace_out() {
        let a = parse(&["--out", "/tmp/t.json"]).expect("valid");
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn extra_flags_compose_with_the_shared_set() {
        let mut threshold = None;
        let a = HarnessArgs::parse_from_with(
            ["--threshold", "7", "--jobs", "2"]
                .iter()
                .map(|s| (*s).to_owned()),
            |flag, it| match flag {
                "--threshold" => {
                    let v = it.next().ok_or("--threshold requires a value")?;
                    threshold = Some(v.parse::<u32>().map_err(|e| e.to_string())?);
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .expect("valid");
        assert_eq!(threshold, Some(7));
        assert_eq!(a.jobs, Some(2));
    }

    #[test]
    fn extra_handler_can_claim_a_shared_spelling() {
        // A binary that owns `--out` (like bench-gate's snapshot path)
        // sees it before the shared alias does.
        let mut snapshot_out = None;
        let a = HarnessArgs::parse_from_with(
            ["--out", "snap.json", "--trace-out", "t.json"]
                .iter()
                .map(|s| (*s).to_owned()),
            |flag, it| match flag {
                "--out" => {
                    snapshot_out = it.next();
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .expect("valid");
        assert_eq!(snapshot_out.as_deref(), Some("snap.json"));
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn extra_handler_errors_propagate() {
        let r = HarnessArgs::parse_from_with(
            ["--threshold"].iter().map(|s| (*s).to_owned()),
            |flag, it| match flag {
                "--threshold" => {
                    it.next().ok_or("--threshold requires a value")?;
                    Ok(true)
                }
                _ => Ok(false),
            },
        );
        assert_eq!(r.unwrap_err(), "--threshold requires a value");
    }

    #[test]
    fn defaults_are_cache_on_silent() {
        let a = parse(&[]).expect("valid");
        assert!(!a.no_cache && !a.progress && !a.quick);
        let h = a.harness();
        assert!(h.cache().is_some());
        assert!(h.jobs() >= 1);
    }

    #[test]
    fn service_flag_parses_and_attaches_the_backend() {
        let a = parse(&["--service", "127.0.0.1:9900"]).expect("valid");
        assert_eq!(a.service.as_deref(), Some("127.0.0.1:9900"));
        assert!(parse(&["--service"]).is_err());
        // The backend is attached but untouched until a sweep runs, so
        // building the harness needs no live daemon.
        let h = a.harness();
        assert!(format!("{h:?}").contains("service at 127.0.0.1:9900"));
        assert!(parse(&[]).expect("valid").service.is_none());
        assert!(
            parse(&["--fleet", "127.0.0.1:9470"]).is_err(),
            "unknown flag"
        );
    }

    #[test]
    fn obs_flags_parse() {
        let a = parse(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--dashboard",
            "--obs-out",
            "/tmp/summary.json",
        ])
        .expect("valid");
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(a.dashboard);
        assert_eq!(a.obs_out, Some(PathBuf::from("/tmp/summary.json")));
        assert!(parse(&["--metrics-addr"]).is_err());
        assert!(parse(&["--obs-out"]).is_err());
    }

    #[test]
    fn span_and_log_flags_parse() {
        let a = parse(&[
            "--span-out",
            "/tmp/spans.json",
            "--log-level",
            "warn",
            "--log-json",
        ])
        .expect("valid");
        assert_eq!(a.span_out, Some(PathBuf::from("/tmp/spans.json")));
        assert_eq!(a.log_level, Some(log::Level::Warn));
        assert!(a.log_json);
        // --span-out alone activates the obs session (so the book gets
        // created and drained even with no other telemetry flag).
        assert!(a.obs_options().is_active());
        assert!(parse(&["--span-out"]).is_err());
        assert!(parse(&["--log-level"]).is_err());
        assert!(parse(&["--log-level", "loud"]).is_err());
    }

    #[test]
    fn span_out_threads_a_book_into_local_sweeps() {
        let dir = std::env::temp_dir().join(format!("horus-cli-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = dir.join("spans.json");
        let a = parse(&[
            "--span-out",
            out.to_str().expect("utf8 temp path"),
            "--no-cache",
            "--jobs",
            "2",
            "--quick",
        ])
        .expect("valid");
        let obs = a.obs_or_exit();
        assert!(obs.active());
        let h = a.harness_with(&obs);
        let cfg = SystemConfig::small_test();
        let specs = vec![JobSpec::drain(
            &cfg,
            DrainScheme::NonSecure,
            FillPattern::StridedSparse { min_stride: 16384 },
        )];
        let report = h.run(&specs);
        assert_eq!(report.executed, 1);
        obs.finish_or_exit(&h);
        let json = std::fs::read_to_string(&out).expect("span trace written");
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"queued\""), "{json}");
        assert!(json.contains("\"name\":\"committed\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_obs_flags_mean_an_inert_runtime_and_no_metrics() {
        let a = parse(&[]).expect("valid");
        assert!(!a.obs_options().is_active());
        let obs = a.obs_or_exit();
        assert!(!obs.active());
        let h = a.harness_with(&obs);
        assert!(h.metrics().is_none());
        obs.finish_or_exit(&h); // no-op, no file written
    }

    #[test]
    fn obs_summary_path_defaults_when_telemetry_is_on() {
        let a = parse(&["--metrics-addr", "127.0.0.1:0"]).expect("valid");
        let opts = a.obs_options();
        assert_eq!(opts.summary_out, Some(PathBuf::from("obs-summary.json")));
        // An explicit --obs-out wins.
        let a = parse(&["--obs-out", "/tmp/s.json"]).expect("valid");
        assert_eq!(
            a.obs_options().summary_out,
            Some(PathBuf::from("/tmp/s.json"))
        );
    }

    #[test]
    fn obs_session_attaches_a_registry_to_the_harness() {
        let dir = std::env::temp_dir().join(format!("horus-cli-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = dir.join("summary.json");
        let a = parse(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--obs-out",
            out.to_str().expect("utf8 temp path"),
            "--no-cache",
            "--jobs",
            "1",
        ])
        .expect("valid");
        let obs = a.obs_or_exit();
        assert!(obs.active());
        let h = a.harness_with(&obs);
        assert!(h.metrics().is_some());
        h.run_tasks(1, |_| 7u32);
        obs.finish_or_exit(&h);
        let json = std::fs::read_to_string(&out).expect("summary written");
        assert!(
            json.contains("horus_harness_jobs_completed_total"),
            "{json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
