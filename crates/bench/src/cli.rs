//! Shared command-line plumbing for the `horus-cli` subcommands that
//! run a harness: `sweep`, `repro`, `bench-gate` and `crash-sweep`.
//!
//! They share one set of orchestration flags:
//!
//! ```text
//! --jobs N          worker threads (default: available parallelism)
//! --cache-dir DIR   result-cache directory (default: target/horus-cache)
//! --no-cache        bypass the result cache (always re-simulate)
//! --quick           shrink the sweeps (`repro`, `crash-sweep`)
//! --metrics-addr A  serve live Prometheus text on A (e.g. 127.0.0.1:9464)
//! --run-dir DIR     write the run's artifacts into DIR (below)
//! --service ADDR    submit sweeps to the `horus-cli serve` daemon at ADDR
//!                   instead of the local pool (output stays byte-identical)
//! --service-tenant NAME  submit under tenant NAME (with --service)
//! --log-level LVL   structured-log threshold: debug|info|warn|error
//! ```
//!
//! `--run-dir DIR` is the one artifact flag ([`horus_obs::rundir`]):
//! `summary.json` (the end-of-run obs summary), `spans.json` (per-job
//! lifecycle spans, queued → leased → executing → pushed → committed),
//! `logs.ndjson` (every accepted structured-log record),
//! `progress.ndjson` (the harness's progress events) and
//! `drain-trace.json` (`repro` only: a Chrome trace of one probed
//! drain, shrunk to a 2 MB LLC under `--quick`). A file appears only
//! when its signal was produced.
//!
//! `--metrics-addr` and `--run-dir` drive an [`ObsRuntime`]: build it
//! once with [`HarnessArgs::obs_or_exit`], construct the harness through
//! [`HarnessArgs::harness_with`] so sweep metrics, spans and progress
//! land in the session, and call [`ObsRuntime::finish_or_exit`] after
//! the run to drain per-job profiles and write the run directory. With
//! neither flag given the runtime is inert, nothing is written, and the
//! command's outputs are byte-identical to the uninstrumented ones;
//! with them, stdout is still byte-identical.
//!
//! A command with flags of its own composes them onto the shared set
//! via [`HarnessArgs::parse_from_with`] — its handler sees every flag
//! first, so it may claim a shared spelling for itself without forking
//! the parser. A command that does not read some shared flags refuses
//! them by name through [`HarnessArgs::parse_refusing`] instead of
//! parsing and ignoring them.

use horus_core::{DrainScheme, SystemConfig};
use horus_harness::{Harness, HarnessOptions, JobSpec, ProgressMode, SweepBackend};
use horus_obs::{log, rundir, ObsOptions, ObsSession};
use horus_service::ServiceBackend;
use horus_sim::chrome_trace_json;
use horus_workload::FillPattern;
use std::path::PathBuf;
use std::sync::Arc;

/// The harness-related flags shared by every harness-running command.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--cache-dir DIR`.
    pub cache_dir: Option<PathBuf>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--metrics-addr ADDR`.
    pub metrics_addr: Option<String>,
    /// `--run-dir DIR`.
    pub run_dir: Option<PathBuf>,
    /// `--service ADDR`.
    pub service: Option<String>,
    /// `--service-tenant NAME`.
    pub service_tenant: Option<String>,
    /// `--log-level LVL`.
    pub log_level: Option<log::Level>,
}

/// The usage string fragment for the shared flags.
pub const HARNESS_USAGE: &str = "[--jobs N] [--cache-dir DIR] [--no-cache] [--quick] \
     [--metrics-addr ADDR] [--run-dir DIR] [--service ADDR] [--service-tenant NAME] \
     [--log-level LVL]";

impl HarnessArgs {
    /// Parses an argument iterator; unknown flags are an error.
    pub fn parse_from(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        Self::parse_from_with(argv, |_, _| Ok(false))
    }

    /// [`parse_from`](Self::parse_from) with command-specific flags
    /// composed in. `extra` is offered every flag *before* the shared
    /// parser; it returns `Ok(true)` after consuming one (pulling any
    /// value from the iterator itself), `Ok(false)` to pass it through
    /// to the shared set, or `Err` to reject it or its value. Because
    /// `extra` runs first, a command may claim a shared spelling for
    /// itself.
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
                "--quick" => args.quick = true,
                "--metrics-addr" => {
                    let v = it.next().ok_or("--metrics-addr requires a value")?;
                    args.metrics_addr = Some(v);
                }
                "--run-dir" => {
                    let v = it.next().ok_or("--run-dir requires a value")?;
                    args.run_dir = Some(PathBuf::from(v));
                }
                "--service" => {
                    let v = it.next().ok_or("--service requires a value")?;
                    args.service = Some(v);
                }
                "--service-tenant" => {
                    let v = it.next().ok_or("--service-tenant requires a value")?;
                    args.service_tenant = Some(v);
                }
                "--log-level" => {
                    let v = it.next().ok_or("--log-level requires a value")?;
                    args.log_level = Some(
                        log::Level::parse(&v)
                            .ok_or(format!("--log-level {v}: expected debug|info|warn|error"))?,
                    );
                }
                other => return Err(format!("unknown flag '{other}' ({HARNESS_USAGE})")),
            }
        }
        if args.service_tenant.is_some() && args.service.is_none() {
            return Err("--service-tenant requires --service".to_string());
        }
        Ok(args)
    }

    /// [`parse_from_with`](Self::parse_from_with) for a command `cmd`
    /// that reads only part of the shared set: each flag in `unread` is
    /// refused by name (`"{cmd} does not take '{flag}'"`) instead of
    /// being parsed and ignored, and `own` sees every other flag first.
    pub fn parse_refusing(
        argv: impl Iterator<Item = String>,
        cmd: &str,
        unread: &[&str],
        mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        Self::parse_from_with(argv, |flag, it| {
            if unread.contains(&flag) {
                return Err(format!("{cmd} does not take '{flag}'"));
            }
            own(flag, it)
        })
    }

    /// Builds the harness these flags describe, with no telemetry
    /// attached. Commands that honor the obs flags should use
    /// [`Self::harness_with`] instead.
    #[must_use]
    pub fn harness(&self) -> Harness {
        self.harness_with(&ObsRuntime { session: None })
    }

    /// Builds the harness with `obs`'s registry attached (when a session
    /// is running), so sweep metrics stream to the scrape endpoint and
    /// the run summary; with a run directory, spans and progress events
    /// go there too.
    #[must_use]
    pub fn harness_with(&self, obs: &ObsRuntime) -> Harness {
        let session = obs.session.as_ref();
        Harness::new(HarnessOptions {
            jobs: self.jobs,
            cache_dir: self.cache_dir.clone(),
            no_cache: self.no_cache,
            progress: session
                .and_then(ObsSession::progress_file)
                .map_or(ProgressMode::Silent, ProgressMode::Ndjson),
            metrics: session.map(ObsSession::registry),
            backend: self.backend(),
            spans: session.and_then(ObsSession::span_book),
        })
    }

    /// The remote execution backend these flags select: a
    /// `horus-cli serve` daemon (`--service`, optionally submitting as
    /// `--service-tenant`), or none — the local pool. The backend keeps
    /// the harness's determinism contract, so a command's output is
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

    /// The [`ObsOptions`] these flags describe.
    #[must_use]
    pub fn obs_options(&self) -> ObsOptions {
        ObsOptions {
            metrics_addr: self.metrics_addr.clone(),
            run_dir: self.run_dir.clone(),
        }
    }

    /// Applies `--log-level` to the process-wide structured logger,
    /// then starts the telemetry session these flags describe (inert
    /// when neither `--metrics-addr` nor `--run-dir` was given), exiting
    /// the process when the metrics address cannot be bound or the run
    /// directory created. Announces the scrape URL on stderr so an
    /// operator can curl it mid-run.
    #[must_use]
    pub fn obs_or_exit(&self) -> ObsRuntime {
        if let Some(level) = self.log_level {
            log::set_level(level);
        }
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

    /// With `--run-dir DIR`, runs one probed worst-case drain of
    /// `scheme` under `cfg` (shrunk to a 2 MB LLC under `--quick`) and
    /// writes its Chrome-trace-event JSON to `DIR/drain-trace.json` —
    /// loadable in Perfetto / `chrome://tracing`. A no-op otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write_trace_if_requested(
        &self,
        cfg: &SystemConfig,
        scheme: DrainScheme,
    ) -> Result<(), String> {
        let Some(dir) = &self.run_dir else {
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
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(rundir::DRAIN_TRACE);
        std::fs::write(&path, json.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
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
}

/// One run's telemetry, as requested on the command line: an
/// [`ObsSession`] when `--metrics-addr` or `--run-dir` was given, inert
/// otherwise.
///
/// Lifecycle in a command:
///
/// ```no_run
/// # use horus_bench::cli::HarnessArgs;
/// let args = HarnessArgs::parse_from(std::env::args().skip(2)).expect("flags");
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

    /// Drains the harness's per-job profiles, writes the run directory,
    /// and stops the endpoint; exits the process if an artifact cannot
    /// be written. A no-op for an inert runtime.
    pub fn finish_or_exit(self, harness: &Harness) {
        let Some(session) = self.session else {
            return;
        };
        match session.finish(harness.take_job_profiles()) {
            Ok(Some(dir)) => eprintln!("obs: wrote run artifacts -> {}", dir.display()),
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

    /// A fresh, empty run directory under the system temp dir.
    fn temp_run_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("horus-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--jobs",
            "8",
            "--cache-dir",
            "/tmp/x",
            "--no-cache",
            "--quick",
        ])
        .expect("valid");
        assert_eq!(a.jobs, Some(8));
        assert_eq!(a.cache_dir, Some(PathBuf::from("/tmp/x")));
        assert!(a.no_cache && a.quick);
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
    fn run_dir_parses_and_writes_the_drain_trace() {
        let a = parse(&["--run-dir", "/tmp/run", "--quick"]).expect("valid");
        assert_eq!(a.run_dir, Some(PathBuf::from("/tmp/run")));
        assert!(parse(&["--run-dir"]).is_err());

        let dir = temp_run_dir("trace");
        let args = HarnessArgs {
            run_dir: Some(dir.clone()),
            quick: true,
            ..HarnessArgs::default()
        };
        args.write_trace_if_requested(&SystemConfig::small_test(), DrainScheme::HorusSlm)
            .expect("trace written");
        let json = std::fs::read_to_string(dir.join(rundir::DRAIN_TRACE)).expect("read back");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("pcm-bank"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_run_dir_is_a_no_op() {
        let args = parse(&[]).expect("valid");
        args.write_trace_if_requested(&SystemConfig::small_test(), DrainScheme::NonSecure)
            .expect("no-op");
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(parse(&["--jobs", "0"]).expect("valid").jobs, Some(1));
    }

    #[test]
    fn sim_threads_is_rejected() {
        // Episodes run on the one harness pool, sized by `--jobs`.
        for argv in [&["--sim-threads", "2"][..], &["--sim-threads"]] {
            let err = parse(argv).expect_err("removed flag");
            assert!(err.contains("unknown flag '--sim-threads'"), "{err}");
        }
    }

    #[test]
    fn rejects_unknown_and_valueless_flags() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn deleted_output_flags_are_rejected() {
        // The six flags `--run-dir` replaced, plus the `--out` alias.
        for flag in [
            "--obs-out",
            "--span-out",
            "--trace-out",
            "--out",
            "--dashboard",
            "--progress",
            "--log-json",
        ] {
            let err = parse(&[flag, "x.json"]).expect_err(flag);
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
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
        // A command may own a shared spelling (it sees the flag first).
        let mut own_quick = false;
        let a = HarnessArgs::parse_from_with(
            ["--quick", "--jobs", "3"].iter().map(|s| (*s).to_owned()),
            |flag, _| match flag {
                "--quick" => {
                    own_quick = true;
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .expect("valid");
        assert!(own_quick && !a.quick);
        assert_eq!(a.jobs, Some(3));
    }

    #[test]
    fn refused_shared_flags_are_named_and_others_pass_through() {
        const UNREAD: [&str; 4] = ["--cache-dir", "--no-cache", "--service", "--service-tenant"];
        let refuse = |argv: &[&str]| {
            HarnessArgs::parse_refusing(
                argv.iter().map(|s| (*s).to_owned()),
                "crash-sweep",
                &UNREAD,
                |_, _| Ok(false),
            )
        };
        for flag in UNREAD {
            assert_eq!(
                refuse(&[flag, "v"]).unwrap_err(),
                format!("crash-sweep does not take '{flag}'")
            );
        }
        let a = refuse(&["--quick", "--run-dir", "d", "--log-level", "warn"]).expect("valid");
        assert!(a.quick && a.run_dir.is_some() && a.log_level.is_some());
        // The command's own handler still composes.
        let mut json = false;
        let b = HarnessArgs::parse_refusing(
            ["--json", "--jobs", "2"].iter().map(|s| (*s).to_owned()),
            "sweep",
            &["--quick"],
            |flag, _| {
                json |= flag == "--json";
                Ok(flag == "--json")
            },
        )
        .expect("valid");
        assert!(json);
        assert_eq!(b.jobs, Some(2));
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
        assert!(!a.no_cache && !a.quick && a.run_dir.is_none());
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
            "--run-dir",
            "/tmp/run",
            "--log-level",
            "warn",
        ])
        .expect("valid");
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.run_dir, Some(PathBuf::from("/tmp/run")));
        assert_eq!(a.log_level, Some(log::Level::Warn));
        assert!(parse(&["--metrics-addr"]).is_err());
        assert!(parse(&["--log-level"]).is_err());
        assert!(parse(&["--log-level", "loud"]).is_err());
        // --run-dir alone activates the obs session.
        assert!(parse(&["--run-dir", "/tmp/run"])
            .expect("valid")
            .obs_options()
            .is_active());
    }

    /// What a harness command prints for a small Figure 6, and its run
    /// directory's file names, for `argv`.
    fn figure6_run(argv: &[&str]) -> (String, Vec<String>) {
        let a = parse(argv).expect("valid");
        let obs = a.obs_or_exit();
        let h = a.harness_with(&obs);
        let cfg = SystemConfig::small_test();
        let stdout = crate::figures::figure6(&h, &cfg).render();
        a.write_trace_if_requested(&cfg, DrainScheme::HorusSlm)
            .expect("trace written");
        obs.finish_or_exit(&h);
        let mut files: Vec<String> = a
            .run_dir
            .iter()
            .flat_map(|dir| std::fs::read_dir(dir).expect("run dir"))
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        (stdout, files)
    }

    #[test]
    fn run_dir_sweep_leaves_its_artifacts_and_the_same_report() {
        let dir = temp_run_dir("sweep");
        let dir_arg = dir.to_str().expect("utf8 temp path");
        let (plain, none) = figure6_run(&["--no-cache", "--jobs", "2"]);
        assert!(none.is_empty());
        let (observed, files) = figure6_run(&["--no-cache", "--jobs", "2", "--run-dir", dir_arg]);
        assert_eq!(observed, plain, "stdout is byte-identical with --run-dir");
        for name in [
            rundir::SUMMARY,
            rundir::SPANS,
            rundir::PROGRESS,
            rundir::DRAIN_TRACE,
        ] {
            assert!(files.iter().any(|f| f == name), "{name} missing: {files:?}");
        }
        let spans = std::fs::read_to_string(dir.join(rundir::SPANS)).expect("spans");
        assert!(spans.starts_with("{\"traceEvents\":["), "{spans}");
        assert!(spans.contains("\"name\":\"committed\""), "{spans}");
        let progress = std::fs::read_to_string(dir.join(rundir::PROGRESS)).expect("progress");
        let lines: Vec<&str> = progress.lines().collect();
        assert!(
            lines[0].starts_with("{\"event\":\"sweep_start\""),
            "{progress}"
        );
        assert!(
            lines[lines.len() - 1].starts_with("{\"event\":\"sweep_end\""),
            "{progress}"
        );
        for (seq, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!(",\"seq\":{seq},")), "{line}");
        }
        let summary = std::fs::read_to_string(dir.join(rundir::SUMMARY)).expect("summary");
        assert!(summary.contains("\"format_version\": 1"), "{summary}");
        assert!(summary.contains("horus_harness_jobs_completed_total"));
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
    fn metrics_addr_alone_writes_no_file() {
        let a = parse(&["--metrics-addr", "127.0.0.1:0"]).expect("valid");
        let opts = a.obs_options();
        assert!(opts.is_active() && opts.run_dir.is_none());
        let session = ObsSession::start(&opts).expect("bind");
        assert!(session.span_book().is_none() && session.progress_file().is_none());
        assert_eq!(session.finish(Vec::new()).expect("finish"), None);
    }

    #[test]
    fn obs_session_attaches_a_registry_to_the_harness() {
        let dir = temp_run_dir("obs");
        let a = parse(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--run-dir",
            dir.to_str().expect("utf8 temp path"),
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
        let json = std::fs::read_to_string(dir.join(rundir::SUMMARY)).expect("summary written");
        assert!(
            json.contains("horus_harness_jobs_completed_total"),
            "{json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
