//! # horus-obs: fleet-level telemetry for the Horus reproduction
//!
//! PR 2's probe layer answers "what happened *inside* one drain episode";
//! this crate answers "what is the *fleet* doing right now" while the
//! harness chews through hundreds of memoized sweep jobs. It provides:
//!
//! * [`registry`] — a sharded metrics registry handing out lock-free atomic
//!   [`Counter`]/[`Gauge`]/[`FloatCounter`]/[`FloatGauge`]/[`TimeHistogram`]
//!   handles with static label sets and deterministic snapshots.
//! * [`expo`] — Prometheus/OpenMetrics text rendering plus the name-based
//!   determinism rule golden tests rely on.
//! * [`http`] — a zero-dependency blocking scrape endpoint
//!   (`GET /metrics`), behind the `--metrics-addr` flag on the sweep
//!   binaries and the listener `horus-cli serve` mounts its API on.
//! * [`profile`] — per-job and whole-process host profiles (wall vs CPU
//!   time via `/proc` with a portable fallback, peak RSS, and a counting
//!   global allocator behind the `alloc-profile` feature).
//! * [`bridge`] — read-only mirroring of `horus_sim::Stats` counters into
//!   the registry, guaranteed not to perturb serialized `StatsRepr`.
//! * [`rundir`] — the `--run-dir DIR` layout: the artifact file names
//!   and the lazily created NDJSON streams.
//! * [`summary`] — the deterministic end-of-run `summary.json` artifact
//!   that CI uploads and `horus-cli bench-gate` folds into its baseline.
//! * [`span`] — per-job lifecycle spans
//!   (queued → leased → executing → pushed → committed) assembled into a
//!   cross-host Chrome-trace timeline (`spans.json`).
//! * [`log`] — leveled structured line-delimited-JSON logging with an
//!   in-memory ring served at `GET /logs` (`--log-level`), copied to
//!   `logs.ndjson` in the run directory.
//! * [`insight`] — the offline cross-signal analyzer behind
//!   `horus-cli insight DIR`: joins a run directory's summary, span, and
//!   log artifacts by trace id into one `insight.json` + human report.
//!
//! Everything is observe-only: with no `--metrics-addr`/`--run-dir` flag
//! and `alloc-profile` off, instrumented binaries produce byte-identical
//! outputs to uninstrumented ones and write no file.

#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-profile", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod bridge;
pub mod expo;
pub mod http;
pub mod insight;
pub mod log;
pub mod names;
pub mod profile;
pub mod registry;
pub mod rundir;
pub mod span;
pub mod summary;

pub use http::{HttpRequest, HttpResponse, MetricsServer, Router};
pub use profile::{HostProfile, JobProfile, JobProfiler};
pub use registry::{
    Counter, FloatCounter, FloatGauge, Gauge, MetricKind, Registry, Sample, SampleValue, Snapshot,
    TimeHistogram,
};
pub use span::{JobSpan, SpanBook, Stage};
pub use summary::ObsSummary;

pub use rundir::NdjsonFile;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What a caller wants observed; parsed from `--metrics-addr` and
/// `--run-dir`.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Address to serve `GET /metrics` on (e.g. `127.0.0.1:9464`).
    pub metrics_addr: Option<String>,
    /// Directory the run's artifacts go to (see [`rundir`]).
    pub run_dir: Option<PathBuf>,
}

impl ObsOptions {
    /// True if any observation output was requested.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.metrics_addr.is_some() || self.run_dir.is_some()
    }
}

/// The run directory's live pieces: the span book and progress stream
/// handed to the harness or service, and where they end up.
struct RunOutputs {
    dir: PathBuf,
    spans: Arc<SpanBook>,
    progress: Arc<NdjsonFile>,
}

/// One run's worth of telemetry: a registry plus the requested outputs.
///
/// Construct with [`ObsSession::start`], hand
/// [`ObsSession::registry`] (and, with a run directory,
/// [`ObsSession::span_book`] and [`ObsSession::progress_file`]) to the
/// harness, and call [`ObsSession::finish`] when the run is done to
/// stop the endpoint and write the run directory.
pub struct ObsSession {
    registry: Arc<Registry>,
    server: Option<MetricsServer>,
    run: Option<RunOutputs>,
    started: Instant,
}

impl ObsSession {
    /// Starts serving according to `opts`. With a run directory, creates
    /// it and routes every accepted log record to its [`rundir::LOGS`]
    /// until [`ObsSession::finish`].
    ///
    /// # Errors
    /// Returns a descriptive message if the metrics address cannot be
    /// bound or the run directory cannot be created.
    pub fn start(opts: &ObsOptions) -> Result<ObsSession, String> {
        let registry = Registry::shared();
        let run = match &opts.run_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create run dir {}: {e}", dir.display()))?;
                Some(RunOutputs {
                    dir: dir.clone(),
                    spans: SpanBook::shared(),
                    progress: Arc::new(NdjsonFile::new(dir.join(rundir::PROGRESS))),
                })
            }
            None => None,
        };
        let server = match &opts.metrics_addr {
            Some(addr) => Some(
                MetricsServer::bind(addr, Arc::clone(&registry))
                    .map_err(|e| format!("cannot bind metrics address {addr}: {e}"))?,
            ),
            None => None,
        };
        if let Some(run) = &run {
            log::set_file(Some(Arc::new(NdjsonFile::new(run.dir.join(rundir::LOGS)))));
        }
        Ok(ObsSession {
            registry,
            server,
            run,
            started: Instant::now(),
        })
    }

    /// The registry every layer should record into.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The bound scrape address, when a server is running.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// The span collector, when a run directory will keep the timeline.
    /// Hand it to the harness pool or the experiment service; whatever
    /// gets stamped into it is written at [`ObsSession::finish`].
    #[must_use]
    pub fn span_book(&self) -> Option<Arc<SpanBook>> {
        self.run.as_ref().map(|run| Arc::clone(&run.spans))
    }

    /// The run directory's progress-event stream, for the harness.
    #[must_use]
    pub fn progress_file(&self) -> Option<Arc<NdjsonFile>> {
        self.run.as_ref().map(|run| Arc::clone(&run.progress))
    }

    /// Forwards to [`MetricsServer::set_ready`] when a server is
    /// running (no-op otherwise): what `GET /readyz` answers.
    pub fn set_ready(&self, ready: bool) {
        if let Some(server) = &self.server {
            server.set_ready(ready);
        }
    }

    /// Mounts `router` on the metrics server, in front of the built-in
    /// routes (no-op when no `--metrics-addr` server is running). This
    /// is how `horus-service` shares one listener between `/metrics`
    /// and its `/v1/...` experiment API.
    pub fn install_router(&self, router: Arc<dyn http::Router>) {
        if let Some(server) = &self.server {
            server.set_router(router);
        }
    }

    /// Stops the endpoint and, with a run directory, detaches the log
    /// stream, writes [`rundir::SPANS`] (when a span was stamped) and
    /// [`rundir::SUMMARY`] with the host profile and `jobs`. Returns the
    /// run directory written, if any.
    ///
    /// # Errors
    /// Returns a descriptive message if an artifact cannot be written.
    pub fn finish(self, jobs: Vec<JobProfile>) -> Result<Option<PathBuf>, String> {
        let written = match self.run {
            Some(run) => {
                log::set_file(None);
                let cannot =
                    |path: &std::path::Path, e| format!("cannot write {}: {e}", path.display());
                if !run.spans.is_empty() {
                    let path = run.dir.join(rundir::SPANS);
                    std::fs::write(&path, run.spans.chrome_trace_json())
                        .map_err(|e| cannot(&path, e))?;
                }
                let summary = ObsSummary {
                    host: profile::host_profile(self.started.elapsed().as_secs_f64()),
                    jobs,
                    registry: self.registry.snapshot(),
                };
                let path = run.dir.join(rundir::SUMMARY);
                summary.write(&path).map_err(|e| cannot(&path, e))?;
                Some(run.dir)
            }
            None => None,
        };
        if let Some(server) = self.server {
            server.shutdown();
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_serves_and_writes_summary() {
        let dir = std::env::temp_dir().join(format!("horus-obs-test-{}", std::process::id()));
        let opts = ObsOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            run_dir: Some(dir.clone()),
        };
        let session = ObsSession::start(&opts).expect("start");
        assert!(dir.is_dir(), "the run dir exists from the start");
        session
            .registry()
            .counter(names::JOBS_COMPLETED, "h", &[])
            .add(2);
        let addr = session.metrics_addr().expect("addr");
        let (status, body) = http::http_get(addr, "/metrics").expect("scrape");
        assert!(status.contains("200"));
        assert!(body.contains("horus_harness_jobs_completed_total 2"));
        let written = session.finish(Vec::new()).expect("finish");
        assert_eq!(written.as_deref(), Some(dir.as_path()));
        let json = std::fs::read_to_string(dir.join(rundir::SUMMARY)).expect("read");
        assert!(json.contains("horus_harness_jobs_completed_total"));
        assert!(!dir.join(rundir::SPANS).exists(), "no span, no spans.json");
        assert!(
            !dir.join(rundir::PROGRESS).exists(),
            "no event, no progress.ndjson"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inactive_options() {
        assert!(!ObsOptions::default().is_active());
        assert!(ObsOptions {
            run_dir: Some(PathBuf::from("run")),
            ..ObsOptions::default()
        }
        .is_active());
    }
}
