//! # horus-obs: fleet-level telemetry for the Horus reproduction
//!
//! PR 2's probe layer answers "what happened *inside* one drain episode";
//! this crate answers "what is the *fleet* doing right now" while the
//! harness chews through hundreds of memoized sweep jobs. It provides:
//!
//! * [`registry`] — a sharded metrics registry handing out lock-free atomic
//!   [`Counter`]/[`Gauge`]/[`FloatCounter`]/[`FloatGauge`]/[`ObsHistogram`]
//!   handles with static label sets and deterministic snapshots.
//! * [`expo`] — Prometheus/OpenMetrics text rendering plus the name-based
//!   determinism rule golden tests rely on.
//! * [`http`] — a zero-dependency blocking scrape endpoint
//!   (`GET /metrics`), used by `horus-cli serve-metrics` and the
//!   `--metrics-addr` flag on the sweep binaries.
//! * [`dashboard`] — a live TTY panel fed from registry snapshots,
//!   degrading to the JSON-lines progress stream off-TTY.
//! * [`profile`] — per-job and whole-process host profiles (wall vs CPU
//!   time via `/proc` with a portable fallback, peak RSS, and a counting
//!   global allocator behind the `alloc-profile` feature).
//! * [`bridge`] — read-only mirroring of `horus_sim::Stats` counters into
//!   the registry, guaranteed not to perturb serialized `StatsRepr`.
//! * [`summary`] — the deterministic end-of-run `obs-summary.json`
//!   artifact that CI uploads and `bench-gate` folds into its baseline.
//! * [`span`] — per-job lifecycle spans
//!   (queued → leased → executing → pushed → committed) assembled into a
//!   cross-host Chrome-trace timeline (`--span-out`).
//! * [`log`] — leveled structured line-delimited-JSON logging with an
//!   in-memory ring served at `GET /logs` (`--log-level`, `--log-json`).
//! * [`insight`] — the offline cross-signal analyzer behind
//!   `horus-cli insight`: joins summary, span, and log artifacts by
//!   trace id into one `insight.json` + human report.
//!
//! Everything is observe-only: with no `--metrics-addr`/`--dashboard` flag
//! and `alloc-profile` off, instrumented binaries produce byte-identical
//! outputs to uninstrumented ones.

#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-profile", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod bridge;
pub mod dashboard;
pub mod expo;
pub mod http;
pub mod insight;
pub mod log;
pub mod names;
pub mod profile;
pub mod registry;
pub mod span;
pub mod summary;

pub use dashboard::Dashboard;
pub use http::{HttpRequest, HttpResponse, MetricsServer, Router};
pub use profile::{HostProfile, JobProfile, JobProfiler};
pub use registry::{
    Counter, FloatCounter, FloatGauge, Gauge, MetricKind, ObsHistogram, Registry, Sample,
    SampleValue, Snapshot, TimeHistogram,
};
pub use span::{JobSpan, SpanBook, Stage};
pub use summary::ObsSummary;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What a caller wants observed; parsed from `--metrics-addr`,
/// `--dashboard`, `--obs-out`, and `--span-out`.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Address to serve `GET /metrics` on (e.g. `127.0.0.1:9464`).
    pub metrics_addr: Option<String>,
    /// Render the live TTY dashboard (falls back to line progress
    /// off-TTY).
    pub dashboard: bool,
    /// Where to write the end-of-run summary artifact.
    pub summary_out: Option<PathBuf>,
    /// Where to write the end-of-run Chrome-trace span timeline.
    pub span_out: Option<PathBuf>,
}

impl ObsOptions {
    /// True if any observation output was requested.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.metrics_addr.is_some()
            || self.dashboard
            || self.summary_out.is_some()
            || self.span_out.is_some()
    }
}

/// One run's worth of telemetry: a registry plus the requested outputs.
///
/// Construct with [`ObsSession::start`], hand
/// [`ObsSession::registry`] to the harness, and call
/// [`ObsSession::finish`] when the run is done to stop the endpoint /
/// dashboard and write the summary artifact.
pub struct ObsSession {
    registry: Arc<Registry>,
    server: Option<MetricsServer>,
    dashboard: Option<Dashboard>,
    summary_out: Option<PathBuf>,
    spans: Option<Arc<SpanBook>>,
    span_out: Option<PathBuf>,
    started: Instant,
}

impl ObsSession {
    /// Starts serving/rendering according to `opts`.
    ///
    /// # Errors
    /// Returns a descriptive message if the metrics address cannot be
    /// bound.
    pub fn start(opts: &ObsOptions) -> Result<ObsSession, String> {
        let registry = Registry::shared();
        let server = match &opts.metrics_addr {
            Some(addr) => Some(
                MetricsServer::bind(addr, Arc::clone(&registry))
                    .map_err(|e| format!("cannot bind metrics address {addr}: {e}"))?,
            ),
            None => None,
        };
        let dashboard = if opts.dashboard {
            Dashboard::start(Arc::clone(&registry))
        } else {
            None
        };
        let spans = opts.span_out.as_ref().map(|_| SpanBook::shared());
        Ok(ObsSession {
            registry,
            server,
            dashboard,
            summary_out: opts.summary_out.clone(),
            spans,
            span_out: opts.span_out.clone(),
            started: Instant::now(),
        })
    }

    /// The registry every layer should record into.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// True if the live dashboard is actually rendering (requested *and*
    /// stderr is a TTY).
    #[must_use]
    pub fn dashboard_active(&self) -> bool {
        self.dashboard.is_some()
    }

    /// The bound scrape address, when a server is running.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// The span collector, when `--span-out` asked for a timeline.
    /// Hand it to the harness pool or the experiment service; whatever
    /// gets stamped into it is written at [`ObsSession::finish`].
    #[must_use]
    pub fn span_book(&self) -> Option<Arc<SpanBook>> {
        self.spans.as_ref().map(Arc::clone)
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

    /// Stops the dashboard and endpoint, captures the host profile, and
    /// writes the summary and span-timeline artifacts if requested.
    /// Returns the summary path written, if any.
    ///
    /// # Errors
    /// Returns a descriptive message if an artifact cannot be written.
    pub fn finish(self, jobs: Vec<JobProfile>) -> Result<Option<PathBuf>, String> {
        if let Some(dash) = self.dashboard {
            dash.stop();
        }
        if let (Some(path), Some(book)) = (&self.span_out, &self.spans) {
            std::fs::write(path, book.chrome_trace_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        let written = match &self.summary_out {
            Some(path) => {
                let summary = ObsSummary {
                    host: profile::host_profile(self.started.elapsed().as_secs_f64()),
                    jobs,
                    registry: self.registry.snapshot(),
                };
                summary
                    .write(path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                Some(path.clone())
            }
            None => None,
        };
        if let Some(server) = self.server {
            server.shutdown();
        }
        Ok(written)
    }
}

/// Convenience wrapper: capture a [`HostProfile`] for a run that started
/// at `started`.
#[must_use]
pub fn host_profile_since(started: Instant) -> HostProfile {
    profile::host_profile(started.elapsed().as_secs_f64())
}

/// Re-exported summary writer location helper: the default artifact name.
#[must_use]
pub fn default_summary_path(dir: &Path) -> PathBuf {
    dir.join("obs-summary.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_serves_and_writes_summary() {
        let dir = std::env::temp_dir().join(format!("horus-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = dir.join("obs-summary.json");
        let opts = ObsOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            summary_out: Some(out.clone()),
            ..ObsOptions::default()
        };
        let session = ObsSession::start(&opts).expect("start");
        session
            .registry()
            .counter(names::JOBS_COMPLETED, "h", &[])
            .add(2);
        let addr = session.metrics_addr().expect("addr");
        let (status, body) = http::http_get(addr, "/metrics").expect("scrape");
        assert!(status.contains("200"));
        assert!(body.contains("horus_harness_jobs_completed_total 2"));
        let written = session.finish(Vec::new()).expect("finish");
        assert_eq!(written.as_deref(), Some(out.as_path()));
        let json = std::fs::read_to_string(&out).expect("read");
        assert!(json.contains("horus_harness_jobs_completed_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inactive_options() {
        assert!(!ObsOptions::default().is_active());
        assert!(ObsOptions {
            dashboard: true,
            ..ObsOptions::default()
        }
        .is_active());
    }
}
