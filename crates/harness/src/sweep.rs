//! The harness front end: memoized, parallel sweep execution.

use crate::cache::ResultCache;
use crate::job::{JobResult, JobSpec};
use crate::metrics::SweepMetrics;
use crate::pool::run_indexed_workers;
use crate::progress::{Progress, ProgressEvent, ProgressMode};
use horus_obs::profile::{JobProfile, JobProfiler};
use horus_obs::span::{SpanBook, Stage};
use horus_obs::Registry;
use horus_sim::Stats;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A remote executor for whole sweeps.
///
/// When a backend is attached (via [`HarnessOptions::backend`]),
/// [`Harness::run`] hands the complete spec list to it instead of the
/// local worker pool; the backend must return one [`JobOutcome`] per
/// spec *in submission order*. The determinism contract carries over
/// unchanged: a correct backend produces outcomes byte-identical to a
/// local run of the same specs, so callers cannot tell (from the
/// report) where the simulations happened.
///
/// `horus-service` provides `ServiceBackend`, which submits to a running
/// `horus-cli serve` daemon; the trait lives here so the harness does
/// not depend on it.
pub trait SweepBackend: Send + Sync {
    /// Executes `specs` remotely, returning one outcome per spec in
    /// submission order. `trace` is a correlation id the backend may
    /// attach to its own telemetry (spans, logs, wire frames); it must
    /// never change outcomes.
    ///
    /// # Errors
    ///
    /// Returns a message describing why the sweep could not be
    /// dispatched (unreachable service, protocol error). The
    /// harness converts a backend error into one `Panicked` outcome
    /// per job so reports keep their shape.
    fn run_specs(&self, specs: &[JobSpec], trace: Option<&str>) -> Result<Vec<JobOutcome>, String>;

    /// Human-readable destination, for logs.
    fn describe(&self) -> String {
        "remote backend".to_owned()
    }
}

/// How a sweep should execute.
#[derive(Clone, Default)]
pub struct HarnessOptions {
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    /// `Some(0)` declares that the process hosts no local pool:
    /// [`Harness::jobs`] reports 0, which a daemon hosting the harness
    /// (the `horus-service` runners) reads as "leave execution to
    /// remote workers". Direct runs still execute, on one thread.
    pub jobs: Option<usize>,
    /// Result-cache directory; `None` uses
    /// [`crate::cache::DEFAULT_CACHE_DIR`].
    pub cache_dir: Option<PathBuf>,
    /// Disables the result cache entirely (always re-execute).
    pub no_cache: bool,
    /// Progress-event output mode.
    pub progress: ProgressMode,
    /// Metrics registry to record fleet telemetry into; `None` (the
    /// default) records nothing and leaves the sweep path untouched.
    pub metrics: Option<Arc<Registry>>,
    /// Remote sweep executor. When set, [`Harness::run`] dispatches
    /// specs through it instead of the local pool (the local result
    /// cache is not consulted — the backend owns memoization). The one
    /// implementation is `horus_service::ServiceBackend`, which
    /// submits each sweep as a plan to a `horus-cli serve` daemon.
    pub backend: Option<Arc<dyn SweepBackend>>,
    /// Span collector for per-job lifecycle traces. Local sweeps stamp
    /// all five stages (each `run` call is one plan, workers named
    /// `local-N`); remote sweeps stamp nothing — the service owns the
    /// cross-host timeline. `None` (the default) stamps nothing.
    pub spans: Option<Arc<SpanBook>>,
}

impl std::fmt::Debug for HarnessOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarnessOptions")
            .field("jobs", &self.jobs)
            .field("cache_dir", &self.cache_dir)
            .field("no_cache", &self.no_cache)
            .field("progress", &self.progress)
            .field("metrics", &self.metrics.is_some())
            .field("backend", &self.backend.as_ref().map(|b| b.describe()))
            .field("spans", &self.spans.is_some())
            .finish()
    }
}

/// The orchestrator: owns the worker count, the result cache, and the
/// progress sink. Cheap to build; every [`Harness::run`] call is an
/// independent sweep.
pub struct Harness {
    jobs: usize,
    cache: Option<ResultCache>,
    progress: ProgressMode,
    metrics: Option<Arc<Registry>>,
    backend: Option<Arc<dyn SweepBackend>>,
    spans: Option<Arc<SpanBook>>,
    /// Each local `run` call stamps its spans under a fresh plan id.
    span_plan_seq: AtomicU64,
    profiles: Mutex<Vec<JobProfile>>,
    executed_total: AtomicUsize,
    cache_hits_total: AtomicUsize,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .field("progress", &self.progress)
            .field("metrics", &self.metrics.is_some())
            .field("backend", &self.backend.as_ref().map(|b| b.describe()))
            .finish()
    }
}

impl Harness {
    /// Builds a harness from options.
    #[must_use]
    pub fn new(options: HarnessOptions) -> Self {
        let jobs = options.jobs.unwrap_or_else(default_parallelism);
        let cache = if options.no_cache {
            None
        } else {
            Some(match options.cache_dir {
                Some(dir) => ResultCache::new(dir),
                None => ResultCache::default_location(),
            })
        };
        Self {
            jobs,
            cache,
            progress: options.progress,
            metrics: options.metrics,
            backend: options.backend,
            spans: options.spans,
            span_plan_seq: AtomicU64::new(0),
            profiles: Mutex::new(Vec::new()),
            executed_total: AtomicUsize::new(0),
            cache_hits_total: AtomicUsize::new(0),
        }
    }

    /// A harness with `jobs` workers, no result cache, and silent
    /// progress — the configuration tests and doctests want.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self::new(HarnessOptions {
            jobs: Some(jobs),
            no_cache: true,
            ..HarnessOptions::default()
        })
    }

    /// The serial reference configuration: one worker, no cache.
    /// `harness.run(specs)` with any worker count must equal
    /// `Harness::serial().run(specs)` byte for byte.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// Worker-thread count: 0 for a harness built with `jobs: Some(0)`
    /// (see [`HarnessOptions::jobs`]).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Threads a run actually uses: [`Harness::jobs`], at least one.
    fn pool(&self) -> usize {
        self.jobs.max(1)
    }

    /// The result cache, when enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The metrics registry this harness records into, when telemetry is
    /// enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// Drains the per-job host profiles collected so far (empty unless a
    /// metrics registry is attached). Profiles accumulate across sweeps
    /// in completion-record order until drained.
    #[must_use]
    pub fn take_job_profiles(&self) -> Vec<JobProfile> {
        std::mem::take(&mut *self.profiles.lock().expect("profiles poisoned"))
    }

    /// Lifetime accounting across every sweep this harness has run:
    /// `(simulations executed, cache hits)`. A fully memoized session —
    /// the repeat-invocation fast path — shows `executed == 0`.
    #[must_use]
    pub fn totals(&self) -> (usize, usize) {
        (
            self.executed_total.load(Ordering::Relaxed),
            self.cache_hits_total.load(Ordering::Relaxed),
        )
    }

    /// Runs a sweep: every spec becomes one pool task; results are
    /// memoized (when the cache is enabled) and returned in submission
    /// order. With a [`SweepBackend`] attached, the whole spec list is
    /// dispatched remotely instead; outcomes (and therefore the report)
    /// are byte-identical either way.
    #[must_use]
    pub fn run(&self, specs: &[JobSpec]) -> SweepReport {
        self.run_counted(specs, None)
    }

    /// [`Harness::run`] under a caller-supplied correlation trace id:
    /// spans, job profiles, and the remote wire submission all carry
    /// it, so `horus-cli insight` can join this sweep's signals back to
    /// the request (or batch invocation) that caused it. With telemetry
    /// attached (spans or metrics) but no trace given, the harness
    /// mints one per sweep so batch runs self-correlate; with no
    /// telemetry attached the sweep stays completely untraced.
    #[must_use]
    pub fn run_traced(&self, specs: &[JobSpec], trace: Option<&str>) -> SweepReport {
        self.run_counted(specs, trace)
    }

    /// The body of [`Harness::run_traced`].
    fn run_counted(&self, specs: &[JobSpec], trace: Option<&str>) -> SweepReport {
        // Auto-mint a per-sweep trace when telemetry is attached but the
        // caller supplied none, so batch invocations self-correlate.
        // Without telemetry there is nothing to correlate — stay
        // untraced so the observe-only contract holds trivially.
        let minted;
        let trace = match trace {
            Some(t) if !t.is_empty() => Some(t),
            _ if self.spans.is_some() || self.metrics.is_some() => {
                minted = horus_obs::span::mint_trace_id();
                Some(minted.as_str())
            }
            _ => None,
        };
        if let Some(backend) = self.backend.clone() {
            self.run_remote(&*backend, specs, trace)
        } else {
            self.run_local(specs, trace)
        }
    }

    fn run_local(&self, specs: &[JobSpec], trace: Option<&str>) -> SweepReport {
        let progress = Progress::start(self.progress.clone());
        let mut start = ProgressEvent::new("sweep_start", specs.len());
        start.workers = Some(self.pool());
        progress.emit(start);

        let metrics = self
            .metrics
            .as_ref()
            .map(|r| SweepMetrics::new(Arc::clone(r)));
        if let Some(m) = &metrics {
            m.sweep_begin(specs.len(), self.pool().min(specs.len().max(1)));
        }

        let done = AtomicUsize::new(0);
        let cached = AtomicUsize::new(0);
        let panicked = AtomicUsize::new(0);
        // Cumulative simulated work, for live throughput reporting.
        let cum_cycles = AtomicU64::new(0);
        let cum_memory_ops = AtomicU64::new(0);

        // Each run call is one trace plan: every spec is queued up
        // front, then stamped through the remaining stages as the pool
        // picks it up and finishes it.
        let span_plan = self.span_plan_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(book) = &self.spans {
            for (i, spec) in specs.iter().enumerate() {
                book.stamp_traced(
                    span_plan,
                    i as u64,
                    &spec.key(),
                    Stage::Queued,
                    book.now_ms(),
                    None,
                    trace,
                );
            }
        }

        let raw = run_indexed_workers(specs.len(), self.pool(), |worker, i| {
            let spec = &specs[i];
            if let Some(book) = &self.spans {
                let track = format!("local-{worker}");
                let now = book.now_ms();
                book.stamp_traced(
                    span_plan,
                    i as u64,
                    &spec.key(),
                    Stage::Leased,
                    now,
                    Some(&track),
                    trace,
                );
                book.stamp_traced(
                    span_plan,
                    i as u64,
                    &spec.key(),
                    Stage::Executing,
                    book.now_ms(),
                    Some(&track),
                    trace,
                );
            }
            let profiler = metrics.as_ref().map(|m| {
                m.started.inc();
                JobProfiler::start(spec.key(), Some(spec.scheme.name().to_owned()))
                    .with_trace(trace)
            });
            let (result, hit) = match self.cache.as_ref().and_then(|c| c.load(spec)) {
                Some(result) => (result, true),
                None => {
                    let result = spec.execute();
                    if let Some(cache) = &self.cache {
                        cache.store(spec, &result);
                    }
                    (result, false)
                }
            };
            if hit {
                cached.fetch_add(1, Ordering::Relaxed);
            }
            let now_done = done.fetch_add(1, Ordering::Relaxed) + 1;
            let mut event = ProgressEvent::new("job", specs.len());
            event.done = now_done;
            event.cached = cached.load(Ordering::Relaxed);
            event.panicked = panicked.load(Ordering::Relaxed);
            event.eta_s = progress.eta_s(now_done, specs.len());
            event.job = Some(i);
            event.key = Some(spec.key());
            event.scheme = Some(spec.scheme.name().to_owned());
            event.hit = Some(hit);
            event.cycles = Some(result.drain.cycles);
            event.memory_ops = Some(result.memory_ops());
            event.mac_ops = Some(result.drain.mac_ops);
            let total_cycles =
                cum_cycles.fetch_add(result.drain.cycles, Ordering::Relaxed) + result.drain.cycles;
            let total_memory_ops = cum_memory_ops.fetch_add(result.memory_ops(), Ordering::Relaxed)
                + result.memory_ops();
            event.total_cycles = Some(total_cycles);
            event.total_memory_ops = Some(total_memory_ops);
            let elapsed = progress.elapsed_s();
            if elapsed > 0.0 {
                event.cycles_per_s = Some(total_cycles as f64 / elapsed);
                event.memory_ops_per_s = Some(total_memory_ops as f64 / elapsed);
            }
            progress.emit(event);
            if let (Some(m), Some(profiler)) = (&metrics, profiler) {
                m.completed.inc();
                if hit {
                    m.cache_hits.inc();
                }
                m.queue.add(-1);
                m.episodes.inc();
                m.cycles.add(result.drain.cycles);
                m.scheme_ops(
                    spec.scheme.name(),
                    result.memory_ops(),
                    result.drain.mac_ops,
                );
                horus_obs::bridge::mirror_stats(
                    &m.registry,
                    &result.drain.stats,
                    &[("scheme", spec.scheme.name())],
                );
                m.throughput(now_done as u64, total_cycles, total_memory_ops, elapsed);
                let profile = profiler.finish(hit);
                m.worker_busy(worker).add(profile.wall_seconds);
                self.profiles
                    .lock()
                    .expect("profiles poisoned")
                    .push(profile);
            }
            if let Some(book) = &self.spans {
                // The local pool pushes and commits in one motion — the
                // two stamps land on the same instant, so the fleet's
                // push/commit gap reads as zero for local sweeps.
                let now = book.now_ms();
                book.stamp_traced(
                    span_plan,
                    i as u64,
                    &spec.key(),
                    Stage::Pushed,
                    now,
                    None,
                    trace,
                );
                book.stamp_traced(
                    span_plan,
                    i as u64,
                    &spec.key(),
                    Stage::Committed,
                    now,
                    None,
                    trace,
                );
            }
            (result, hit)
        });

        let outcomes: Vec<JobOutcome> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok((result, cached)) => JobOutcome::Completed { result, cached },
                Err(message) => {
                    panicked.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &metrics {
                        m.panicked.inc();
                        m.queue.add(-1);
                    }
                    let mut event = ProgressEvent::new("job_panic", specs.len());
                    event.done = done.fetch_add(1, Ordering::Relaxed) + 1;
                    event.panicked = panicked.load(Ordering::Relaxed);
                    event.job = Some(i);
                    event.key = Some(specs[i].key());
                    event.scheme = Some(specs[i].scheme.name().to_owned());
                    event.message = Some(message.clone());
                    progress.emit(event);
                    JobOutcome::Panicked { message }
                }
            })
            .collect();

        let report = SweepReport {
            cache_hits: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Completed { cached: true, .. }))
                .count(),
            executed: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Completed { cached: false, .. }))
                .count(),
            panicked: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Panicked { .. }))
                .count(),
            elapsed: Duration::from_secs_f64(progress.elapsed_s()),
            outcomes,
        };
        self.executed_total
            .fetch_add(report.executed, Ordering::Relaxed);
        self.cache_hits_total
            .fetch_add(report.cache_hits, Ordering::Relaxed);

        let mut end = ProgressEvent::new("sweep_end", specs.len());
        end.done = specs.len();
        end.cached = report.cache_hits;
        end.panicked = report.panicked;
        progress.emit(end);
        report
    }

    /// The remote path of [`Harness::run`]: dispatch the whole spec
    /// list to the attached [`SweepBackend`] and account the returned
    /// outcomes exactly as the local path would. Per-job progress
    /// events are synthesized after the results arrive (the remote
    /// executor owns live progress); a backend failure becomes one
    /// `Panicked` outcome per job so the report keeps its shape.
    fn run_remote(
        &self,
        backend: &dyn SweepBackend,
        specs: &[JobSpec],
        trace: Option<&str>,
    ) -> SweepReport {
        let progress = Progress::start(self.progress.clone());
        progress.emit(ProgressEvent::new("sweep_start", specs.len()));

        let metrics = self
            .metrics
            .as_ref()
            .map(|r| SweepMetrics::new(Arc::clone(r)));
        if let Some(m) = &metrics {
            m.sweep_begin(specs.len(), 0);
        }

        let outcomes = match backend.run_specs(specs, trace) {
            Ok(outcomes) if outcomes.len() == specs.len() => outcomes,
            Ok(outcomes) => {
                let message = format!(
                    "{}: returned {} outcomes for {} specs",
                    backend.describe(),
                    outcomes.len(),
                    specs.len()
                );
                specs
                    .iter()
                    .map(|_| JobOutcome::Panicked {
                        message: message.clone(),
                    })
                    .collect()
            }
            Err(message) => {
                let message = format!("{}: {message}", backend.describe());
                specs
                    .iter()
                    .map(|_| JobOutcome::Panicked {
                        message: message.clone(),
                    })
                    .collect()
            }
        };

        let mut cached_so_far = 0;
        let mut panicked_so_far = 0;
        for (i, (spec, outcome)) in specs.iter().zip(&outcomes).enumerate() {
            match outcome {
                JobOutcome::Completed { result, cached } => {
                    if *cached {
                        cached_so_far += 1;
                    }
                    let mut event = ProgressEvent::new("job", specs.len());
                    event.done = i + 1;
                    event.cached = cached_so_far;
                    event.panicked = panicked_so_far;
                    event.job = Some(i);
                    event.key = Some(spec.key());
                    event.scheme = Some(spec.scheme.name().to_owned());
                    event.hit = Some(*cached);
                    event.cycles = Some(result.drain.cycles);
                    event.memory_ops = Some(result.memory_ops());
                    event.mac_ops = Some(result.drain.mac_ops);
                    progress.emit(event);
                    if let Some(m) = &metrics {
                        m.started.inc();
                        m.completed.inc();
                        if *cached {
                            m.cache_hits.inc();
                        }
                        m.queue.add(-1);
                        m.episodes.inc();
                        m.cycles.add(result.drain.cycles);
                        m.scheme_ops(
                            spec.scheme.name(),
                            result.memory_ops(),
                            result.drain.mac_ops,
                        );
                        horus_obs::bridge::mirror_stats(
                            &m.registry,
                            &result.drain.stats,
                            &[("scheme", spec.scheme.name())],
                        );
                    }
                }
                JobOutcome::Panicked { message } => {
                    panicked_so_far += 1;
                    let mut event = ProgressEvent::new("job_panic", specs.len());
                    event.done = i + 1;
                    event.cached = cached_so_far;
                    event.panicked = panicked_so_far;
                    event.job = Some(i);
                    event.key = Some(spec.key());
                    event.scheme = Some(spec.scheme.name().to_owned());
                    event.message = Some(message.clone());
                    progress.emit(event);
                    if let Some(m) = &metrics {
                        m.started.inc();
                        m.panicked.inc();
                        m.queue.add(-1);
                    }
                }
            }
        }

        let report = SweepReport {
            cache_hits: cached_so_far,
            executed: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Completed { cached: false, .. }))
                .count(),
            panicked: panicked_so_far,
            elapsed: Duration::from_secs_f64(progress.elapsed_s()),
            outcomes,
        };
        self.executed_total
            .fetch_add(report.executed, Ordering::Relaxed);
        self.cache_hits_total
            .fetch_add(report.cache_hits, Ordering::Relaxed);

        let mut end = ProgressEvent::new("sweep_end", specs.len());
        end.done = specs.len();
        end.cached = report.cache_hits;
        end.panicked = report.panicked;
        progress.emit(end);
        report
    }

    /// Runs `total` arbitrary tasks on this harness's worker pool with
    /// the same panic isolation as [`Harness::run`], but no memoization
    /// — for experiment shapes that are not drain jobs (fault-injection
    /// campaigns, wear sweeps).
    ///
    /// When a metrics registry is attached, tasks still feed the job
    /// lifecycle counters, queue depth, and per-worker busy time; the
    /// simulation-specific families (episodes, cycles, per-scheme ops)
    /// stay untouched because the task payload is opaque here.
    pub fn run_tasks<T, F>(&self, total: usize, task: F) -> Vec<Result<T, String>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let metrics = self
            .metrics
            .as_ref()
            .map(|r| SweepMetrics::new(Arc::clone(r)));
        if let Some(m) = &metrics {
            m.sweep_begin(total, self.pool().min(total.max(1)));
        }
        let out = run_indexed_workers(total, self.pool(), |worker, i| {
            let profiler = metrics.as_ref().map(|m| {
                m.started.inc();
                JobProfiler::start(format!("task-{i}"), None)
            });
            let value = task(i);
            if let (Some(m), Some(profiler)) = (&metrics, profiler) {
                m.completed.inc();
                m.queue.add(-1);
                let profile = profiler.finish(false);
                m.worker_busy(worker).add(profile.wall_seconds);
                self.profiles
                    .lock()
                    .expect("profiles poisoned")
                    .push(profile);
            }
            value
        });
        if let Some(m) = &metrics {
            for r in &out {
                if r.is_err() {
                    m.panicked.inc();
                    m.queue.add(-1);
                }
            }
        }
        out
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new(HarnessOptions::default())
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What happened to one submitted job.
///
/// Nearly every outcome in a sweep is `Completed`, so boxing the
/// result to shrink the rare `Panicked` variant would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job finished and produced a result.
    Completed {
        /// The measured (or memoized) result.
        result: JobResult,
        /// Whether it was served from the result cache.
        cached: bool,
    },
    /// The job panicked; the rest of the sweep was unaffected.
    Panicked {
        /// The panic payload's message.
        message: String,
    },
}

/// A sweep's outcomes plus its execution accounting.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-job outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs that actually ran a simulation.
    pub executed: usize,
    /// Jobs served from the result cache.
    pub cache_hits: usize,
    /// Jobs that panicked.
    pub panicked: usize,
    /// Wall-clock time of the sweep (not part of the deterministic
    /// surface — never render it into reproducible artifacts).
    pub elapsed: Duration,
}

impl SweepReport {
    /// Number of submitted jobs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// All results in submission order, or the first panic.
    pub fn results(&self) -> Result<Vec<&JobResult>, HarnessError> {
        self.outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| match o {
                JobOutcome::Completed { result, .. } => Ok(result),
                JobOutcome::Panicked { message } => Err(HarnessError::JobPanicked {
                    job: i,
                    message: message.clone(),
                }),
            })
            .collect()
    }

    /// Cloned drain reports in submission order, or the first panic —
    /// the shape the figure renderers consume.
    pub fn drains(&self) -> Result<Vec<horus_core::DrainReport>, HarnessError> {
        Ok(self
            .results()?
            .into_iter()
            .map(|r| r.drain.clone())
            .collect())
    }

    /// Folds every completed job's drain counter registry into one
    /// total via the saturating [`Stats::merge`] (recovery reports
    /// carry pre-reduced scalars, not a registry). Panicked jobs
    /// contribute nothing. Deterministic for any worker count: merging
    /// is order-insensitive and the fold runs in submission order
    /// anyway.
    #[must_use]
    pub fn merged_stats(&self) -> Stats {
        let mut total = Stats::new();
        for outcome in &self.outcomes {
            if let JobOutcome::Completed { result, .. } = outcome {
                total.merge(&result.drain.stats);
            }
        }
        total
    }
}

/// Sweep-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// A job panicked and its result was required.
    JobPanicked {
        /// Submission index of the failed job.
        job: usize,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::JobPanicked { job, message } => {
                write!(f, "job {job} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::{DrainScheme, SystemConfig};
    use horus_workload::FillPattern;

    fn specs() -> Vec<JobSpec> {
        let cfg = SystemConfig::small_test();
        DrainScheme::ALL
            .iter()
            .map(|s| JobSpec::drain(&cfg, *s, FillPattern::StridedSparse { min_stride: 16384 }))
            .collect()
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let specs = specs();
        let serial = Harness::serial().run(&specs);
        let harness = Harness::with_jobs(4);
        let parallel = harness.run(&specs);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert_eq!(serial.merged_stats(), parallel.merged_stats());
        assert_eq!(parallel.executed, specs.len());
        assert_eq!(parallel.cache_hits, 0);
        assert_eq!(harness.totals(), (specs.len(), 0));
        let _ = harness.run(&specs);
        assert_eq!(
            harness.totals(),
            (2 * specs.len(), 0),
            "totals accumulate across sweeps"
        );
    }

    #[test]
    fn zero_jobs_reports_no_pool_and_still_runs_serially() {
        let specs = specs();
        let harness = Harness::with_jobs(0);
        assert_eq!(harness.jobs(), 0, "no local pool declared");
        let report = harness.run(&specs);
        assert_eq!(report.outcomes, Harness::serial().run(&specs).outcomes);
        assert_eq!(report.executed, specs.len());
    }

    #[test]
    fn drains_preserve_submission_order() {
        let report = Harness::with_jobs(3).run(&specs());
        let drains = report.drains().expect("no panics");
        let names: Vec<_> = drains.iter().map(|d| d.scheme.as_str()).collect();
        assert_eq!(
            names,
            ["Non-Secure", "Base-LU", "Base-EU", "Horus-SLM", "Horus-DLM"]
        );
    }

    #[test]
    fn merged_stats_equal_manual_fold() {
        let report = Harness::with_jobs(2).run(&specs());
        let mut manual = Stats::new();
        for r in report.results().expect("no panics") {
            manual.merge(&r.drain.stats);
        }
        assert_eq!(report.merged_stats(), manual);
    }

    #[test]
    fn local_sweeps_stamp_all_five_span_stages() {
        let book = SpanBook::shared();
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            no_cache: true,
            progress: ProgressMode::Silent,
            spans: Some(Arc::clone(&book)),
            ..HarnessOptions::default()
        });
        let specs = specs();
        let report = harness.run(&specs);
        assert_eq!(report.executed, specs.len());
        let spans = book.spans();
        assert_eq!(spans.len(), specs.len());
        for span in &spans {
            assert_eq!(span.plan, 0, "first run call is plan 0");
            assert!(span.is_complete(), "all five stages stamped: {span:?}");
            assert!(
                span.worker.starts_with("local-"),
                "worker {:?}",
                span.worker
            );
            let stamps: Vec<f64> = span.stamps.iter().map(|s| s.unwrap()).collect();
            assert!(
                stamps.windows(2).all(|w| w[0] <= w[1]),
                "stamps monotone: {stamps:?}"
            );
        }
        // A second run on the same harness lands under the next plan id,
        // so job indices never collide across runs.
        let _ = harness.run(&specs[..1]);
        assert_eq!(book.spans().len(), specs.len() + 1);
        assert!(book.spans().iter().any(|s| s.plan == 1));
    }

    #[test]
    fn traced_sweeps_tag_spans_and_profiles() {
        use horus_obs::Registry;
        let book = SpanBook::shared();
        let registry = Registry::shared();
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            no_cache: true,
            progress: ProgressMode::Silent,
            spans: Some(Arc::clone(&book)),
            metrics: Some(Arc::clone(&registry)),
            ..HarnessOptions::default()
        });
        let specs = specs();
        let _ = harness.run_traced(&specs, Some("9f8a6c2d01b4e37f"));
        let spans = book.spans();
        assert_eq!(spans.len(), specs.len());
        assert!(
            spans.iter().all(|s| s.trace == "9f8a6c2d01b4e37f"),
            "every span carries the caller's trace"
        );
        let profiles = harness.take_job_profiles();
        assert_eq!(profiles.len(), specs.len());
        assert!(profiles
            .iter()
            .all(|p| p.trace.as_deref() == Some("9f8a6c2d01b4e37f")));

        // With telemetry attached but no caller trace, the harness
        // mints one per sweep — and each sweep gets its own.
        let _ = harness.run(&specs[..1]);
        let _ = harness.run(&specs[..1]);
        let minted: Vec<String> = harness
            .take_job_profiles()
            .into_iter()
            .map(|p| p.trace.expect("auto-minted"))
            .collect();
        assert_eq!(minted.len(), 2);
        assert_ne!(minted[0], minted[1], "one trace per sweep");
        assert!(minted.iter().all(|t| t.len() == 16));
    }

    /// A backend that records the trace it was handed.
    struct TraceRecordingBackend(Mutex<Vec<Option<String>>>);

    impl SweepBackend for TraceRecordingBackend {
        fn run_specs(
            &self,
            specs: &[JobSpec],
            trace: Option<&str>,
        ) -> Result<Vec<JobOutcome>, String> {
            self.0
                .lock()
                .expect("poisoned")
                .push(trace.map(str::to_string));
            SerialBackend.run_specs(specs, None)
        }
    }

    #[test]
    fn remote_sweeps_hand_the_trace_to_the_backend() {
        let specs = specs();
        let backend = Arc::new(TraceRecordingBackend(Mutex::new(Vec::new())));
        let harness = Harness::new(HarnessOptions {
            no_cache: true,
            backend: Some(Arc::clone(&backend) as Arc<dyn SweepBackend>),
            ..HarnessOptions::default()
        });
        let _ = harness.run_traced(&specs[..1], Some("abcd1234abcd1234"));
        // Untraced run with no telemetry: the backend sees no trace, so
        // its wire frames stay byte-identical to the pre-trace shape.
        let _ = harness.run(&specs[..1]);
        let seen = backend.0.lock().expect("poisoned").clone();
        assert_eq!(
            seen,
            vec![Some("abcd1234abcd1234".to_string()), None],
            "explicit trace forwarded; untraced run stays untraced"
        );
    }

    #[test]
    fn empty_sweep_is_a_noop() {
        let report = Harness::default().run(&[]);
        assert_eq!(report.total(), 0);
        assert_eq!(report.executed, 0);
        assert!(report.merged_stats().is_empty());
    }

    #[test]
    fn metrics_registry_records_the_sweep() {
        use horus_obs::{names, Registry, SampleValue};
        let registry = Registry::shared();
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            no_cache: true,
            metrics: Some(std::sync::Arc::clone(&registry)),
            ..HarnessOptions::default()
        });
        let specs = specs();
        let report = harness.run(&specs);
        assert_eq!(report.executed, specs.len());

        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
                .clone()
        };
        assert_eq!(get(names::JOBS_STARTED), SampleValue::Uint(5));
        assert_eq!(get(names::JOBS_COMPLETED), SampleValue::Uint(5));
        assert_eq!(get(names::JOBS_PANICKED), SampleValue::Uint(0));
        assert_eq!(get(names::CACHE_HITS), SampleValue::Uint(0));
        assert_eq!(get(names::EPISODES_TOTAL), SampleValue::Uint(5));
        assert_eq!(get(names::QUEUE_DEPTH), SampleValue::Int(0));
        assert_eq!(get(names::JOBS_PLANNED), SampleValue::Int(5));

        // Per-scheme memory-op totals match the reports.
        let drains = report.drains().expect("no panics");
        for drain in &drains {
            let want = report
                .results()
                .expect("no panics")
                .iter()
                .filter(|r| r.drain.scheme == drain.scheme)
                .map(|r| r.memory_ops())
                .sum::<u64>();
            let sample = snap
                .samples
                .iter()
                .find(|s| {
                    s.name == names::SCHEME_MEMORY_OPS
                        && s.labels
                            .iter()
                            .any(|(k, v)| k == "scheme" && *v == drain.scheme)
                })
                .expect("scheme series");
            assert_eq!(sample.value, SampleValue::Uint(want), "{}", drain.scheme);
        }

        // Worker busy time was attributed to at least one worker.
        let busy: f64 = snap
            .samples
            .iter()
            .filter(|s| s.name == names::WORKER_BUSY_SECONDS)
            .map(|s| match s.value {
                SampleValue::Float(v) => v,
                _ => 0.0,
            })
            .sum();
        assert!(busy > 0.0, "busy time recorded");

        // Per-job profiles were collected and drain once.
        let profiles = harness.take_job_profiles();
        assert_eq!(profiles.len(), 5);
        assert!(profiles.iter().all(|p| !p.cached));
        assert!(harness.take_job_profiles().is_empty());
    }

    #[test]
    fn without_metrics_no_profiles_are_collected() {
        let harness = Harness::with_jobs(2);
        let _ = harness.run(&specs());
        assert!(harness.take_job_profiles().is_empty());
    }

    /// A backend that executes in-process, serially — the reference
    /// against which the delegation path is checked.
    struct SerialBackend;

    impl SweepBackend for SerialBackend {
        fn run_specs(
            &self,
            specs: &[JobSpec],
            _trace: Option<&str>,
        ) -> Result<Vec<JobOutcome>, String> {
            Ok(specs
                .iter()
                .map(|s| JobOutcome::Completed {
                    result: s.execute(),
                    cached: false,
                })
                .collect())
        }

        fn describe(&self) -> String {
            "serial test backend".to_owned()
        }
    }

    struct FailingBackend;

    impl SweepBackend for FailingBackend {
        fn run_specs(
            &self,
            _specs: &[JobSpec],
            _trace: Option<&str>,
        ) -> Result<Vec<JobOutcome>, String> {
            Err("service unreachable".to_owned())
        }
    }

    #[test]
    fn backend_run_is_byte_identical_to_local() {
        let specs = specs();
        let local = Harness::with_jobs(2).run(&specs);
        let harness = Harness::new(HarnessOptions {
            no_cache: true,
            backend: Some(std::sync::Arc::new(SerialBackend)),
            ..HarnessOptions::default()
        });
        let remote = harness.run(&specs);
        assert_eq!(local.outcomes, remote.outcomes);
        assert_eq!(remote.executed, specs.len());
        assert_eq!(remote.cache_hits, 0);
        assert_eq!(harness.totals(), (specs.len(), 0));
    }

    #[test]
    fn backend_failure_panics_every_job() {
        let specs = specs();
        let harness = Harness::new(HarnessOptions {
            no_cache: true,
            backend: Some(std::sync::Arc::new(FailingBackend)),
            ..HarnessOptions::default()
        });
        let report = harness.run(&specs);
        assert_eq!(report.panicked, specs.len());
        assert_eq!(report.executed, 0);
        let err = report.results().unwrap_err();
        let HarnessError::JobPanicked { job, message } = err;
        assert_eq!(job, 0);
        assert!(message.contains("service unreachable"), "{message}");
    }

    #[test]
    fn run_tasks_feeds_lifecycle_metrics() {
        use horus_obs::{names, Registry, SampleValue};
        let registry = Registry::shared();
        let harness = Harness::new(HarnessOptions {
            jobs: Some(3),
            no_cache: true,
            metrics: Some(std::sync::Arc::clone(&registry)),
            ..HarnessOptions::default()
        });
        let out = harness.run_tasks(7, |i| {
            assert!(i != 4, "task 4 diverges");
            i
        });
        assert_eq!(out.len(), 7);
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
                .clone()
        };
        assert_eq!(get(names::JOBS_COMPLETED), SampleValue::Uint(6));
        assert_eq!(get(names::JOBS_PANICKED), SampleValue::Uint(1));
        assert_eq!(get(names::QUEUE_DEPTH), SampleValue::Int(0));
        assert_eq!(harness.take_job_profiles().len(), 6);
    }
}
