//! The remote worker: lease, execute on the local harness pool, push.
//!
//! A worker registers with a running service (`POST /v1/workers`), then
//! loops: lease a batch (at most its local pool width) with
//! `POST /v1/leases`, run the batch through a plain [`Harness`] — the
//! same pool, panic isolation, and determinism as a local sweep — and
//! push every outcome (plus its host profile) back with
//! `POST /v1/leases/{id}/push`. The worker runs cache-less: the service
//! owns the authoritative result cache, and keys it already holds
//! commit at enqueue, so they never reach a worker at all.
//!
//! A batch can run far longer than the lease. A heartbeat thread renews
//! the current batch at a third of the lease interval, so a healthy
//! worker's leases never expire no matter how long a job runs, while a
//! killed worker stops renewing and forfeits within one lease.
//!
//! Exit paths: the service answers `drained` (clean, after a drain), or
//! stops answering after registration (also treated as a drain, so a
//! service being torn down doesn't strand nonzero worker exits), or
//! answers out of protocol (reported as `Err`).

use crate::api::{LeaseGrant, LeaseRequest, PushRequest, PushStamps, WorkerHello, WorkerWelcome};
use horus_harness::{Harness, HarnessOptions, JobSpec, ProgressMode};
use horus_obs::http::http_post;
use horus_obs::{log, Registry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker waits before asking for work again.
const IDLE_POLL: Duration = Duration::from_millis(100);
/// The heartbeat's "no batch held" marker.
const NO_LEASE: u64 = u64::MAX;

/// How a worker should run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Service address (`host:port`).
    pub service: String,
    /// Display name (span tracks and logs on the service).
    pub name: String,
    /// Local pool width; `None` uses available parallelism.
    pub jobs: Option<usize>,
}

impl WorkerOptions {
    /// A worker for the service at `service` with a pid-derived name.
    #[must_use]
    pub fn new(service: impl Into<String>) -> Self {
        WorkerOptions {
            service: service.into(),
            name: format!("worker-{}", std::process::id()),
            jobs: None,
        }
    }
}

/// What one worker session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The service-assigned worker id.
    pub worker: u64,
    /// Jobs executed and pushed.
    pub executed: usize,
    /// Lease batches processed.
    pub batches: usize,
}

/// `POST`s `body` as JSON and parses a 2xx answer; `Ok(None)` when the
/// service is unreachable.
fn call<B: Serialize, R: Deserialize>(
    addr: SocketAddr,
    path: &str,
    body: &B,
) -> Result<Option<R>, String> {
    let body = serde_json::to_string(body).map_err(|e| e.to_string())?;
    let Ok((status, text)) = http_post(addr, path, &[], &body) else {
        return Ok(None);
    };
    if !(200..300).contains(&status_code(&status)) {
        return Err(format!("{path} answered {status}: {text}"));
    }
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("{path}: bad answer: {e}"))
}

/// The numeric code of an HTTP status line (`0` when unreadable).
fn status_code(status_line: &str) -> u16 {
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

/// Runs one worker session to completion (until the service drains or
/// goes away).
///
/// # Errors
///
/// Returns a message when the service cannot be reached to register,
/// or answers out of protocol mid-session.
pub fn run_worker(options: &WorkerOptions) -> Result<WorkerSummary, String> {
    let addr = options
        .service
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {}: {e}", options.service))?
        .next()
        .ok_or_else(|| format!("{} resolves to no address", options.service))?;
    // Local millisecond clock for the clock-offset measurement below.
    let clock = Instant::now();
    let t0 = local_ms(clock);
    let hello = WorkerHello {
        name: options.name.clone(),
        jobs: options.jobs.unwrap_or(0),
    };
    let welcome: WorkerWelcome = call(addr, "/v1/workers", &hello)?
        .ok_or_else(|| format!("no service answering at {}", options.service))?;
    // A span-collecting service reveals its clock; halving the register
    // round trip against it estimates `service now − local now`, which
    // puts every local stamp on the service timeline.
    let t1 = local_ms(clock);
    let offset_ms = welcome.now_ms.map(|now| now - (t0 + t1) / 2.0);
    log::info(
        "fleet-worker",
        "registered with service",
        &[
            ("worker", &welcome.worker.to_string()),
            ("name", &options.name),
            ("tracing", if offset_ms.is_some() { "on" } else { "off" }),
        ],
    );
    let current = Arc::new(AtomicU64::new(NO_LEASE));
    let heartbeat = Heartbeat::start(addr, Arc::clone(&current), welcome.lease_ms);
    let result = worker_loop(addr, welcome.worker, options, &current, clock, offset_ms);
    drop(heartbeat);
    result
}

/// Milliseconds elapsed on the worker's local span clock.
fn local_ms(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64() * 1e3
}

/// The lease/execute/push loop, split out so [`run_worker`]'s many exit
/// paths all stop the heartbeat on the way out.
fn worker_loop(
    addr: SocketAddr,
    worker: u64,
    options: &WorkerOptions,
    current: &AtomicU64,
    clock: Instant,
    offset_ms: Option<f64>,
) -> Result<WorkerSummary, String> {
    // Job profiles are only collected when a registry is attached; the
    // worker keeps a private one so every pushed outcome can carry its
    // host profile back to the service's obs summary.
    let harness = Harness::new(HarnessOptions {
        jobs: options.jobs,
        no_cache: true,
        progress: ProgressMode::Silent,
        metrics: Some(Registry::shared()),
        ..HarnessOptions::default()
    });
    let ask = LeaseRequest {
        worker,
        max: harness.jobs().max(1),
    };
    let worker_s = worker.to_string();
    let mut summary = WorkerSummary {
        worker,
        executed: 0,
        batches: 0,
    };
    // An unreachable service went away: treat it as drained.
    while let Some(grant) = call::<_, LeaseGrant>(addr, "/v1/leases", &ask)? {
        let Some(lease) = grant.lease else {
            if grant.drained {
                break;
            }
            std::thread::sleep(IDLE_POLL);
            continue;
        };
        current.store(lease, Ordering::SeqCst);
        summary.batches += 1;
        {
            // One line per batch, naming every distinct trace it
            // serves, so worker logs join back to the requests.
            let mut traces: Vec<&str> = grant
                .jobs
                .iter()
                .filter_map(|j| j.trace.as_deref())
                .collect();
            traces.sort_unstable();
            traces.dedup();
            let jobs = grant.jobs.len().to_string();
            let joined = traces.join(",");
            let mut fields: Vec<(&str, &str)> = vec![("worker", &worker_s), ("jobs", &jobs)];
            if !traces.is_empty() {
                fields.push(("trace_id", &joined));
            }
            log::info("fleet-worker", "batch leased", &fields);
        }
        let specs: Vec<JobSpec> = grant.jobs.iter().map(|j| j.spec.clone()).collect();
        let executing_ms = local_ms(clock);
        let report = harness.run(&specs);
        let mut profiles: HashMap<String, _> = harness
            .take_job_profiles()
            .into_iter()
            .map(|p| (p.label.clone(), p))
            .collect();
        let path = format!("/v1/leases/{lease}/push");
        for (job, outcome) in grant.jobs.iter().zip(report.outcomes) {
            summary.executed += 1;
            // The lease's trace is authoritative: it replaces whatever
            // the worker-local harness minted for its own batch.
            let profile = profiles.remove(&job.spec.key()).map(|mut p| {
                p.trace.clone_from(&job.trace);
                p
            });
            let push = PushRequest {
                job: job.job,
                outcome,
                profile,
                stamps: offset_ms.map(|off| PushStamps {
                    executing_ms: executing_ms + off,
                    pushed_ms: local_ms(clock) + off,
                }),
            };
            let body = serde_json::to_string(&push).map_err(|e| e.to_string())?;
            match http_post(addr, &path, &[], &body) {
                Err(_) => return Ok(summary), // the service went away post-batch
                // 409: another worker's push for the same slot won the
                // race (our lease had expired); commit is exactly-once,
                // so there is nothing to do.
                Ok((status, _)) if matches!(status_code(&status), 200..=299 | 409) => {}
                Ok((status, text)) => return Err(format!("{path} answered {status}: {text}")),
            }
        }
        current.store(NO_LEASE, Ordering::SeqCst);
    }
    log::info(
        "fleet-worker",
        "drained",
        &[
            ("worker", &worker_s),
            ("executed", &summary.executed.to_string()),
            ("batches", &summary.batches.to_string()),
        ],
    );
    Ok(summary)
}

/// A background thread renewing the batch the worker currently holds
/// while its pool runs it. Dropping it stops the thread.
///
/// Best-effort by design: a failed renewal only risks the batch's
/// leases expiring, and exactly-once commit makes any resulting
/// duplicate execution harmless.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Heartbeat {
    fn start(addr: SocketAddr, current: Arc<AtomicU64>, lease_ms: u64) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let interval = Duration::from_millis((lease_ms / 3).max(50));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("horus-worker-heartbeat".to_owned())
            .spawn(move || loop {
                // Sleep in short slices so dropping the heartbeat never
                // waits out a full interval.
                let wake = Instant::now() + interval;
                while Instant::now() < wake {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                let lease = current.load(Ordering::SeqCst);
                if lease != NO_LEASE
                    && http_post(addr, &format!("/v1/leases/{lease}/renew"), &[], "").is_err()
                {
                    return;
                }
            })
            .ok();
        Heartbeat { stop, thread }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
