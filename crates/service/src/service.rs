//! The experiment service: admission, queueing, execution, results,
//! and the worker side of the same queue.
//!
//! [`ExperimentService`] is an [`horus_obs::http::Router`] mounted on the
//! shared metrics listener, so one socket serves `/metrics`,
//! `/healthz`, `/readyz`, `/logs`, *and* the `/v1` API. Clients use:
//!
//! * `POST /v1/jobs` — submit a plan (or single spec). The governor
//!   classifies the tenant from `X-Horus-Tenant`, charges its token
//!   bucket, and either admits (`202` with a job id) or sheds (`429`
//!   with `Retry-After`). Admitted plans dedup by content key: an
//!   identical plan already known to the service gets an alias id and
//!   never executes twice.
//! * `GET /v1/jobs/{id}` — live status (`queued` → `executing` →
//!   `committed`), progress counts, and stage stamps derived from the
//!   plan's per-job spans.
//! * `GET /v1/jobs/{id}/result` — the committed outcomes as JSON,
//!   byte-identical to what a local `Harness::run` of the same specs
//!   serializes to (that is the soak lane's headline assertion).
//! * `GET /v1/tenants/{t}` — the governor's live per-tenant accounting.
//! * `POST /v1/shutdown` — stop admitting, drain the queue, let
//!   `horus-cli serve` exit cleanly (so its `--run-dir` artifacts get
//!   written).
//!
//! Remote workers ([`crate::worker`], `horus-cli fleet-worker`) use:
//!
//! * `POST /v1/workers` — register; answers the worker id, the lease
//!   length and (when spans are collected) the service clock.
//! * `POST /v1/leases` — lease a batch of up to `max` jobs, oldest plan
//!   first; the answer names the batch's lease id.
//! * `POST /v1/leases/{id}/renew` — keep a batch alive while it runs.
//! * `POST /v1/leases/{id}/push` — commit one job's outcome.
//!
//! Execution has one engine, the [`JobQueue`]. Runner threads pop
//! admitted plans in [`PlanQueue`] order and enqueue each plan's specs
//! there; keys the result cache (or an earlier plan) already holds
//! commit on the spot. The runners are the in-process worker: each
//! leases its own plan's jobs back in batches of up to
//! [`Harness::jobs`] and executes them through [`Harness::run_traced`]
//! (the local pool, result cache, metrics, profiles and panic
//! isolation). A harness built with `jobs: Some(0)` (`serve --jobs 0`)
//! executes nothing locally: the runners wait for remote workers to
//! commit their plans. Either way dispatch is at-least-once, commit
//! exactly-once per content key, and the merge plan-ordered, so a
//! result is byte-identical to a local run of the same specs.
//!
//! Everything lives in one `Mutex`-guarded state machine. Every
//! acquisition goes through one helper that recovers from poisoning,
//! and job execution, outcome serialization and logging happen outside
//! the critical section. Expired leases requeue (and stalled jobs are
//! reported) whenever a worker asks for work or a runner waits on its
//! plan, so the service needs no thread of its own for it. With a
//! result cache, admitted plans are journaled to `<cache>/plans/` until
//! they commit, and a restarted service resumes them.

use crate::api::{
    self, JobStatus, LeaseGrant, LeaseRequest, LeasedJob, PushRequest, StageStamps, SubmitRequest,
    SubmitResponse, WorkerHello, WorkerWelcome, TENANT_HEADER,
};
use crate::config::ServiceConfig;
use crate::governor::{Admission, Governor};
use crate::jobqueue::{self, JobQueue};
use crate::queue::{Class, PlanQueue};
use horus_harness::{Harness, JobOutcome, JobSpec};
use horus_obs::http::{HttpRequest, HttpResponse, Router};
use horus_obs::profile::JobProfile;
use horus_obs::span::{SpanBook, Stage, STAGES};
use horus_obs::{log, names, Registry, TimeHistogram};
use serde::Deserialize;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An in-process runner lives exactly as long as the service, so its
/// leases are granted for a year rather than renewed.
const LOCAL_LEASE: Duration = Duration::from_secs(365 * 24 * 3600);
/// A job leased this many lease lengths ago and still not pushed is
/// reported, once, as stalled.
const STALL_MULTIPLE: u32 = 3;
/// Longest a runner waits on its plan before re-checking the queue
/// (for requeued jobs whose backoff ran out).
const RUNNER_POLL: Duration = Duration::from_millis(100);
/// The span track of jobs committed at enqueue, from the result cache
/// or an earlier plan.
const CACHE_TRACK: &str = "cache";

/// Where a plan is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a runner.
    Queued,
    /// A runner enqueued its jobs for execution.
    Executing,
    /// Outcomes are committed and servable.
    Committed,
}

impl JobState {
    /// The wire spelling used in [`crate::api::JobStatus::state`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Executing => "executing",
            JobState::Committed => "committed",
        }
    }
}

#[derive(Debug)]
struct PlanRecord {
    /// Empty for a plan resumed from the journal.
    tenant: String,
    /// Whether a tenant's in-flight quota holds a unit for the plan.
    charged: bool,
    key: String,
    total: usize,
    /// Correlation trace id minted at admission (aliases reuse the
    /// canonical plan's id — an alias never executes, so a fresh id
    /// would join to nothing downstream).
    trace: String,
    /// When the plan was admitted, for the queue-age gauges. `None`
    /// for aliases, which never occupy the queue.
    queued_at: Option<Instant>,
    /// The same instant on the span clock: every job's queued stamp.
    queued_ms: f64,
    /// `Some(canonical)` for deduplicated submissions; every query
    /// follows the alias.
    alias_of: Option<u64>,
    state: JobState,
    /// Present until a runner takes the plan.
    specs: Option<Vec<JobSpec>>,
    /// The plan's id in the job queue, once a runner enqueued it.
    work_plan: Option<u64>,
    /// The committed outcomes, pre-serialized.
    outcomes_json: Option<String>,
}

impl PlanRecord {
    /// A queued record with nothing attached yet.
    fn new(tenant: String, key: String, total: usize, trace: String) -> PlanRecord {
        PlanRecord {
            tenant,
            charged: false,
            key,
            total,
            trace,
            queued_at: None,
            queued_ms: 0.0,
            alias_of: None,
            state: JobState::Queued,
            specs: None,
            work_plan: None,
            outcomes_json: None,
        }
    }
}

struct Worker {
    name: String,
    /// An in-process runner: always live, never leased to over HTTP.
    local: bool,
    /// Last register, lease, renew or push.
    last_seen: Instant,
}

/// One job leased but not pushed for too long, captured under the lock
/// and logged after it is released.
struct Stalled {
    job: u64,
    key: String,
    age_s: f64,
    trace: Option<String>,
}

/// What one housekeeping sweep found, reported outside the lock.
struct Sweep {
    expired: usize,
    stalled: Vec<Stalled>,
    live_workers: usize,
    leased: usize,
}

struct State {
    governor: Governor,
    plans: BTreeMap<u64, PlanRecord>,
    by_key: HashMap<String, u64>,
    queue: PlanQueue,
    next_id: u64,
    /// Plans popped by a runner and not yet committed.
    executing: usize,
    work: JobQueue,
    /// Service plan id per job-queue plan, while it executes.
    owners: HashMap<u64, u64>,
    /// Indexed by worker id: local runners first, then registrations.
    workers: Vec<Worker>,
    /// Holding worker per lease id (leases are numbered from 0).
    leases: Vec<u64>,
    /// First-lease instant per unpushed job, for the stall watchdog.
    first_leased: HashMap<u64, Instant>,
    /// Jobs the watchdog already reported.
    stall_warned: HashSet<u64>,
    /// When housekeeping may next sweep the job queue.
    next_sweep: Instant,
    /// Host profiles remote workers pushed, until taken.
    profiles: Vec<JobProfile>,
    runners: Vec<JoinHandle<()>>,
    draining: bool,
    /// Stop now, leaving open plans open (and journaled).
    halted: bool,
}

/// Pre-registered `horus_service_*` and `horus_fleet_*` handles (see
/// [`names`]).
struct Metrics {
    registry: Arc<Registry>,
    admission: TimeHistogram,
    stages: [TimeHistogram; STAGES],
}

impl Metrics {
    fn new(registry: Arc<Registry>, tenants: &[String]) -> Metrics {
        // Pre-register every family at zero so scrapes and the
        // the run summary carry them even when nothing happened to them.
        let m = Metrics {
            admission: registry.time_histogram(
                names::SERVICE_ADMISSION_SECONDS,
                "Time from request arrival to admission verdict.",
                &[],
            ),
            stages: Stage::ALL.map(|stage| {
                registry.time_histogram(
                    names::FLEET_JOB_STAGE_SECONDS,
                    "Per-stage job latency observed at commit (committed = end-to-end).",
                    &[("stage", stage.as_str())],
                )
            }),
            registry,
        };
        for tenant in tenants {
            let labels = &[("tenant", tenant.as_str())];
            for name in [
                names::SERVICE_SUBMITTED,
                names::SERVICE_ADMITTED,
                names::SERVICE_SHED,
            ] {
                m.add(name, labels, 0);
            }
            m.set(names::SERVICE_IN_FLIGHT, labels, 0);
        }
        for name in [
            names::SERVICE_PLANS_COMPLETED,
            names::FLEET_REQUEUES,
            names::FLEET_PLANS,
            names::FLEET_STALLED_JOBS,
        ] {
            m.add(name, &[], 0);
        }
        for name in [
            names::SERVICE_QUEUE_DEPTH,
            names::FLEET_WORKERS,
            names::FLEET_LEASES_IN_FLIGHT,
        ] {
            m.set(name, &[], 0);
        }
        // Freshened on every routed request, so scrapes always see the
        // current backlog shape even between submissions.
        m.age(names::SERVICE_QUEUE_AGE_SECONDS, 0.0);
        m.age(names::SERVICE_OLDEST_IN_FLIGHT_SECONDS, 0.0);
        m
    }

    fn help(name: &str) -> &'static str {
        match name {
            names::SERVICE_SUBMITTED => {
                "Plan submissions received by the service API, before admission control."
            }
            names::SERVICE_ADMITTED => "Submissions the governor admitted.",
            names::SERVICE_SHED => "Submissions shed with 429 Too Many Requests.",
            names::SERVICE_IN_FLIGHT => "Admitted plans currently queued or executing.",
            names::SERVICE_QUEUE_DEPTH => "Admitted plans waiting in the service priority queue.",
            names::SERVICE_PLANS_COMPLETED => "Service plans executed to completion.",
            names::SERVICE_QUEUE_AGE_SECONDS => {
                "Age of the oldest plan still waiting in the service queue (0 when empty)."
            }
            names::SERVICE_OLDEST_IN_FLIGHT_SECONDS => {
                "Age of the oldest admitted plan not yet committed (0 when idle)."
            }
            names::FLEET_WORKERS => {
                "Live workers: in-process runners plus remote workers heard from within one lease."
            }
            names::FLEET_LEASES_IN_FLIGHT => "Job leases currently held by workers.",
            names::FLEET_REQUEUES => "Expired leases returned to the job queue.",
            names::FLEET_WORKER_JOBS => "Jobs committed per worker.",
            names::FLEET_PLANS => "Plans fully merged by the job queue.",
            names::FLEET_STALLED_JOBS => {
                "Jobs leased but not pushed within the stall-watchdog window."
            }
            _ => "",
        }
    }

    fn add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.registry.counter(name, Self::help(name), labels).add(n);
    }

    fn set(&self, name: &str, labels: &[(&str, &str)], value: usize) {
        self.registry
            .gauge(name, Self::help(name), labels)
            .set(i64::try_from(value).unwrap_or(i64::MAX));
    }

    fn age(&self, name: &str, seconds: f64) {
        self.registry
            .float_gauge(name, Self::help(name), &[])
            .set(seconds);
    }
}

/// Everything the runner threads and the router share.
struct Shared {
    harness: Arc<Harness>,
    state: Mutex<State>,
    /// Signalled on every state change anyone may be waiting for:
    /// admission, commit, drain, halt.
    changed: Condvar,
    clock: Instant,
    metrics: Option<Metrics>,
    spans: Option<Arc<SpanBook>>,
    quick_threshold: usize,
    lease: Duration,
    /// Housekeeping interval: a quarter lease.
    tick: Duration,
    /// `<cache>/plans`, when the harness has a result cache.
    journal: Option<PathBuf>,
}

/// The running service: governor, plan queue, job queue and runner
/// threads over a shared [`Harness`]. Construct with
/// [`ExperimentService::start`], mount as a router, and drive it over
/// HTTP. Dropping the last handle stops it at once, leaving open plans
/// journaled.
pub struct ExperimentService {
    shared: Arc<Shared>,
}

impl ExperimentService {
    /// Starts the service: builds the governor from `config`, resumes
    /// journaled plans, spawns the runner threads, and returns the
    /// shared handle to mount as a router (e.g. via
    /// `ObsSession::install_router`).
    #[must_use]
    pub fn start(
        config: &ServiceConfig,
        harness: Arc<Harness>,
        registry: Option<Arc<Registry>>,
        spans: Option<Arc<SpanBook>>,
    ) -> Arc<ExperimentService> {
        let now = Instant::now();
        let runners = config.effective_runners();
        let workers = if harness.jobs() > 0 {
            (0..runners)
                .map(|idx| Worker {
                    name: format!("service-runner-{idx}"),
                    local: true,
                    last_seen: now,
                })
                .collect()
        } else {
            Vec::new()
        };
        let lease = config.effective_lease();
        let shared = Arc::new(Shared {
            journal: harness.cache().map(|c| c.dir().join("plans")),
            harness,
            state: Mutex::new(State {
                governor: Governor::new(config),
                plans: BTreeMap::new(),
                by_key: HashMap::new(),
                queue: PlanQueue::new(),
                next_id: 0,
                executing: 0,
                work: JobQueue::new(),
                owners: HashMap::new(),
                workers,
                leases: Vec::new(),
                first_leased: HashMap::new(),
                stall_warned: HashSet::new(),
                next_sweep: now,
                profiles: Vec::new(),
                runners: Vec::new(),
                draining: false,
                halted: false,
            }),
            changed: Condvar::new(),
            clock: now,
            metrics: registry.map(|r| Metrics::new(r, &config.tenant_names())),
            spans,
            quick_threshold: config.effective_quick_threshold(),
            lease,
            tick: (lease / 4).max(Duration::from_millis(25)),
        });
        shared.resume_journal();
        let handles = (0..runners)
            .map(|idx| {
                let runner = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("horus-service-runner-{idx}"))
                    .spawn(move || runner.runner_loop(idx))
                    .expect("spawn service runner")
            })
            .collect();
        let live = {
            let mut st = shared.lock();
            st.runners = handles;
            st.workers.len()
        };
        if let Some(m) = &shared.metrics {
            m.set(names::FLEET_WORKERS, &[], live);
        }
        Arc::new(ExperimentService { shared })
    }

    /// Initiates drain: no more admissions; queued work still runs, and
    /// remote workers are sent home once nothing is left.
    pub fn begin_drain(&self) {
        self.shared.lock().draining = true;
        self.shared.changed.notify_all();
    }

    /// Blocks until drain was requested *and* every admitted plan has
    /// committed — the serve verb's exit condition.
    pub fn wait_until_drained(&self) {
        let mut st = self.shared.lock();
        while !(st.halted || (st.draining && st.queue.is_empty() && st.executing == 0)) {
            st = self.shared.wait(st);
        }
    }

    /// Drains (see [`ExperimentService::begin_drain`]) and joins the
    /// runner threads; call after
    /// [`ExperimentService::wait_until_drained`].
    pub fn join(&self) {
        self.begin_drain();
        let handles = std::mem::take(&mut self.shared.lock().runners);
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Drains the per-job host profiles collected so far: the local
    /// pool's, then those remote workers pushed, in commit order.
    #[must_use]
    pub fn take_job_profiles(&self) -> Vec<JobProfile> {
        let mut profiles = self.shared.harness.take_job_profiles();
        profiles.append(&mut self.shared.lock().profiles);
        profiles
    }

    /// `(pending, leased, committed)` job-slot counts of the job queue.
    #[must_use]
    pub fn job_counts(&self) -> (usize, usize, usize) {
        self.shared.lock().work.counts()
    }
}

impl Drop for ExperimentService {
    fn drop(&mut self) {
        let handles = {
            let mut st = self.shared.lock();
            st.halted = true;
            std::mem::take(&mut st.runners)
        };
        self.shared.changed.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Router for ExperimentService {
    fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
        self.shared.route(req)
    }
}

/// A `{"error": ...}` answer.
fn error(status: &str, message: &str) -> HttpResponse {
    HttpResponse::json(status, api::ErrorBody::json(message))
}

/// A `200 OK` (or other status) answer carrying `body` as JSON.
fn reply<T: serde::Serialize>(status: &str, body: &T) -> HttpResponse {
    HttpResponse::json(
        status,
        serde_json::to_string(body).expect("wire types serialize"),
    )
}

/// Parses a JSON request body, or the `400` to answer instead.
fn parse_body<T: Deserialize>(req: &HttpRequest) -> Result<T, HttpResponse> {
    let body = req
        .body_str()
        .ok_or_else(|| error("400 Bad Request", "body is not UTF-8"))?;
    serde_json::from_str(body)
        .map_err(|e| error("400 Bad Request", &format!("malformed body: {e}")))
}

impl Shared {
    /// The one way into the state: a panic elsewhere while holding the
    /// lock leaves the state consistent (no user code runs under it),
    /// so poisoning is recovered, never propagated.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for [`Shared::changed`], recovering from poisoning.
    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Shared::wait`] for at most `timeout`.
    fn wait_for<'a>(&self, st: MutexGuard<'a, State>, timeout: Duration) -> MutexGuard<'a, State> {
        self.changed
            .wait_timeout(st, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Seconds on the service's monotonic clock — the time base the
    /// governor's buckets refill on.
    fn now_secs(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    fn now_ms(&self) -> f64 {
        self.spans.as_ref().map_or(0.0, |book| book.now_ms())
    }

    /// Stamps `stages` of job `(plan, job)` with content key `key`;
    /// `track` names the worker.
    fn stamp(
        &self,
        (plan, job, key): (u64, u64, &str),
        trace: &str,
        track: Option<&str>,
        stages: &[(Stage, f64)],
    ) {
        if let Some(book) = &self.spans {
            for &(stage, at) in stages {
                book.stamp_traced(plan, job, key, stage, at, track, Some(trace));
            }
        }
    }

    // ---- admission ----------------------------------------------------

    /// Records a new canonical plan and queues it for a runner,
    /// journaling it first when the service keeps a journal; returns
    /// its id, its trace and any journal write error (to log once the
    /// lock is released).
    fn enqueue(
        &self,
        st: &mut State,
        tenant: String,
        key: String,
        specs: Vec<JobSpec>,
        journal: Option<&str>,
    ) -> (u64, String, Option<String>) {
        let id = st.next_id;
        st.next_id += 1;
        let journal_error = match (&self.journal, journal) {
            (Some(dir), Some(json)) => write_journal(dir, id, json).err(),
            _ => None,
        };
        let trace = horus_obs::span::mint_trace_id();
        let class = if specs.len() <= self.quick_threshold {
            Class::Interactive
        } else {
            Class::Bulk
        };
        st.by_key.insert(key.clone(), id);
        let record = PlanRecord {
            charged: !tenant.is_empty(),
            queued_at: Some(Instant::now()),
            queued_ms: self.now_ms(),
            ..PlanRecord::new(tenant, key, specs.len(), trace.clone())
        };
        st.plans.insert(
            id,
            PlanRecord {
                specs: Some(specs),
                ..record
            },
        );
        st.queue.push(id, class);
        (id, trace, journal_error)
    }

    fn submit(&self, req: &HttpRequest) -> HttpResponse {
        let arrived = Instant::now();
        let specs = match parse_body::<SubmitRequest>(req) {
            Ok(parsed) => parsed.into_specs(),
            Err(resp) => return resp,
        };
        if specs.is_empty() {
            return error("400 Bad Request", "submission carries no specs");
        }
        let key = api::plan_key(&specs);
        let journal = self
            .journal
            .as_ref()
            .and_then(|_| serde_json::to_string(&specs).ok());

        // Admission, dedup and enqueue in one critical section.
        let (tenant, verdict) = {
            let mut st = self.lock();
            if st.draining {
                drop(st);
                return error("503 Service Unavailable", "service is draining");
            }
            let tenant = st.governor.classify(req.header(TENANT_HEADER));
            let verdict = match st.governor.admit(&tenant, self.now_secs()) {
                Admission::Shed {
                    retry_after_secs, ..
                } => Err(retry_after_secs),
                Admission::Admitted => {
                    let (id, deduped, trace, journal_error) = match st.by_key.get(&key).copied() {
                        Some(canonical) => {
                            let id = st.next_id;
                            st.next_id += 1;
                            let trace = st
                                .plans
                                .get(&canonical)
                                .map_or_else(horus_obs::span::mint_trace_id, |r| r.trace.clone());
                            let record = PlanRecord::new(
                                tenant.clone(),
                                key.clone(),
                                specs.len(),
                                trace.clone(),
                            );
                            let alias = PlanRecord {
                                alias_of: Some(canonical),
                                ..record
                            };
                            st.plans.insert(id, alias);
                            // An alias never occupies a runner: its
                            // in-flight unit returns at once (the token
                            // stays spent).
                            st.governor.release(&tenant);
                            (id, true, trace, None)
                        }
                        None => {
                            let (id, trace, journal_error) = self.enqueue(
                                &mut st,
                                tenant.clone(),
                                key.clone(),
                                specs,
                                journal.as_deref(),
                            );
                            (id, false, trace, journal_error)
                        }
                    };
                    let in_flight = st.governor.snapshot(&tenant).map_or(0, |s| s.in_flight);
                    Ok((id, deduped, trace, journal_error, in_flight, st.queue.len()))
                }
            };
            (tenant, verdict)
        };

        if let Some(m) = &self.metrics {
            m.add(names::SERVICE_SUBMITTED, &[("tenant", &tenant)], 1);
            m.admission.observe_seconds(arrived.elapsed().as_secs_f64());
        }
        let (id, deduped, trace, journal_error, in_flight, depth) = match verdict {
            Err(retry_after_secs) => {
                if let Some(m) = &self.metrics {
                    m.add(names::SERVICE_SHED, &[("tenant", &tenant)], 1);
                }
                let retry = retry_after_secs.to_string();
                log::warn(
                    "service",
                    "submission shed",
                    &[("tenant", tenant.as_str()), ("retry_after", retry.as_str())],
                );
                return error(
                    "429 Too Many Requests",
                    &format!("tenant {tenant} over quota"),
                )
                .with_header("Retry-After", &retry);
            }
            Ok(admitted) => admitted,
        };
        if !deduped {
            self.changed.notify_all();
        }
        if let Some(m) = &self.metrics {
            m.add(names::SERVICE_ADMITTED, &[("tenant", &tenant)], 1);
            m.set(names::SERVICE_IN_FLIGHT, &[("tenant", &tenant)], in_flight);
            m.set(names::SERVICE_QUEUE_DEPTH, &[], depth);
        }
        if let Some(e) = journal_error {
            log::error(
                "service",
                "journal write failed",
                &[("job", &id.to_string()), ("error", &e)],
            );
        }
        log::info(
            "service",
            "submission admitted",
            &[
                ("job", id.to_string().as_str()),
                ("tenant", tenant.as_str()),
                ("key", key.as_str()),
                ("deduped", if deduped { "true" } else { "false" }),
                ("trace_id", trace.as_str()),
            ],
        );
        reply(
            "202 Accepted",
            &SubmitResponse {
                job: id,
                key,
                tenant,
                deduped,
                trace: Some(trace.clone()),
            },
        )
        .with_header(api::TRACE_HEADER, &trace)
    }

    /// Re-admits every plan a previous service left in the journal,
    /// charging no tenant. Jobs it finished re-enter through the result
    /// cache as instant hits; only the interrupted tail re-executes.
    fn resume_journal(&self) {
        let Some(dir) = &self.journal else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| {
                let path = e.ok()?.path();
                let name = path.file_name()?.to_str()?;
                let id = name
                    .strip_prefix("plan-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()?;
                Some((id, path))
            })
            .collect();
        // Ids only shrink on resume (plan k becomes at most k), so in
        // ascending order a rewrite never clobbers an unread file.
        files.sort_unstable();
        for (_, path) in files {
            let read = std::fs::read_to_string(&path).and_then(|text| {
                let specs: Vec<JobSpec> = serde_json::from_str(&text)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                Ok((text, specs))
            });
            let _ = std::fs::remove_file(&path);
            let (text, specs) = match read {
                Ok((text, specs)) if !specs.is_empty() => (text, specs),
                Ok(_) => continue,
                Err(e) => {
                    log::warn(
                        "service",
                        "unreadable journal",
                        &[
                            ("path", &path.display().to_string()),
                            ("error", &e.to_string()),
                        ],
                    );
                    continue;
                }
            };
            let jobs = specs.len();
            let key = api::plan_key(&specs);
            let (id, trace, journal_error) = {
                let mut st = self.lock();
                self.enqueue(&mut st, String::new(), key, specs, Some(&text))
            };
            if let Some(e) = journal_error {
                log::error("service", "journal write failed", &[("error", &e)]);
            }
            log::info(
                "service",
                "plan resumed from journal",
                &[
                    ("job", &id.to_string()),
                    ("jobs", &jobs.to_string()),
                    ("trace_id", &trace),
                ],
            );
        }
    }

    // ---- queries ------------------------------------------------------

    /// Resolves `id` through its alias and renders a [`JobStatus`].
    fn status_of(&self, id: u64) -> Option<JobStatus> {
        let (mut status, work_plan, queued_ms, jobs) = {
            let st = self.lock();
            let record = st.plans.get(&id)?;
            let canonical = record.alias_of.unwrap_or(id);
            let target = st.plans.get(&canonical).unwrap_or(record);
            let done = match target.state {
                JobState::Queued => 0,
                JobState::Executing => target
                    .work_plan
                    .and_then(|p| st.work.plan_progress(p))
                    .map_or(0, |(done, _)| done),
                JobState::Committed => target.total,
            };
            let jobs: Vec<u64> = match (&self.spans, target.work_plan) {
                (Some(_), Some(plan)) => st
                    .work
                    .plan_jobs(plan)
                    .into_iter()
                    .map(|(j, _)| j)
                    .collect(),
                _ => Vec::new(),
            };
            let status = JobStatus {
                job: id,
                canonical,
                tenant: record.tenant.clone(),
                key: record.key.clone(),
                state: target.state.as_str().to_string(),
                done,
                total: target.total,
                stages: None,
            };
            (status, target.work_plan, target.queued_ms, jobs)
        };
        status.stages = self
            .spans
            .as_ref()
            .map(|book| plan_stages(book, work_plan, queued_ms, &jobs));
        Some(status)
    }

    fn job_status(&self, id: u64) -> HttpResponse {
        match self.status_of(id) {
            Some(status) => reply("200 OK", &status),
            None => error("404 Not Found", &format!("no job {id}")),
        }
    }

    fn job_result(&self, id: u64) -> HttpResponse {
        let json = {
            let st = self.lock();
            let Some(record) = st.plans.get(&id) else {
                drop(st);
                return error("404 Not Found", &format!("no job {id}"));
            };
            st.plans
                .get(&record.alias_of.unwrap_or(id))
                .and_then(|r| r.outcomes_json.clone())
        };
        match json {
            Some(json) => HttpResponse::json("200 OK", json),
            // Known but not committed: answer the live status with 202
            // so pollers can tell "keep waiting" from "wrong id".
            None => match self.status_of(id) {
                Some(status) => reply("202 Accepted", &status),
                None => error("404 Not Found", &format!("no job {id}")),
            },
        }
    }

    fn tenant_status(&self, name: &str) -> HttpResponse {
        let snapshot = self.lock().governor.snapshot(name);
        match snapshot {
            Some(snapshot) => reply("200 OK", &snapshot),
            None => error("404 Not Found", &format!("no tenant {name:?}")),
        }
    }

    /// Recomputes the queue-age and oldest-in-flight gauges from the
    /// plan table. Called on every routed request, so a plain
    /// `/metrics` scrape is enough to keep them fresh.
    fn refresh_age_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let (oldest_queued, oldest_open) = {
            let st = self.lock();
            let mut oldest_queued: Option<Instant> = None;
            let mut oldest_open: Option<Instant> = None;
            for record in st.plans.values() {
                let (Some(at), None) = (record.queued_at, record.alias_of) else {
                    continue;
                };
                if record.state == JobState::Queued {
                    oldest_queued = Some(oldest_queued.map_or(at, |o| o.min(at)));
                }
                if record.state != JobState::Committed {
                    oldest_open = Some(oldest_open.map_or(at, |o| o.min(at)));
                }
            }
            (oldest_queued, oldest_open)
        };
        let age = |at: Option<Instant>| at.map_or(0.0, |at| at.elapsed().as_secs_f64());
        m.age(names::SERVICE_QUEUE_AGE_SECONDS, age(oldest_queued));
        m.age(names::SERVICE_OLDEST_IN_FLIGHT_SECONDS, age(oldest_open));
    }

    // ---- execution ------------------------------------------------------

    fn runner_loop(&self, idx: usize) {
        while let Some(run) = self.next_plan() {
            let finished = if self.harness.jobs() > 0 {
                self.execute(&run, idx as u64)
            } else {
                self.await_plan(&run)
            };
            if !finished {
                return;
            }
            self.commit_plan(&run);
        }
    }

    /// Pops the next admitted plan in priority order and enqueues its
    /// jobs; `None` once draining with nothing queued, or halted.
    fn next_plan(&self) -> Option<PlanRun> {
        let (run, queued_ms, jobs, depth, complete) = {
            let mut st = self.lock();
            let (id, specs) = loop {
                if st.halted {
                    return None;
                }
                if let Some(id) = st.queue.pop() {
                    if let Some(specs) = st.plans.get_mut(&id).and_then(|r| r.specs.take()) {
                        break (id, specs);
                    }
                    continue;
                }
                if st.draining {
                    return None;
                }
                st = self.wait(st);
            };
            st.executing += 1;
            let sub = st.work.submit(specs, self.harness.cache());
            st.owners.insert(sub.plan, id);
            let jobs: Vec<(u64, String, bool)> = if self.spans.is_some() {
                st.work
                    .plan_jobs(sub.plan)
                    .into_iter()
                    .map(|(job, key)| {
                        let done = st
                            .work
                            .job(job)
                            .is_some_and(|e| e.state == jobqueue::JobState::Done);
                        (job, key, done)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let complete = st.work.plan_progress(sub.plan).is_some_and(|(d, t)| d == t);
            let depth = st.queue.len();
            let record = st.plans.get_mut(&id).expect("popped plan exists");
            record.state = JobState::Executing;
            record.work_plan = Some(sub.plan);
            let run = PlanRun {
                id,
                plan: sub.plan,
                trace: record.trace.clone(),
                tenant: record.tenant.clone(),
                charged: record.charged,
            };
            (run, record.queued_ms, jobs, depth, complete)
        };
        if let Some(m) = &self.metrics {
            m.set(names::SERVICE_QUEUE_DEPTH, &[], depth);
            if complete {
                m.add(names::FLEET_PLANS, &[], 1);
            }
        }
        let now = self.now_ms();
        for (job, key, done) in &jobs {
            let at = (run.plan, *job, key.as_str());
            self.stamp(at, &run.trace, None, &[(Stage::Queued, queued_ms)]);
            if *done {
                // Committed at enqueue: a zero-length lifecycle on the
                // cache track.
                let stages = Stage::ALL.map(|stage| (stage, now));
                self.stamp(at, &run.trace, Some(CACHE_TRACK), &stages[1..]);
            }
        }
        Some(run)
    }

    /// The in-process worker: leases this plan's jobs back in batches
    /// of up to [`Harness::jobs`] and executes them on the harness
    /// pool until the plan is complete. `false` when halted first.
    fn execute(&self, run: &PlanRun, worker: u64) -> bool {
        let poll = self.tick.min(RUNNER_POLL);
        let mut st = self.lock();
        loop {
            if st.halted {
                return false;
            }
            let now = Instant::now();
            if let Some(sweep) = self.housekeep(&mut st, now) {
                drop(st);
                self.report(sweep);
                st = self.lock();
                continue;
            }
            if plan_complete(&st, run.plan) {
                return true;
            }
            let lease = st.leases.len() as u64;
            let leased = st
                .work
                .lease_from(run.plan, lease, self.harness.jobs(), now, LOCAL_LEASE);
            if leased.is_empty() {
                // The rest is held by remote workers or backing off.
                st = self.wait_for(st, poll);
                continue;
            }
            st.leases.push(worker);
            let batch = claim(&mut st, leased, now);
            drop(st);
            self.run_batch(run, worker, batch);
            st = self.lock();
        }
    }

    /// Executes one leased batch through the harness and commits it.
    fn run_batch(&self, run: &PlanRun, worker: u64, batch: Vec<(u64, String, JobSpec)>) {
        let track = format!("service-runner-{worker}");
        let start = self.now_ms();
        let stages = [(Stage::Leased, start), (Stage::Executing, start)];
        for (job, key, _) in &batch {
            self.stamp((run.plan, *job, key), &run.trace, Some(&track), &stages);
        }
        let specs: Vec<JobSpec> = batch.iter().map(|(_, _, spec)| spec.clone()).collect();
        let report = self.harness.run_traced(&specs, Some(&run.trace));
        let pushed = self.now_ms();
        let (completed, leased) = {
            let mut st = self.lock();
            let mut completed = 0;
            for ((job, _, _), outcome) in batch.iter().zip(report.outcomes) {
                // The harness already stored fresh results in the cache.
                completed += st.work.commit(*job, outcome, None).len();
                st.first_leased.remove(job);
                st.stall_warned.remove(job);
            }
            (completed, st.work.counts().1)
        };
        self.changed.notify_all();
        for (job, key, _) in &batch {
            let at = (run.plan, *job, key.as_str());
            self.observe_commit(at, &run.trace, worker, &track, (start, pushed));
        }
        if let Some(m) = &self.metrics {
            m.add(names::FLEET_PLANS, &[], completed as u64);
            m.set(names::FLEET_LEASES_IN_FLIGHT, &[], leased);
        }
    }

    /// Remote-only execution: wait for workers to commit the plan.
    /// `false` when halted first.
    fn await_plan(&self, run: &PlanRun) -> bool {
        let mut st = self.lock();
        loop {
            if st.halted {
                return false;
            }
            if let Some(sweep) = self.housekeep(&mut st, Instant::now()) {
                drop(st);
                self.report(sweep);
                st = self.lock();
                continue;
            }
            if plan_complete(&st, run.plan) {
                return true;
            }
            st = self.wait_for(st, self.tick);
        }
    }

    /// Serializes a complete plan's outcomes, commits them to its
    /// record, and releases its tenant's in-flight unit.
    fn commit_plan(&self, run: &PlanRun) {
        let outcomes = self.lock().work.plan_outcomes(run.plan).unwrap_or_default();
        let json = serde_json::to_string(&outcomes).expect("outcomes serialize");
        let hits = outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Completed { cached: true, .. }))
            .count();
        let in_flight = {
            let mut st = self.lock();
            st.owners.remove(&run.plan);
            if let Some(record) = st.plans.get_mut(&run.id) {
                record.outcomes_json = Some(json);
                record.state = JobState::Committed;
            }
            st.executing -= 1;
            if run.charged {
                st.governor.release(&run.tenant);
            }
            st.governor.snapshot(&run.tenant).map_or(0, |s| s.in_flight)
        };
        self.changed.notify_all();
        if let Some(dir) = &self.journal {
            let _ = std::fs::remove_file(journal_path(dir, run.id));
        }
        if let Some(m) = &self.metrics {
            if run.charged {
                m.set(
                    names::SERVICE_IN_FLIGHT,
                    &[("tenant", &run.tenant)],
                    in_flight,
                );
            }
            m.add(names::SERVICE_PLANS_COMPLETED, &[], 1);
        }
        log::info(
            "service",
            "plan committed",
            &[
                ("job", &run.id.to_string()),
                ("tenant", &run.tenant),
                ("executed", &(outcomes.len() - hits).to_string()),
                ("cache_hits", &hits.to_string()),
                ("trace_id", &run.trace),
            ],
        );
    }

    /// Stamps a committed job (with the worker's executing and pushed
    /// instants) and feeds its stage latencies to the histograms and
    /// its worker's counter.
    fn observe_commit(
        &self,
        at: (u64, u64, &str),
        trace: &str,
        worker: u64,
        track: &str,
        (executing, pushed): (f64, f64),
    ) {
        if let Some(book) = &self.spans {
            let stages = [
                (Stage::Executing, executing),
                (Stage::Pushed, pushed),
                (Stage::Committed, book.now_ms()),
            ];
            self.stamp(at, trace, Some(track), &stages);
            let (plan, job, _) = at;
            if let (Some(m), Some(secs)) = (
                &self.metrics,
                book.get(plan, job).and_then(|s| s.stage_seconds()),
            ) {
                for (histogram, s) in m.stages.iter().zip(secs) {
                    histogram.observe_seconds(s);
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.add(
                names::FLEET_WORKER_JOBS,
                &[("worker", &worker.to_string())],
                1,
            );
        }
    }

    /// Requeues expired leases and finds stalled jobs, at most once per
    /// [`Shared::tick`]; whoever waits on the queue calls it.
    fn housekeep(&self, st: &mut State, now: Instant) -> Option<Sweep> {
        if now < st.next_sweep {
            return None;
        }
        st.next_sweep = now + self.tick;
        let expired = st.work.expire(now);
        let stall_after = self.lease * STALL_MULTIPLE;
        let mut stalled = Vec::new();
        let mut settled = Vec::new();
        for (&job, &leased_at) in &st.first_leased {
            let age = now.saturating_duration_since(leased_at);
            if age < stall_after || st.stall_warned.contains(&job) {
                continue;
            }
            match st.work.job(job) {
                Some(entry) if entry.state != jobqueue::JobState::Done => stalled.push(Stalled {
                    job,
                    key: entry.key.clone(),
                    age_s: age.as_secs_f64(),
                    trace: st
                        .owners
                        .get(&entry.plan)
                        .and_then(|id| st.plans.get(id))
                        .map(|r| r.trace.clone()),
                }),
                _ => settled.push(job),
            }
        }
        for job in settled {
            st.first_leased.remove(&job);
        }
        st.stall_warned.extend(stalled.iter().map(|s| s.job));
        let live_workers = st
            .workers
            .iter()
            .filter(|w| w.local || now.saturating_duration_since(w.last_seen) <= self.lease)
            .count();
        Some(Sweep {
            expired,
            stalled,
            live_workers,
            leased: st.work.counts().1,
        })
    }

    /// Publishes a housekeeping sweep: metrics and stall warnings.
    fn report(&self, sweep: Sweep) {
        if sweep.expired > 0 {
            self.changed.notify_all();
        }
        if let Some(m) = &self.metrics {
            m.add(names::FLEET_REQUEUES, &[], sweep.expired as u64);
            m.add(names::FLEET_STALLED_JOBS, &[], sweep.stalled.len() as u64);
            m.set(names::FLEET_WORKERS, &[], sweep.live_workers);
            m.set(names::FLEET_LEASES_IN_FLIGHT, &[], sweep.leased);
        }
        for s in &sweep.stalled {
            let job = s.job.to_string();
            let age = format!("{:.1}", s.age_s);
            let mut fields: Vec<(&str, &str)> =
                vec![("job", &job), ("key", &s.key), ("age_s", &age)];
            if let Some(trace) = &s.trace {
                fields.push(("trace_id", trace));
            }
            log::warn("service", "job leased but not pushed", &fields);
        }
    }

    // ---- remote workers -------------------------------------------------

    fn register(&self, req: &HttpRequest) -> HttpResponse {
        let hello: WorkerHello = match parse_body(req) {
            Ok(hello) => hello,
            Err(resp) => return resp,
        };
        let (worker, name) = {
            let mut st = self.lock();
            let worker = st.workers.len() as u64;
            let name = if hello.name.is_empty() {
                format!("worker-{worker}")
            } else {
                hello.name
            };
            st.workers.push(Worker {
                name: name.clone(),
                local: false,
                last_seen: Instant::now(),
            });
            (worker, name)
        };
        log::info(
            "service",
            "worker registered",
            &[
                ("worker", &worker.to_string()),
                ("name", &name),
                ("jobs", &hello.jobs.to_string()),
            ],
        );
        reply(
            "201 Created",
            &WorkerWelcome {
                worker,
                lease_ms: u64::try_from(self.lease.as_millis()).unwrap_or(u64::MAX),
                now_ms: self.spans.as_ref().map(|book| book.now_ms()),
            },
        )
    }

    fn lease(&self, req: &HttpRequest) -> HttpResponse {
        let ask: LeaseRequest = match parse_body(req) {
            Ok(ask) => ask,
            Err(resp) => return resp,
        };
        let now = Instant::now();
        let (grant, name, stamps, sweep, leased) = {
            let mut st = self.lock();
            let Some(worker) = st.workers.get_mut(ask.worker as usize).filter(|w| !w.local) else {
                drop(st);
                return error("404 Not Found", &format!("no worker {}", ask.worker));
            };
            worker.last_seen = now;
            let name = worker.name.clone();
            let sweep = self.housekeep(&mut st, now);
            let lease = st.leases.len() as u64;
            let leased = st.work.lease(lease, ask.max.max(1), now, self.lease);
            let mut grant = LeaseGrant {
                lease: None,
                jobs: Vec::new(),
                drained: false,
            };
            let mut stamps = Vec::new();
            if leased.is_empty() {
                grant.drained =
                    st.halted || (st.draining && st.queue.is_empty() && st.work.is_idle());
            } else {
                st.leases.push(ask.worker);
                grant.lease = Some(lease);
                for (job, key, spec) in claim(&mut st, leased, now) {
                    let plan = st.work.job(job).map_or(0, |e| e.plan);
                    let trace = trace_of(&st, plan);
                    stamps.push((plan, job, key, trace.clone().unwrap_or_default()));
                    grant.jobs.push(LeasedJob { job, spec, trace });
                }
            }
            (grant, name, stamps, sweep, st.work.counts().1)
        };
        if let Some(sweep) = sweep {
            self.report(sweep);
        }
        let at = self.now_ms();
        for (plan, job, key, trace) in &stamps {
            self.stamp(
                (*plan, *job, key),
                trace,
                Some(&name),
                &[(Stage::Leased, at)],
            );
        }
        if let Some(m) = &self.metrics {
            m.set(names::FLEET_LEASES_IN_FLIGHT, &[], leased);
        }
        reply("200 OK", &grant)
    }

    /// The remote worker holding `lease`, or the `404` to answer.
    fn holder(st: &State, lease: u64) -> Result<u64, HttpResponse> {
        st.leases
            .get(lease as usize)
            .copied()
            .filter(|w| st.workers.get(*w as usize).is_some_and(|w| !w.local))
            .ok_or_else(|| error("404 Not Found", &format!("no lease {lease}")))
    }

    fn renew(&self, lease: u64) -> HttpResponse {
        let now = Instant::now();
        let renewed = {
            let mut st = self.lock();
            let worker = match Self::holder(&st, lease) {
                Ok(worker) => worker,
                Err(resp) => return resp,
            };
            st.workers[worker as usize].last_seen = now;
            st.work.renew(lease, now, self.lease)
        };
        HttpResponse::json("200 OK", format!("{{\"renewed\":{renewed}}}"))
    }

    fn push(&self, lease: u64, req: &HttpRequest) -> HttpResponse {
        let push: PushRequest = match parse_body(req) {
            Ok(push) => push,
            Err(resp) => return resp,
        };
        let now = Instant::now();
        let (worker, name, plan, key, trace, completed, leased) = {
            let mut st = self.lock();
            let worker = match Self::holder(&st, lease) {
                Ok(worker) => worker,
                Err(resp) => return resp,
            };
            let Some(entry) = st.work.job(push.job) else {
                drop(st);
                return error("404 Not Found", &format!("no job slot {}", push.job));
            };
            if entry.state == jobqueue::JobState::Done {
                drop(st);
                return error(
                    "409 Conflict",
                    &format!("job slot {} already committed", push.job),
                );
            }
            if entry.attempts == 0 {
                drop(st);
                return error(
                    "409 Conflict",
                    &format!("job slot {} was never leased", push.job),
                );
            }
            let (plan, key) = (entry.plan, entry.key.clone());
            let trace = trace_of(&st, plan);
            st.workers[worker as usize].last_seen = now;
            // First push wins, whoever holds the slot now: specs are
            // deterministic, so a late duplicate would be identical.
            let completed = st
                .work
                .commit(push.job, push.outcome, self.harness.cache())
                .len();
            if let Some(mut profile) = push.profile {
                profile.trace = profile.trace.or_else(|| trace.clone());
                st.profiles.push(profile);
            }
            st.first_leased.remove(&push.job);
            st.stall_warned.remove(&push.job);
            let name = st.workers[worker as usize].name.clone();
            (
                worker,
                name,
                plan,
                key,
                trace,
                completed,
                st.work.counts().1,
            )
        };
        self.changed.notify_all();
        let at = self.now_ms();
        let stamps = push
            .stamps
            .map_or((at, at), |s| (s.executing_ms, s.pushed_ms));
        let trace = trace.unwrap_or_default();
        self.observe_commit((plan, push.job, &key), &trace, worker, &name, stamps);
        if let Some(m) = &self.metrics {
            m.add(names::FLEET_PLANS, &[], completed as u64);
            m.set(names::FLEET_LEASES_IN_FLIGHT, &[], leased);
        }
        HttpResponse::json("200 OK", "{\"committed\":true}")
    }

    // ---- routing --------------------------------------------------------

    fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
        // The router sees every request before the built-in routes do —
        // including `/metrics` scrapes — so refreshing here keeps the
        // backlog-age gauges live without a dedicated ticker thread.
        self.refresh_age_gauges();
        let path = req.path.split('?').next().unwrap_or("");
        let id = |rest: &str| {
            rest.parse::<u64>()
                .map_err(|_| error("400 Bad Request", "ids are integers"))
        };
        let answer = match (req.method.as_str(), path) {
            ("POST", "/v1/jobs") => self.submit(req),
            ("POST", "/v1/shutdown") => {
                self.lock().draining = true;
                self.changed.notify_all();
                HttpResponse::json("200 OK", "{\"draining\":true}\n")
            }
            ("POST", "/v1/workers") => self.register(req),
            ("POST", "/v1/leases") => self.lease(req),
            ("POST", _) if path.starts_with("/v1/leases/") => {
                let rest = &path["/v1/leases/".len()..];
                match rest.split_once('/') {
                    Some((lease, "renew")) => id(lease).map_or_else(|e| e, |l| self.renew(l)),
                    Some((lease, "push")) => id(lease).map_or_else(|e| e, |l| self.push(l, req)),
                    _ => error("404 Not Found", "unknown /v1 endpoint"),
                }
            }
            ("GET", _) if path.starts_with("/v1/jobs/") => {
                let rest = &path["/v1/jobs/".len()..];
                match rest.strip_suffix("/result") {
                    Some(job) => id(job).map_or_else(|e| e, |j| self.job_result(j)),
                    None => id(rest).map_or_else(|e| e, |j| self.job_status(j)),
                }
            }
            ("GET", _) if path.starts_with("/v1/tenants/") => {
                self.tenant_status(&path["/v1/tenants/".len()..])
            }
            _ if path.starts_with("/v1/") => error("404 Not Found", "unknown /v1 endpoint"),
            _ => return None,
        };
        Some(answer)
    }
}

/// The plan a runner is executing.
struct PlanRun {
    /// Service plan id.
    id: u64,
    /// Job-queue plan id.
    plan: u64,
    trace: String,
    tenant: String,
    charged: bool,
}

fn plan_complete(st: &State, plan: u64) -> bool {
    st.work
        .plan_progress(plan)
        .map_or(true, |(done, total)| done == total)
}

/// The trace of the service plan behind job-queue plan `plan`.
fn trace_of(st: &State, plan: u64) -> Option<String> {
    st.owners
        .get(&plan)
        .and_then(|id| st.plans.get(id))
        .map(|r| r.trace.clone())
}

/// Starts the stall clock on freshly leased jobs and pairs each with
/// its content key.
fn claim(st: &mut State, leased: Vec<(u64, JobSpec)>, now: Instant) -> Vec<(u64, String, JobSpec)> {
    leased
        .into_iter()
        .map(|(job, spec)| {
            st.first_leased.entry(job).or_insert(now);
            let key = st.work.job(job).map(|e| e.key.clone()).unwrap_or_default();
            (job, key, spec)
        })
        .collect()
}

/// A plan's stage stamps from its jobs' spans: the earliest queued,
/// leased and executing stamps, and — once every job has them — the
/// latest pushed and committed ones. Before its jobs exist the plan is
/// only queued.
fn plan_stages(book: &SpanBook, plan: Option<u64>, queued_ms: f64, jobs: &[u64]) -> StageStamps {
    let spans: Vec<_> = plan
        .map(|p| jobs.iter().map(|j| book.get(p, *j)).collect())
        .unwrap_or_default();
    let stamps = |stage: Stage| {
        spans
            .iter()
            .map(move |s| s.as_ref().and_then(|s| s.stamps[stage.index()]))
    };
    let first = |stage| stamps(stage).flatten().reduce(f64::min);
    let last = |stage| {
        stamps(stage)
            .collect::<Option<Vec<f64>>>()
            .and_then(|all| all.into_iter().reduce(f64::max))
    };
    StageStamps {
        queued: first(Stage::Queued).or(Some(queued_ms)),
        leased: first(Stage::Leased),
        executing: first(Stage::Executing),
        pushed: last(Stage::Pushed),
        committed: last(Stage::Committed),
    }
}

fn journal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("plan-{id}.json"))
}

/// Journals an admitted plan's specs so a restarted service can resume
/// it. A failed write costs resumability, never correctness.
fn write_journal(dir: &Path, id: u64, json: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(journal_path(dir, id), json))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans;
    use horus_harness::HarnessOptions;

    fn post(service: &ExperimentService, path: &str, body: &str) -> HttpResponse {
        let req = HttpRequest {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        service.route(&req).expect("a /v1 route")
    }

    fn get(service: &ExperimentService, path: &str) -> HttpResponse {
        let req = HttpRequest {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        service.route(&req).expect("a /v1 route")
    }

    #[test]
    fn a_poisoned_state_lock_still_serves_a_round_trip() {
        let harness = Arc::new(Harness::new(HarnessOptions {
            jobs: Some(0),
            no_cache: true,
            ..HarnessOptions::default()
        }));
        let service = ExperimentService::start(
            &ServiceConfig::default(),
            harness,
            Some(Registry::shared()),
            Some(SpanBook::shared()),
        );
        let shared = Arc::clone(&service.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.state.lock();
            panic!("a handler panicked while holding the state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(service.shared.state.is_poisoned());

        let specs = plans::quick_plan(0);
        let body = serde_json::to_string(&SubmitRequest::plan(specs.clone())).expect("ser");
        let resp = post(&service, "/v1/jobs", &body);
        assert!(resp.status.starts_with("202"), "{}", resp.status);
        let submitted: SubmitResponse = serde_json::from_str(&resp.body).expect("submit body");

        let resp = post(&service, "/v1/workers", "{\"name\":\"w\",\"jobs\":1}");
        assert!(resp.status.starts_with("201"), "{}", resp.status);
        let welcome: WorkerWelcome = serde_json::from_str(&resp.body).expect("welcome");
        let ask = format!("{{\"worker\":{},\"max\":4}}", welcome.worker);
        let grant = loop {
            // The runner enqueues the plan asynchronously.
            let resp = post(&service, "/v1/leases", &ask);
            assert!(resp.status.starts_with("200"), "{}", resp.status);
            let grant: LeaseGrant = serde_json::from_str(&resp.body).expect("grant");
            if grant.lease.is_some() {
                break grant;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(grant.jobs.len(), 1);
        let lease = grant.lease.expect("leased");
        let push = PushRequest {
            job: grant.jobs[0].job,
            outcome: JobOutcome::Completed {
                result: grant.jobs[0].spec.execute(),
                cached: false,
            },
            profile: None,
            stamps: None,
        };
        let body = serde_json::to_string(&push).expect("ser");
        let resp = post(&service, &format!("/v1/leases/{lease}/push"), &body);
        assert!(resp.status.starts_with("200"), "{}", resp.status);

        let path = format!("/v1/jobs/{}/result", submitted.job);
        let result = loop {
            let resp = get(&service, &path);
            if resp.status.starts_with("200") {
                break resp.body;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let local = Harness::serial().run(&specs).outcomes;
        assert_eq!(result, serde_json::to_string(&local).expect("ser"));
        service.join();
    }
}
