//! End-to-end fleet tests: a real service listening on a loopback
//! socket, real workers leasing over HTTP, and the determinism contract
//! checked the only way that matters — byte-for-byte against a local
//! single-process run of the same specs.
//!
//! Every service here runs remote-only (a `jobs: Some(0)` harness, what
//! `serve --jobs 0` builds), so the workers execute every job.

use horus_core::{DrainScheme, SystemConfig};
use horus_harness::{Harness, HarnessOptions, JobOutcome, JobSpec, ProgressMode, SweepBackend};
use horus_obs::http::{http_get, http_post};
use horus_obs::{names, MetricsServer, Registry, Router, SampleValue, SpanBook, Stage};
use horus_service::{
    run_worker, ExperimentService, JobStatus, LeaseGrant, ServiceBackend, ServiceConfig,
    WorkerOptions, WorkerWelcome,
};
use horus_workload::FillPattern;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ten cheap, key-distinct jobs: the five schemes over two seeds of the
/// small test configuration.
fn sweep_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for seed_flip in [0u64, 1] {
        let mut cfg = SystemConfig::small_test();
        cfg.seed ^= seed_flip;
        for s in DrainScheme::ALL {
            specs.push(JobSpec::drain(
                &cfg,
                s,
                FillPattern::StridedSparse { min_stride: 16384 },
            ));
        }
    }
    specs
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("horus-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn local_outcomes(specs: &[JobSpec]) -> Vec<JobOutcome> {
    Harness::new(HarnessOptions {
        jobs: Some(2),
        no_cache: true,
        ..HarnessOptions::default()
    })
    .run(specs)
    .outcomes
}

fn as_json(outcomes: &[JobOutcome]) -> String {
    serde_json::to_string(outcomes).expect("outcomes serialize")
}

/// One remote-only service on a loopback listener.
struct Stack {
    server: MetricsServer,
    service: Arc<ExperimentService>,
    registry: Arc<Registry>,
    book: Arc<SpanBook>,
    addr: SocketAddr,
}

fn start(cache_dir: Option<&Path>, lease_ms: u64) -> Stack {
    let registry = Registry::shared();
    let book = SpanBook::shared();
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let harness = Arc::new(Harness::new(HarnessOptions {
        jobs: Some(0),
        cache_dir: cache_dir.map(Path::to_path_buf),
        no_cache: cache_dir.is_none(),
        progress: ProgressMode::Silent,
        metrics: Some(Arc::clone(&registry)),
        ..HarnessOptions::default()
    }));
    let config = ServiceConfig {
        lease_ms,
        ..ServiceConfig::default()
    };
    let service = ExperimentService::start(
        &config,
        harness,
        Some(Arc::clone(&registry)),
        Some(Arc::clone(&book)),
    );
    server.set_router(Arc::clone(&service) as Arc<dyn Router>);
    let addr = server.local_addr();
    Stack {
        server,
        service,
        registry,
        book,
        addr,
    }
}

impl Stack {
    fn spawn_worker(
        &self,
        name: &str,
    ) -> std::thread::JoinHandle<Result<horus_service::WorkerSummary, String>> {
        let opts = WorkerOptions {
            name: name.to_owned(),
            jobs: Some(2),
            ..WorkerOptions::new(self.addr.to_string())
        };
        std::thread::spawn(move || run_worker(&opts))
    }

    fn harness(&self) -> Harness {
        Harness::new(HarnessOptions {
            jobs: Some(2),
            no_cache: true, // the service owns the authoritative cache
            backend: Some(
                Arc::new(ServiceBackend::new(self.addr.to_string())) as Arc<dyn SweepBackend>
            ),
            ..HarnessOptions::default()
        })
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry
            .snapshot()
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Uint(v) => v,
                _ => 0,
            })
            .sum()
    }

    fn stop(self) {
        self.service.begin_drain();
        self.service.wait_until_drained();
        self.service.join();
        self.server.shutdown();
    }
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http_post(addr, path, &[], body).expect("post")
}

/// The golden test: a service plus two workers produce output
/// byte-identical to a local `--jobs 2` run, each job executes exactly
/// once, and a rerun of the same plan is answered without the workers
/// executing anything.
#[test]
fn fleet_matches_local_run_and_reruns_execute_nothing() {
    let dir = temp_dir("golden");
    let stack = start(Some(&dir), 0);
    let workers: Vec<_> = (0..2)
        .map(|i| stack.spawn_worker(&format!("test-worker-{i}")))
        .collect();

    let specs = sweep_specs();
    let report = stack.harness().run(&specs);
    assert_eq!(report.executed, specs.len(), "fresh plan executes fully");
    let local = local_outcomes(&specs);
    assert_eq!(report.outcomes, local);
    assert_eq!(as_json(&report.outcomes), as_json(&local), "byte-identical");

    // Rerun: the identical plan dedups onto the committed one, so the
    // service answers at once — workers never see it.
    let rerun = stack.harness().run(&specs);
    assert_eq!(as_json(&rerun.outcomes), as_json(&local));
    assert_eq!(stack.service.job_counts(), (0, 0, specs.len()));

    stack.service.begin_drain();
    let mut executed_by_workers = 0;
    for w in workers {
        let summary = w
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly on drain");
        executed_by_workers += summary.executed;
    }
    assert_eq!(
        executed_by_workers,
        specs.len(),
        "each job executed exactly once across the fleet"
    );
    assert_eq!(stack.counter(names::FLEET_REQUEUES), 0, "no lease expired");
    assert_eq!(stack.counter(names::FLEET_PLANS), 1);
    let profiles = stack.service.take_job_profiles();
    assert_eq!(profiles.len(), specs.len(), "one pushed profile per job");
    stack.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-path test: a worker that leases every job and dies loses
/// nothing — its leases expire, the jobs requeue, a healthy worker
/// finishes them, and the merged plan is still byte-identical to the
/// local run.
#[test]
fn killed_worker_leases_requeue_and_finish_elsewhere() {
    let stack = start(None, 200);
    let specs = sweep_specs();
    let submitter = {
        let harness = stack.harness();
        let specs = specs.clone();
        std::thread::spawn(move || harness.run(&specs))
    };

    // A doomed worker grabs every job, then "dies": it never renews
    // and never pushes.
    let (status, body) = post_json(
        stack.addr,
        "/v1/workers",
        "{\"name\":\"doomed\",\"jobs\":2}",
    );
    assert!(status.contains("201"), "{status}");
    let doomed: WorkerWelcome = serde_json::from_str(&body).expect("welcome");
    let ask = format!("{{\"worker\":{},\"max\":1000}}", doomed.worker);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = post_json(stack.addr, "/v1/leases", &ask);
        let grant: LeaseGrant = serde_json::from_str(&body).expect("grant");
        if !grant.jobs.is_empty() {
            assert_eq!(
                grant.jobs.len(),
                specs.len(),
                "doomed worker holds everything"
            );
            break;
        }
        assert!(Instant::now() < deadline, "plan never reached the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A healthy worker joins after the crash; the dead leases must
    // requeue (200 ms lease + bounded backoff) before it can progress.
    let healthy = stack.spawn_worker("healthy");
    let report = submitter.join().expect("submitter");
    assert_eq!(
        report.outcomes.len(),
        specs.len(),
        "nothing lost, nothing doubled"
    );
    assert_eq!(as_json(&report.outcomes), as_json(&local_outcomes(&specs)));
    assert!(
        stack.counter(names::FLEET_REQUEUES) > 0,
        "the dead worker's leases were reaped"
    );

    stack.service.begin_drain();
    let summary = healthy
        .join()
        .expect("worker thread")
        .expect("healthy worker exits cleanly");
    assert_eq!(summary.executed, specs.len(), "healthy worker ran them all");
    stack.stop();
}

/// The tracing test: two real workers get all five lifecycle stages
/// stamped for every job, on one service-relative, per-job-monotonic
/// timeline — and collecting spans changes nothing about the merged
/// outcomes.
#[test]
fn traced_fleet_stamps_every_stage_on_one_timeline() {
    let stack = start(None, 0);
    let workers: Vec<_> = (0..2)
        .map(|i| stack.spawn_worker(&format!("span-worker-{i}")))
        .collect();

    let specs = sweep_specs();
    let report = stack.harness().run(&specs);
    assert_eq!(report.executed, specs.len());
    assert_eq!(
        as_json(&report.outcomes),
        as_json(&local_outcomes(&specs)),
        "span collection never perturbs the merged plan"
    );

    let spans = stack.book.spans();
    assert_eq!(spans.len(), specs.len(), "one span per job");
    let trace = spans[0].trace.clone();
    assert_eq!(trace.len(), 16, "the plan's admission trace");
    for span in &spans {
        assert!(span.is_complete(), "all five stages stamped: {span:?}");
        assert!(
            span.worker.starts_with("span-worker-"),
            "worker track recorded: {:?}",
            span.worker
        );
        assert!(!span.key.is_empty(), "content key recorded");
        assert_eq!(span.trace, trace, "the plan trace follows every job");
        let stamps: Vec<f64> = span.stamps.iter().map(|s| s.expect("complete")).collect();
        // Service-side stamps share one clock and must be ordered; the
        // worker-side pair is clock-normalized, so allow a small
        // estimation skew before the monotone clamp.
        assert!(stamps[0] <= stamps[1], "queued <= leased: {stamps:?}");
        assert!(
            stamps[1] - stamps[2] < 50.0,
            "leased ~<= executing: {stamps:?}"
        );
        assert!(
            stamps[2] <= stamps[3] + 1e-9,
            "executing <= pushed: {stamps:?}"
        );
        assert!(
            stamps[3] - stamps[4] < 50.0,
            "pushed ~<= committed: {stamps:?}"
        );
        let norm = span.normalized().expect("complete");
        assert!(
            norm.windows(2).all(|w| w[0] <= w[1]),
            "normalized timeline is monotone: {norm:?}"
        );
    }

    // The plan's status is derived from its job spans.
    let (_, body) = http_get(stack.addr, "/v1/jobs/0").expect("status");
    let status: JobStatus = serde_json::from_str(&body).expect("status parses");
    assert_eq!(
        (status.state.as_str(), status.done),
        ("committed", specs.len())
    );
    let stages = status.stages.expect("stages");
    let first_queued = spans
        .iter()
        .filter_map(|s| s.stamps[0])
        .fold(f64::MAX, f64::min);
    let last_commit = spans.iter().filter_map(|s| s.stamps[4]).fold(0.0, f64::max);
    assert_eq!(stages.queued, Some(first_queued));
    assert_eq!(stages.committed, Some(last_commit));

    // Every stage histogram observed every committed job.
    let snapshot = stack.registry.snapshot();
    for stage in Stage::ALL {
        let sample = snapshot
            .samples
            .iter()
            .find(|s| {
                s.name == names::FLEET_JOB_STAGE_SECONDS
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "stage" && v == stage.as_str())
            })
            .unwrap_or_else(|| panic!("missing {} histogram", stage.as_str()));
        let SampleValue::TimeHistogram(h) = &sample.value else {
            panic!("{} is not a time histogram", stage.as_str());
        };
        assert_eq!(
            h.count,
            specs.len() as u64,
            "{} observed once per job",
            stage.as_str()
        );
    }

    // The Chrome trace has one track per worker that actually ran a
    // job (scheduling decides whether that is one worker or both).
    let chrome = stack.book.chrome_trace_json();
    assert!(chrome.contains(&format!("\"trace\":\"{trace}\"")));
    let workers_seen: std::collections::BTreeSet<&str> =
        spans.iter().map(|s| s.worker.as_str()).collect();
    assert_eq!(
        chrome.matches("\"name\":\"thread_name\"").count(),
        workers_seen.len(),
        "one track per worker that ran a job: {workers_seen:?}"
    );

    stack.service.begin_drain();
    for w in workers {
        w.join().expect("worker thread").expect("clean drain exit");
    }
    let profiles = stack.service.take_job_profiles();
    assert_eq!(profiles.len(), specs.len());
    assert!(
        profiles
            .iter()
            .all(|p| p.trace.as_deref() == Some(trace.as_str())),
        "pushed profiles carry the plan trace"
    );
    stack.stop();
}

/// Restart durability: a plan admitted but unfinished when the service
/// stops is journaled, resumed by the next service over the same cache
/// directory, and finished by a worker connecting to it.
#[test]
fn restarted_service_resumes_unfinished_plans() {
    let dir = temp_dir("resume");
    let specs = sweep_specs();

    // First life takes the plan and stops before any worker shows up.
    {
        let stack = start(Some(&dir), 0);
        let body = serde_json::to_string(&horus_service::SubmitRequest::plan(specs.clone()))
            .expect("serialize");
        let (status, _) = post_json(stack.addr, "/v1/jobs", &body);
        assert!(status.contains("202"), "{status}");
        stack.server.shutdown();
        drop_last(stack.service);
    }

    // Second life over the same cache dir resumes the journal.
    let stack = start(Some(&dir), 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while stack.service.job_counts() != (specs.len(), 0, 0) {
        assert!(Instant::now() < deadline, "journaled plan never came back");
        std::thread::sleep(Duration::from_millis(5));
    }
    let worker = stack.spawn_worker("resumer");
    let resumed = loop {
        let (status, body) = http_get(stack.addr, "/v1/jobs/0/result").expect("result");
        if status.contains("200") {
            break body;
        }
        assert!(Instant::now() < deadline, "resumed plan never committed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(resumed, as_json(&local_outcomes(&specs)));

    // The resumed plan is an ordinary plan again: resubmitting it is
    // answered without any worker.
    let report = stack.harness().run(&specs);
    assert_eq!(as_json(&report.outcomes), resumed);
    assert_eq!(stack.service.job_counts(), (0, 0, specs.len()));
    stack.service.begin_drain();
    let summary = worker.join().expect("worker thread").expect("clean exit");
    assert_eq!(summary.executed, specs.len());
    assert!(
        std::fs::read_dir(dir.join("plans")).map_or(true, |d| d.count() == 0),
        "committed plans leave the journal"
    );
    stack.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drops the last handle on `service` once the listener's connection
/// threads have let go of theirs, which stops it.
fn drop_last(service: Arc<ExperimentService>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&service) > 1 {
        assert!(Instant::now() < deadline, "a connection kept the router");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(service);
}

/// Dropping a service is prompt: nothing waits out a lease-length
/// timer, even with the default 30 s lease, a worker registered and a
/// plan waiting on it.
#[test]
fn dropping_a_service_takes_under_a_second() {
    let stack = start(None, 0);
    assert_eq!(
        ServiceConfig::default().effective_lease(),
        Duration::from_secs(30)
    );
    let (status, _) = post_json(stack.addr, "/v1/workers", "{\"name\":\"probe\"}");
    assert!(status.contains("201"), "{status}");
    let body = serde_json::to_string(&horus_service::SubmitRequest::plan(sweep_specs()))
        .expect("serialize");
    let (status, _) = post_json(stack.addr, "/v1/jobs", &body);
    assert!(status.contains("202"), "{status}");
    stack.server.shutdown();
    let started = Instant::now();
    drop_last(stack.service);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "drop took {took:?}");
}
