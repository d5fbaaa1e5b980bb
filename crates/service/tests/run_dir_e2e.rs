//! A `serve`-shaped stack with a run directory, joined offline.
//!
//! Builds the service exactly as `horus-cli serve --run-dir DIR` does —
//! one `ObsSession` owning the listener, registry, span book and log
//! stream, the experiment router mounted on it — submits catalog quick
//! plans under two tenants, shuts down, and runs `insight` over the
//! directory the session wrote. Every admitted trace must appear in all
//! three signals (profiles in `summary.json`, `spans.json`,
//! `logs.ndjson`).
//!
//! This file holds one test on purpose: the structured logger is
//! process-global, so this binary's log stream is this stack's alone.

use horus_harness::{Harness, HarnessOptions, ProgressMode};
use horus_obs::http::http_post;
use horus_obs::insight::{analyze, InsightInputs};
use horus_obs::{rundir, ObsOptions, ObsSession, Router, SpanBook};
use horus_service::{
    ExperimentService, ServiceConfig, SubmitRequest, SubmitResponse, TenantPolicy, TENANT_HEADER,
};
use std::sync::Arc;

#[test]
fn every_admitted_trace_joins_across_the_run_dir() {
    let dir = std::env::temp_dir().join(format!("horus-run-dir-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let session = ObsSession::start(&ObsOptions {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        run_dir: Some(dir.clone()),
    })
    .expect("start session");
    let harness = Arc::new(Harness::new(HarnessOptions {
        jobs: Some(2),
        cache_dir: None,
        no_cache: true,
        progress: ProgressMode::Silent,
        metrics: Some(session.registry()),
        backend: None,
        spans: None,
    }));
    let tenant = |name: &str| TenantPolicy {
        name: name.to_string(),
        burst: 100,
        refill_per_sec: 0.0,
        max_in_flight: 0,
    };
    let config = ServiceConfig {
        tenants: vec![tenant("team-a"), tenant("team-b")],
        runners: 2,
        ..ServiceConfig::default()
    };
    let service = ExperimentService::start(
        &config,
        Arc::clone(&harness),
        Some(session.registry()),
        Some(session.span_book().unwrap_or_else(SpanBook::shared)),
    );
    session.install_router(Arc::clone(&service) as Arc<dyn Router>);
    let addr = session.metrics_addr().expect("listener");

    let mut traces = Vec::new();
    for i in 0..6 {
        let tenant = if i % 2 == 0 { "team-a" } else { "team-b" };
        let body = serde_json::to_string(&SubmitRequest::plan(horus_service::plans::quick_plan(i)))
            .expect("serialize");
        let (status, resp) =
            http_post(addr, "/v1/jobs", &[(TENANT_HEADER, tenant)], &body).expect("submit");
        assert!(status.contains("202"), "submit answered {status}: {resp}");
        let resp: SubmitResponse = serde_json::from_str(&resp).expect("submit response");
        traces.push(resp.trace.expect("admission mints a trace"));
    }
    let (status, _) = http_post(addr, "/v1/shutdown", &[], "").expect("shutdown");
    assert!(status.contains("200"), "shutdown answered {status}");
    service.wait_until_drained();
    service.join();
    let written = session
        .finish(service.take_job_profiles())
        .expect("write the run dir");
    assert_eq!(written.as_deref(), Some(dir.as_path()));

    for name in [rundir::SUMMARY, rundir::SPANS, rundir::LOGS] {
        assert!(dir.join(name).is_file(), "{name} missing");
    }
    assert!(
        !dir.join(rundir::PROGRESS).exists(),
        "the service's harness reports no progress"
    );
    let insight =
        analyze(&InsightInputs::from_run_dir(&dir).expect("read run dir")).expect("analyze");
    assert!(insight.have_profiles && insight.have_spans && insight.have_logs);
    for trace in &traces {
        let story = insight
            .stories
            .get(trace)
            .unwrap_or_else(|| panic!("trace {trace} missing from the join"));
        assert!(
            story.in_profiles && story.in_spans && story.in_logs,
            "{story:?}"
        );
        assert!(story.jobs >= 1, "{story:?}");
    }
    assert!(
        insight.orphan_spans().is_empty(),
        "{:?}",
        insight.orphan_spans()
    );
    assert!(
        (insight.coverage() - 1.0).abs() < 1e-12,
        "coverage {}",
        insight.coverage()
    );
    std::fs::remove_dir_all(&dir).ok();
}
