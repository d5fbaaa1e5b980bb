//! A [`SweepBackend`] that executes plans through a running
//! `horus-cli serve` instance.
//!
//! This closes the loop between the batch tools and the daemon: any
//! harness consumer (`horus-cli sweep`, `repro`, `bench-gate`) can
//! point `--service HOST:PORT` at a shared service and its plans ride
//! the daemon's admission control, dedup, and result cache — identical
//! submissions from different people execute once. The determinism
//! contract of [`SweepBackend`] holds because the service serializes
//! the same [`horus_harness::JobOutcome`] list a local run produces
//! (modulo the `cached` provenance flag, which the backend clears:
//! whether the daemon executed or remembered is not the caller's
//! business).

use crate::api::{self, SubmitRequest, SubmitResponse, TENANT_HEADER};
use horus_harness::{JobOutcome, JobSpec, SweepBackend};
use horus_obs::http::{http_get, http_post};
use horus_obs::log;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Executes sweeps by submitting them to a `horus-service` daemon and
/// polling for the committed result.
#[derive(Debug, Clone)]
pub struct ServiceBackend {
    addr: String,
    tenant: Option<String>,
    timeout: Duration,
}

impl ServiceBackend {
    /// A backend targeting the service at `addr` (`host:port`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> ServiceBackend {
        ServiceBackend {
            addr: addr.into(),
            tenant: None,
            timeout: Duration::from_secs(600),
        }
    }

    /// Submits under this tenant name (sent as the `X-Horus-Tenant`
    /// header) instead of the service's fallback tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> ServiceBackend {
        self.tenant = Some(tenant.into());
        self
    }

    /// Overrides how long [`SweepBackend::run_specs`] waits for the
    /// plan to commit.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> ServiceBackend {
        self.timeout = timeout;
        self
    }

    fn resolve(&self) -> Result<SocketAddr, String> {
        self.addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {}: {e}", self.addr))?
            .next()
            .ok_or_else(|| format!("{} resolves to no address", self.addr))
    }
}

impl SweepBackend for ServiceBackend {
    fn run_specs(&self, specs: &[JobSpec], trace: Option<&str>) -> Result<Vec<JobOutcome>, String> {
        let addr = self.resolve()?;
        let body = serde_json::to_string(&SubmitRequest::plan(specs.to_vec()))
            .map_err(|e| format!("serialize plan: {e}"))?;
        let headers: Vec<(&str, &str)> = self
            .tenant
            .as_deref()
            .map(|t| (TENANT_HEADER, t))
            .into_iter()
            .collect();
        let (status, resp) = http_post(addr, "/v1/jobs", &headers, &body)
            .map_err(|e| format!("submit to {}: {e}", self.addr))?;
        if status.contains("429") {
            return Err(format!("service shed the plan: {resp}"));
        }
        if !status.contains("202") {
            return Err(format!("service answered {status}: {resp}"));
        }
        let accepted: SubmitResponse =
            serde_json::from_str(&resp).map_err(|e| format!("bad submit response: {e}"))?;
        // The service mints (or reuses) its own trace at admission; one
        // log line ties the caller's sweep trace to it so the offline
        // analyzer can join batch-side and service-side signals.
        {
            let job = accepted.job.to_string();
            let mut fields: Vec<(&str, &str)> = vec![("job", &job), ("key", &accepted.key)];
            if let Some(t) = trace.filter(|t| !t.is_empty()) {
                fields.push(("trace_id", t));
            }
            if let Some(service_trace) = accepted.trace.as_deref() {
                fields.push(("service_trace_id", service_trace));
            }
            log::info("service-backend", "plan accepted by service", &fields);
        }

        let deadline = Instant::now() + self.timeout;
        let path = format!("/v1/jobs/{}/result", accepted.job);
        loop {
            let (status, body) =
                http_get(addr, &path).map_err(|e| format!("poll {}: {e}", self.addr))?;
            if status.contains("200") {
                let mut outcomes: Vec<JobOutcome> =
                    serde_json::from_str(&body).map_err(|e| format!("bad result body: {e}"))?;
                if outcomes.len() != specs.len() {
                    return Err(format!(
                        "service returned {} outcome(s) for {} spec(s)",
                        outcomes.len(),
                        specs.len()
                    ));
                }
                for outcome in &mut outcomes {
                    if let JobOutcome::Completed { cached, .. } = outcome {
                        *cached = false;
                    }
                }
                return Ok(outcomes);
            }
            if !status.contains("202") {
                return Err(format!("result poll answered {status}: {body}"));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "plan {} not committed within {:?}",
                    api::plan_key(specs),
                    self.timeout
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn describe(&self) -> String {
        match &self.tenant {
            Some(tenant) => format!("service at {} (tenant {tenant})", self.addr),
            None => format!("service at {}", self.addr),
        }
    }
}
