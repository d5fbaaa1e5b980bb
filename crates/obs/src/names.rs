//! Canonical metric names shared by the harness, bench layer, CLI,
//! run summary, and tests.
//!
//! Keeping the names in one place is what makes the label-cardinality and
//! determinism rules auditable: every family the workspace emits is listed
//! here with its kind and label set.
//!
//! ## Label cardinality rules
//!
//! Labels must come from small, closed sets known at compile time or
//! bounded by the run configuration:
//!
//! * `scheme` — one of the five drain schemes (`DrainScheme::ALL`).
//! * `worker` — `0..jobs`, bounded by `--jobs`.
//! * `verdict` — crash-sweep classification (`recovered`, `detected`,
//!   `silent_corruption`).
//! * `counter` / `sample` — interned `horus_sim::Stats` keys, a fixed
//!   vocabulary defined by the simulator.
//! * `route` — a pattern-normalized route id from the closed set in
//!   [`crate::http::normalize_route`] (`/v1/jobs`, `/v1/jobs/{id}`,
//!   `/metrics`, …, with `other` as the catch-all). Never the raw
//!   request path: ids and query strings would make the label set grow
//!   with traffic.
//! * `status` — the three-digit HTTP status code of the response, a
//!   closed set bounded by the statuses the server can emit.
//!
//! Never label by job key, crash cycle, raw URL path, or anything else
//! that grows with the plan size or traffic — that turns a bounded
//! registry into an unbounded one. Trace ids never become labels
//! either: they ride on histogram buckets as OpenMetrics *exemplars*
//! (see [`crate::registry::HistogramSnapshot::exemplars`]), which hold
//! one most-recent trace per bucket instead of one series per trace.

/// Counter: jobs handed to the worker pool (includes cache hits).
pub const JOBS_STARTED: &str = "horus_harness_jobs_started_total";
/// Counter: jobs that ran to completion (includes cache hits).
pub const JOBS_COMPLETED: &str = "horus_harness_jobs_completed_total";
/// Counter: jobs whose worker panicked.
pub const JOBS_PANICKED: &str = "horus_harness_jobs_panicked_total";
/// Counter: jobs answered from the on-disk result cache.
pub const CACHE_HITS: &str = "horus_harness_cache_hits_total";
/// Gauge: jobs accepted but not yet finished.
pub const QUEUE_DEPTH: &str = "horus_harness_queue_depth";
/// Gauge: jobs the current plan will run in total.
pub const JOBS_PLANNED: &str = "horus_harness_jobs_planned";
/// Gauge: size of the worker pool (host-dependent: excluded from
/// deterministic snapshots by the `worker` naming rule).
pub const WORKER_THREADS: &str = "horus_harness_worker_threads";
/// Float counter, labelled `worker`: seconds each worker spent running
/// jobs (host-dependent).
pub const WORKER_BUSY_SECONDS: &str = "horus_harness_worker_busy_seconds_total";
/// Counter: simulated drain episodes completed.
pub const EPISODES_TOTAL: &str = "horus_harness_episodes_total";
/// Counter: total simulated cycles across completed jobs.
pub const SIM_CYCLES_TOTAL: &str = "horus_sim_cycles_total";
/// Counter, labelled `scheme`: NVM memory operations per drain scheme.
pub const SCHEME_MEMORY_OPS: &str = "horus_scheme_memory_ops_total";
/// Counter, labelled `scheme`: MAC operations per drain scheme.
pub const SCHEME_MAC_OPS: &str = "horus_scheme_mac_ops_total";
/// Float gauge: live episodes/s over the run so far (timing-dependent).
pub const EPISODES_PER_SECOND: &str = "horus_harness_episodes_per_second";
/// Float gauge: live simulated cycles/s over the run so far
/// (timing-dependent).
pub const SIM_CYCLES_PER_SECOND: &str = "horus_harness_sim_cycles_per_second";
/// Float gauge: live memory operations/s over the run so far
/// (timing-dependent).
pub const MEMORY_OPS_PER_SECOND: &str = "horus_harness_memory_ops_per_second";
/// Counter, labelled `scheme` and `verdict`: crash-sweep classifications.
pub const CRASH_VERDICTS: &str = "horus_crash_verdicts_total";
/// Counter, labelled `counter`: mirrored `horus_sim::Stats` counters (see
/// [`crate::bridge`]).
pub const SIM_STAT: &str = "horus_sim_stat_total";
/// Counter, labelled `sample`: observation counts of mirrored
/// `horus_sim::Stats` histograms.
pub const SIM_SAMPLE_COUNT: &str = "horus_sim_sample_count_total";
/// Counter, labelled `sample`: summed values of mirrored
/// `horus_sim::Stats` histograms (saturating at `u64::MAX`).
pub const SIM_SAMPLE_SUM: &str = "horus_sim_sample_sum_total";
/// Gauge: live workers of the experiment service — its in-process
/// runners plus remote workers heard from within one lease.
/// All `horus_fleet_` families are scheduling-dependent (who leased
/// what, when, and how often leases expired) and therefore excluded
/// from deterministic snapshots by the prefix rule in [`crate::expo`].
pub const FLEET_WORKERS: &str = "horus_fleet_workers";
/// Gauge: job leases currently held by workers.
pub const FLEET_LEASES_IN_FLIGHT: &str = "horus_fleet_leases_in_flight";
/// Counter: expired leases returned to the service's job queue.
pub const FLEET_REQUEUES: &str = "horus_fleet_requeues_total";
/// Counter, labelled `worker`: jobs committed per fleet worker (the
/// label is the service-assigned worker id, bounded by the runner count
/// plus the number of worker registrations in the service's lifetime).
pub const FLEET_WORKER_JOBS: &str = "horus_fleet_worker_jobs_total";
/// Counter: plans fully merged by the service's job queue.
pub const FLEET_PLANS: &str = "horus_fleet_plans_total";
/// Duration histogram, labelled `stage`: per-stage job latency observed
/// at commit time. The `stage` label is one of the five lifecycle
/// stages (`queued`, `leased`, `executing`, `pushed`, `committed` — the
/// last meaning end-to-end queued→committed), a closed set defined by
/// `obs::span::Stage::ALL`.
pub const FLEET_JOB_STAGE_SECONDS: &str = "horus_fleet_job_stage_seconds";
/// Counter, labelled `tenant`: plan submissions received by the service
/// API, before admission control. All `horus_service_` families are
/// load-dependent (client arrival order, wall-clock bucket refill) and
/// therefore excluded from deterministic snapshots by the prefix rule
/// in [`crate::expo`]. The `tenant` label is bounded by the tenant
/// config file plus the single fallback tenant.
pub const SERVICE_SUBMITTED: &str = "horus_service_jobs_submitted_total";
/// Counter, labelled `tenant`: submissions the governor admitted.
pub const SERVICE_ADMITTED: &str = "horus_service_jobs_admitted_total";
/// Counter, labelled `tenant`: submissions shed with `429 Too Many
/// Requests` (token budget exhausted or max-in-flight quota hit).
pub const SERVICE_SHED: &str = "horus_service_jobs_shed_total";
/// Gauge: admitted jobs waiting in the service priority queue.
pub const SERVICE_QUEUE_DEPTH: &str = "horus_service_queue_depth";
/// Gauge, labelled `tenant`: admitted plans currently queued or
/// executing, the quantity the max-in-flight quota bounds.
pub const SERVICE_IN_FLIGHT: &str = "horus_service_jobs_in_flight";
/// Counter: service plans executed to completion (includes plans whose
/// every job was a cache hit; excludes deduped alias submissions).
pub const SERVICE_PLANS_COMPLETED: &str = "horus_service_plans_completed_total";
/// Duration histogram: time from request arrival to admission verdict.
pub const SERVICE_ADMISSION_SECONDS: &str = "horus_service_admission_seconds";
/// Duration histogram: client-observed request latency, recorded by the
/// `horus-load` generator into its own registry (not the server's).
pub const SERVICE_CLIENT_REQUEST_SECONDS: &str = "horus_service_client_request_seconds";
/// Gauge: seconds the oldest plan in the service queue has been
/// waiting. Zero when the queue is empty.
pub const SERVICE_QUEUE_AGE_SECONDS: &str = "horus_service_queue_age_seconds";
/// Gauge: seconds the oldest admitted-but-uncommitted plan (queued or
/// executing) has been in flight. Zero when nothing is in flight.
pub const SERVICE_OLDEST_IN_FLIGHT_SECONDS: &str = "horus_service_oldest_in_flight_seconds";
/// Counter, labelled `route` and `status`: HTTP requests answered by
/// the shared listener, RED-style. All `horus_http_` families are
/// traffic-dependent and excluded from deterministic snapshots by the
/// prefix rule in [`crate::expo`]. Both labels come from closed sets —
/// see the cardinality rules above.
pub const HTTP_REQUESTS: &str = "horus_http_requests_total";
/// Duration histogram, labelled `route`: server-side request latency,
/// accept-to-response. Buckets carry trace-id exemplars when the
/// response was correlated.
pub const HTTP_REQUEST_SECONDS: &str = "horus_http_request_seconds";
/// Counter: jobs the fleet stall watchdog flagged as leased but not
/// pushed within the configured multiple of the lease interval.
pub const FLEET_STALLED_JOBS: &str = "horus_fleet_stalled_jobs_total";

#[cfg(test)]
mod tests {
    use crate::expo::is_deterministic_metric;

    #[test]
    fn determinism_classification_of_every_family() {
        for name in [
            super::JOBS_STARTED,
            super::JOBS_COMPLETED,
            super::JOBS_PANICKED,
            super::CACHE_HITS,
            super::QUEUE_DEPTH,
            super::JOBS_PLANNED,
            super::EPISODES_TOTAL,
            super::SIM_CYCLES_TOTAL,
            super::SCHEME_MEMORY_OPS,
            super::SCHEME_MAC_OPS,
            super::CRASH_VERDICTS,
            super::SIM_STAT,
            super::SIM_SAMPLE_COUNT,
            super::SIM_SAMPLE_SUM,
        ] {
            assert!(
                is_deterministic_metric(name),
                "{name} should be deterministic"
            );
        }
        for name in [
            super::WORKER_THREADS,
            super::WORKER_BUSY_SECONDS,
            super::EPISODES_PER_SECOND,
            super::SIM_CYCLES_PER_SECOND,
            super::MEMORY_OPS_PER_SECOND,
            super::FLEET_WORKERS,
            super::FLEET_LEASES_IN_FLIGHT,
            super::FLEET_REQUEUES,
            super::FLEET_WORKER_JOBS,
            super::FLEET_PLANS,
            super::FLEET_JOB_STAGE_SECONDS,
            super::SERVICE_SUBMITTED,
            super::SERVICE_ADMITTED,
            super::SERVICE_SHED,
            super::SERVICE_QUEUE_DEPTH,
            super::SERVICE_IN_FLIGHT,
            super::SERVICE_PLANS_COMPLETED,
            super::SERVICE_ADMISSION_SECONDS,
            super::SERVICE_CLIENT_REQUEST_SECONDS,
            super::SERVICE_QUEUE_AGE_SECONDS,
            super::SERVICE_OLDEST_IN_FLIGHT_SECONDS,
            super::HTTP_REQUESTS,
            super::HTTP_REQUEST_SECONDS,
            super::FLEET_STALLED_JOBS,
        ] {
            assert!(
                !is_deterministic_metric(name),
                "{name} should be host/timing-dependent"
            );
        }
    }
}
