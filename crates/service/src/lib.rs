//! `horus-service`: a multi-tenant experiment API over the simulation
//! harness.
//!
//! The crate turns the batch-oriented [`horus_harness::Harness`] into a
//! persistent daemon: clients `POST` experiment plans to `/v1/jobs`,
//! poll `/v1/jobs/{id}` for stage-by-stage status, and fetch committed
//! results from `/v1/jobs/{id}/result`. In front of the queue sits an
//! admission [`Governor`] — per-tenant token-bucket budgets and
//! in-flight quotas from a JSON config file — that sheds over-budget
//! traffic with `429` plus a bounded `Retry-After`, while a two-class
//! [`PlanQueue`] keeps interactive quick plans ahead of bulk sweeps
//! without ever starving the latter.
//!
//! Identical plans deduplicate by content key ([`plan_key`]) across
//! tenants: the second submitter gets an alias job id and rides the
//! first execution (and, via the harness's on-disk result cache,
//! identical plans dedupe across service restarts too).
//!
//! Execution is one job queue ([`JobQueue`]: leases, requeue,
//! exactly-once commit per content key, plan-order merge). The
//! daemon's runner threads are an in-process worker on it, and remote
//! [`worker`]s on other machines lease from the same queue over the
//! same HTTP listener — so one daemon distributes a sweep across hosts
//! and the merged result stays byte-identical to a local run.
//!
//! The HTTP layer is the std-only server from `horus-obs` — the
//! service mounts itself as a [`horus_obs::Router`] in front of the
//! built-in `/metrics`, `/healthz`, `/readyz`, and `/logs` routes, so
//! one listener serves the API, the worker side, and its own
//! observability.
//!
//! Module map:
//!
//! | module | what lives there |
//! |---|---|
//! | [`config`] | tenant policy file: parsing + validation |
//! | [`governor`] | token buckets, quotas, shed verdicts |
//! | [`queue`] | two-class plan priority queue with an anti-starvation valve |
//! | [`jobqueue`] | the job queue: leases, requeue, exactly-once commit, plan-order merge |
//! | [`api`] | wire types (clients and workers) and the plan content key |
//! | [`service`] | the daemon: routing, admission, runners, leases, journal, metrics, spans |
//! | [`worker`] | the remote worker: lease, execute on a local pool, push |
//! | [`backend`] | a `SweepBackend` that executes plans through a running daemon |
//! | [`plans`] | canonical plan catalog shared with the load generator |
//! | [`load`] | the `horus-load` client storm + verification |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod backend;
pub mod config;
pub mod governor;
pub mod jobqueue;
pub mod load;
pub mod plans;
pub mod queue;
pub mod service;
pub mod worker;

pub use api::{
    plan_key, ErrorBody, JobStatus, LeaseGrant, LeaseRequest, LeasedJob, PushRequest, PushStamps,
    StageStamps, SubmitRequest, SubmitResponse, WorkerHello, WorkerWelcome, TENANT_HEADER,
};
pub use backend::ServiceBackend;
pub use config::{ServiceConfig, TenantPolicy};
pub use governor::{Admission, Governor, TenantSnapshot};
pub use jobqueue::JobQueue;
pub use load::{canonical_outcomes, run_load, LatencySummary, LoadOptions, LoadReport, TenantLoad};
pub use queue::{Class, PlanQueue};
pub use service::{ExperimentService, JobState};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
