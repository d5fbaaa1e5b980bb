//! Wire types for the `/v1` experiment API.
//!
//! Everything crosses the wire as JSON. A submission carries either
//! one [`JobSpec`] (`{"spec": {...}}`) or a whole plan
//! (`{"specs": [...]}`); the response carries the service-assigned job
//! id plus the plan's content key, and says whether the submission was
//! deduplicated onto an already-known plan.
//!
//! The worker side rides the same wire: a remote worker registers
//! ([`WorkerHello`] → [`WorkerWelcome`]), leases batches of jobs
//! ([`LeaseRequest`] → [`LeaseGrant`]), renews the batch while its pool
//! runs it, and pushes each outcome back ([`PushRequest`]). Specs and
//! outcomes cross in exactly the JSON form their content keys and the
//! result cache use, so identity holds byte-for-byte across hosts.

use horus_harness::{JobOutcome, JobSpec};
use horus_obs::profile::JobProfile;
use serde::{Deserialize, Serialize};

/// The request header that names the submitting tenant.
pub const TENANT_HEADER: &str = "x-horus-tenant";

/// The response header carrying the correlation trace id the service
/// minted (or reused, for deduplicated submissions) at admission.
pub const TRACE_HEADER: &str = "x-horus-trace";

/// Body of `POST /v1/jobs`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// A single spec (shorthand for a one-spec plan).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spec: Option<JobSpec>,
    /// A whole plan, executed as one unit and memoized per spec.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub specs: Option<Vec<JobSpec>>,
}

impl SubmitRequest {
    /// A whole-plan submission.
    #[must_use]
    pub fn plan(specs: Vec<JobSpec>) -> Self {
        SubmitRequest {
            spec: None,
            specs: Some(specs),
        }
    }

    /// A single-spec submission.
    #[must_use]
    pub fn single(spec: JobSpec) -> Self {
        SubmitRequest {
            spec: Some(spec),
            specs: None,
        }
    }

    /// Flattens both forms into the spec list to execute.
    #[must_use]
    pub fn into_specs(self) -> Vec<JobSpec> {
        let mut specs = self.specs.unwrap_or_default();
        if let Some(spec) = self.spec {
            specs.push(spec);
        }
        specs
    }
}

/// Body of a successful `POST /v1/jobs` (`202 Accepted`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The service-assigned job id, usable with `GET /v1/jobs/{id}`.
    pub job: u64,
    /// The plan's content key (FNV-1a over its specs' content keys).
    pub key: String,
    /// The tenant whose budget paid for the submission.
    pub tenant: String,
    /// True when an identical plan was already queued, executing, or
    /// committed: this id aliases it and no new execution happens.
    pub deduped: bool,
    /// Correlation trace id for this submission — minted at admission,
    /// or the original plan's id when `deduped` (an alias never
    /// executes, so a fresh id would join to nothing). Also returned in
    /// the [`TRACE_HEADER`] response header. Absent from the wire when
    /// the service predates correlation, so old clients and recorded
    /// fixtures keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
}

/// Millisecond stage stamps on the service clock, derived from the
/// plan's per-job spans: the first three stages take the earliest job's
/// stamp, `pushed` and `committed` the last job's once every job has
/// one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStamps {
    /// Admitted and enqueued.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub queued: Option<f64>,
    /// A first job was leased to a worker.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub leased: Option<f64>,
    /// A first job started executing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub executing: Option<f64>,
    /// The last job's outcome was pushed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pushed: Option<f64>,
    /// Every outcome committed and servable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub committed: Option<f64>,
}

/// Body of `GET /v1/jobs/{id}` (also of a `202` result probe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The id that was asked about.
    pub job: u64,
    /// The executing plan's id (differs from `job` for deduplicated
    /// submissions).
    pub canonical: u64,
    /// Submitting tenant (empty for a plan resumed from the journal,
    /// which no tenant paid for).
    pub tenant: String,
    /// Plan content key.
    pub key: String,
    /// `queued`, `executing`, or `committed`.
    pub state: String,
    /// Jobs finished so far.
    pub done: usize,
    /// Jobs in the plan.
    pub total: usize,
    /// Lifecycle stamps, when the service is collecting spans.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stages: Option<StageStamps>,
}

/// Body of every non-2xx API answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable reason.
    pub error: String,
}

impl ErrorBody {
    /// Renders the error as its JSON wire form.
    #[must_use]
    pub fn json(message: &str) -> String {
        serde_json::to_string(&ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| format!("{{\"error\":{message:?}}}"))
    }
}

/// Body of `POST /v1/workers`: a remote worker introducing itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerHello {
    /// Display name, used for span tracks and logs.
    pub name: String,
    /// The worker's local pool width (informational).
    #[serde(default)]
    pub jobs: usize,
}

/// Body of a `201 Created` answer to `POST /v1/workers`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerWelcome {
    /// The service-assigned worker id, named in every lease request.
    pub worker: u64,
    /// Lease length: a batch not renewed for this long requeues.
    pub lease_ms: u64,
    /// The service's span clock, present only when it collects spans.
    /// Halving the register round trip against it gives the offset
    /// that puts the worker's stage stamps on the service timeline.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub now_ms: Option<f64>,
}

/// Body of `POST /v1/leases`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// The registered worker asking for work.
    pub worker: u64,
    /// Most jobs the worker will take in this batch.
    pub max: usize,
}

/// Answer to `POST /v1/leases`: a batch, nothing yet, or go home.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// The batch's lease id, to renew and push against; absent when
    /// nothing was leasable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lease: Option<u64>,
    /// The leased jobs, oldest plan first.
    #[serde(default)]
    pub jobs: Vec<LeasedJob>,
    /// True once the service is draining and holds no open work: the
    /// worker should exit.
    #[serde(default)]
    pub drained: bool,
}

/// One leased job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeasedJob {
    /// The service's id for the job slot, named in the push.
    pub job: u64,
    /// The experiment point to run.
    pub spec: JobSpec,
    /// The owning plan's correlation trace id, when it has one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
}

/// Body of `POST /v1/leases/{id}/push`: one job's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PushRequest {
    /// The job slot the outcome is for.
    pub job: u64,
    /// What executing the spec produced.
    pub outcome: JobOutcome,
    /// The worker's host profile of the job.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<JobProfile>,
    /// Worker-side stage stamps, already on the service clock; present
    /// when the service advertised its clock at registration.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stamps: Option<PushStamps>,
}

/// The two stages only the worker can observe, on the service clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PushStamps {
    /// When the worker's pool started the job's batch.
    pub executing_ms: f64,
    /// When the worker sent the outcome.
    pub pushed_ms: f64,
}

/// The plan-level content key: FNV-1a (the same construction
/// `JobSpec::key` uses) folded over every spec's content key, rendered
/// as 16 hex digits. Identical plans — same specs, same order — agree
/// on it across processes and hosts, which is what cross-tenant dedup
/// keys on.
#[must_use]
pub fn plan_key(specs: &[JobSpec]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for spec in specs {
        for byte in spec.key().as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so plan boundaries matter.
        hash ^= u64::from(b'/');
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans;

    #[test]
    fn submit_request_flattens_both_forms() {
        let plan = plans::full_plan();
        assert_eq!(SubmitRequest::plan(plan.clone()).into_specs(), plan);
        let single = plans::quick_plan(0).remove(0);
        assert_eq!(
            SubmitRequest::single(single.clone()).into_specs(),
            vec![single]
        );
        assert!(SubmitRequest::default().into_specs().is_empty());
    }

    #[test]
    fn plan_key_is_stable_and_order_sensitive() {
        let plan = plans::full_plan();
        assert_eq!(plan_key(&plan), plan_key(&plan));
        let mut reversed = plan.clone();
        reversed.reverse();
        assert_ne!(plan_key(&plan), plan_key(&reversed));
        assert_ne!(plan_key(&plan), plan_key(&plan[..4]));
        assert_eq!(plan_key(&plan).len(), 16);
    }

    #[test]
    fn wire_types_round_trip() {
        let req = SubmitRequest::plan(plans::quick_plan(1));
        let json = serde_json::to_string(&req).expect("serialize");
        let back: SubmitRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.into_specs(), plans::quick_plan(1));

        let resp = SubmitResponse {
            job: 7,
            key: "abc".to_string(),
            tenant: "team-a".to_string(),
            deduped: true,
            trace: Some("9f8a6c2d01b4e37f".to_string()),
        };
        let json = serde_json::to_string(&resp).expect("ser");
        assert!(json.contains("\"trace\":\"9f8a6c2d01b4e37f\""));
        let back: SubmitResponse = serde_json::from_str(&json).expect("de");
        assert_eq!(back, resp);

        // An untraced response omits the key entirely, and a pre-trace
        // response body still parses (the PR-7 strictly-optional rule).
        let untraced = SubmitResponse {
            trace: None,
            ..resp.clone()
        };
        let json = serde_json::to_string(&untraced).expect("ser");
        assert!(!json.contains("\"trace\""), "{json}");
        let old: SubmitResponse = serde_json::from_str(
            "{\"job\":7,\"key\":\"abc\",\"tenant\":\"team-a\",\"deduped\":true}",
        )
        .expect("pre-trace body parses");
        assert_eq!(old, untraced);
    }

    /// Any spec crosses the worker wire — leased out, its outcome,
    /// profile and stamps pushed back — losslessly, with its content
    /// key (and so its cache identity and merge position) intact.
    #[test]
    fn any_spec_keeps_its_key_across_the_worker_wire() {
        use horus_core::{DrainScheme, SystemConfig};
        use horus_sim::rng::{check, default_cases, Rng};
        use horus_workload::FillPattern;

        fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
            serde_json::from_str(&serde_json::to_string(value).expect("ser")).expect("de")
        }
        let name = "any_spec_keeps_its_key_across_the_worker_wire";
        check(name, default_cases(), |rng| {
            let scheme = DrainScheme::ALL[rng.below(DrainScheme::ALL.len() as u64) as usize];
            let pattern = if rng.chance(0.5) {
                FillPattern::DenseSequential {
                    base: rng.below(1 << 30) & !63,
                }
            } else {
                FillPattern::StridedSparse {
                    min_stride: rng.range(64..1 << 20),
                }
            };
            let llc_mb = [1u64, 2, 4, 8, 16, 32][rng.below(6) as usize];
            let mut cfg = SystemConfig::with_llc_bytes(llc_mb << 20);
            cfg.seed = rng.next_u64();
            let mut spec = JobSpec::drain(&cfg, scheme, pattern);
            spec.recover = rng.chance(0.5);
            spec.probe = rng.chance(0.5);
            let traced = rng.chance(0.5);
            let trace = traced.then(|| format!("{:016x}", rng.next_u64()));
            let grant = LeaseGrant {
                lease: Some(rng.next_u64()),
                jobs: vec![LeasedJob {
                    job: rng.next_u64(),
                    spec: spec.clone(),
                    trace: trace.clone(),
                }],
                drained: false,
            };
            let back = round_trip(&grant);
            assert_eq!(back, grant);
            assert_eq!(back.jobs[0].spec.key(), spec.key());

            // Dyadic fractions, so every float prints and parses exactly.
            let ms = |rng: &mut Rng| rng.below(1 << 40) as f64 / 1024.0;
            let stamped = rng.chance(0.5);
            let push = PushRequest {
                job: rng.next_u64(),
                outcome: JobOutcome::Panicked {
                    message: String::from_utf8_lossy(&rng.vec(0..60, Rng::byte)).into_owned(),
                },
                profile: Some(JobProfile {
                    label: spec.key(),
                    scheme: Some(scheme.name().to_owned()),
                    trace,
                    cached: rng.chance(0.5),
                    wall_seconds: ms(rng),
                    cpu_seconds: Some(ms(rng)),
                    allocations: Some(rng.next_u64()),
                    allocated_bytes: None,
                }),
                stamps: stamped.then(|| PushStamps {
                    executing_ms: ms(rng),
                    pushed_ms: ms(rng),
                }),
            };
            assert_eq!(round_trip(&push), push);
        });
    }
}
