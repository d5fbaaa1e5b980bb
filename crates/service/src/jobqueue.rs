//! The service's job queue: at-least-once dispatch, exactly-once
//! commit, deterministic plan-order merge.
//!
//! Every executing plan's specs pass through here, whether the
//! service's own runners execute them or remote workers lease them over
//! HTTP. Jobs are identified two ways and the distinction carries the
//! whole design:
//!
//! * A **job id** names one enqueued slot. Ids are what leases hold and
//!   pushes name, so a retried job (lease expired, worker died) is the
//!   *same* slot — dispatch is at-least-once per id.
//! * A **content key** ([`JobSpec::key`]) names the experiment point.
//!   Commits are keyed by content: the first outcome to arrive for a
//!   key commits every slot sharing it, and later pushes for the same
//!   key are ignored. Because specs execute deterministically, the
//!   discarded duplicates are byte-identical to the committed one —
//!   exactly-once commit costs nothing.
//!
//! A plan remembers its job ids in submission order, and
//! [`JobQueue::plan_outcomes`] assembles outcomes in that order — so
//! the merged result is byte-identical to a local `Harness::run` over
//! the same specs, no matter how many workers raced, died, or
//! duplicated work along the way.
//!
//! A lease is held by an opaque *holder* id (the service uses one per
//! leased batch). Expired leases requeue with bounded exponential
//! backoff (`250ms * 2^attempts`, capped at 30s) so a spec that kills
//! every worker that touches it cannot busy-loop the queue.

use horus_harness::{JobOutcome, JobSpec, ResultCache};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Requeue backoff base: first retry waits this long.
pub const BACKOFF_BASE: Duration = Duration::from_millis(250);
/// Requeue backoff cap.
pub const BACKOFF_CAP: Duration = Duration::from_secs(30);

/// Where one job slot is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting to be leased (not before the embedded instant, which
    /// encodes requeue backoff).
    Pending {
        /// Earliest instant the slot may be leased again.
        not_before: Instant,
    },
    /// Held by a lease until the deadline.
    Leased {
        /// The holding lease's id.
        holder: u64,
        /// Lease expiry; past it the slot requeues.
        deadline: Instant,
    },
    /// Committed; the outcome lives in the slot.
    Done,
}

/// One enqueued job slot.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The owning plan's id.
    pub plan: u64,
    /// The experiment point.
    pub spec: JobSpec,
    /// Cached [`JobSpec::key`] (hashing the spec once at submit).
    pub key: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Times the slot has been leased (first lease makes it 1).
    pub attempts: u32,
    /// The committed outcome, once [`JobState::Done`].
    pub outcome: Option<JobOutcome>,
}

/// One submitted sweep plan.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Job ids in submission (= merge) order.
    pub jobs: Vec<u64>,
    /// Slots committed so far.
    pub done: usize,
}

impl PlanEntry {
    /// True once every slot has committed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done == self.jobs.len()
    }
}

/// What [`JobQueue::submit`] enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// The new plan's id.
    pub plan: u64,
    /// Total jobs in the plan.
    pub jobs: usize,
    /// Jobs committed immediately from the result cache.
    pub cached: usize,
}

/// The service's authoritative job queue.
#[derive(Debug, Default)]
pub struct JobQueue {
    next_job: u64,
    next_plan: u64,
    jobs: BTreeMap<u64, JobEntry>,
    plans: BTreeMap<u64, PlanEntry>,
    /// The slot holding the first committed outcome per content key
    /// (the dedupe table).
    committed: HashMap<String, u64>,
    /// Lifetime count of expired-lease requeues.
    pub requeues: u64,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a plan. Specs whose key the `cache` already holds are
    /// committed on the spot as cache hits (workers never see them);
    /// specs whose key an earlier plan already committed reuse that
    /// outcome the same way.
    pub fn submit(&mut self, specs: Vec<JobSpec>, cache: Option<&ResultCache>) -> Submitted {
        let plan = self.next_plan;
        self.next_plan += 1;
        let mut ids = Vec::with_capacity(specs.len());
        let mut done = 0;
        let mut cached = 0;
        for spec in specs {
            let id = self.next_job;
            self.next_job += 1;
            let key = spec.key();
            let outcome = if let Some(result) = cache.and_then(|c| c.load(&spec)) {
                Some(JobOutcome::Completed {
                    result,
                    cached: true,
                })
            } else {
                self.committed_outcome(&key).cloned()
            };
            let state = if outcome.is_some() {
                done += 1;
                if matches!(outcome, Some(JobOutcome::Completed { cached: true, .. })) {
                    cached += 1;
                }
                JobState::Done
            } else {
                JobState::Pending {
                    not_before: Instant::now(),
                }
            };
            if outcome.is_some() {
                self.committed.entry(key.clone()).or_insert(id);
            }
            self.jobs.insert(
                id,
                JobEntry {
                    plan,
                    spec,
                    key,
                    state,
                    attempts: 0,
                    outcome,
                },
            );
            ids.push(id);
        }
        let total = ids.len();
        self.plans.insert(plan, PlanEntry { jobs: ids, done });
        Submitted {
            plan,
            jobs: total,
            cached,
        }
    }

    /// Leases up to `max` pending slots to `holder` until `now +
    /// lease`. Slots are offered in id order (oldest plan first), and a
    /// slot whose key is already committed commits on the spot instead
    /// of being handed out.
    pub fn lease(
        &mut self,
        holder: u64,
        max: usize,
        now: Instant,
        lease: Duration,
    ) -> Vec<(u64, JobSpec)> {
        self.lease_where(None, holder, max, now, lease)
    }

    /// [`JobQueue::lease`] restricted to one plan's slots — how a plan's
    /// own runner leases back the jobs it enqueued.
    pub fn lease_from(
        &mut self,
        plan: u64,
        holder: u64,
        max: usize,
        now: Instant,
        lease: Duration,
    ) -> Vec<(u64, JobSpec)> {
        self.lease_where(Some(plan), holder, max, now, lease)
    }

    fn lease_where(
        &mut self,
        plan: Option<u64>,
        holder: u64,
        max: usize,
        now: Instant,
        lease: Duration,
    ) -> Vec<(u64, JobSpec)> {
        let mut out = Vec::new();
        let mut short_circuit = Vec::new();
        for (&id, entry) in &mut self.jobs {
            if out.len() >= max {
                break;
            }
            let JobState::Pending { not_before } = entry.state else {
                continue;
            };
            if not_before > now || plan.is_some_and(|p| p != entry.plan) {
                continue;
            }
            if self.committed.contains_key(&entry.key) {
                short_circuit.push(id);
                continue;
            }
            entry.state = JobState::Leased {
                holder,
                deadline: now + lease,
            };
            entry.attempts += 1;
            out.push((id, entry.spec.clone()));
        }
        for id in short_circuit {
            let key = self.jobs[&id].key.clone();
            let outcome = self
                .committed_outcome(&key)
                .cloned()
                .expect("a committed key's slot holds its outcome");
            self.commit_slot(id, outcome);
        }
        out
    }

    /// Commits `outcome` for job id `job`. The first commit for a
    /// content key wins and is fanned out to every slot sharing the
    /// key; later pushes for an already-committed key are ignored
    /// (specs are deterministic, so the dropped duplicate is
    /// byte-identical anyway). Freshly computed results are stored into
    /// `cache`. Returns the ids of plans this commit completed.
    pub fn commit(
        &mut self,
        job: u64,
        outcome: JobOutcome,
        cache: Option<&ResultCache>,
    ) -> Vec<u64> {
        let Some(entry) = self.jobs.get(&job) else {
            return Vec::new();
        };
        let key = entry.key.clone();
        if self.committed.contains_key(&key) {
            // Duplicate push (lease expired, both workers finished).
            return Vec::new();
        }
        if let JobOutcome::Completed {
            result,
            cached: false,
        } = &outcome
        {
            if let Some(cache) = cache {
                cache.store(&entry.spec, result);
            }
        }
        self.committed.insert(key.clone(), job);
        let sharing: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, e)| e.key == key && e.state != JobState::Done)
            .map(|(&id, _)| id)
            .collect();
        let mut completed = Vec::new();
        for id in sharing {
            completed.extend(self.commit_slot(id, outcome.clone()));
        }
        completed
    }

    /// The first committed outcome for content key `key`.
    fn committed_outcome(&self, key: &str) -> Option<&JobOutcome> {
        let slot = self.committed.get(key)?;
        self.jobs.get(slot)?.outcome.as_ref()
    }

    /// Marks one slot done and updates its plan; returns the plan id if
    /// this was its last open slot.
    fn commit_slot(&mut self, id: u64, outcome: JobOutcome) -> Option<u64> {
        let entry = self.jobs.get_mut(&id)?;
        if entry.state == JobState::Done {
            return None;
        }
        entry.state = JobState::Done;
        entry.outcome = Some(outcome);
        let plan = entry.plan;
        let p = self.plans.get_mut(&plan)?;
        p.done += 1;
        p.is_complete().then_some(plan)
    }

    /// Extends every slot held by `holder` to `now + lease`. A worker
    /// mid-batch renews at a fraction of the lease, so a healthy worker
    /// can hold a job for any duration while a dead one still forfeits
    /// within one lease of its last heartbeat. Returns how many slots
    /// were renewed.
    pub fn renew(&mut self, holder: u64, now: Instant, lease: Duration) -> usize {
        let mut renewed = 0;
        for entry in self.jobs.values_mut() {
            let JobState::Leased {
                holder: held_by,
                deadline,
            } = &mut entry.state
            else {
                continue;
            };
            if *held_by == holder {
                *deadline = now + lease;
                renewed += 1;
            }
        }
        renewed
    }

    /// Requeues every lease whose deadline has passed, with bounded
    /// exponential backoff per slot. Returns how many were requeued.
    pub fn expire(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        for entry in self.jobs.values_mut() {
            let JobState::Leased { deadline, .. } = entry.state else {
                continue;
            };
            if deadline > now {
                continue;
            }
            let shift = entry.attempts.min(7); // 250ms << 7 = 32s > cap
            let backoff = BACKOFF_CAP.min(BACKOFF_BASE * 2u32.pow(shift));
            entry.state = JobState::Pending {
                not_before: now + backoff,
            };
            expired += 1;
        }
        self.requeues += expired as u64;
        expired
    }

    /// One slot — its plan, content key, state and attempts, what span
    /// stamping and push validation need — or `None` for an unknown job
    /// id.
    #[must_use]
    pub fn job(&self, job: u64) -> Option<&JobEntry> {
        self.jobs.get(&job)
    }

    /// The plan's `(job id, content key)` pairs in submission order;
    /// empty for an unknown plan id.
    #[must_use]
    pub fn plan_jobs(&self, plan: u64) -> Vec<(u64, String)> {
        self.plans
            .get(&plan)
            .map(|p| {
                p.jobs
                    .iter()
                    .filter_map(|id| self.jobs.get(id).map(|e| (*id, e.key.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The plan's outcomes in submission order, once complete; `None`
    /// while any slot is open or for an unknown plan id.
    #[must_use]
    pub fn plan_outcomes(&self, plan: u64) -> Option<Vec<JobOutcome>> {
        let p = self.plans.get(&plan)?;
        if !p.is_complete() {
            return None;
        }
        p.jobs
            .iter()
            .map(|id| self.jobs.get(id).and_then(|e| e.outcome.clone()))
            .collect()
    }

    /// A plan's `(committed, total)` slot counts, or `None` for an
    /// unknown plan id.
    #[must_use]
    pub fn plan_progress(&self, plan: u64) -> Option<(usize, usize)> {
        self.plans.get(&plan).map(|p| (p.done, p.jobs.len()))
    }

    /// `(pending, leased, done)` slot counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut pending = 0;
        let mut leased = 0;
        let mut done = 0;
        for e in self.jobs.values() {
            match e.state {
                JobState::Pending { .. } => pending += 1,
                JobState::Leased { .. } => leased += 1,
                JobState::Done => done += 1,
            }
        }
        (pending, leased, done)
    }

    /// True when no slot is pending or leased.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        let (pending, leased, _) = self.counts();
        pending == 0 && leased == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::{DrainScheme, SystemConfig};
    use horus_workload::FillPattern;

    fn specs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                let mut cfg = SystemConfig::small_test();
                cfg.seed ^= i as u64;
                JobSpec::drain(
                    &cfg,
                    DrainScheme::NonSecure,
                    FillPattern::DenseSequential { base: 0 },
                )
            })
            .collect()
    }

    fn outcome(spec: &JobSpec) -> JobOutcome {
        JobOutcome::Completed {
            result: spec.execute(),
            cached: false,
        }
    }

    #[test]
    fn lease_commit_completes_a_plan_in_order() {
        let mut q = JobQueue::new();
        let specs = specs(3);
        let sub = q.submit(specs.clone(), None);
        assert_eq!((sub.jobs, sub.cached), (3, 0));
        let now = Instant::now();
        let leased = q.lease(1, 10, now, Duration::from_secs(30));
        assert_eq!(leased.len(), 3);
        assert!(q.plan_outcomes(sub.plan).is_none());
        // Commit out of order; the merge stays in submission order.
        for (id, spec) in leased.iter().rev() {
            q.commit(*id, outcome(spec), None);
        }
        let merged = q.plan_outcomes(sub.plan).expect("complete");
        let expect: Vec<JobOutcome> = specs.iter().map(outcome).collect();
        assert_eq!(merged, expect);
        assert_eq!(q.plan_progress(sub.plan), Some((3, 3)));
        assert!(q.is_idle());
    }

    #[test]
    fn expired_leases_requeue_with_backoff_and_finish_elsewhere() {
        let mut q = JobQueue::new();
        let specs = specs(2);
        let sub = q.submit(specs.clone(), None);
        let t0 = Instant::now();
        let lease = Duration::from_millis(100);
        let held = q.lease(1, 10, t0, lease);
        assert_eq!(held.len(), 2);
        // Worker 1 dies; nothing leasable until expiry.
        assert!(q.lease(2, 10, t0, lease).is_empty());
        assert_eq!(q.expire(t0), 0, "deadline not reached yet");
        let t1 = t0 + lease + Duration::from_millis(1);
        assert_eq!(q.expire(t1), 2);
        assert_eq!(q.requeues, 2);
        // Backoff: attempt 1 waits 500ms from requeue.
        assert!(q.lease(2, 10, t1, lease).is_empty(), "still backing off");
        let t2 = t1 + Duration::from_millis(501);
        let retried = q.lease(2, 10, t2, lease);
        assert_eq!(retried.len(), 2);
        for (id, spec) in &retried {
            q.commit(*id, outcome(spec), None);
        }
        assert_eq!(
            q.plan_outcomes(sub.plan).expect("complete"),
            specs.iter().map(outcome).collect::<Vec<_>>()
        );
    }

    #[test]
    fn renewed_leases_outlive_the_deadline_only_for_their_holder() {
        let mut q = JobQueue::new();
        let specs = specs(2);
        q.submit(specs, None);
        let t0 = Instant::now();
        let lease = Duration::from_millis(100);
        let held_1 = q.lease(1, 1, t0, lease);
        let held_2 = q.lease(2, 1, t0, lease);
        assert_eq!((held_1.len(), held_2.len()), (1, 1));
        // Worker 1 heartbeats just before the deadline; worker 2 is
        // silent. Only worker 2's slot requeues.
        let t1 = t0 + Duration::from_millis(90);
        assert_eq!(q.renew(1, t1, lease), 1);
        let t2 = t0 + lease + Duration::from_millis(1);
        assert_eq!(q.expire(t2), 1);
        let (pending, leased, _) = q.counts();
        assert_eq!((pending, leased), (1, 1), "worker 1 still holds its job");
        // Renewing for a worker with no leases is a no-op.
        assert_eq!(q.renew(7, t2, lease), 0);
    }

    #[test]
    fn duplicate_pushes_commit_exactly_once() {
        let mut q = JobQueue::new();
        let specs = specs(1);
        let sub = q.submit(specs.clone(), None);
        let t0 = Instant::now();
        let lease = Duration::from_millis(50);
        let first = q.lease(1, 1, t0, lease);
        q.expire(t0 + lease * 2);
        let second = q.lease(2, 1, t0 + Duration::from_secs(10), lease);
        assert_eq!(first[0].0, second[0].0, "same slot, retried");
        // Both workers finish; only the first commit lands.
        let done = q.commit(second[0].0, outcome(&specs[0]), None);
        assert_eq!(done, vec![sub.plan]);
        let done = q.commit(first[0].0, outcome(&specs[0]), None);
        assert!(done.is_empty(), "duplicate push ignored");
        assert_eq!(
            q.plan_outcomes(sub.plan).expect("complete").len(),
            1,
            "merge sees the job exactly once"
        );
    }

    #[test]
    fn same_key_slots_share_one_execution() {
        let mut q = JobQueue::new();
        let spec = specs(1).remove(0);
        let sub = q.submit(vec![spec.clone(), spec.clone()], None);
        let t0 = Instant::now();
        let leased = q.lease(1, 10, t0, Duration::from_secs(30));
        assert_eq!(leased.len(), 2, "both slots lease before either commits");
        let done = q.commit(leased[0].0, outcome(&spec), None);
        assert_eq!(done, vec![sub.plan], "commit fans out to the shared key");
        assert_eq!(q.plan_outcomes(sub.plan).expect("complete").len(), 2);
    }

    #[test]
    fn cache_hits_commit_at_submit_and_persist_fresh_results() {
        let dir = std::env::temp_dir().join(format!(
            "horus-service-jobqueue-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let cache = ResultCache::new(&dir);
        let mut q = JobQueue::new();
        let specs = specs(2);
        let sub = q.submit(specs.clone(), Some(&cache));
        assert_eq!(sub.cached, 0);
        let leased = q.lease(1, 10, Instant::now(), Duration::from_secs(30));
        for (id, spec) in &leased {
            q.commit(*id, outcome(spec), Some(&cache));
        }
        // A second submit of the same plan is satisfied from the cache
        // alone: all hits, no leasable work.
        let mut q2 = JobQueue::new();
        let sub2 = q2.submit(specs.clone(), Some(&cache));
        assert_eq!(sub2.cached, 2);
        assert!(q2.is_idle());
        let merged = q2.plan_outcomes(sub2.plan).expect("complete at submit");
        assert!(merged
            .iter()
            .all(|o| matches!(o, JobOutcome::Completed { cached: true, .. })));
        // The cached payloads are byte-identical to fresh execution.
        let fresh: Vec<JobOutcome> = specs.iter().map(outcome).collect();
        for (c, f) in merged.iter().zip(&fresh) {
            let (JobOutcome::Completed { result: a, .. }, JobOutcome::Completed { result: b, .. }) =
                (c, f)
            else {
                panic!("completed outcomes");
            };
            assert_eq!(a, b);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_and_plan_jobs_track_the_lifecycle() {
        let mut q = JobQueue::new();
        let specs = specs(2);
        let keys: Vec<String> = specs.iter().map(JobSpec::key).collect();
        let sub = q.submit(specs.clone(), None);
        let jobs = q.plan_jobs(sub.plan);
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs.iter().map(|(_, k)| k.clone()).collect::<Vec<_>>(),
            keys,
            "submission order"
        );
        let (id0, _) = jobs[0];
        let entry = q.job(id0).expect("known job");
        assert_eq!(
            (entry.plan, entry.key.as_str()),
            (sub.plan, keys[0].as_str())
        );
        assert_eq!((entry.attempts, entry.state == JobState::Done), (0, false));
        let leased = q.lease(1, 10, Instant::now(), Duration::from_secs(30));
        q.commit(leased[0].0, outcome(&specs[0]), None);
        let entry = q.job(id0).expect("known job");
        assert_eq!((entry.attempts, entry.state == JobState::Done), (1, true));
        assert_eq!(q.plan_progress(sub.plan), Some((1, 2)));
        assert!(q.job(999).is_none());
        assert!(q.plan_jobs(999).is_empty());
        assert_eq!(q.plan_progress(999), None);
    }

    #[test]
    fn lease_from_offers_only_the_named_plan() {
        let mut q = JobQueue::new();
        let first = q.submit(specs(2), None);
        let mut later = specs(4);
        later.drain(..2);
        let second = q.submit(later, None);
        let now = Instant::now();
        let lease = Duration::from_secs(30);
        let own = q.lease_from(second.plan, 1, 10, now, lease);
        assert_eq!(own.len(), 2, "only the second plan's slots");
        assert!(own
            .iter()
            .all(|(id, _)| q.job(*id).is_some_and(|e| e.plan == second.plan)));
        assert_eq!(q.plan_progress(first.plan), Some((0, 2)));
        assert_eq!(
            q.lease(2, 10, now, lease).len(),
            2,
            "the first plan is untouched"
        );
    }

    #[test]
    fn empty_plan_is_complete_immediately() {
        let mut q = JobQueue::new();
        let sub = q.submit(Vec::new(), None);
        assert_eq!(q.plan_outcomes(sub.plan), Some(Vec::new()));
        assert_eq!(q.plan_progress(sub.plan), Some((0, 0)));
    }
}
