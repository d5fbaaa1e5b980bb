//! Per-job lifecycle spans and the cross-host Chrome-trace timeline.
//!
//! PR 2's probe layer traces *inside* one simulated drain episode; this
//! module traces the *job around it* as it moves through the fleet:
//!
//! ```text
//! queued ──► leased ──► executing ──► pushed ──► committed
//! (submit)   (service)  (worker)      (worker)   (service)
//! ```
//!
//! A [`SpanBook`] is the collector: the experiment service (or a local
//! harness pool) stamps each stage with a millisecond timestamp on the
//! book's own monotonic clock ([`SpanBook::now_ms`]). Remote workers
//! normalize their stamps to service-relative time before pushing (a
//! worker learns the service clock from its registration round trip),
//! so one timeline spans every host in the fleet.
//!
//! [`chrome_trace_json`] assembles the completed spans through the
//! drain probe's own writer, [`horus_sim::trace::ChromeTrace`] — one
//! track per worker, five `ph:"X"` events per job — so `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) open fleet timelines exactly
//! like drain timelines. Assembly is deterministic: spans sort by
//! `(plan, job)`, tracks by name, and only complete (all five stages)
//! jobs are emitted, so two identical books render byte-identical JSON.

use horus_sim::trace::ChromeTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Mints a process-unique 16-hex-digit trace id.
///
/// FNV-1a over the pid, a process-global counter, and the wall clock —
/// the same hashing idiom as the plan content key, so ids look uniform
/// without pulling in a randomness dependency. Collisions across
/// processes are possible in principle but irrelevant at fleet scale:
/// an id only needs to be unique within the artifacts of one run.
#[must_use]
pub fn mint_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for chunk in [
        u64::from(std::process::id()),
        SEQ.fetch_add(1, Ordering::Relaxed),
        nanos,
    ] {
        for byte in chunk.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Number of lifecycle stages a job passes through.
pub const STAGES: usize = 5;

/// One lifecycle stage of a fleet job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Enqueued by a plan submission, waiting for a lease.
    Queued = 0,
    /// Handed to a worker by the service.
    Leased = 1,
    /// The worker's pool started executing the spec.
    Executing = 2,
    /// The worker pushed the outcome back.
    Pushed = 3,
    /// The service committed the outcome.
    Committed = 4,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Queued,
        Stage::Leased,
        Stage::Executing,
        Stage::Pushed,
        Stage::Committed,
    ];

    /// The stage's name, used as the `stage` metric label and the
    /// trace-event name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Queued => "queued",
            Stage::Leased => "leased",
            Stage::Executing => "executing",
            Stage::Pushed => "pushed",
            Stage::Committed => "committed",
        }
    }

    /// The stage's index into a [`JobSpan`]'s stamp array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One job's collected stage stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// The owning plan's service-assigned id.
    pub plan: u64,
    /// The job's service-assigned slot id.
    pub job: u64,
    /// The job's content key (`JobSpec::key`).
    pub key: String,
    /// Display name of the worker that executed the job; empty until
    /// the job is leased.
    pub worker: String,
    /// Correlation id minted at admission ([`mint_trace_id`]); empty
    /// for untraced jobs. Like `worker`, the first non-empty value
    /// wins.
    pub trace: String,
    /// Coordinator-relative milliseconds per stage, indexed by
    /// [`Stage::index`]; `None` until the stage is stamped.
    pub stamps: [Option<f64>; STAGES],
}

impl JobSpan {
    /// True once every stage has been stamped.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.stamps.iter().all(Option::is_some)
    }

    /// The five stamps, present and clamped monotonically non-decreasing
    /// in lifecycle order (clock-normalization error across hosts can
    /// leave a later stage a hair earlier; the timeline must not).
    /// `None` while any stage is missing.
    #[must_use]
    pub fn normalized(&self) -> Option<[f64; STAGES]> {
        if !self.is_complete() {
            return None;
        }
        let mut out = [0.0; STAGES];
        let mut floor = 0.0f64;
        for (i, stamp) in self.stamps.iter().enumerate() {
            let at = stamp.expect("complete span").max(floor).max(0.0);
            out[i] = at;
            floor = at;
        }
        Some(out)
    }

    /// Per-stage durations in seconds, for the
    /// `horus_fleet_job_stage_seconds` histograms: time *in* each of the
    /// first four stages, plus end-to-end (queued → committed) under the
    /// `committed` label. `None` while any stage is missing.
    #[must_use]
    pub fn stage_seconds(&self) -> Option<[f64; STAGES]> {
        let [q, l, e, p, c] = self.normalized()?;
        Some([
            (l - q) / 1e3,
            (e - l) / 1e3,
            (p - e) / 1e3,
            (c - p) / 1e3,
            (c - q) / 1e3,
        ])
    }
}

/// A thread-safe collector of [`JobSpan`]s with its own monotonic
/// millisecond clock.
pub struct SpanBook {
    origin: Instant,
    jobs: Mutex<BTreeMap<(u64, u64), JobSpan>>,
}

impl Default for SpanBook {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBook {
    /// An empty book; its clock's zero is the moment of creation.
    #[must_use]
    pub fn new() -> SpanBook {
        SpanBook {
            origin: Instant::now(),
            jobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// An empty book behind an `Arc`, the usual sharing shape.
    #[must_use]
    pub fn shared() -> Arc<SpanBook> {
        Arc::new(Self::new())
    }

    /// Milliseconds since the book was created — the timeline's clock.
    #[must_use]
    pub fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Stamps `stage` of job `(plan, job)` at `at_ms` on the book's
    /// clock, creating the span on first touch. `worker`, when given,
    /// names the span's track. Re-stamping a stage keeps the first
    /// stamp (a duplicate push must not rewrite history).
    pub fn stamp(
        &self,
        plan: u64,
        job: u64,
        key: &str,
        stage: Stage,
        at_ms: f64,
        worker: Option<&str>,
    ) {
        self.stamp_traced(plan, job, key, stage, at_ms, worker, None);
    }

    /// [`SpanBook::stamp`] with a correlation trace id. `trace` follows
    /// the worker rule: the first non-empty value sticks, so a late or
    /// duplicate stamp can never re-attribute a span.
    #[allow(clippy::too_many_arguments)]
    pub fn stamp_traced(
        &self,
        plan: u64,
        job: u64,
        key: &str,
        stage: Stage,
        at_ms: f64,
        worker: Option<&str>,
        trace: Option<&str>,
    ) {
        let mut jobs = self.jobs.lock().expect("span book poisoned");
        let span = jobs.entry((plan, job)).or_insert_with(|| JobSpan {
            plan,
            job,
            key: key.to_string(),
            worker: String::new(),
            trace: String::new(),
            stamps: [None; STAGES],
        });
        if let Some(w) = worker {
            if span.worker.is_empty() {
                span.worker = w.to_string();
            }
        }
        if let Some(t) = trace {
            if span.trace.is_empty() {
                span.trace = t.to_string();
            }
        }
        let slot = &mut span.stamps[stage.index()];
        if slot.is_none() {
            *slot = Some(at_ms);
        }
    }

    /// One job's span, if anything has been stamped for it.
    #[must_use]
    pub fn get(&self, plan: u64, job: u64) -> Option<JobSpan> {
        self.jobs
            .lock()
            .expect("span book poisoned")
            .get(&(plan, job))
            .cloned()
    }

    /// Every span collected so far, sorted by `(plan, job)`.
    #[must_use]
    pub fn spans(&self) -> Vec<JobSpan> {
        self.jobs
            .lock()
            .expect("span book poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of spans (complete or not) in the book.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("span book poisoned").len()
    }

    /// True when nothing has been stamped yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the book's complete spans as a Chrome-trace JSON
    /// document (see [`chrome_trace_json`]).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.spans())
    }
}

/// Renders complete spans as a Chrome-trace-event JSON document through
/// the shared [`horus_sim::trace::ChromeTrace`] writer — the drain
/// probe's shape: one track per worker, sorted by name, timestamps in
/// microseconds. Each complete job contributes five events — one per
/// stage, `committed` as an instant — carrying `plan`, `job`, and `key`
/// (plus `trace`, when one was attached) in `args`. Incomplete spans
/// are skipped.
#[must_use]
pub fn chrome_trace_json(spans: &[JobSpan]) -> String {
    let mut ordered: Vec<(&JobSpan, [f64; STAGES])> = spans
        .iter()
        .filter_map(|s| s.normalized().map(|n| (s, n)))
        .collect();
    ordered.sort_by_key(|(s, _)| (s.plan, s.job));

    let mut doc = ChromeTrace::new(ordered.iter().map(|(span, _)| track_name(span)));
    for (span, stamps) in &ordered {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let ts = to_us(stamps[i]);
            let dur = if i + 1 < STAGES {
                to_us(stamps[i + 1]).saturating_sub(ts)
            } else {
                0
            };
            doc.event(track_name(span), ts, dur, stage.as_str(), |args| {
                let _ = write!(args, "\"plan\":{},\"job\":{},\"key\":", span.plan, span.job);
                serde_json::write_str(args, &span.key);
                // Untraced spans keep the exact pre-correlation arg
                // shape; `trace` appears only when an id was attached.
                if !span.trace.is_empty() {
                    args.push_str(",\"trace\":");
                    serde_json::write_str(args, &span.trace);
                }
            });
        }
    }
    doc.finish()
}

fn track_name(span: &JobSpan) -> &str {
    if span.worker.is_empty() {
        "unassigned"
    } else {
        &span.worker
    }
}

fn to_us(ms: f64) -> u64 {
    (ms.max(0.0) * 1e3).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_all(book: &SpanBook, plan: u64, job: u64, worker: &str, base: f64) {
        let key = format!("key-{job}");
        book.stamp(plan, job, &key, Stage::Queued, base, None);
        book.stamp(plan, job, &key, Stage::Leased, base + 1.0, Some(worker));
        book.stamp(plan, job, &key, Stage::Executing, base + 2.0, None);
        book.stamp(plan, job, &key, Stage::Pushed, base + 5.0, None);
        book.stamp(plan, job, &key, Stage::Committed, base + 6.0, None);
    }

    #[test]
    fn stamps_accumulate_and_first_stamp_wins() {
        let book = SpanBook::new();
        book.stamp(0, 1, "k", Stage::Queued, 10.0, None);
        book.stamp(0, 1, "k", Stage::Queued, 99.0, None);
        book.stamp(0, 1, "k", Stage::Leased, 20.0, Some("w-a"));
        let spans = book.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stamps[0], Some(10.0), "first stamp wins");
        assert_eq!(spans[0].worker, "w-a");
        assert!(!spans[0].is_complete());
        assert_eq!(spans[0].normalized(), None);
    }

    #[test]
    fn normalization_clamps_monotone() {
        let span = JobSpan {
            plan: 0,
            job: 0,
            key: "k".into(),
            worker: "w".into(),
            trace: String::new(),
            // Executing "before" leased: cross-host clock skew.
            stamps: [Some(10.0), Some(20.0), Some(18.0), Some(30.0), Some(31.0)],
        };
        let n = span.normalized().expect("complete");
        assert_eq!(n, [10.0, 20.0, 20.0, 30.0, 31.0]);
        let secs = span.stage_seconds().expect("complete");
        assert!((secs[0] - 0.010).abs() < 1e-12);
        assert!((secs[1] - 0.0).abs() < 1e-12);
        assert!((secs[4] - 0.021).abs() < 1e-12, "end-to-end");
        assert!(secs.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let book = SpanBook::new();
        stamp_all(&book, 0, 2, "w-b", 50.0);
        stamp_all(&book, 0, 1, "w-a", 40.0);
        // Incomplete span: must not appear.
        book.stamp(0, 3, "k-3", Stage::Queued, 60.0, None);

        let json = book.chrome_trace_json();
        assert_eq!(json, book.chrome_trace_json(), "deterministic");
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}"), "{json}");
        // 2 thread_name metadata + 2 jobs x 5 stages.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2 * STAGES, "{json}");
        assert!(!json.contains("k-3"), "incomplete span skipped");
        for stage in Stage::ALL {
            assert_eq!(
                json.matches(&format!("\"name\":\"{}\"", stage.as_str()))
                    .count(),
                2,
                "{json}"
            );
        }
        // Job 1 sorts before job 2 regardless of stamp order, with
        // stamps converted ms -> us and dur = gap to the next stage.
        let first_x = json.find("\"ph\":\"X\"").map(|i| &json[i..]).expect("x");
        assert!(
            first_x.starts_with(
                "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":40000,\"dur\":1000,\"name\":\"queued\""
            ),
            "{first_x}"
        );
        assert!(first_x.contains("\"args\":{\"plan\":0,\"job\":1,\"key\":\"key-1\"}"));
        // Tracks sorted by worker name, tids in that order.
        let ma = json.find("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"w-a\"}}");
        let mb = json.find("{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"w-b\"}}");
        assert!(ma.is_some() && mb.is_some() && ma < mb, "{json}");
    }

    #[test]
    fn minted_trace_ids_are_well_formed_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        for id in [&a, &b] {
            assert_eq!(id.len(), 16, "{id}");
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
                "{id}"
            );
        }
        assert_ne!(a, b, "sequence counter keeps ids distinct");
    }

    #[test]
    fn first_trace_wins_and_only_traced_spans_render_trace_args() {
        let book = SpanBook::new();
        stamp_all(&book, 0, 1, "w-a", 10.0);
        let untraced = book.chrome_trace_json();
        assert!(!untraced.contains("\"trace\""), "{untraced}");

        book.stamp_traced(0, 2, "k-2", Stage::Queued, 20.0, None, Some("aa11"));
        book.stamp_traced(0, 2, "k-2", Stage::Leased, 21.0, Some("w-a"), Some("bb22"));
        book.stamp(0, 2, "k-2", Stage::Executing, 22.0, None);
        book.stamp(0, 2, "k-2", Stage::Pushed, 23.0, None);
        book.stamp(0, 2, "k-2", Stage::Committed, 24.0, None);
        let span = book.get(0, 2).expect("span");
        assert_eq!(span.trace, "aa11", "first non-empty trace wins");

        let json = book.chrome_trace_json();
        assert_eq!(
            json.matches(",\"trace\":\"aa11\"").count(),
            STAGES,
            "every stage event of the traced job carries the id: {json}"
        );
        // The untraced job's events are byte-identical to the pre-trace
        // render: the traced job only adds events, never rewrites them.
        assert!(
            json.contains("\"args\":{\"plan\":0,\"job\":1,\"key\":\"key-1\"}"),
            "{json}"
        );
    }

    #[test]
    fn clock_runs() {
        let book = SpanBook::new();
        let a = book.now_ms();
        let b = book.now_ms();
        assert!(a >= 0.0 && b >= a);
    }
}
