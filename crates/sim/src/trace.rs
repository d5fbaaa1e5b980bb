//! Cycle-stamped episode tracing — the *horus-probe* observability
//! layer.
//!
//! Every timed component can carry a [`Probe`]: a detachable recorder
//! that, when enabled, captures one [`TraceEvent`] per issued operation
//! (which *track* — hardware resource — served it, what the operation
//! was, when it was ready, when it actually started, and when it
//! finished). Disabled probes cost one branch per issue and record
//! nothing, so the default simulation path is unchanged.
//!
//! On top of the raw event stream this module derives the three probe
//! products:
//!
//! * [`chrome_trace_json`] — a Chrome-trace-event JSON document
//!   (loadable in Perfetto / `chrome://tracing`), one track per
//!   resource, duration events in core cycles;
//! * [`resource_usage`] — per-resource busy-cycle utilization and
//!   queueing-delay percentiles (from a power-of-two
//!   [`Histogram`] of `start - ready` waits);
//! * [`critical_path`] — a walk of the recorded completion-dependency
//!   chain, attributing the episode's span to the resources that bound
//!   it.
//!
//! A probe buffers its events in recording order; callers drain them
//! with [`Probe::take`].

use crate::clock::Cycles;
use crate::schedule::Completion;
use crate::stats::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded operation: a span on a named resource track.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The resource (or phase) track the span belongs to, e.g.
    /// `"pcm-bank[3]"`, `"aes"`, `"hash"`, `"phase"`.
    pub track: String,
    /// The operation, e.g. `"write.chv_data"`, `"mac.chv_entry"`,
    /// `"drain.data"`.
    pub name: String,
    /// When the operation's inputs were available (request time).
    pub ready: u64,
    /// When the resource actually started serving it (`>= ready`).
    pub start: u64,
    /// When it completed.
    pub end: u64,
}

impl TraceEvent {
    /// Cycles the operation waited between being ready and starting.
    #[must_use]
    pub fn wait(&self) -> u64 {
        self.start.saturating_sub(self.ready)
    }

    /// The span's service time.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A detachable per-component recorder: `None` (the default) records
/// nothing at the cost of one branch per issue; enabling it attaches an
/// event buffer under a track label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Probe {
    inner: Option<Box<ProbeInner>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ProbeInner {
    track: String,
    events: Vec<TraceEvent>,
}

impl Probe {
    /// A disabled probe (the default for every component).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enables recording under `track`, discarding any prior buffer.
    pub fn enable(&mut self, track: impl Into<String>) {
        self.inner = Some(Box::new(ProbeInner {
            track: track.into(),
            events: Vec::new(),
        }));
    }

    /// Whether the probe records.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The track label, when enabled.
    #[must_use]
    pub fn track(&self) -> Option<&str> {
        self.inner.as_deref().map(|p| p.track.as_str())
    }

    /// Records a completed operation (no-op when disabled).
    #[inline]
    pub fn record(&mut self, name: &str, ready: Cycles, completion: Completion) {
        if let Some(p) = self.inner.as_deref_mut() {
            p.events.push(TraceEvent {
                track: p.track.clone(),
                name: name.to_owned(),
                ready: ready.0,
                start: completion.start.0,
                end: completion.done.0,
            });
        }
    }

    /// Records an explicit span (phase markers; no-op when disabled).
    pub fn record_span(&mut self, name: &str, start: u64, end: u64) {
        if let Some(p) = self.inner.as_deref_mut() {
            p.events.push(TraceEvent {
                track: p.track.clone(),
                name: name.to_owned(),
                ready: start,
                start,
                end,
            });
        }
    }

    /// Removes and returns the recorded events (stays enabled).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.inner
            .as_deref_mut()
            .map(|p| std::mem::take(&mut p.events))
            .unwrap_or_default()
    }

    /// Drops buffered events without disabling (a new episode).
    pub fn clear(&mut self) {
        if let Some(p) = self.inner.as_deref_mut() {
            p.events.clear();
        }
    }
}

/// The resource class a track belongs to: the track name with any
/// bank index stripped (`"pcm-bank[3]"` → `"pcm-bank"`).
#[must_use]
pub fn base_resource(track: &str) -> &str {
    track.split('[').next().unwrap_or(track)
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Renders events as a Chrome-trace-event JSON document, loadable in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Tracks become threads of one process (see [`ChromeTrace`]), and
/// every [`TraceEvent`] becomes a complete (`"ph":"X"`) duration event
/// with `ts`/`dur` in **core cycles** (the viewer's time unit labels
/// read as microseconds; only ratios matter) and its `ready`/`wait`
/// cycles as `args`. Events appear in recording order, so identical
/// episodes serialize byte-identically.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut doc = ChromeTrace::new(events.iter().map(|e| e.track.as_str()));
    for e in events {
        doc.event(&e.track, e.start, e.duration(), &e.name, |args| {
            let _ = write!(args, "\"ready\":{},\"wait\":{}", e.ready, e.wait());
        });
    }
    doc.finish()
}

/// The one Chrome-trace-event writer: episode traces
/// ([`chrome_trace_json`]) and job-lifecycle spans
/// (`horus_obs::span::chrome_trace_json`) both render through it.
///
/// A document names each distinct track once with a `thread_name`
/// metadata event, tids numbered in sorted track order so they do not
/// depend on the order events arrive, then carries `ph:"X"` events
/// whose `args` members the caller writes. The layout is fixed here,
/// by hand; only strings go through [`serde_json::write_str`].
pub struct ChromeTrace<'a> {
    out: String,
    tids: BTreeMap<&'a str, usize>,
    first: bool,
}

impl<'a> ChromeTrace<'a> {
    /// Starts a document over `tracks` (any order, repeats allowed) and
    /// writes their `thread_name` metadata.
    pub fn new(tracks: impl IntoIterator<Item = &'a str>) -> Self {
        let mut tids: BTreeMap<&'a str, usize> = tracks.into_iter().map(|t| (t, 0)).collect();
        let mut out = String::from("{\"traceEvents\":[");
        for (tid, (track, slot)) in tids.iter_mut().enumerate() {
            *slot = tid;
            if tid > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
            );
            serde_json::write_str(&mut out, track);
            out.push_str("}}");
        }
        let first = tids.is_empty();
        ChromeTrace { out, tids, first }
    }

    /// Appends one complete event on `track` (which must have been
    /// named to [`ChromeTrace::new`]); `args` writes the members of its
    /// `args` object.
    ///
    /// # Panics
    /// If `track` was not among the document's tracks.
    pub fn event(
        &mut self,
        track: &str,
        ts: u64,
        dur: u64,
        name: &str,
        args: impl FnOnce(&mut String),
    ) {
        let tid = self.tids[track];
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(
            self.out,
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":"
        );
        serde_json::write_str(&mut self.out, name);
        self.out.push_str(",\"args\":{");
        args(&mut self.out);
        self.out.push_str("}}");
    }

    /// Closes the document and returns its JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ns\"}");
        self.out
    }
}

// ---------------------------------------------------------------------
// Utilization
// ---------------------------------------------------------------------

/// Busy-cycle and queueing-delay summary for one resource track.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// The track (bank-indexed where applicable, e.g. `"pcm-bank[3]"`).
    pub track: String,
    /// Operations served.
    pub ops: u64,
    /// Cycles with at least one operation in flight (union of spans).
    pub busy_cycles: u64,
    /// Episode length the utilization is measured against.
    pub total_cycles: u64,
    /// `busy_cycles / total_cycles` (0 when the episode is empty).
    pub utilization: f64,
    /// Mean queueing delay (`start - ready`) in cycles.
    pub queue_mean: f64,
    /// Median queueing-delay bound (power-of-two bucket upper edge).
    pub queue_p50: u64,
    /// 99th-percentile queueing-delay bound.
    pub queue_p99: u64,
    /// Largest observed queueing delay.
    pub queue_max: u64,
}

/// Derives per-track utilization from an event stream.
///
/// Busy time is the union of the track's spans — the fraction of the
/// episode the unit had at least one operation in flight — which
/// equals slot occupancy for exclusive devices and "pipeline
/// non-empty" for pipelined engines. Tracks are returned in name
/// order.
#[must_use]
pub fn resource_usage(events: &[TraceEvent], total_cycles: u64) -> Vec<ResourceUsage> {
    let mut spans: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    let mut waits: BTreeMap<&str, Histogram> = BTreeMap::new();
    for e in events {
        spans
            .entry(e.track.as_str())
            .or_default()
            .push((e.start, e.end));
        waits.entry(e.track.as_str()).or_default().record(e.wait());
    }
    spans
        .into_iter()
        .map(|(track, mut sp)| {
            sp.sort_unstable();
            let mut busy = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in sp.iter().copied() {
                match cur {
                    Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        busy += ce - cs;
                        cur = Some((s, e));
                        let _ = cs;
                    }
                    None => cur = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = cur {
                busy += ce - cs;
            }
            let h = &waits[track];
            ResourceUsage {
                track: track.to_owned(),
                ops: sp.len() as u64,
                busy_cycles: busy,
                total_cycles,
                utilization: if total_cycles == 0 {
                    0.0
                } else {
                    busy as f64 / total_cycles as f64
                },
                queue_mean: h.mean().unwrap_or(0.0),
                queue_p50: h.quantile_bound(0.5).unwrap_or(0),
                queue_p99: h.quantile_bound(0.99).unwrap_or(0),
                queue_max: h.max().unwrap_or(0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------

/// One resource class's share of the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathShare {
    /// The resource class ([`base_resource`] of the track).
    pub resource: String,
    /// Episode-timeline cycles attributed to the class on the path.
    pub cycles: u64,
    /// `cycles` over the sum of all shares.
    pub fraction: f64,
}

/// The result of walking the completion-dependency chain backward from
/// the episode's last-finishing operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathSummary {
    /// Episode length (completion time of the last operation).
    pub total_cycles: u64,
    /// Operations on the reconstructed path.
    pub steps: u64,
    /// The resource class with the largest share — what bounds the
    /// episode.
    pub bounding_resource: String,
    /// Every class's share, largest first.
    pub shares: Vec<CriticalPathShare>,
}

/// Walks the recorded dependency chain backward from the last
/// completion and attributes the episode to resource classes.
///
/// Two predecessor rules, applied in order at each step:
///
/// 1. **Data dependency** — an event whose `end` equals the current
///    event's `ready` produced its input (the drain engines chain
///    completions exactly this way).
/// 2. **Contention** — if the event waited (`start > ready`), the
///    same-track event with the greatest `end ≤ start` held the
///    resource.
///
/// Each visited event contributes the timeline segment between its
/// predecessor's completion and its own completion to its track's
/// resource class (the earliest path event is credited from cycle
/// zero), so the shares tile the episode and sum to the path head's
/// completion time — never more than the episode. Ties are broken
/// deterministically (latest `end`, then `start`, then track/name
/// order), so the summary is a pure function of the event stream.
/// Returns `None` for an empty stream.
#[must_use]
pub fn critical_path(events: &[TraceEvent], total_cycles: u64) -> Option<CriticalPathSummary> {
    if events.is_empty() {
        return None;
    }
    let key = |e: &TraceEvent| (e.end, e.start, e.track.clone(), e.name.clone());
    // end time -> candidate producers, per-track spans for contention.
    let mut by_end: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut by_track: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        by_end.entry(e.end).or_default().push(i);
        by_track.entry(e.track.as_str()).or_default().push(i);
    }
    for v in by_track.values_mut() {
        v.sort_by_key(|i| (events[*i].end, events[*i].start));
    }
    let pick_max = |candidates: &[usize]| -> usize {
        candidates
            .iter()
            .copied()
            .max_by_key(|i| key(&events[*i]))
            .expect("non-empty candidate list")
    };

    let mut cur = pick_max(&(0..events.len()).collect::<Vec<_>>());
    let mut attributed: BTreeMap<String, u64> = BTreeMap::new();
    let mut steps = 0u64;
    for _ in 0..events.len() {
        let e = &events[cur];
        steps += 1;
        // Rule 1: the producer whose completion made this op ready.
        let producer = (e.ready > 0)
            .then(|| by_end.get(&e.ready))
            .flatten()
            .map(|c| pick_max(c));
        let next = match producer {
            Some(p) if p != cur => Some(p),
            _ if e.wait() > 0 => {
                // Rule 2: the same-track op that held the resource.
                let track_events = &by_track[e.track.as_str()];
                track_events
                    .iter()
                    .copied()
                    .filter(|i| *i != cur && events[*i].end <= e.start)
                    .max_by_key(|i| key(&events[*i]))
            }
            _ => None,
        };
        // Only follow strictly-earlier predecessors: guards against
        // pathological event streams with self-referential times.
        let next = next.filter(|n| key(&events[*n]) < key(e));
        // Credit this step with the timeline segment it closes: from
        // its predecessor's completion (cycle zero at the path's start)
        // to its own. Segments tile [0, path head's end] exactly.
        let pred_end = next.map_or(0, |n| events[n].end);
        *attributed
            .entry(base_resource(&e.track).to_owned())
            .or_insert(0) += e.end.saturating_sub(pred_end);
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }

    let total_attr: u64 = attributed.values().sum();
    let mut shares: Vec<CriticalPathShare> = attributed
        .into_iter()
        .map(|(resource, cycles)| CriticalPathShare {
            resource,
            cycles,
            fraction: if total_attr == 0 {
                0.0
            } else {
                cycles as f64 / total_attr as f64
            },
        })
        .collect();
    shares.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.resource.cmp(&b.resource)));
    let bounding_resource = shares.first().map(|s| s.resource.clone())?;
    Some(CriticalPathSummary {
        total_cycles,
        steps,
        bounding_resource,
        shares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: &str, name: &str, ready: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            track: track.into(),
            name: name.into(),
            ready,
            start,
            end,
        }
    }

    #[test]
    fn probe_records_only_when_enabled() {
        let mut p = Probe::disabled();
        p.record(
            "op",
            Cycles(0),
            Completion {
                start: Cycles(0),
                done: Cycles(5),
            },
        );
        assert!(!p.enabled());
        assert!(p.take().is_empty());

        p.enable("pcm[0]");
        assert_eq!(p.track(), Some("pcm[0]"));
        p.record(
            "write.data",
            Cycles(3),
            Completion {
                start: Cycles(10),
                done: Cycles(2010),
            },
        );
        let events = p.take();
        assert_eq!(events, vec![ev("pcm[0]", "write.data", 3, 10, 2010)]);
        assert_eq!(events[0].wait(), 7);
        assert_eq!(events[0].duration(), 2000);
        assert!(p.take().is_empty(), "take drains");
        assert!(p.enabled(), "take keeps the probe on");

        // Events come back in recording order; clear drops them.
        p.record_span("drain.data", 0, 4);
        p.record_span("drain.finish", 4, 6);
        let names: Vec<String> = p.take().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["drain.data", "drain.finish"]);
        p.record_span("drain.data", 0, 4);
        p.clear();
        assert!(p.enabled() && p.take().is_empty());
    }

    #[test]
    fn base_resource_strips_bank_index() {
        assert_eq!(base_resource("pcm-bank[13]"), "pcm-bank");
        assert_eq!(base_resource("hash"), "hash");
    }

    #[test]
    fn chrome_json_is_valid_and_deterministic() {
        let events = vec![
            ev("pcm[1]", "write.data", 0, 0, 2000),
            ev("aes", "otp.data", 0, 0, 40),
        ];
        let a = chrome_trace_json(&events);
        let b = chrome_trace_json(&events);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with('}'));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"name\":\"write.data\""));
        // aes sorts before pcm[1]: tid 0 and 1 respectively.
        assert!(a.contains("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"aes\"}"));
        // Balanced braces (cheap well-formedness check).
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn chrome_json_escapes_strings() {
        let events = vec![ev("t", "we\"ird\\name", 0, 0, 1)];
        let json = chrome_trace_json(&events);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn usage_unions_overlapping_spans() {
        // Two overlapping ops (pipelined engine) and one gap.
        let events = vec![
            ev("hash", "mac.a", 0, 0, 160),
            ev("hash", "mac.b", 0, 40, 200),
            ev("hash", "mac.c", 300, 300, 460),
        ];
        let usage = resource_usage(&events, 1000);
        assert_eq!(usage.len(), 1);
        let u = &usage[0];
        assert_eq!(u.ops, 3);
        assert_eq!(u.busy_cycles, 200 + 160);
        assert!((u.utilization - 0.36).abs() < 1e-9);
        assert_eq!(u.queue_max, 40);
    }

    #[test]
    fn usage_wait_percentiles_never_exceed_the_max() {
        // aes waits 1, 2, 6, 6: the p99 rank lands in the (4, 8] bucket,
        // whose edge 8 is above every recorded wait.
        let mut events = vec![
            ev("aes", "o", 0, 1, 41),
            ev("aes", "o", 40, 42, 82),
            ev("aes", "o", 80, 86, 126),
            ev("aes", "o", 120, 126, 166),
        ];
        events.extend((0..20).map(|i| ev("hash", "m", i * 200, i * 200 + 34, i * 200 + 194)));
        events.push(ev("pcm[0]", "w", 0, 0, 2000));
        let usage = resource_usage(&events, 4000);
        assert_eq!(usage.len(), 3);
        for u in &usage {
            assert!(
                u.queue_p50 <= u.queue_p99 && u.queue_p99 <= u.queue_max,
                "{}: p50 {} p99 {} max {}",
                u.track,
                u.queue_p50,
                u.queue_p99,
                u.queue_max
            );
        }
        assert_eq!((usage[0].queue_p99, usage[0].queue_max), (6, 6));
        assert_eq!((usage[1].queue_p50, usage[1].queue_max), (34, 34));
    }

    #[test]
    fn usage_orders_tracks_by_name() {
        let events = vec![
            ev("pcm[1]", "w", 0, 0, 10),
            ev("aes", "o", 0, 0, 10),
            ev("pcm[0]", "w", 0, 0, 10),
        ];
        let tracks: Vec<_> = resource_usage(&events, 10)
            .into_iter()
            .map(|u| u.track)
            .collect();
        assert_eq!(tracks, ["aes", "pcm[0]", "pcm[1]"]);
    }

    #[test]
    fn critical_path_follows_dependencies_and_contention() {
        // read (bank) -> mac (hash, waits on engine held by mac0).
        let events = vec![
            ev("hash", "mac.other", 0, 0, 160),
            ev("pcm[0]", "read.counter", 0, 0, 600),
            ev("hash", "mac.verify", 600, 640, 800),
        ];
        let cp = critical_path(&events, 800).expect("nonempty");
        assert_eq!(cp.total_cycles, 800);
        // Path: mac.verify -> read.counter (produced ready=600) -> done.
        assert_eq!(cp.steps, 2);
        assert_eq!(cp.bounding_resource, "pcm");
        let hash_share = cp.shares.iter().find(|s| s.resource == "hash").unwrap();
        // verify: 160 service + 40 wait.
        assert_eq!(hash_share.cycles, 200);
        let pcm_share = cp.shares.iter().find(|s| s.resource == "pcm").unwrap();
        assert_eq!(pcm_share.cycles, 600);
        let frac_sum: f64 = cp.shares.iter().map(|s| s.fraction).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_contention_only_chain() {
        // Three serialized ops on one unpipelined bank, no data deps.
        let events = vec![
            ev("pcm[0]", "w1", 0, 0, 2000),
            ev("pcm[0]", "w2", 0, 2000, 4000),
            ev("pcm[0]", "w3", 0, 4000, 6000),
        ];
        let cp = critical_path(&events, 6000).expect("nonempty");
        assert_eq!(cp.steps, 3);
        assert_eq!(cp.bounding_resource, "pcm");
        // The three serialized writes tile the whole episode.
        assert_eq!(cp.shares[0].cycles, 6000);
    }

    #[test]
    fn critical_path_empty_is_none() {
        assert!(critical_path(&[], 0).is_none());
    }

    #[test]
    fn critical_path_is_deterministic() {
        let events: Vec<TraceEvent> = (0..50)
            .map(|i| ev(&format!("pcm[{}]", i % 4), "w", i * 7, i * 11, i * 11 + 500))
            .collect();
        let a = critical_path(&events, 10_000).unwrap();
        let b = critical_path(&events, 10_000).unwrap();
        assert_eq!(a, b);
    }
}
