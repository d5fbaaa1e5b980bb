//! The metrics registry: named, labelled series backed by atomics.
//!
//! Design goals, in order:
//!
//! 1. **Zero hot-path locking.** A handle ([`Counter`], [`Gauge`],
//!    [`FloatCounter`], [`FloatGauge`], [`TimeHistogram`]) is a clone of an
//!    `Arc` around plain atomics; recording an observation is one or two
//!    relaxed atomic operations. The registry's internal locks are only
//!    taken at registration and snapshot time.
//! 2. **Static label sets.** The full label set is fixed when the handle is
//!    created; there is no per-observation label lookup. Callers that need a
//!    labelled family (e.g. per-scheme op totals) register one handle per
//!    label value up front and keep it.
//! 3. **Deterministic snapshots.** [`Registry::snapshot`] returns series
//!    sorted by `(name, labels)` regardless of registration order or shard
//!    assignment, so two runs that record the same values expose
//!    byte-identical text.
//!
//! Registration is idempotent: asking for the same `(name, labels)` series
//! twice returns handles sharing the same underlying atomic. Re-registering
//! a name with a different metric *kind* panics — that is a programming
//! error, not a runtime condition.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards in the registry.
///
/// Registration from N harness workers hashes series keys across shards so
/// the (already rare) registration path does not serialize on one mutex.
const SHARDS: usize = 16;

/// The kind of a metric family, used for the `# TYPE` exposition line and
/// for kind-conflict detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing value.
    Counter,
    /// Value that can go up and down.
    Gauge,
    /// Power-of-two bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The exposition-format type keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing integer counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An integer gauge handle (can go up and down).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (possibly negative) to the gauge.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Returns the current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing floating-point counter handle.
///
/// Stored as the bit pattern of an `f64` in an `AtomicU64`; additions use a
/// compare-and-swap loop. Used for accumulated durations (e.g. per-worker
/// busy seconds) where integer ticks would lose precision.
#[derive(Clone)]
pub struct FloatCounter(Arc<AtomicU64>);

impl FloatCounter {
    /// Adds `d` to the counter. Negative deltas are ignored (counters are
    /// monotonic by contract).
    pub fn add(&self, d: f64) {
        if d.is_nan() || d <= 0.0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f64::from_bits(cur) + d;
            match self.0.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A floating-point gauge handle (e.g. live throughput in ops/s).
#[derive(Clone)]
pub struct FloatGauge(Arc<AtomicU64>);

impl FloatGauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared core of a power-of-two histogram.
///
/// Bucket `i` counts observations `v` with `v <= 2^i`; one extra overflow
/// bucket counts the rest. `sum`/`count` track the running total so the
/// exposition can emit `_sum` and `_count` series.
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Last-written `(trace_id, raw value)` exemplar per bucket. The
    /// vector stays empty until the first *traced* observation, so
    /// untraced histograms never pay for (or expose) exemplars — their
    /// snapshots compare equal to pre-exemplar ones. The mutex is off
    /// the hot path: plain `record` never touches it.
    exemplars: Mutex<Vec<Option<(String, u64)>>>,
}

/// Number of finite power-of-two buckets: upper bounds `2^0 ..= 2^31`.
const HIST_BUCKETS: usize = 32;

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..=HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            let bits = 64 - (v - 1).leading_zeros() as usize;
            bits.min(HIST_BUCKETS)
        }
    }

    fn record(&self, v: u64) {
        let idx = Self::bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn record_traced(&self, v: u64, trace: &str) {
        self.record(v);
        if trace.is_empty() {
            return;
        }
        let mut exemplars = self.exemplars.lock().expect("histogram exemplars poisoned");
        if exemplars.is_empty() {
            exemplars.resize(HIST_BUCKETS + 1, None);
        }
        exemplars[Self::bucket_index(v)] = Some((trace.to_string(), v));
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            exemplars: self
                .exemplars
                .lock()
                .expect("histogram exemplars poisoned")
                .clone(),
        }
    }
}

/// A power-of-two bucketed *duration* histogram handle.
///
/// Records whole microseconds internally — sub-second latencies would
/// all collapse into an integer-seconds bucket 0 — while the exposition
/// and summary present the series in seconds (`le` bounds of
/// `2^i / 1e6`, float `_sum`), per Prometheus convention for `_seconds`
/// families.
#[derive(Clone)]
pub struct TimeHistogram(Arc<HistogramCore>);

impl TimeHistogram {
    /// Records one duration of `secs` seconds. Non-finite or negative
    /// observations are ignored.
    pub fn observe_seconds(&self, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        // `as` saturates, so absurdly long durations land in the
        // overflow bucket instead of wrapping.
        self.0.record((secs * 1e6).round() as u64);
    }

    /// Records one duration, attaching `trace` as the bucket's exemplar
    /// when present. `None` (and the empty string) behave exactly like
    /// [`TimeHistogram::observe_seconds`].
    pub fn observe_seconds_traced(&self, secs: f64, trace: Option<&str>) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        let micros = (secs * 1e6).round() as u64;
        match trace {
            Some(t) => self.0.record_traced(micros, t),
            None => self.0.record(micros),
        }
    }

    /// Returns the number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// A frozen copy of one histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; bucket `i` holds
    /// observations `<= 2^i`, with a final overflow bucket.
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket `(trace_id, raw value)` exemplars — the most recent
    /// traced observation that landed in each bucket. Empty (not
    /// all-`None`) when the histogram never saw a traced observation,
    /// so exemplar-free snapshots are indistinguishable from
    /// pre-exemplar ones. Raw values are microseconds for snapshots
    /// taken from a [`TimeHistogram`].
    pub exemplars: Vec<Option<(String, u64)>>,
}

impl HistogramSnapshot {
    /// Upper bound of finite bucket `i` (`2^i`).
    #[must_use]
    pub fn bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Number of finite buckets (the last bucket in `buckets` is +Inf).
    #[must_use]
    pub fn finite_buckets() -> usize {
        HIST_BUCKETS
    }

    /// Upper bound of finite bucket `i` in seconds, for snapshots taken
    /// from a [`TimeHistogram`] (which buckets whole microseconds).
    #[must_use]
    pub fn seconds_bound(i: usize) -> f64 {
        Self::bound(i) as f64 / 1e6
    }

    /// The observation sum in seconds, for snapshots taken from a
    /// [`TimeHistogram`].
    #[must_use]
    pub fn seconds_sum(&self) -> f64 {
        self.sum as f64 / 1e6
    }
}

/// The value of one series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Integer counter value.
    Uint(u64),
    /// Integer gauge value.
    Int(i64),
    /// Floating-point counter or gauge value.
    Float(f64),
    /// Duration histogram buckets + sum + count; bucket bounds and the
    /// sum are microseconds internally, seconds in every rendering (see
    /// [`HistogramSnapshot::seconds_bound`]).
    TimeHistogram(HistogramSnapshot),
}

/// One `(name, labels, value)` series in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name, e.g. `horus_harness_jobs_completed_total`.
    pub name: String,
    /// Sorted `(label, value)` pairs; empty for unlabelled series.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: SampleValue,
}

/// A frozen, deterministically ordered copy of the whole registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Help text and kind per family name, sorted by name.
    pub families: BTreeMap<String, (String, MetricKind)>,
    /// All series, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

enum Instrument {
    Counter(Counter),
    FloatCounter(FloatCounter),
    Gauge(Gauge),
    FloatGauge(FloatGauge),
    TimeHistogram(TimeHistogram),
}

impl Instrument {
    fn sample(&self) -> SampleValue {
        match self {
            Instrument::Counter(c) => SampleValue::Uint(c.get()),
            Instrument::FloatCounter(c) => SampleValue::Float(c.get()),
            Instrument::Gauge(g) => SampleValue::Int(g.get()),
            Instrument::FloatGauge(g) => SampleValue::Float(g.get()),
            Instrument::TimeHistogram(h) => SampleValue::TimeHistogram(h.snapshot()),
        }
    }
}

type SeriesKey = (String, Vec<(String, String)>);

/// Sharded registry of metric series.
///
/// Cheap to share (`Arc<Registry>`); see the module docs for the locking
/// model. Every [`crate::ObsSession`] and every
/// `horus_harness::Harness` owns (or is handed) one of these.
pub struct Registry {
    families: Mutex<BTreeMap<String, (String, MetricKind)>>,
    shards: Vec<Mutex<HashMap<SeriesKey, Arc<Instrument>>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Creates an empty registry behind an `Arc`, the usual sharing shape.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
        kind: MetricKind,
    ) -> Arc<Instrument> {
        debug_assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        {
            let mut fam = self.families.lock().expect("obs registry poisoned");
            let entry = fam
                .entry(name.to_string())
                .or_insert_with(|| (help.to_string(), kind));
            assert!(
                entry.1 == kind,
                "metric {name:?} re-registered as {kind:?}, was {:?}",
                entry.1
            );
        }
        let mut key_labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                debug_assert!(valid_metric_name(k), "invalid label name: {k:?}");
                ((*k).to_string(), (*v).to_string())
            })
            .collect();
        key_labels.sort();
        let key: SeriesKey = (name.to_string(), key_labels);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) % SHARDS];
        let mut map = shard.lock().expect("obs registry shard poisoned");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(make())))
    }

    /// Registers (or retrieves) an integer counter series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let inst = self.register(
            name,
            help,
            labels,
            || Instrument::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            MetricKind::Counter,
        );
        match &*inst {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not an integer counter"),
        }
    }

    /// Registers (or retrieves) a floating-point counter series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn float_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatCounter {
        let inst = self.register(
            name,
            help,
            labels,
            || Instrument::FloatCounter(FloatCounter(Arc::new(AtomicU64::new(0)))),
            MetricKind::Counter,
        );
        match &*inst {
            Instrument::FloatCounter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a float counter"),
        }
    }

    /// Registers (or retrieves) an integer gauge series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let inst = self.register(
            name,
            help,
            labels,
            || Instrument::Gauge(Gauge(Arc::new(AtomicI64::new(0)))),
            MetricKind::Gauge,
        );
        match &*inst {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not an integer gauge"),
        }
    }

    /// Registers (or retrieves) a floating-point gauge series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatGauge {
        let inst = self.register(
            name,
            help,
            labels,
            || Instrument::FloatGauge(FloatGauge(Arc::new(AtomicU64::new(0)))),
            MetricKind::Gauge,
        );
        match &*inst {
            Instrument::FloatGauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a float gauge"),
        }
    }

    /// Registers (or retrieves) a duration histogram series (recorded
    /// in microseconds, exposed in seconds).
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn time_histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> TimeHistogram {
        let inst = self.register(
            name,
            help,
            labels,
            || Instrument::TimeHistogram(TimeHistogram(Arc::new(HistogramCore::new()))),
            MetricKind::Histogram,
        );
        match &*inst {
            Instrument::TimeHistogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a time histogram"),
        }
    }

    /// Freezes the registry into a deterministically ordered [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().expect("obs registry poisoned").clone();
        let mut samples = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("obs registry shard poisoned");
            for ((name, labels), inst) in map.iter() {
                samples.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: inst.sample(),
                });
            }
        }
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { families, samples }
    }
}

/// Returns true if `s` is a valid Prometheus metric or label name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[must_use]
pub fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_idempotent_registration() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "help", &[("scheme", "Horus")]);
        let b = reg.counter("t_total", "other help ignored", &[("scheme", "Horus")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let other = reg.counter("t_total", "help", &[("scheme", "Base-LU")]);
        other.inc();
        assert_eq!(other.get(), 1);
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z_total", "z", &[]).add(1);
        reg.gauge("a_depth", "a", &[]).set(-2);
        reg.counter("m_total", "m", &[("w", "1")]).add(5);
        reg.counter("m_total", "m", &[("w", "0")]).add(7);
        let snap = reg.snapshot();
        let names: Vec<_> = snap
            .samples
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a_depth".into(), vec![]),
                ("m_total".into(), vec![("w".into(), "0".into())]),
                ("m_total".into(), vec![("w".into(), "1".into())]),
                ("z_total".into(), vec![]),
            ]
        );
        assert_eq!(snap.samples[1].value, SampleValue::Uint(7));
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("dual", "h", &[]);
        reg.gauge("dual", "h", &[]);
    }

    #[test]
    fn float_counter_accumulates_and_ignores_negative() {
        let reg = Registry::new();
        let f = reg.float_counter("busy_seconds_total", "h", &[("worker", "0")]);
        f.add(0.5);
        f.add(0.25);
        f.add(-1.0);
        f.add(f64::NAN);
        assert!((f.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_power_of_two() {
        let reg = Registry::new();
        let h = reg.time_histogram("lat_seconds", "h", &[]);
        h.observe_seconds(0.000_001); // 1 us: bucket 0 (<=1)
        h.observe_seconds(0.000_002); // 2 us: bucket 1 (<=2)
        h.observe_seconds(0.000_003); // 3 us: bucket 2 (<=4)
        h.observe_seconds(2e7); // 2e13 us > 2^32: overflow bucket
        let snap = reg.snapshot();
        match &snap.samples[0].value {
            SampleValue::TimeHistogram(hs) => {
                assert_eq!(hs.count, 4);
                assert_eq!(hs.sum, 6 + 20_000_000_000_000);
                assert_eq!(hs.buckets[0], 1);
                assert_eq!(hs.buckets[1], 1);
                assert_eq!(hs.buckets[2], 1);
                assert_eq!(hs.buckets[HIST_BUCKETS], 1);
            }
            other => panic!("expected time histogram, got {other:?}"),
        }
    }

    #[test]
    fn time_histogram_buckets_microseconds_reports_seconds() {
        let reg = Registry::new();
        let h = reg.time_histogram("stage_seconds", "h", &[("stage", "queued")]);
        h.observe_seconds(0.000_001); // 1 us -> bucket 0
        h.observe_seconds(0.003); // 3000 us -> bucket 12 (<= 4096)
        h.observe_seconds(-1.0); // ignored
        h.observe_seconds(f64::NAN); // ignored
        assert_eq!(h.count(), 2);
        let snap = reg.snapshot();
        match &snap.samples[0].value {
            SampleValue::TimeHistogram(hs) => {
                assert_eq!(hs.count, 2);
                assert_eq!(hs.sum, 3001);
                assert!((hs.seconds_sum() - 0.003_001).abs() < 1e-12);
                assert_eq!(hs.buckets[0], 1);
                assert_eq!(hs.buckets[12], 1);
                assert!((HistogramSnapshot::seconds_bound(12) - 0.004_096).abs() < 1e-12);
            }
            other => panic!("expected time histogram, got {other:?}"),
        }
        assert_eq!(
            snap.families.get("stage_seconds").map(|f| f.1),
            Some(MetricKind::Histogram)
        );
    }

    #[test]
    fn traced_observations_store_last_exemplar_per_bucket() {
        let reg = Registry::new();
        let h = reg.time_histogram("req_seconds", "h", &[("route", "/v1/jobs")]);
        h.observe_seconds(0.001); // untraced: no exemplar vector yet
        let untraced = match &reg.snapshot().samples[0].value {
            SampleValue::TimeHistogram(hs) => hs.clone(),
            other => panic!("expected time histogram, got {other:?}"),
        };
        assert!(untraced.exemplars.is_empty(), "{untraced:?}");

        h.observe_seconds_traced(0.001, Some("aaaa"));
        h.observe_seconds_traced(0.001, Some("bbbb")); // same bucket: last wins
        h.observe_seconds_traced(2.0, Some("cccc"));
        h.observe_seconds_traced(2.0, None); // keeps cccc
        let snap = match &reg.snapshot().samples[0].value {
            SampleValue::TimeHistogram(hs) => hs.clone(),
            other => panic!("expected time histogram, got {other:?}"),
        };
        assert_eq!(snap.exemplars.len(), HIST_BUCKETS + 1);
        let placed: Vec<&(String, u64)> = snap.exemplars.iter().flatten().collect();
        assert_eq!(placed.len(), 2, "{placed:?}");
        assert_eq!(placed[0], &("bbbb".to_string(), 1000));
        assert_eq!(placed[1], &("cccc".to_string(), 2_000_000));
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("horus_jobs_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
    }
}
