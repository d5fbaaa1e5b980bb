//! Prometheus/OpenMetrics text exposition (format version 0.0.4).
//!
//! [`render`] turns a [`Snapshot`] into the plain-text format every
//! Prometheus-compatible scraper understands:
//!
//! ```text
//! # HELP horus_harness_jobs_completed_total Jobs that ran to completion.
//! # TYPE horus_harness_jobs_completed_total counter
//! horus_harness_jobs_completed_total 5
//! ```
//!
//! Snapshots are already sorted by `(name, labels)` (see
//! [`crate::registry`]), so the rendered text is byte-deterministic for
//! identical recorded values.
//!
//! ## The determinism rule
//!
//! Some families are *host- or timing-dependent by construction* — wall
//! times, CPU seconds, RSS, allocation counts, live rates, per-worker
//! series — and legitimately differ between runs and between `--jobs`
//! levels. Golden tests and cross-run comparisons must exclude exactly
//! those. The rule is purely name-based so it can be re-implemented by any
//! consumer: a family is host/timing-dependent iff its name
//!
//! * starts with `horus_host_`, `horus_fleet_` (fleet scheduling —
//!   who leased what, when, and how often leases expired — is
//!   legitimately run-dependent even though the merged results are not),
//!   `horus_service_` (admission depends on client arrival order and
//!   wall-clock bucket refill, even though the results served are not),
//!   or `horus_http_` (request traffic is inherently run-dependent), or
//! * contains `_seconds`, `_bytes`, or `worker`, or
//! * ends with `_per_second`.
//!
//! [`is_deterministic_metric`] implements the rule and
//! [`deterministic_subset`] applies it to a snapshot.
//!
//! ## Exemplars
//!
//! Histogram buckets whose snapshot carries a trace-id exemplar render
//! with the OpenMetrics exemplar suffix:
//!
//! ```text
//! horus_http_request_seconds_bucket{route="/v1/jobs",le="0.004096"} 3 # {trace_id="9f8a6c2d01b4e37f"} 0.0031
//! ```
//!
//! Exemplars only exist on buckets that saw a *traced* observation
//! ([`crate::TimeHistogram::observe_seconds_traced`]), so untraced
//! registries render byte-identically to the pre-exemplar format.

use crate::registry::{HistogramSnapshot, Sample, SampleValue, Snapshot};

/// Returns true if the family `name` is expected to be identical across
/// runs and worker counts for the same plan (see the module docs for the
/// exact rule).
#[must_use]
pub fn is_deterministic_metric(name: &str) -> bool {
    !(name.starts_with("horus_host_")
        || name.starts_with("horus_fleet_")
        || name.starts_with("horus_service_")
        || name.starts_with("horus_http_")
        || name.contains("_seconds")
        || name.contains("_bytes")
        || name.contains("worker")
        || name.ends_with("_per_second"))
}

/// Returns a copy of `snap` restricted to deterministic families.
#[must_use]
pub fn deterministic_subset(snap: &Snapshot) -> Snapshot {
    Snapshot {
        families: snap
            .families
            .iter()
            .filter(|(name, _)| is_deterministic_metric(name))
            .map(|(name, fam)| (name.clone(), fam.clone()))
            .collect(),
        samples: snap
            .samples
            .iter()
            .filter(|s| is_deterministic_metric(&s.name))
            .cloned()
            .collect(),
    }
}

/// Renders a snapshot as Prometheus text exposition format 0.0.4.
#[must_use]
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for sample in &snap.samples {
        if last_family != Some(sample.name.as_str()) {
            if let Some((help, kind)) = snap.families.get(&sample.name) {
                out.push_str("# HELP ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(&escape_help(help));
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(kind.as_str());
                out.push('\n');
            }
            last_family = Some(sample.name.as_str());
        }
        render_sample(&mut out, sample);
    }
    out
}

fn render_sample(out: &mut String, sample: &Sample) {
    match &sample.value {
        SampleValue::Uint(v) => {
            render_series(
                out,
                &sample.name,
                &sample.labels,
                None,
                &v.to_string(),
                None,
            );
        }
        SampleValue::Int(v) => {
            render_series(
                out,
                &sample.name,
                &sample.labels,
                None,
                &v.to_string(),
                None,
            );
        }
        SampleValue::Float(v) => {
            render_series(
                out,
                &sample.name,
                &sample.labels,
                None,
                &fmt_float(*v),
                None,
            );
        }
        SampleValue::TimeHistogram(h) => render_time_histogram(out, sample, h),
    }
}

/// The exemplar attached to bucket `i` of `h`, with its raw value
/// formatted by `fmt` — `(trace_id, formatted value)`.
fn bucket_exemplar(
    h: &HistogramSnapshot,
    i: usize,
    fmt: impl Fn(u64) -> String,
) -> Option<(String, String)> {
    h.exemplars
        .get(i)
        .and_then(Option::as_ref)
        .map(|(trace, raw)| (trace.clone(), fmt(*raw)))
}

/// Renders a duration histogram: cumulative `_bucket` series, then
/// `_sum` and `_count`. The buckets hold microseconds and the family is
/// named in seconds, so `le` bounds, `_sum`, and exemplar values convert
/// to float seconds; `_count` stays an integer.
fn render_time_histogram(out: &mut String, sample: &Sample, h: &HistogramSnapshot) {
    let bucket_name = format!("{}_bucket", sample.name);
    let mut cumulative = 0u64;
    for (i, count) in h.buckets.iter().enumerate() {
        cumulative += count;
        let le = if i < HistogramSnapshot::finite_buckets() {
            fmt_float(HistogramSnapshot::seconds_bound(i))
        } else {
            "+Inf".to_string()
        };
        render_series(
            out,
            &bucket_name,
            &sample.labels,
            Some(("le", &le)),
            &cumulative.to_string(),
            bucket_exemplar(h, i, |raw| fmt_float(raw as f64 / 1e6)),
        );
    }
    render_series(
        out,
        &format!("{}_sum", sample.name),
        &sample.labels,
        None,
        &fmt_float(h.seconds_sum()),
        None,
    );
    render_series(
        out,
        &format!("{}_count", sample.name),
        &sample.labels,
        None,
        &h.count.to_string(),
        None,
    );
}

fn render_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
    exemplar: Option<(String, String)>,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    if let Some((trace, exemplar_value)) = exemplar {
        // OpenMetrics exemplar suffix. Trace ids are hex strings from
        // our own minter, but escape anyway so a hostile id cannot
        // corrupt the exposition.
        out.push_str(" # {trace_id=\"");
        out.push_str(&escape_label_value(&trace));
        out.push_str("\"} ");
        out.push_str(&exemplar_value);
    }
    out.push('\n');
}

/// Formats a float the way the exposition format expects (`Display`,
/// which prints integral values without a trailing `.0`).
#[must_use]
pub fn fmt_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn renders_counter_gauge_and_labels() {
        let reg = Registry::new();
        reg.counter("jobs_total", "All jobs.", &[("scheme", "Horus")])
            .add(3);
        reg.gauge("queue_depth", "Jobs waiting.", &[]).set(2);
        let text = render(&reg.snapshot());
        assert_eq!(
            text,
            "# HELP jobs_total All jobs.\n\
             # TYPE jobs_total counter\n\
             jobs_total{scheme=\"Horus\"} 3\n\
             # HELP queue_depth Jobs waiting.\n\
             # TYPE queue_depth gauge\n\
             queue_depth 2\n"
        );
    }

    #[test]
    fn renders_histogram_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.time_histogram("lat_seconds", "Latency.", &[]);
        h.observe_seconds(0.000_001);
        h.observe_seconds(0.000_003);
        let text = render(&reg.snapshot());
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.000001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.000004\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_sum 0.000004\n"), "{text}");
        assert!(text.contains("lat_seconds_count 2\n"), "{text}");
        // Buckets are cumulative: every bucket after le=4us also reads 2.
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.000008\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn renders_time_histogram_in_seconds() {
        let reg = Registry::new();
        let h = reg.time_histogram("stage_seconds", "Stage latency.", &[("stage", "queued")]);
        h.observe_seconds(0.000_001); // 1 us
        h.observe_seconds(0.000_002); // 2 us
        let text = render(&reg.snapshot());
        assert!(text.contains("# TYPE stage_seconds histogram\n"), "{text}");
        assert!(
            text.contains("stage_seconds_bucket{stage=\"queued\",le=\"0.000001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_seconds_bucket{stage=\"queued\",le=\"0.000002\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_seconds_bucket{stage=\"queued\",le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_seconds_sum{stage=\"queued\"} 0.000003"),
            "{text}"
        );
        assert!(
            text.contains("stage_seconds_count{stage=\"queued\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn determinism_rule() {
        assert!(is_deterministic_metric("horus_harness_jobs_total"));
        assert!(is_deterministic_metric("horus_scheme_memory_ops_total"));
        assert!(!is_deterministic_metric("horus_host_cpu_seconds_total"));
        assert!(!is_deterministic_metric(
            "horus_harness_worker_busy_seconds_total"
        ));
        assert!(!is_deterministic_metric("horus_harness_worker_threads"));
        assert!(!is_deterministic_metric(
            "horus_harness_episodes_per_second"
        ));
        assert!(!is_deterministic_metric("horus_host_peak_rss_bytes"));
        assert!(!is_deterministic_metric("horus_fleet_requeues_total"));
        assert!(!is_deterministic_metric("horus_fleet_leases_in_flight"));
        assert!(!is_deterministic_metric("horus_http_requests_total"));
        assert!(!is_deterministic_metric("horus_service_queue_age_seconds"));
    }

    #[test]
    fn exemplars_render_only_on_traced_buckets() {
        let reg = Registry::new();
        let h = reg.time_histogram("req_seconds", "Request latency.", &[("route", "/metrics")]);
        h.observe_seconds(0.000_001);
        let before = render(&reg.snapshot());
        assert!(!before.contains(" # {"), "{before}");

        h.observe_seconds_traced(0.000_002, Some("deadbeefcafe0123"));
        let after = render(&reg.snapshot());
        assert!(
            after.contains(
                "req_seconds_bucket{route=\"/metrics\",le=\"0.000002\"} 2 \
                 # {trace_id=\"deadbeefcafe0123\"} 0.000002\n"
            ),
            "{after}"
        );
        // Buckets without a traced observation stay suffix-free, and
        // the _sum/_count lines never carry exemplars.
        assert!(
            after.contains("req_seconds_bucket{route=\"/metrics\",le=\"0.000001\"} 1\n"),
            "{after}"
        );
        assert!(
            after.contains("req_seconds_sum{route=\"/metrics\"} 0.000003\n"),
            "{after}"
        );
    }

    #[test]
    fn escaping() {
        let reg = Registry::new();
        reg.counter("esc_total", "line1\nline2 \\ done", &[("p", "a\"b\\c")])
            .inc();
        let text = render(&reg.snapshot());
        assert!(text.contains("# HELP esc_total line1\\nline2 \\\\ done\n"));
        assert!(text.contains("esc_total{p=\"a\\\"b\\\\c\"} 1\n"));
    }
}
