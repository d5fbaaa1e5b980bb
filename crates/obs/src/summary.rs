//! End-of-run `summary.json` artifact (in the run directory).
//!
//! The summary freezes everything the scrape endpoint could have told you,
//! plus the per-job host profiles: a [`HostProfile`] for the whole process,
//! every [`JobProfile`], and the full registry [`Snapshot`]. CI uploads it;
//! `horus-cli bench-gate` carries the host-profile numbers in its own
//! snapshot format so they become diffable against a committed baseline.
//!
//! The encoder is hand-laid (strings go through
//! `serde_json::write_str`) and deterministic: keys are emitted in a
//! fixed order and registry samples arrive pre-sorted from
//! [`crate::registry::Registry::snapshot`]. Optional fields serialize as
//! `null` so the schema is stable whether or not `/proc` and
//! `alloc-profile` are available.

use crate::profile::{HostProfile, JobProfile};
use crate::registry::{SampleValue, Snapshot};

/// Schema version stamped into every summary.
pub const FORMAT_VERSION: u32 = 1;

/// Everything written to `summary.json`.
#[derive(Debug, Clone)]
pub struct ObsSummary {
    /// Whole-process resource usage.
    pub host: HostProfile,
    /// Per-job profiles in completion-record order.
    pub jobs: Vec<JobProfile>,
    /// Frozen registry contents.
    pub registry: Snapshot,
}

impl ObsSummary {
    /// Renders the summary as a deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format_version\": {FORMAT_VERSION},\n"));
        out.push_str("  \"host\": ");
        push_host(&mut out, &self.host);
        out.push_str(",\n  \"jobs\": [");
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_job(&mut out, job);
        }
        if self.jobs.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"metrics\": [");
        for (i, sample) in self.registry.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_sample(&mut out, sample);
        }
        if self.registry.samples.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Writes the summary to `path` (atomically via a sibling tmp file).
    ///
    /// # Errors
    /// Returns the underlying I/O error on failure.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

fn push_host(out: &mut String, host: &HostProfile) {
    out.push('{');
    out.push_str(&format!(
        "\"wall_seconds\": {}, \"cpu_seconds\": {}, \"peak_rss_bytes\": {}, \"allocations\": {}, \"allocated_bytes\": {}",
        json_f64(host.wall_seconds),
        opt_f64(host.cpu_seconds),
        opt_u64(host.peak_rss_bytes),
        opt_u64(host.allocations),
        opt_u64(host.allocated_bytes),
    ));
    out.push('}');
}

fn push_job(out: &mut String, job: &JobProfile) {
    out.push('{');
    out.push_str("\"label\": ");
    serde_json::write_str(out, &job.label);
    out.push_str(", \"scheme\": ");
    push_opt_str(out, job.scheme.as_deref());
    out.push_str(", \"trace\": ");
    push_opt_str(out, job.trace.as_deref());
    out.push_str(&format!(", \"cached\": {}", job.cached));
    out.push_str(&format!(
        ", \"wall_seconds\": {}, \"cpu_seconds\": {}, \"allocations\": {}, \"allocated_bytes\": {}",
        json_f64(job.wall_seconds),
        opt_f64(job.cpu_seconds),
        opt_u64(job.allocations),
        opt_u64(job.allocated_bytes),
    ));
    out.push('}');
}

fn push_sample(out: &mut String, sample: &crate::registry::Sample) {
    out.push('{');
    out.push_str("\"name\": ");
    serde_json::write_str(out, &sample.name);
    out.push_str(", \"labels\": {");
    for (i, (k, v)) in sample.labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        serde_json::write_str(out, k);
        out.push_str(": ");
        serde_json::write_str(out, v);
    }
    out.push('}');
    match &sample.value {
        SampleValue::Uint(v) => out.push_str(&format!(", \"value\": {v}")),
        SampleValue::Int(v) => out.push_str(&format!(", \"value\": {v}")),
        SampleValue::Float(v) => out.push_str(&format!(", \"value\": {}", json_f64(*v))),
        SampleValue::TimeHistogram(h) => {
            // Duration histograms bucket microseconds; the summary
            // reports the sum in seconds to match the `_seconds` family
            // name. Bucket counts stay raw (bound of bucket `i` is
            // `2^i / 1e6` seconds).
            out.push_str(&format!(
                ", \"count\": {}, \"sum\": {}",
                h.count,
                json_f64(h.seconds_sum())
            ));
            out.push_str(", \"buckets\": [");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push(']');
        }
    }
    out.push('}');
}

/// Writes `v` as a JSON string literal, or `null` when absent.
fn push_opt_str(out: &mut String, v: Option<&str>) {
    match v {
        Some(s) => serde_json::write_str(out, s),
        None => out.push_str("null"),
    }
}

/// Encodes an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or("null".to_string(), json_f64)
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_summary() -> ObsSummary {
        let registry = Registry::new();
        registry
            .counter("jobs_total", "h", &[("scheme", "Horus")])
            .add(5);
        registry
            .time_histogram("stage_seconds", "h", &[])
            .observe_seconds(0.5);
        ObsSummary {
            host: HostProfile {
                wall_seconds: 1.5,
                cpu_seconds: Some(0.75),
                peak_rss_bytes: Some(1024),
                allocations: None,
                allocated_bytes: None,
            },
            jobs: vec![JobProfile {
                label: "abc123".to_string(),
                scheme: Some("Horus".to_string()),
                trace: Some("9f8a6c2d01b4e37f".to_string()),
                cached: true,
                wall_seconds: 0.25,
                cpu_seconds: None,
                allocations: None,
                allocated_bytes: None,
            }],
            registry: registry.snapshot(),
        }
    }

    #[test]
    fn summary_json_shape() {
        let json = sample_summary().to_json();
        assert!(json.starts_with("{\n  \"format_version\": 1,\n"));
        assert!(json.contains("\"wall_seconds\": 1.5"));
        assert!(json.contains("\"cpu_seconds\": 0.75"));
        assert!(json.contains("\"allocations\": null"));
        assert!(json.contains("\"label\": \"abc123\""));
        assert!(json.contains("\"trace\": \"9f8a6c2d01b4e37f\""));
        assert!(json.contains("\"cached\": true"));
        assert!(json.contains("\"name\": \"jobs_total\""));
        assert!(json.contains("\"scheme\": \"Horus\""));
        // The time histogram reports its sum in seconds, not micros,
        // and its raw per-bucket counts (0.5 s = 500000 us: bucket 19).
        assert!(json.contains("\"name\": \"stage_seconds\""));
        let buckets: Vec<&str> = (0..=32).map(|i| if i == 19 { "1" } else { "0" }).collect();
        assert!(json.contains(&format!(
            "\"count\": 1, \"sum\": 0.5, \"buckets\": [{}]",
            buckets.join(", ")
        )));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn summary_json_is_deterministic() {
        assert_eq!(sample_summary().to_json(), sample_summary().to_json());
    }
}
