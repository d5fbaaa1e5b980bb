//! Offline cross-signal analyzer behind `horus-cli insight`.
//!
//! One run of the service (or a fleet sweep) leaves up to three
//! correlated artifacts in its `--run-dir` ([`crate::rundir`]): the
//! `summary.json` registry-and-profile freeze, the `spans.json`
//! Chrome-trace span timeline, and the `logs.ndjson` structured log
//! stream.
//! Each carries the trace ids minted at admission
//! ([`crate::span::mint_trace_id`]) — profiles in their `trace` field,
//! span events in `args.trace`, log lines in a `trace_id` field. This
//! module joins them back into one story per trace: which tenant asked,
//! which scheme ran, how long each lifecycle stage took, what was
//! logged, and which resource bounded the request.
//!
//! The analyzer is pure and deterministic — same input files, byte-
//! identical `insight.json` — and entirely offline: it parses the
//! artifacts into `serde_json::Value` documents and never touches a
//! live endpoint.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Schema version stamped into every `insight.json`.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// The cross-signal join.
// ---------------------------------------------------------------------------

/// The artifact texts to analyze; any subset may be present.
#[derive(Debug, Clone, Default)]
pub struct InsightInputs {
    /// `summary.json` contents.
    pub obs_summary: Option<String>,
    /// `spans.json` Chrome-trace span timeline contents.
    pub spans: Option<String>,
    /// `logs.ndjson` structured-log contents (or a `GET /logs` body).
    pub logs: Option<String>,
}

impl InsightInputs {
    /// Reads whichever of the three artifacts `dir` holds.
    ///
    /// # Errors
    /// Returns a message when a present file cannot be read, or when the
    /// directory holds none of them.
    pub fn from_run_dir(dir: &std::path::Path) -> Result<InsightInputs, String> {
        let read = |name: &str| -> Result<Option<String>, String> {
            let path = dir.join(name);
            match std::fs::read_to_string(&path) {
                Ok(text) => Ok(Some(text)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(format!("{}: {e}", path.display())),
            }
        };
        let inputs = InsightInputs {
            obs_summary: read(crate::rundir::SUMMARY)?,
            spans: read(crate::rundir::SPANS)?,
            logs: read(crate::rundir::LOGS)?,
        };
        if inputs.obs_summary.is_none() && inputs.spans.is_none() && inputs.logs.is_none() {
            return Err(format!(
                "{} holds none of {}, {}, {}",
                dir.display(),
                crate::rundir::SUMMARY,
                crate::rundir::SPANS,
                crate::rundir::LOGS
            ));
        }
        Ok(inputs)
    }
}

/// Everything known about one trace id after the join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStory {
    /// The trace id.
    pub trace: String,
    /// Content keys of the jobs/plans that ran under this trace.
    pub keys: BTreeSet<String>,
    /// Tenant, when a log line names one.
    pub tenant: Option<String>,
    /// Drain schemes the trace's jobs ran.
    pub schemes: BTreeSet<String>,
    /// Profiled jobs under this trace.
    pub jobs: u64,
    /// How many of those were answered from the result cache.
    pub cached_jobs: u64,
    /// Summed job wall-clock seconds from the profiles.
    pub wall_seconds: f64,
    /// Summed job CPU seconds from the profiles (where `/proc` gave one).
    pub cpu_seconds: f64,
    /// Seconds spent in each lifecycle stage, summed over the trace's
    /// span events.
    pub stage_seconds: BTreeMap<String, f64>,
    /// Structured-log lines carrying this trace id.
    pub log_lines: u64,
    /// Present in the profile signal (`summary.json`).
    pub in_profiles: bool,
    /// Present in the span signal (`spans.json`).
    pub in_spans: bool,
    /// Present in the log signal (`logs.ndjson`).
    pub in_logs: bool,
}

impl TraceStory {
    /// Queued-to-committed seconds from the span stages (the four
    /// inter-stage gaps; the `committed` instant contributes nothing).
    #[must_use]
    pub fn end_to_end_seconds(&self) -> f64 {
        self.stage_seconds.values().sum()
    }

    /// True when the trace appears in every signal that was provided.
    #[must_use]
    pub fn joined(&self, have_profiles: bool, have_spans: bool, have_logs: bool) -> bool {
        (!have_profiles || self.in_profiles)
            && (!have_spans || self.in_spans)
            && (!have_logs || self.in_logs)
    }

    /// The lifecycle stage this trace spent the most time in, with a
    /// CPU-vs-wall verdict when execution dominates — the "bounding
    /// resource" line of the report.
    #[must_use]
    pub fn bounding_resource(&self) -> String {
        let Some((stage, secs)) = self
            .stage_seconds
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
        else {
            return "unknown (no span)".to_string();
        };
        if stage == "executing" && self.wall_seconds > 0.0 {
            let ratio = self.cpu_seconds / self.wall_seconds;
            if ratio >= 0.5 {
                return format!("executing ({secs:.4}s, cpu-bound: {ratio:.2} cpu/wall)");
            }
            return format!("executing ({secs:.4}s, {ratio:.2} cpu/wall)");
        }
        format!("{stage} ({secs:.4}s)")
    }
}

/// Governor accounting for one tenant, read from the frozen registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantGovernor {
    /// Submissions received.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions shed with 429.
    pub shed: u64,
}

/// The analyzer's output: per-trace stories plus run-level accounting.
#[derive(Debug, Clone, Default)]
pub struct Insight {
    /// One story per trace id.
    pub stories: BTreeMap<String, TraceStory>,
    /// Which signals were provided at all.
    pub have_profiles: bool,
    /// True when a span artifact was provided.
    pub have_spans: bool,
    /// True when a log artifact was provided.
    pub have_logs: bool,
    /// Profiled jobs with no trace id (batch runs without correlation).
    pub untraced_profiles: u64,
    /// Span events with no trace id.
    pub untraced_spans: u64,
    /// Log lines with no trace id.
    pub untraced_logs: u64,
    /// Governor counters per tenant, from the registry freeze.
    pub governor: BTreeMap<String, TenantGovernor>,
    /// Shed warnings counted in the log stream, per tenant.
    pub shed_logged: BTreeMap<String, u64>,
}

impl Insight {
    /// Traces appearing in every provided signal.
    #[must_use]
    pub fn joined_traces(&self) -> u64 {
        self.stories
            .values()
            .filter(|s| s.joined(self.have_profiles, self.have_spans, self.have_logs))
            .count() as u64
    }

    /// Fraction of traces that joined across every provided signal
    /// (1.0 when no traces were seen at all).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.stories.is_empty() {
            return 1.0;
        }
        self.joined_traces() as f64 / self.stories.len() as f64
    }

    /// Traces seen in spans but in no other provided signal: a span
    /// that tells a story nothing else corroborates.
    #[must_use]
    pub fn orphan_spans(&self) -> Vec<&str> {
        self.stories
            .values()
            .filter(|s| s.in_spans && !s.in_profiles && !s.in_logs)
            .map(|s| s.trace.as_str())
            .collect()
    }

    /// Traces seen in logs but in no other provided signal.
    #[must_use]
    pub fn orphan_logs(&self) -> Vec<&str> {
        self.stories
            .values()
            .filter(|s| s.in_logs && !s.in_profiles && !s.in_spans)
            .map(|s| s.trace.as_str())
            .collect()
    }

    /// The `top` slowest traces by span end-to-end time (profile wall
    /// time as the tiebreak and the fallback for span-less traces),
    /// slowest first, ties broken by trace id for determinism.
    #[must_use]
    pub fn slowest(&self, top: usize) -> Vec<&TraceStory> {
        let mut ordered: Vec<&TraceStory> = self.stories.values().collect();
        ordered.sort_by(|a, b| {
            let ka = (a.end_to_end_seconds(), a.wall_seconds);
            let kb = (b.end_to_end_seconds(), b.wall_seconds);
            kb.0.total_cmp(&ka.0)
                .then(kb.1.total_cmp(&ka.1))
                .then_with(|| a.trace.cmp(&b.trace))
        });
        ordered.truncate(top);
        ordered
    }

    /// Per-scheme stage-time breakdown: scheme → stage → summed seconds
    /// over every trace that ran that scheme.
    #[must_use]
    pub fn scheme_stage_breakdown(&self) -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for story in self.stories.values() {
            for scheme in &story.schemes {
                let per_stage = out.entry(scheme.clone()).or_default();
                for (stage, secs) in &story.stage_seconds {
                    *per_stage.entry(stage.clone()).or_insert(0.0) += secs;
                }
            }
        }
        out
    }

    /// Per-tenant stage-time breakdown, for traces whose logs named a
    /// tenant.
    #[must_use]
    pub fn tenant_stage_breakdown(&self) -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for story in self.stories.values() {
            let Some(tenant) = &story.tenant else {
                continue;
            };
            let per_stage = out.entry(tenant.clone()).or_default();
            for (stage, secs) in &story.stage_seconds {
                *per_stage.entry(stage.clone()).or_insert(0.0) += secs;
            }
        }
        out
    }

    /// Stage-time outliers: traces whose time in some stage exceeds
    /// three times the median of that stage across all traces (and at
    /// least a millisecond, so sub-noise runs don't flag everything).
    /// Returned as deterministic `(trace, stage, seconds, median)` rows.
    #[must_use]
    pub fn stage_outliers(&self) -> Vec<(String, String, f64, f64)> {
        let mut by_stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for story in self.stories.values() {
            for (stage, secs) in &story.stage_seconds {
                by_stage.entry(stage.as_str()).or_default().push(*secs);
            }
        }
        let medians: BTreeMap<&str, f64> = by_stage
            .into_iter()
            .map(|(stage, mut vals)| {
                vals.sort_by(f64::total_cmp);
                (stage, vals[vals.len() / 2])
            })
            .collect();
        let mut out = Vec::new();
        for story in self.stories.values() {
            for (stage, secs) in &story.stage_seconds {
                let median = medians.get(stage.as_str()).copied().unwrap_or(0.0);
                if *secs > (3.0 * median).max(1e-3) {
                    out.push((story.trace.clone(), stage.clone(), *secs, median));
                }
            }
        }
        out
    }

    /// Renders the deterministic `insight.json` document.
    #[must_use]
    pub fn to_json(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format_version\": {FORMAT_VERSION},\n"));
        out.push_str(&format!(
            "  \"join\": {{\"traces\": {}, \"joined\": {}, \"coverage\": {}, \"orphan_spans\": ",
            self.stories.len(),
            self.joined_traces(),
            fmt_f64(self.coverage()),
        ));
        push_str_array(&mut out, self.orphan_spans());
        out.push_str(", \"orphan_logs\": ");
        push_str_array(&mut out, self.orphan_logs());
        out.push_str(&format!(
            ", \"untraced_profiles\": {}, \"untraced_spans\": {}, \"untraced_logs\": {}}},\n",
            self.untraced_profiles, self.untraced_spans, self.untraced_logs,
        ));
        out.push_str("  \"governor\": [");
        for (i, (tenant, g)) in self.governor.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let logged = self.shed_logged.get(tenant).copied().unwrap_or(0);
            out.push_str("\n    {\"tenant\": ");
            serde_json::write_str(&mut out, tenant);
            out.push_str(&format!(
                ", \"submitted\": {}, \"admitted\": {}, \"shed\": {}, \
                 \"shed_logged\": {}, \"reconciled\": {}}}",
                g.submitted,
                g.admitted,
                g.shed,
                logged,
                g.submitted == g.admitted + g.shed && g.shed == logged,
            ));
        }
        out.push_str(if self.governor.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"slowest\": [");
        let slowest = self.slowest(top);
        for (i, story) in slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_story(&mut out, story);
        }
        out.push_str(if slowest.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"traces\": [");
        for (i, story) in self.stories.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_story(&mut out, story);
        }
        out.push_str(if self.stories.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"anomalies\": [");
        let outliers = self.stage_outliers();
        for (i, (trace, stage, secs, median)) in outliers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"trace\": ");
            serde_json::write_str(&mut out, trace);
            out.push_str(", \"stage\": ");
            serde_json::write_str(&mut out, stage);
            out.push_str(&format!(
                ", \"seconds\": {}, \"stage_median\": {}}}",
                fmt_f64(*secs),
                fmt_f64(*median),
            ));
        }
        out.push_str(if outliers.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Renders the human report.
    #[must_use]
    pub fn human_report(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str("horus insight\n=============\n\n");
        out.push_str(&format!(
            "signals: profiles={} spans={} logs={}\n",
            self.have_profiles, self.have_spans, self.have_logs
        ));
        out.push_str(&format!(
            "traces: {} total, {} joined across all provided signals ({:.1}% coverage)\n",
            self.stories.len(),
            self.joined_traces(),
            self.coverage() * 100.0
        ));
        out.push_str(&format!(
            "untraced: {} profiles, {} span events, {} log lines\n",
            self.untraced_profiles, self.untraced_spans, self.untraced_logs
        ));
        let orphans = self.orphan_spans();
        if orphans.is_empty() {
            out.push_str("orphan spans: none\n");
        } else {
            out.push_str(&format!("orphan spans: {}\n", orphans.join(", ")));
        }
        let log_orphans = self.orphan_logs();
        if !log_orphans.is_empty() {
            out.push_str(&format!("orphan logs: {}\n", log_orphans.join(", ")));
        }

        if !self.governor.is_empty() {
            out.push_str("\nshed/admission accounting\n-------------------------\n");
            for (tenant, g) in &self.governor {
                let logged = self.shed_logged.get(tenant).copied().unwrap_or(0);
                let verdict = if g.submitted == g.admitted + g.shed && g.shed == logged {
                    "reconciled"
                } else {
                    "MISMATCH"
                };
                out.push_str(&format!(
                    "  {tenant}: submitted={} admitted={} shed={} shed-warns-logged={} [{verdict}]\n",
                    g.submitted, g.admitted, g.shed, logged
                ));
            }
        }

        let tenants = self.tenant_stage_breakdown();
        if !tenants.is_empty() {
            out.push_str("\nper-tenant stage seconds\n------------------------\n");
            for (tenant, stages) in &tenants {
                out.push_str(&format!("  {tenant}: {}\n", fmt_stages(stages)));
            }
        }
        let schemes = self.scheme_stage_breakdown();
        if !schemes.is_empty() {
            out.push_str("\nper-scheme stage seconds\n------------------------\n");
            for (scheme, stages) in &schemes {
                out.push_str(&format!("  {scheme}: {}\n", fmt_stages(stages)));
            }
        }

        out.push_str(&format!(
            "\ntop {top} slowest requests\n-----------------------\n"
        ));
        for story in self.slowest(top) {
            out.push_str(&format!(
                "  {} e2e={:.4}s jobs={} cached={} wall={:.4}s tenant={} schemes=[{}]\n",
                story.trace,
                story.end_to_end_seconds(),
                story.jobs,
                story.cached_jobs,
                story.wall_seconds,
                story.tenant.as_deref().unwrap_or("-"),
                story.schemes.iter().cloned().collect::<Vec<_>>().join(","),
            ));
            out.push_str(&format!(
                "    stages: {}\n",
                fmt_stages(&story.stage_seconds)
            ));
            out.push_str(&format!("    bounded by: {}\n", story.bounding_resource()));
            out.push_str(&format!(
                "    signals: profile={} span={} logs={} ({} lines)\n",
                story.in_profiles, story.in_spans, story.in_logs, story.log_lines
            ));
        }

        let outliers = self.stage_outliers();
        out.push_str("\nanomalies\n---------\n");
        if outliers.is_empty() {
            out.push_str("  none\n");
        } else {
            for (trace, stage, secs, median) in outliers {
                out.push_str(&format!(
                    "  {trace}: {stage} took {secs:.4}s vs stage median {median:.4}s\n"
                ));
            }
        }
        out
    }
}

fn fmt_stages(stages: &BTreeMap<String, f64>) -> String {
    // Lifecycle order, not alphabetical: the map keys are the stage
    // names from `crate::span::Stage::ALL`.
    let mut parts = Vec::new();
    for stage in crate::span::Stage::ALL {
        if let Some(secs) = stages.get(stage.as_str()) {
            parts.push(format!("{}={secs:.4}s", stage.as_str()));
        }
    }
    for (stage, secs) in stages {
        if crate::span::Stage::ALL.iter().all(|s| s.as_str() != stage) {
            parts.push(format!("{stage}={secs:.4}s"));
        }
    }
    parts.join(" ")
}

fn push_story(out: &mut String, story: &TraceStory) {
    out.push_str("{\"trace\": ");
    serde_json::write_str(out, &story.trace);
    out.push_str(", \"tenant\": ");
    match &story.tenant {
        Some(tenant) => serde_json::write_str(out, tenant),
        None => out.push_str("null"),
    }
    out.push_str(", \"keys\": ");
    push_str_array(out, story.keys.iter().map(String::as_str));
    out.push_str(", \"schemes\": ");
    push_str_array(out, story.schemes.iter().map(String::as_str));
    out.push_str(&format!(
        ", \"jobs\": {}, \"cached_jobs\": {}, \"wall_seconds\": {}, \"cpu_seconds\": {}, \
         \"end_to_end_seconds\": {}, \"stages\": {{",
        story.jobs,
        story.cached_jobs,
        fmt_f64(story.wall_seconds),
        fmt_f64(story.cpu_seconds),
        fmt_f64(story.end_to_end_seconds()),
    ));
    for (i, (stage, secs)) in story.stage_seconds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        serde_json::write_str(out, stage);
        out.push_str(&format!(": {}", fmt_f64(*secs)));
    }
    out.push_str(&format!(
        "}}, \"log_lines\": {}, \"in_profiles\": {}, \"in_spans\": {}, \"in_logs\": {}, \
         \"bounded_by\": ",
        story.log_lines, story.in_profiles, story.in_spans, story.in_logs,
    ));
    serde_json::write_str(out, &story.bounding_resource());
    out.push('}');
}

fn push_str_array<'a>(out: &mut String, items: impl IntoIterator<Item = &'a str>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        serde_json::write_str(out, item);
    }
    out.push(']');
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Joins the provided artifacts into an [`Insight`].
///
/// # Errors
/// Returns a descriptive message when a provided artifact fails to
/// parse (a missing artifact is fine — pass `None`).
pub fn analyze(inputs: &InsightInputs) -> Result<Insight, String> {
    let mut insight = Insight::default();

    if let Some(text) = &inputs.obs_summary {
        insight.have_profiles = true;
        let doc = serde_json::from_str::<Value>(text).map_err(|e| format!("summary.json: {e}"))?;
        for job in doc.get("jobs").and_then(Value::as_array).unwrap_or(&[]) {
            let Some(trace) = job.get("trace").and_then(Value::as_str) else {
                insight.untraced_profiles += 1;
                continue;
            };
            let story = story_mut(&mut insight.stories, trace);
            story.in_profiles = true;
            story.jobs += 1;
            if job.get("cached").and_then(Value::as_bool) == Some(true) {
                story.cached_jobs += 1;
            }
            story.wall_seconds += job
                .get("wall_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            story.cpu_seconds += job
                .get("cpu_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if let Some(key) = job.get("label").and_then(Value::as_str) {
                story.keys.insert(key.to_string());
            }
            if let Some(scheme) = job.get("scheme").and_then(Value::as_str) {
                story.schemes.insert(scheme.to_string());
            }
        }
        read_governor(&doc, &mut insight.governor);
    }

    if let Some(text) = &inputs.spans {
        insight.have_spans = true;
        let doc = serde_json::from_str::<Value>(text).map_err(|e| format!("span timeline: {e}"))?;
        for event in doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            if event.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let args = event.get("args");
            let trace = args.and_then(|a| a.get("trace")).and_then(Value::as_str);
            let Some(trace) = trace else {
                insight.untraced_spans += 1;
                continue;
            };
            let story = story_mut(&mut insight.stories, trace);
            story.in_spans = true;
            if let Some(stage) = event.get("name").and_then(Value::as_str) {
                let dur_us = event.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                *story.stage_seconds.entry(stage.to_string()).or_insert(0.0) += dur_us / 1e6;
            }
            if let Some(key) = args.and_then(|a| a.get("key")).and_then(Value::as_str) {
                story.keys.insert(key.to_string());
            }
        }
    }

    if let Some(text) = &inputs.logs {
        insight.have_logs = true;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // One malformed line (an interleaved plain-stderr write)
            // must not sink the analysis; skip it as untraced.
            let Ok(doc) = serde_json::from_str::<Value>(line) else {
                insight.untraced_logs += 1;
                continue;
            };
            let fields = doc.get("fields");
            let tenant = fields
                .and_then(|f| f.get("tenant"))
                .and_then(Value::as_str)
                .map(str::to_string);
            if doc.get("msg").and_then(Value::as_str) == Some("submission shed") {
                if let Some(tenant) = &tenant {
                    *insight.shed_logged.entry(tenant.clone()).or_insert(0) += 1;
                }
            }
            let trace = fields
                .and_then(|f| f.get("trace_id"))
                .and_then(Value::as_str);
            let Some(trace) = trace else {
                insight.untraced_logs += 1;
                continue;
            };
            let story = story_mut(&mut insight.stories, trace);
            story.in_logs = true;
            story.log_lines += 1;
            if story.tenant.is_none() {
                story.tenant = tenant;
            }
        }
    }

    Ok(insight)
}

fn story_mut<'a>(stories: &'a mut BTreeMap<String, TraceStory>, trace: &str) -> &'a mut TraceStory {
    stories
        .entry(trace.to_string())
        .or_insert_with(|| TraceStory {
            trace: trace.to_string(),
            ..TraceStory::default()
        })
}

fn read_governor(doc: &Value, governor: &mut BTreeMap<String, TenantGovernor>) {
    for sample in doc.get("metrics").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(name) = sample.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(tenant) = sample
            .get("labels")
            .and_then(|l| l.get("tenant"))
            .and_then(Value::as_str)
        else {
            continue;
        };
        let value = sample.get("value").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let entry = governor.entry(tenant.to_string()).or_default();
        match name {
            crate::names::SERVICE_SUBMITTED => entry.submitted = value,
            crate::names::SERVICE_ADMITTED => entry.admitted = value,
            crate::names::SERVICE_SHED => entry.shed = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> InsightInputs {
        let obs = r#"{
  "format_version": 1,
  "host": {"wall_seconds": 2.0, "cpu_seconds": 1.0, "peak_rss_bytes": null, "allocations": null, "allocated_bytes": null},
  "jobs": [
    {"label": "key-a", "scheme": "Horus", "trace": "aaaa000000000001", "cached": false, "wall_seconds": 0.2, "cpu_seconds": 0.18, "allocations": null, "allocated_bytes": null},
    {"label": "key-b", "scheme": "WBF", "trace": "bbbb000000000002", "cached": true, "wall_seconds": 0.01, "cpu_seconds": 0.0, "allocations": null, "allocated_bytes": null},
    {"label": "key-c", "scheme": null, "trace": null, "cached": false, "wall_seconds": 0.1, "cpu_seconds": null, "allocations": null, "allocated_bytes": null}
  ],
  "metrics": [
    {"name": "horus_service_jobs_submitted_total", "labels": {"tenant": "team-a"}, "value": 3},
    {"name": "horus_service_jobs_admitted_total", "labels": {"tenant": "team-a"}, "value": 2},
    {"name": "horus_service_jobs_shed_total", "labels": {"tenant": "team-a"}, "value": 1}
  ]
}"#;
        let spans = concat!(
            "{\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"w\"}},",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":1000,\"name\":\"queued\",\"args\":{\"plan\":1,\"job\":0,\"key\":\"key-a\",\"trace\":\"aaaa000000000001\"}},",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1000,\"dur\":200000,\"name\":\"executing\",\"args\":{\"plan\":1,\"job\":0,\"key\":\"key-a\",\"trace\":\"aaaa000000000001\"}},",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":500,\"name\":\"queued\",\"args\":{\"plan\":2,\"job\":0,\"key\":\"key-b\",\"trace\":\"bbbb000000000002\"}},",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":10,\"name\":\"queued\",\"args\":{\"plan\":3,\"job\":0,\"key\":\"key-z\"}}",
            "],\"displayTimeUnit\":\"ns\"}"
        )
        .to_string();
        let logs = concat!(
            "{\"ts_ms\":1,\"seq\":0,\"level\":\"info\",\"target\":\"service\",\"msg\":\"submission admitted\",\"fields\":{\"tenant\":\"team-a\",\"trace_id\":\"aaaa000000000001\"}}\n",
            "{\"ts_ms\":2,\"seq\":1,\"level\":\"info\",\"target\":\"service\",\"msg\":\"plan committed\",\"fields\":{\"tenant\":\"team-a\",\"trace_id\":\"aaaa000000000001\"}}\n",
            "{\"ts_ms\":3,\"seq\":2,\"level\":\"info\",\"target\":\"service\",\"msg\":\"submission admitted\",\"fields\":{\"tenant\":\"team-b\",\"trace_id\":\"bbbb000000000002\"}}\n",
            "{\"ts_ms\":4,\"seq\":3,\"level\":\"warn\",\"target\":\"service\",\"msg\":\"submission shed\",\"fields\":{\"tenant\":\"team-a\"}}\n",
            "not json at all\n",
        )
        .to_string();
        InsightInputs {
            obs_summary: Some(obs.to_string()),
            spans: Some(spans),
            logs: Some(logs),
        }
    }

    #[test]
    fn joins_all_three_signals_per_trace() {
        let insight = analyze(&sample_inputs()).expect("analyze");
        assert_eq!(insight.stories.len(), 2);
        assert_eq!(insight.joined_traces(), 2);
        assert!((insight.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(insight.untraced_profiles, 1);
        assert_eq!(insight.untraced_spans, 1, "span without args.trace");
        assert_eq!(insight.untraced_logs, 2, "shed warn + malformed line");
        assert!(insight.orphan_spans().is_empty());

        let a = &insight.stories["aaaa000000000001"];
        assert_eq!(a.tenant.as_deref(), Some("team-a"));
        assert!(a.keys.contains("key-a"));
        assert_eq!(a.jobs, 1);
        assert_eq!(a.log_lines, 2);
        assert!((a.stage_seconds["executing"] - 0.2).abs() < 1e-12);
        assert!((a.end_to_end_seconds() - 0.201).abs() < 1e-12);
        assert!(
            a.bounding_resource().starts_with("executing"),
            "{}",
            a.bounding_resource()
        );
        assert!(
            a.bounding_resource().contains("cpu-bound"),
            "0.18 cpu over 0.2 wall: {}",
            a.bounding_resource()
        );

        let slowest = insight.slowest(1);
        assert_eq!(slowest[0].trace, "aaaa000000000001");

        let gov = &insight.governor["team-a"];
        assert_eq!((gov.submitted, gov.admitted, gov.shed), (3, 2, 1));
        assert_eq!(insight.shed_logged.get("team-a"), Some(&1));
    }

    #[test]
    fn insight_json_is_deterministic_and_self_describing() {
        let insight = analyze(&sample_inputs()).expect("analyze");
        let json = insight.to_json(5);
        assert_eq!(json, analyze(&sample_inputs()).expect("analyze").to_json(5));
        // The document itself parses under our own reader.
        let doc = serde_json::from_str::<Value>(&json).expect("insight.json parses");
        assert_eq!(
            doc.get("join")
                .and_then(|j| j.get("coverage"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.get("traces")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        let gov = &doc
            .get("governor")
            .and_then(Value::as_array)
            .expect("governor")[0];
        assert_eq!(gov.get("reconciled").and_then(Value::as_bool), Some(true));

        let report = insight.human_report(3);
        assert!(report.contains("2 joined across all provided signals (100.0% coverage)"));
        assert!(report.contains("orphan spans: none"));
        assert!(report.contains("bounded by: executing"));
        assert!(report
            .contains("team-a: submitted=3 admitted=2 shed=1 shed-warns-logged=1 [reconciled]"));
    }

    #[test]
    fn orphans_and_partial_signals_are_reported() {
        // A span-only trace with no profile or log is an orphan span.
        let inputs = InsightInputs {
            obs_summary: None,
            spans: Some(
                "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":5,\
                 \"name\":\"queued\",\"args\":{\"plan\":1,\"job\":0,\"key\":\"k\",\
                 \"trace\":\"feedfacefeedface\"}}],\"displayTimeUnit\":\"ns\"}"
                    .to_string(),
            ),
            logs: Some(String::new()),
        };
        let insight = analyze(&inputs).expect("analyze");
        assert_eq!(insight.orphan_spans(), vec!["feedfacefeedface"]);
        assert_eq!(insight.joined_traces(), 0, "logs were provided but empty");
        assert!(!insight.have_profiles);
        let json = insight.to_json(3);
        assert!(
            json.contains("\"orphan_spans\": [\"feedfacefeedface\"]"),
            "{json}"
        );
    }

    #[test]
    fn run_dir_inputs_are_the_files_it_holds() {
        let dir = std::env::temp_dir().join(format!("horus-insight-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(
            InsightInputs::from_run_dir(&dir).is_err(),
            "an empty dir is an error"
        );
        let sample = sample_inputs();
        let spans = sample.spans.clone().expect("spans");
        let logs = sample.logs.clone().expect("logs");
        std::fs::write(dir.join(crate::rundir::SPANS), &spans).expect("write");
        std::fs::write(dir.join(crate::rundir::LOGS), &logs).expect("write");
        let read = InsightInputs::from_run_dir(&dir).expect("read");
        assert_eq!(read.obs_summary, None, "absent files stay absent");
        assert_eq!(read.spans.as_deref(), Some(spans.as_str()));
        assert_eq!(read.logs.as_deref(), Some(logs.as_str()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
