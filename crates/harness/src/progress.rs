//! Structured progress reporting.
//!
//! The harness appends one JSON object per line to the run directory's
//! `progress.ndjson` (stdout stays clean for experiment output), so a
//! sweep can be followed with `tail -f` or piped into `jq`. Events
//! carry jobs done/total, an ETA extrapolated from executed jobs, and
//! per-job cycle and memory-op counts.

use horus_obs::NdjsonFile;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// How the harness reports progress.
#[derive(Debug, Clone, Default)]
pub enum ProgressMode {
    /// No progress output (the default; right for tests and libraries).
    #[default]
    Silent,
    /// One JSON object per line, appended to the stream (the run
    /// directory's `progress.ndjson`,
    /// `horus_obs::ObsSession::progress_file`).
    Ndjson(Arc<NdjsonFile>),
}

/// One progress event, serialized as a JSON line.
///
/// `event` is one of `sweep_start`, `job`, `job_panic`, `sweep_end`.
#[derive(Debug, Clone, Serialize)]
pub struct ProgressEvent {
    /// Event kind.
    pub event: &'static str,
    /// Jobs finished so far (including this one).
    pub done: usize,
    /// Jobs submitted.
    pub total: usize,
    /// Finished jobs served from the result cache so far.
    pub cached: usize,
    /// Jobs that panicked so far.
    pub panicked: usize,
    /// Estimated seconds to completion (absent before any job
    /// finishes and on terminal events).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eta_s: Option<f64>,
    /// Worker-thread count (on `sweep_start`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub workers: Option<usize>,
    /// Submission index of the job this event is about.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub job: Option<usize>,
    /// The job's content key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub key: Option<String>,
    /// The job's scheme display name.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scheme: Option<String>,
    /// Whether the job was served from the cache.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub hit: Option<bool>,
    /// Drain cycles the job measured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cycles: Option<u64>,
    /// NVM requests the job measured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub memory_ops: Option<u64>,
    /// MAC computations the job measured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mac_ops: Option<u64>,
    /// Simulated cycles accumulated across the sweep so far.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub total_cycles: Option<u64>,
    /// NVM requests accumulated across the sweep so far.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub total_memory_ops: Option<u64>,
    /// Live throughput: simulated cycles per wall-clock second.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cycles_per_s: Option<f64>,
    /// Live throughput: simulated NVM requests per wall-clock second.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub memory_ops_per_s: Option<f64>,
    /// Panic message, for `job_panic` events.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub message: Option<String>,
    /// Wall-clock seconds since the sweep started.
    pub elapsed_s: f64,
    /// Monotonic per-emitter sequence number, starting at 0. Consecutive
    /// lines from one sweep have consecutive numbers, so a consumer can
    /// detect dropped lines. (Appended field: absent in pre-PR-5 streams.)
    pub seq: u64,
    /// Wall-clock timestamp of emission, milliseconds since the Unix
    /// epoch. (Appended field: absent in pre-PR-5 streams.)
    pub unix_ms: u64,
}

impl ProgressEvent {
    /// A bare event with every optional field empty.
    #[must_use]
    pub fn new(event: &'static str, total: usize) -> Self {
        Self {
            event,
            done: 0,
            total,
            cached: 0,
            panicked: 0,
            eta_s: None,
            workers: None,
            job: None,
            key: None,
            scheme: None,
            hit: None,
            cycles: None,
            memory_ops: None,
            mac_ops: None,
            total_cycles: None,
            total_memory_ops: None,
            cycles_per_s: None,
            memory_ops_per_s: None,
            message: None,
            elapsed_s: 0.0,
            seq: 0,
            unix_ms: 0,
        }
    }
}

/// The emitter: counts, timing, and the output mode.
#[derive(Debug)]
pub struct Progress {
    mode: ProgressMode,
    started: Instant,
    seq: std::sync::atomic::AtomicU64,
}

impl Progress {
    /// Starts the sweep clock.
    #[must_use]
    pub fn start(mode: ProgressMode) -> Self {
        Self {
            mode,
            started: Instant::now(),
            seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of events emitted so far (equals the next `seq` value).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.seq.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Wall-clock seconds since [`Progress::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Extrapolated seconds remaining, from jobs done vs. total.
    #[must_use]
    pub fn eta_s(&self, done: usize, total: usize) -> Option<f64> {
        if done == 0 || done >= total {
            return None;
        }
        let per_job = self.elapsed_s() / done as f64;
        Some(per_job * (total - done) as f64)
    }

    /// Emits one event (a no-op when silent).
    ///
    /// The line is written with a single `write_all`, so concurrent
    /// workers never interleave partial lines. The sequence number is
    /// assigned *under the stream's lock*, so line order on the stream
    /// always matches `seq` order — a consumer seeing `seq` jump by more
    /// than one knows lines were dropped, not reordered.
    pub fn emit(&self, mut event: ProgressEvent) {
        let ProgressMode::Ndjson(stream) = &self.mode else {
            return;
        };
        event.elapsed_s = self.elapsed_s();
        event.unix_ms = unix_ms_now();
        stream.append(|line| {
            event.seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Ok(json) = serde_json::to_string(&event) {
                line.push_str(&json);
            }
        });
    }
}

/// Milliseconds since the Unix epoch (0 if the system clock predates it).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_extrapolates_linearly() {
        let p = Progress::start(ProgressMode::Silent);
        // No signal before the first completion or after the last.
        assert_eq!(p.eta_s(0, 10), None);
        assert_eq!(p.eta_s(10, 10), None);
        // Halfway through, the remainder costs about what the first
        // half did.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let eta = p.eta_s(5, 10).expect("mid-sweep ETA");
        let elapsed = p.elapsed_s();
        assert!(
            (eta - elapsed).abs() < elapsed * 0.5,
            "eta {eta} vs {elapsed}"
        );
    }

    #[test]
    fn events_serialize_compactly() {
        let mut e = ProgressEvent::new("job", 8);
        e.done = 3;
        e.job = Some(2);
        e.cycles = Some(1234);
        let json = serde_json::to_string(&e).expect("serialize");
        assert!(json.contains("\"event\":\"job\""));
        assert!(json.contains("\"cycles\":1234"));
        // Empty optionals are skipped, not nulled.
        assert!(!json.contains("message"));
        assert!(!json.contains("null"));
    }

    #[test]
    fn silent_mode_emits_nothing_and_never_panics() {
        let p = Progress::start(ProgressMode::Silent);
        p.emit(ProgressEvent::new("sweep_start", 4));
        assert_eq!(p.emitted(), 0, "silent events consume no sequence numbers");
    }

    #[test]
    fn sequence_numbers_are_consecutive_per_emitter() {
        let path =
            std::env::temp_dir().join(format!("horus-progress-seq-{}.ndjson", std::process::id()));
        let p = Progress::start(ProgressMode::Ndjson(Arc::new(NdjsonFile::new(&path))));
        assert_eq!(p.emitted(), 0);
        p.emit(ProgressEvent::new("sweep_start", 2));
        p.emit(ProgressEvent::new("sweep_end", 2));
        assert_eq!(p.emitted(), 2);
        let text = std::fs::read_to_string(&path).expect("progress stream written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with("{\"event\":\"sweep_start\",\"done\":0,\"total\":2,"));
        assert!(lines[0].contains(",\"seq\":0,\"unix_ms\":"), "{text}");
        assert!(lines[1].contains(",\"seq\":1,\"unix_ms\":"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wall_clock_stamp_is_plausible() {
        // 2020-01-01 in Unix milliseconds; any sane clock is after it.
        assert!(unix_ms_now() > 1_577_836_800_000);
    }
}
