//! Host-side profiling: CPU time, peak RSS, and (optionally) allocations.
//!
//! Everything here is best-effort and degrades to `None` off Linux: CPU
//! time and peak RSS come from `/proc`, which is free to read and needs no
//! libc binding. On other platforms jobs still get wall-clock profiles; the
//! host-dependent fields are simply absent (and absent from summaries).
//!
//! Clock-tick caveat: `/proc/*/stat` reports CPU time in kernel ticks.
//! Without libc we cannot call `sysconf(_SC_CLK_TCK)`, so the conversion
//! assumes the Linux default of 100 ticks/s, which has been the value on
//! every mainstream distribution for decades. If a kernel is configured
//! differently, CPU *ratios* (job vs job, run vs baseline on the same host)
//! remain meaningful even though absolute seconds are scaled.
//!
//! Allocation counting is behind the `alloc-profile` feature because it
//! installs a process-wide counting [`std::alloc::GlobalAlloc`] shim: two
//! relaxed atomic increments per allocation. With the feature off,
//! [`alloc_counts`] returns `None` and no allocator is installed.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Assumed kernel clock tick rate (see the module docs).
const CLK_TCK: f64 = 100.0;

/// Reads total process CPU time (user + system) in seconds, if available.
#[must_use]
pub fn process_cpu_seconds() -> Option<f64> {
    cpu_seconds_from_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Reads the calling thread's CPU time (user + system) in seconds, if
/// available.
#[must_use]
pub fn thread_cpu_seconds() -> Option<f64> {
    cpu_seconds_from_stat(&std::fs::read_to_string("/proc/thread-self/stat").ok()?)
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line.
///
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from after the *last* `)`: `utime` and `stime` are then the
/// 12th and 13th whitespace-separated fields (1-based fields 14 and 15 of
/// the full line).
fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Reads the process's peak resident set size in bytes (`VmHWM`), if
/// available.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Returns `(allocations, allocated_bytes)` recorded by the counting
/// allocator, or `None` when the `alloc-profile` feature is off.
#[must_use]
pub fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-profile")]
    {
        Some(alloc_shim::counts())
    }
    #[cfg(not(feature = "alloc-profile"))]
    {
        None
    }
}

/// Process-level resource usage for a whole run, captured at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Process CPU seconds (user + system), if `/proc` is available.
    pub cpu_seconds: Option<f64>,
    /// Peak resident set size in bytes, if `/proc` is available.
    pub peak_rss_bytes: Option<u64>,
    /// Total allocations, if the `alloc-profile` feature is on.
    pub allocations: Option<u64>,
    /// Total allocated bytes, if the `alloc-profile` feature is on.
    pub allocated_bytes: Option<u64>,
}

/// Captures a [`HostProfile`] for a run that took `wall_seconds`.
#[must_use]
pub fn host_profile(wall_seconds: f64) -> HostProfile {
    let allocs = alloc_counts();
    HostProfile {
        wall_seconds,
        cpu_seconds: process_cpu_seconds(),
        peak_rss_bytes: peak_rss_bytes(),
        allocations: allocs.map(|(n, _)| n),
        allocated_bytes: allocs.map(|(_, b)| b),
    }
}

/// Per-job resource usage, as recorded by the harness worker that ran it.
/// Remote workers push it to the service in this serde form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Job content key, or a task label for non-`JobSpec` work.
    pub label: String,
    /// Drain scheme, when the job is a `JobSpec`.
    pub scheme: Option<String>,
    /// Correlation trace id of the request or plan that enqueued the
    /// job ([`crate::span::mint_trace_id`]); `None` for untraced runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
    /// Whether the result came from the on-disk cache.
    pub cached: bool,
    /// Wall-clock duration of the job in seconds.
    pub wall_seconds: f64,
    /// CPU seconds burned by the worker thread while running the job, if
    /// `/proc` is available.
    pub cpu_seconds: Option<f64>,
    /// Allocation count delta across the job, if `alloc-profile` is on.
    ///
    /// Note: the counting allocator is process-wide, so with `--jobs > 1`
    /// deltas include concurrent workers' allocations. Exact per-job
    /// attribution needs `--jobs 1`.
    pub allocations: Option<u64>,
    /// Allocated-bytes delta across the job; same caveat as `allocations`.
    pub allocated_bytes: Option<u64>,
}

/// In-flight measurement for one job: capture at start, delta at finish.
pub struct JobProfiler {
    label: String,
    scheme: Option<String>,
    trace: Option<String>,
    started: Instant,
    cpu_start: Option<f64>,
    alloc_start: Option<(u64, u64)>,
}

impl JobProfiler {
    /// Starts measuring; call on the worker thread that will run the job.
    #[must_use]
    pub fn start(label: impl Into<String>, scheme: Option<String>) -> JobProfiler {
        JobProfiler {
            label: label.into(),
            scheme,
            trace: None,
            started: Instant::now(),
            cpu_start: thread_cpu_seconds(),
            alloc_start: alloc_counts(),
        }
    }

    /// Attaches the correlation trace id the finished profile will carry
    /// (builder style; `None` leaves the profile untraced).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<&str>) -> JobProfiler {
        self.trace = trace.filter(|t| !t.is_empty()).map(str::to_string);
        self
    }

    /// Finishes measuring and returns the profile. Must be called on the
    /// same thread as [`JobProfiler::start`] for CPU deltas to make sense.
    #[must_use]
    pub fn finish(self, cached: bool) -> JobProfile {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let cpu_seconds = match (self.cpu_start, thread_cpu_seconds()) {
            (Some(a), Some(b)) => Some((b - a).max(0.0)),
            _ => None,
        };
        let (allocations, allocated_bytes) = match (self.alloc_start, alloc_counts()) {
            (Some((n0, b0)), Some((n1, b1))) => {
                (Some(n1.saturating_sub(n0)), Some(b1.saturating_sub(b0)))
            }
            _ => (None, None),
        };
        JobProfile {
            label: self.label,
            scheme: self.scheme,
            trace: self.trace,
            cached,
            wall_seconds,
            cpu_seconds,
            allocations,
            allocated_bytes,
        }
    }
}

#[cfg(feature = "alloc-profile")]
#[allow(unsafe_code)]
mod alloc_shim {
    //! Counting global allocator, installed only with `alloc-profile`.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    pub(super) fn counts() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            ALLOCATED_BYTES.load(Ordering::Relaxed),
        )
    }

    struct CountingAlloc;

    // SAFETY: delegates every operation unchanged to `System`; the only
    // addition is two relaxed counter increments, which allocate nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_line_with_hostile_comm() {
        let stat = "1234 (we ird) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        let secs = cpu_seconds_from_stat(stat).expect("parse");
        assert!((secs - 3.0).abs() < 1e-9, "got {secs}");
    }

    #[test]
    fn job_profiler_measures_wall_time() {
        let p = JobProfiler::start("job-1", Some("Horus".to_string()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let profile = p.finish(false);
        assert!(profile.wall_seconds >= 0.009, "{}", profile.wall_seconds);
        assert_eq!(profile.label, "job-1");
        assert_eq!(profile.trace, None, "untraced by default");
        assert!(!profile.cached);
    }

    #[test]
    fn job_profiler_carries_trace_id() {
        let p = JobProfiler::start("job-2", None).with_trace(Some("abcd1234"));
        assert_eq!(p.finish(true).trace.as_deref(), Some("abcd1234"));
        let p = JobProfiler::start("job-3", None).with_trace(Some(""));
        assert_eq!(p.finish(true).trace, None, "empty ids are untraced");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_proc_probes_work() {
        assert!(process_cpu_seconds().is_some());
        assert!(thread_cpu_seconds().is_some());
        let rss = peak_rss_bytes().expect("VmHWM");
        assert!(rss > 0);
    }
}
