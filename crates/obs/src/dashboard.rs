//! Live TTY dashboard for long sweeps.
//!
//! [`Dashboard::start`] spawns a thread that re-renders a four-line panel
//! on stderr every 250 ms, fed purely from registry snapshots — it
//! registers nothing itself, so attaching a dashboard never changes what a
//! scraper sees. When stderr is not a TTY, `start` returns `None` and
//! callers fall back to the existing JSON-lines progress stream; the
//! dashboard is additive, never a replacement.
//!
//! The panel shows job completion, queue depth and ETA, worker occupancy
//! derived from busy-seconds deltas between frames, cache-hit rate, live
//! throughput gauges, and a sparkline of memory-ops/s history. When the
//! registry carries fleet stage-latency histograms
//! (`horus_fleet_job_stage_seconds`, recorded by a span-collecting
//! experiment service), a fifth line shows the mean latency per lifecycle
//! stage.

use std::collections::VecDeque;
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::names;
use crate::registry::{Registry, SampleValue, Snapshot};

/// Redraw interval.
const FRAME_INTERVAL: Duration = Duration::from_millis(250);
/// Sparkline history length (frames).
const SPARK_LEN: usize = 32;
/// Number of lines the base panel occupies (one more when fleet
/// stage-latency histograms are present); the renderer itself counts
/// lines per frame, so this only anchors the shape test.
#[cfg(test)]
const PANEL_LINES: usize = 4;

/// A running dashboard; stop it with [`Dashboard::stop`] (or drop it).
pub struct Dashboard {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Dashboard {
    /// Starts the dashboard if stderr is a TTY; returns `None` otherwise so
    /// the caller can keep (or enable) line-oriented progress instead.
    #[must_use]
    pub fn start(registry: Arc<Registry>) -> Option<Dashboard> {
        if !std::io::stderr().is_terminal() {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("horus-obs-dashboard".to_string())
            .spawn(move || run(&registry, &flag))
            .ok()?;
        Some(Dashboard {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the redraw thread, leaving the final frame on screen.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

impl Drop for Dashboard {
    fn drop(&mut self) {
        self.halt();
    }
}

fn run(registry: &Arc<Registry>, stop: &Arc<AtomicBool>) {
    let mut state = DashState::new();
    // The panel grows a line when fleet stage histograms first appear;
    // track how many lines the previous frame drew so the cursor
    // rewinds exactly that far.
    let mut prev_lines = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let frame = state.frame(&registry.snapshot());
        let mut err = std::io::stderr().lock();
        if prev_lines > 0 {
            // Move back to the top of the panel and overwrite in place.
            let _ = write!(err, "\x1b[{prev_lines}A");
        }
        for line in frame.lines() {
            let _ = writeln!(err, "\x1b[2K{line}");
        }
        let _ = err.flush();
        drop(err);
        prev_lines = frame.lines().count();
        std::thread::sleep(FRAME_INTERVAL);
    }
    // Render one last frame so the final numbers stay visible.
    let frame = state.frame(&registry.snapshot());
    let mut err = std::io::stderr().lock();
    if prev_lines > 0 {
        let _ = write!(err, "\x1b[{prev_lines}A");
    }
    for line in frame.lines() {
        let _ = writeln!(err, "\x1b[2K{line}");
    }
    let _ = err.flush();
}

/// Frame-to-frame dashboard state (occupancy deltas, sparkline history).
struct DashState {
    started: Instant,
    last_frame: Option<Instant>,
    last_busy_sum: f64,
    spark: VecDeque<f64>,
}

impl DashState {
    fn new() -> DashState {
        DashState {
            started: Instant::now(),
            last_frame: None,
            last_busy_sum: 0.0,
            spark: VecDeque::with_capacity(SPARK_LEN),
        }
    }

    /// Renders one frame from a snapshot. Pure with respect to the
    /// terminal, which keeps it unit-testable.
    fn frame(&mut self, snap: &Snapshot) -> String {
        let now = Instant::now();
        let completed = get_uint(snap, names::JOBS_COMPLETED);
        let planned = get_int(snap, names::JOBS_PLANNED).max(0) as u64;
        let cached = get_uint(snap, names::CACHE_HITS);
        let panicked = get_uint(snap, names::JOBS_PANICKED);
        let queue = get_int(snap, names::QUEUE_DEPTH).max(0);
        let workers = get_int(snap, names::WORKER_THREADS).max(0);
        let episodes_s = get_float(snap, names::EPISODES_PER_SECOND);
        let cycles_s = get_float(snap, names::SIM_CYCLES_PER_SECOND);
        let mem_ops_s = get_float(snap, names::MEMORY_OPS_PER_SECOND);

        let busy_sum = sum_floats(snap, names::WORKER_BUSY_SECONDS);
        let occupancy = match self.last_frame {
            Some(prev) if workers > 0 => {
                let dt = now.duration_since(prev).as_secs_f64();
                if dt > 0.0 {
                    ((busy_sum - self.last_busy_sum) / (dt * workers as f64)).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        self.last_frame = Some(now);
        self.last_busy_sum = busy_sum;

        if self.spark.len() == SPARK_LEN {
            self.spark.pop_front();
        }
        self.spark.push_back(mem_ops_s.max(0.0));

        let elapsed = now.duration_since(self.started).as_secs_f64();
        let eta = if completed > 0 && planned > completed {
            let remaining = (planned - completed) as f64;
            Some(elapsed / completed as f64 * remaining)
        } else {
            None
        };
        let hit_rate = if completed > 0 {
            cached as f64 / completed as f64 * 100.0
        } else {
            0.0
        };

        let mut out = String::new();
        out.push_str(&format!(
            "horus sweep  {} {completed}/{planned} jobs  ({cached} cached, {panicked} panicked)  queue {queue}  ETA {}\n",
            bar(completed, planned, 12),
            eta.map_or("--".to_string(), fmt_duration),
        ));
        out.push_str(&format!(
            "workers {workers}  busy {:>3.0}%  cache-hit {hit_rate:>3.0}%  elapsed {}\n",
            occupancy * 100.0,
            fmt_duration(elapsed),
        ));
        out.push_str(&format!(
            "episodes/s {}  sim-cycles/s {}  mem-ops/s {}\n",
            fmt_si(episodes_s),
            fmt_si(cycles_s),
            fmt_si(mem_ops_s),
        ));
        out.push_str(&format!("mem-ops/s {}\n", sparkline(&self.spark)));
        if let Some(stages) = stage_latency_line(snap) {
            out.push_str(&stages);
            out.push('\n');
        }
        out
    }
}

/// Renders the per-stage mean-latency line when the fleet stage
/// histograms are present and populated; `None` otherwise (local sweeps
/// never see it).
fn stage_latency_line(snap: &Snapshot) -> Option<String> {
    let mut parts = Vec::new();
    for stage in crate::span::Stage::ALL {
        let sample = snap.samples.iter().find(|s| {
            s.name == names::FLEET_JOB_STAGE_SECONDS
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "stage" && v == stage.as_str())
        })?;
        let SampleValue::TimeHistogram(h) = &sample.value else {
            return None;
        };
        if h.count == 0 {
            return None;
        }
        let mean_ms = h.seconds_sum() / h.count as f64 * 1e3;
        parts.push(format!("{} {mean_ms:.1}ms", stage.as_str()));
    }
    Some(format!("stage mean  {}", parts.join("  ")))
}

fn get_uint(snap: &Snapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            SampleValue::Uint(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

fn get_int(snap: &Snapshot, name: &str) -> i64 {
    snap.samples
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            SampleValue::Int(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

fn get_float(snap: &Snapshot, name: &str) -> f64 {
    snap.samples
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            SampleValue::Float(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn sum_floats(snap: &Snapshot, name: &str) -> f64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Float(v) => v,
            _ => 0.0,
        })
        .sum()
}

/// Renders a `width`-character progress bar.
fn bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done as f64 / total as f64 * width as f64).round() as usize
    }
    .min(width);
    format!("▐{}{}▌", "█".repeat(filled), "░".repeat(width - filled))
}

/// Renders a sparkline of `values` scaled to the window maximum.
fn sparkline(values: &VecDeque<f64>) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                LEVELS[0]
            } else {
                let idx = (v / max * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// Formats a rate with an SI suffix (`1.5k`, `203.2M`).
fn fmt_si(v: f64) -> String {
    let abs = v.abs();
    if abs >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if abs >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if abs >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Formats seconds as `Ns`, `NmMs`, or `NhMm`.
fn fmt_duration(s: f64) -> String {
    let s = s.max(0.0).round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_renders_from_snapshot() {
        let reg = Registry::new();
        reg.counter(names::JOBS_COMPLETED, "h", &[]).add(3);
        reg.gauge(names::JOBS_PLANNED, "h", &[]).set(10);
        reg.counter(names::CACHE_HITS, "h", &[]).add(1);
        reg.gauge(names::QUEUE_DEPTH, "h", &[]).set(7);
        reg.gauge(names::WORKER_THREADS, "h", &[]).set(4);
        reg.float_gauge(names::EPISODES_PER_SECOND, "h", &[])
            .set(1500.0);
        reg.float_gauge(names::SIM_CYCLES_PER_SECOND, "h", &[])
            .set(2.0e8);
        reg.float_gauge(names::MEMORY_OPS_PER_SECOND, "h", &[])
            .set(3.4e6);
        let mut state = DashState::new();
        let frame = state.frame(&reg.snapshot());
        assert_eq!(frame.lines().count(), PANEL_LINES);
        assert!(frame.contains("3/10 jobs"), "{frame}");
        assert!(frame.contains("(1 cached, 0 panicked)"), "{frame}");
        assert!(frame.contains("queue 7"), "{frame}");
        assert!(frame.contains("workers 4"), "{frame}");
        assert!(frame.contains("episodes/s 1.5k"), "{frame}");
        assert!(frame.contains("sim-cycles/s 200.0M"), "{frame}");

        // Stage histograms grow the panel by one line; all five stages
        // must be populated before it appears.
        for stage in crate::span::Stage::ALL {
            reg.time_histogram(
                names::FLEET_JOB_STAGE_SECONDS,
                "h",
                &[("stage", stage.as_str())],
            )
            .observe_seconds(0.002);
        }
        let frame = state.frame(&reg.snapshot());
        assert_eq!(frame.lines().count(), PANEL_LINES + 1);
        assert!(frame.contains("stage mean"), "{frame}");
        assert!(frame.contains("queued 2.0ms"), "{frame}");
        assert!(frame.contains("committed 2.0ms"), "{frame}");
    }

    #[test]
    fn helpers_format_sanely() {
        assert_eq!(fmt_si(950.0), "950");
        assert_eq!(fmt_si(1500.0), "1.5k");
        assert_eq!(fmt_si(2.5e6), "2.5M");
        assert_eq!(fmt_duration(5.0), "5s");
        assert_eq!(fmt_duration(125.0), "2m05s");
        assert_eq!(fmt_duration(7300.0), "2h01m");
        assert_eq!(bar(0, 0, 4), "▐░░░░▌");
        assert_eq!(bar(2, 4, 4), "▐██░░▌");
    }

    #[test]
    fn sparkline_scales_to_max() {
        let mut v = VecDeque::new();
        v.extend([0.0, 0.5, 1.0]);
        assert_eq!(sparkline(&v), "▁▅█");
        let empty: VecDeque<f64> = VecDeque::new();
        assert_eq!(sparkline(&empty), "");
    }
}
