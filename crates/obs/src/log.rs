//! Leveled structured logging with an in-memory ring buffer.
//!
//! The workspace's diagnostics were ad-hoc `eprintln!` calls — fine for
//! a single process, useless for a fleet where "which worker said what,
//! when, and about which job" is the whole question. This module is the
//! replacement: one process-global logger that
//!
//! * filters by [`Level`] (`--log-level`),
//! * renders every accepted record as one line-delimited JSON object
//!   and keeps the most recent [`RING_CAPACITY`] of them in a ring
//!   buffer served at `GET /logs` by [`crate::http::MetricsServer`],
//! * appends the same line to the run directory's `logs.ndjson` while
//!   an [`crate::ObsSession`] with a run directory is open
//!   ([`set_file`]),
//! * mirrors records to stderr human-readable
//!   (`target: message key=value ...`), so existing "watch the daemon's
//!   stderr" workflows keep working.
//!
//! Like the rest of the obs stack it is observe-only: the line layout
//! is fixed here (strings go through `serde_json::write_str`), the ring
//! is a mutexed `VecDeque`, and nothing here ever touches job results,
//! content keys, or any other determinism-bearing output.

use crate::rundir::NdjsonFile;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Maximum JSON lines retained in the in-memory ring (`GET /logs`
/// serves exactly this window, oldest first).
pub const RING_CAPACITY: usize = 1024;

/// Log severity, ordered from chattiest to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Development chatter; off by default.
    Debug = 0,
    /// Normal operational events (the default threshold).
    Info = 1,
    /// Something degraded but the run continues.
    Warn = 2,
    /// Something failed.
    Error = 3,
}

impl Level {
    /// Every level, in severity order.
    pub const ALL: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// The lowercase name used on the wire and in `--log-level`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `--log-level` argument (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// The process-global logger state.
struct Logger {
    min_level: AtomicU8,
    seq: AtomicU64,
    ring: Mutex<Ring>,
}

/// The recent lines, and the run directory's copy of every line. The
/// file rides under the ring's lock, so a process with no run directory
/// pays one `None` check for it and both keep the same order.
struct Ring {
    lines: VecDeque<String>,
    file: Option<Arc<NdjsonFile>>,
}

fn global() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(|| Logger {
        min_level: AtomicU8::new(Level::Info as u8),
        seq: AtomicU64::new(0),
        ring: Mutex::new(Ring {
            lines: VecDeque::with_capacity(RING_CAPACITY),
            file: None,
        }),
    })
}

fn ring() -> std::sync::MutexGuard<'static, Ring> {
    global().ring.lock().expect("obs log ring poisoned")
}

/// Sets the minimum level a record needs to be kept (ring) and printed
/// (stderr). Records below it are dropped entirely.
pub fn set_level(level: Level) {
    global().min_level.store(level as u8, Ordering::Relaxed);
}

/// The current minimum level.
#[must_use]
pub fn level() -> Level {
    Level::from_u8(global().min_level.load(Ordering::Relaxed))
}

/// Sends a copy of every accepted record from now on to `file`
/// (`None` stops copying). [`crate::ObsSession`] points this at the run
/// directory's `logs.ndjson` for the life of the session.
pub fn set_file(file: Option<Arc<NdjsonFile>>) {
    ring().file = file;
}

/// Records one structured event: JSON into the ring (and the run
/// directory's log file, when one is set), a human-readable mirror line
/// on stderr. `fields` are `(name, value)` pairs carried verbatim as
/// JSON string values.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, &str)]) {
    let logger = global();
    if (level as u8) < logger.min_level.load(Ordering::Relaxed) {
        return;
    }
    let seq = logger.seq.fetch_add(1, Ordering::Relaxed);
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(96 + msg.len());
    line.push_str(&format!(
        "{{\"ts_ms\":{ts_ms},\"seq\":{seq},\"level\":\"{}\",\"target\":",
        level.as_str(),
    ));
    serde_json::write_str(&mut line, target);
    line.push_str(",\"msg\":");
    serde_json::write_str(&mut line, msg);
    line.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        serde_json::write_str(&mut line, k);
        line.push(':');
        serde_json::write_str(&mut line, v);
    }
    line.push_str("}}");
    {
        let mut ring = ring();
        if let Some(file) = &ring.file {
            file.append(|out| out.push_str(&line));
        }
        if ring.lines.len() == RING_CAPACITY {
            ring.lines.pop_front();
        }
        ring.lines.push_back(line);
    }
    let mut human = format!("{target}: {msg}");
    for (k, v) in fields {
        human.push_str(&format!(" {k}={v}"));
    }
    let _ = writeln!(std::io::stderr().lock(), "{human}");
}

/// Records a debug-level event.
pub fn debug(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Debug, target, msg, fields);
}

/// Records an info-level event.
pub fn info(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Info, target, msg, fields);
}

/// Records a warn-level event.
pub fn warn(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, target, msg, fields);
}

/// Records an error-level event.
pub fn error(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Error, target, msg, fields);
}

/// The ring's contents as newline-delimited JSON, oldest record first
/// (the `GET /logs` body). Empty string when nothing has been logged.
#[must_use]
pub fn ring_ndjson() -> String {
    let mut out = String::new();
    for line in &ring().lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// [`ring_ndjson`] with server-side filters, the `GET /logs?level=`
/// `&trace_id=` body. `min_level` keeps records at or above the given
/// severity; `trace_id` keeps records whose `fields` carry exactly that
/// `trace_id` value. Both filters are conjunctive; either alone is
/// fine. Records are matched on their rendered JSON, so the filter
/// never re-parses or re-orders anything — surviving lines are
/// byte-identical to the unfiltered body.
#[must_use]
pub fn ring_ndjson_filtered(min_level: Option<Level>, trace_id: Option<&str>) -> String {
    let level_needles: Vec<String> = min_level
        .map(|min| {
            Level::ALL
                .iter()
                .filter(|l| **l >= min)
                .map(|l| format!("\"level\":\"{}\"", l.as_str()))
                .collect()
        })
        .unwrap_or_default();
    let trace_needle = trace_id.map(|t| {
        let mut needle = String::from("\"trace_id\":");
        serde_json::write_str(&mut needle, t);
        needle
    });
    let mut out = String::new();
    for line in &ring().lines {
        if !level_needles.is_empty() && !level_needles.iter().any(|n| line.contains(n.as_str())) {
            continue;
        }
        if let Some(needle) = &trace_needle {
            if !line.contains(needle.as_str()) {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test drives the global logger end to end; the ring and level
    // are process-wide, so splitting this into several parallel tests
    // would race on them.
    #[test]
    fn logger_levels_ring_and_shape() {
        set_level(Level::Info);
        info(
            "fleet",
            "worker registered",
            &[("worker", "3"), ("name", "ci-a")],
        );
        debug("fleet", "this is dropped", &[]);
        warn("fleet", "a \"quoted\" warning", &[]);

        let body = ring_ndjson();
        assert!(
            body.contains("\"level\":\"info\",\"target\":\"fleet\",\"msg\":\"worker registered\""),
            "{body}"
        );
        assert!(
            body.contains("\"fields\":{\"worker\":\"3\",\"name\":\"ci-a\"}"),
            "{body}"
        );
        assert!(!body.contains("this is dropped"), "{body}");
        assert!(body.contains("a \\\"quoted\\\" warning"), "{body}");
        for line in body.lines() {
            assert!(
                line.starts_with("{\"ts_ms\":") && line.ends_with('}'),
                "{line}"
            );
            assert!(line.contains("\"seq\":"), "{line}");
        }

        set_level(Level::Error);
        assert_eq!(level(), Level::Error);
        info("fleet", "below threshold", &[]);
        assert!(
            !ring_ndjson().contains("below threshold"),
            "info dropped at error threshold"
        );
        set_level(Level::Info);

        // A run directory's log file gets the ring's exact lines while
        // it is set, and nothing after.
        let path =
            std::env::temp_dir().join(format!("horus-log-file-{}.ndjson", std::process::id()));
        set_file(Some(Arc::new(NdjsonFile::new(&path))));
        error(
            "fleet",
            "copied to the run dir",
            &[("trace_id", "feed0002")],
        );
        set_file(None);
        error("fleet", "after the session", &[]);
        let copied = std::fs::read_to_string(&path).expect("log file written");
        let line = copied
            .lines()
            .find(|l| l.contains("copied to the run dir"))
            .expect("record copied");
        assert!(ring_ndjson().lines().any(|l| l == line), "{line}");
        assert!(!copied.contains("after the session"), "{copied}");
        std::fs::remove_file(&path).ok();

        // Server-side filters reuse the same ring (still one test: the
        // logger is process-global).
        info("service", "traced event", &[("trace_id", "feed0001")]);
        let warns = ring_ndjson_filtered(Some(Level::Warn), None);
        assert!(warns.contains("a \\\"quoted\\\" warning"), "{warns}");
        assert!(!warns.contains("worker registered"), "info filtered out");
        for line in warns.lines() {
            assert!(
                line.contains("\"level\":\"warn\"") || line.contains("\"level\":\"error\""),
                "{line}"
            );
        }
        let traced = ring_ndjson_filtered(None, Some("feed0001"));
        assert!(traced.contains("traced event"), "{traced}");
        assert!(!traced.contains("worker registered"), "{traced}");
        let both = ring_ndjson_filtered(Some(Level::Warn), Some("feed0001"));
        assert!(both.is_empty(), "traced event is info, not warn: {both}");
        let none = ring_ndjson_filtered(None, Some("no-such-trace"));
        assert!(none.is_empty(), "unknown trace id matches nothing");
        assert_eq!(
            ring_ndjson_filtered(None, None),
            ring_ndjson(),
            "no filters means the full body"
        );
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Debug < Level::Error);
        for l in Level::ALL {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
    }
}
