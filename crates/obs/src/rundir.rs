//! The run directory: one place for everything a run leaves behind.
//!
//! `--run-dir DIR` is the only artifact flag. [`crate::ObsSession`]
//! writes the files named here, `horus_bench::cli` adds the probed
//! drain trace, and [`crate::insight`] reads them back. A file appears
//! only when its signal was produced: a sweep that logged nothing has
//! no [`LOGS`], a run that stamped no span has no [`SPANS`].
//!
//! The two line streams (progress events and log records) are appended
//! while the run goes, one line at a time, through [`NdjsonFile`]; the
//! three documents are written whole at the end.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// The end-of-run [`crate::ObsSummary`] (`format_version` 1).
pub const SUMMARY: &str = "summary.json";
/// The [`crate::SpanBook`] Chrome-trace timeline of per-job lifecycle
/// spans.
pub const SPANS: &str = "spans.json";
/// Every accepted structured-log record, one JSON object per line —
/// the same line the `GET /logs` ring stores.
pub const LOGS: &str = "logs.ndjson";
/// The harness's progress events, one JSON object per line.
pub const PROGRESS: &str = "progress.ndjson";
/// The Chrome-trace JSON of one probed worst-case drain.
pub const DRAIN_TRACE: &str = "drain-trace.json";

/// A newline-delimited file that is created (truncating any earlier
/// run's copy) when its first line arrives, so a stream that never
/// emits leaves no file behind.
///
/// Appends are best effort: an I/O error drops the line rather than
/// failing the run it observes.
#[derive(Debug)]
pub struct NdjsonFile {
    path: PathBuf,
    file: Mutex<Option<File>>,
}

impl NdjsonFile {
    /// A stream that will write to `path`; nothing touches the file
    /// system until the first line.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> NdjsonFile {
        NdjsonFile {
            path: path.into(),
            file: Mutex::new(None),
        }
    }

    /// Appends the line `render` writes into the buffer (without its
    /// newline). `render` runs under the file's lock, so anything it
    /// numbers lands in the file in number order; an empty rendering
    /// writes nothing. The line goes out in one `write_all`.
    pub fn append(&self, render: impl FnOnce(&mut String)) {
        let mut line = String::new();
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        render(&mut line);
        if line.is_empty() {
            return;
        }
        line.push('\n');
        if file.is_none() {
            *file = File::create(&self.path).ok();
        }
        if let Some(f) = file.as_mut() {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_file_appears_with_its_first_line_and_replaces_an_old_run() {
        let dir = std::env::temp_dir().join(format!("horus-ndjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(LOGS);
        std::fs::write(&path, "stale\n").expect("seed an earlier run");
        let stream = NdjsonFile::new(&path);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "stale\n",
            "nothing is touched before the first line"
        );
        stream.append(|_| {});
        stream.append(|l| l.push_str("{\"n\":0}"));
        stream.append(|l| l.push_str("{\"n\":1}"));
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "{\"n\":0}\n{\"n\":1}\n"
        );
        let never = dir.join(PROGRESS);
        NdjsonFile::new(&never).append(|_| {});
        assert!(!never.exists(), "an empty stream leaves no file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
