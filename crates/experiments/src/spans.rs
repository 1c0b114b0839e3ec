//! Wall-clock phase spans of the harness itself: the runner's
//! `job/<label>` spans and the binary's `<target>/points` and
//! `<target>/assemble` spans, written next to `--trace-out` as a
//! Chrome-trace file (`<stem>.chrome.json`, load in `chrome://tracing`
//! or Perfetto).
//!
//! Spans time what the harness does around the simulator, never what
//! happens inside it, and they never enter a report or the trace JSONL:
//! they are host-dependent, so they live only in this file. Recording
//! follows the thread's telemetry decision ([`Attach::current`]).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use pert_core::{telemetry, Attach};
use sim_stats::json;

/// One closed wall-clock phase, microseconds relative to process start.
#[derive(Clone, Debug)]
struct Span {
    /// Phase name (e.g. `job/fig6 b=10`, `fig6/assemble`).
    name: String,
    /// Telemetry scope active when the span closed.
    scope: String,
    /// Small per-thread id for trace lanes.
    tid: u64,
    /// Start, µs since process epoch.
    start_us: u64,
    /// Duration, µs.
    dur_us: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Open a wall-clock span named `name()`, closed when the guard drops.
/// `None` (and no name built) when telemetry is detached, so the idiom is
/// `let _span = spans::span(|| ..);`.
pub fn span(name: impl FnOnce() -> String) -> Option<SpanGuard> {
    Attach::current().telemetry.then(|| SpanGuard {
        name: name(),
        started: Instant::now(),
    })
}

/// Closes its [`span`] on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start_us = self.started.saturating_duration_since(epoch()).as_micros() as u64;
        let dur_us = self.started.elapsed().as_micros() as u64;
        lock().push(Span {
            name: std::mem::take(&mut self.name),
            scope: telemetry::current_scope().to_string(),
            tid: thread_id(),
            start_us,
            dur_us,
        });
    }
}

/// The span list; a job that panicked holding it left it valid.
fn lock() -> MutexGuard<'static, Vec<Span>> {
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// All closed spans so far.
fn spans_snapshot() -> Vec<Span> {
    lock().clone()
}

/// Write all closed spans as a Chrome-trace-format file. Returns the
/// span count.
pub fn write_chrome_trace(path: &Path) -> io::Result<usize> {
    let spans = spans_snapshot();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
        json::push_str(&mut out, &s.name);
        let (ts, dur, tid) = (s.start_us, s.dur_us, s.tid);
        let _ = write!(
            out,
            ",\"cat\":\"pert\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"scope\":"
        );
        json::push_str(&mut out, &s.scope);
        out.push_str("}}");
    }
    out.push_str("]}");
    std::fs::write(path, out)?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The guards are built by hand: the spans under test need no
    // telemetry decision.
    fn open(name: &str) -> SpanGuard {
        SpanGuard {
            name: name.into(),
            started: Instant::now(),
        }
    }

    #[test]
    fn spans_close_on_drop() {
        drop(open("test/span_close"));
        assert!(spans_snapshot().iter().any(|s| s.name == "test/span_close"));
    }

    #[test]
    fn chrome_trace_is_one_json_object() {
        drop(open("test/writer_span"));
        let path = std::env::temp_dir().join("pert_test_chrome.json");
        assert!(write_chrome_trace(&path).unwrap() >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"test/writer_span\""));
        let _ = std::fs::remove_file(path);
    }
}
