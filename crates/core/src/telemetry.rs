//! Telemetry: signal taps, the metrics registry, derived metrics and
//! the flight recorder.
//!
//! Like [`crate::audit`], it has one gate, decided per simulator: its
//! config's [`crate::Attach::telemetry`] (default **off**) decides at
//! construction time whether a [`Tap`] attaches. Detached, every publish
//! site is a branch on an `Option` that is `None`. The `experiments`
//! binary attaches with `--telemetry` or `--trace-out`.
//!
//! Three kinds of data flow through here, none of them read from a
//! wall clock, so attached output is as deterministic as the report:
//!
//! * **Records** — `(scope, series, key, t, value)` samples published
//!   by attached taps (PERT `srtt`, queue lengths, controller state).
//!   The publishing thread owns them: a record goes into a thread-local
//!   sink, which is *handed over* — to the flight recorder (newest
//!   [`FLIGHT_CAP`] handed-over records), after [`trace_reset`] to the
//!   full trace, its reducers to the derive state — once per
//!   [`BATCH`] records and whenever its scope ends or changes hands.
//! * **Metrics** — named counters/gauges/histograms in a shared
//!   [`MetricsSet`]. All operations are commutative, so per-job flushes
//!   arriving in any thread order yield identical snapshots — the
//!   `--jobs 1` vs `--jobs N` determinism contract.
//! * **Flight dumps** — [`install_flight_dump_on_panic`] hooks the
//!   panic handler so an audit violation (which panics) or any scenario
//!   panic dumps the telemetry window preceding the failure as JSONL.
//!
//! ## Scopes and ordering
//!
//! Records carry their thread's *scope*, set by the experiment runner
//! to the job label via [`scoped`]. One `(scope, series, key)` stream
//! is only ever published by one thread at a time, and a thread hands
//! its sink over whenever such a stream changes hands ([`ScopeGuard`]
//! drop, [`fork_scope`]), so the stream keeps its publication order;
//! across scopes the interleaving depends on worker scheduling.
//! [`write_trace_jsonl`] therefore stable-sorts by `(scope, series,
//! key)`, which makes the trace file identical at any `--jobs N`.
//!
//! ## Series naming
//!
//! `subsystem/signal`, keyed by an integer the publisher chooses (PERT:
//! controller seed; queues: link index; TCP: flow id), listed in
//! DESIGN.md §7. In-tree publishers hold the [`SeriesId`] constant.

pub use sim_stats::derive::{DeriveSet, DerivedSummary};
pub use sim_stats::metrics::{BucketHistogram, MetricValue, MetricsSet};
pub use sim_stats::series::SeriesId;

use sim_stats::derive::DeriveScope;
use sim_stats::json;
use sim_stats::series::BUILTIN_SERIES;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// [`crate::Attach::current`]'s telemetry default (see [`set_enabled`]).
pub(crate) static ATTACH_DEFAULT: AtomicBool = AtomicBool::new(false);
/// The full trace is collecting (see [`trace_reset`]).
static FULL_TRACE: AtomicBool = AtomicBool::new(false);

/// Capacity of the flight-recorder ring: the newest records kept for a
/// post-mortem dump (32 bytes a record in the ring).
pub const FLIGHT_CAP: usize = 65_536;

/// Lock a registry that stays valid whatever a panicking holder was
/// doing (commutative counters, append-only buffers): a job that panics
/// must not take the other jobs' telemetry with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How often the two registries records flow into (`BUFFERS`, `DERIVE`)
/// have been locked, so a test can pin what publishing costs.
#[doc(hidden)]
pub static HOT_LOCKS: AtomicU64 = AtomicU64::new(0);

fn lock_counted<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    HOT_LOCKS.fetch_add(1, Ordering::Relaxed);
    lock(m)
}

/// Deprecated: set the telemetry default of threads that entered no
/// [`crate::Attach`]; kept for one release for out-of-tree drivers.
#[doc(hidden)]
pub fn set_enabled(on: bool) {
    ATTACH_DEFAULT.store(on, Ordering::Relaxed);
}

/// Deprecated: start or stop the full trace without clearing it. Use
/// [`trace_reset`] and [`trace_clear`].
#[doc(hidden)]
pub fn set_full_trace(on: bool) {
    FULL_TRACE.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Scopes and sinks
// ---------------------------------------------------------------------

/// Scope labels and non-built-in series names, interned so a record
/// carries two small integers: scope id 0 is the empty (unscoped) label
/// and `n` is `scopes[n - 1]`; series id `BUILTIN_SERIES.len() + n` is
/// `series[n]`.
struct Names {
    scopes: Vec<Arc<str>>,
    series: Vec<&'static str>,
}

static NAMES: Mutex<Names> = Mutex::new(Names {
    scopes: Vec::new(),
    series: Vec::new(),
});

impl Names {
    fn scope(&self, id: u32) -> Arc<str> {
        let known = |i| self.scopes[i as usize].clone();
        id.checked_sub(1).map_or_else(empty_scope, known)
    }

    fn series(&self, id: SeriesId) -> &'static str {
        let i = usize::from(id.0);
        let builtin = BUILTIN_SERIES.get(i).copied();
        builtin.unwrap_or_else(|| self.series[i - BUILTIN_SERIES.len()])
    }
}

/// Index of the entry of `table` that `is` holds for, `make`ing it first
/// if there is none.
fn intern<T>(table: &mut Vec<T>, is: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> usize {
    table.iter().position(is).unwrap_or_else(|| {
        table.push(make());
        table.len() - 1
    })
}

fn empty_scope() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// The id of series `name`: its built-in constant, or an interned id.
pub fn series_id(name: &'static str) -> SeriesId {
    SeriesId::builtin(name).unwrap_or_else(|| {
        let i = intern(&mut lock(&NAMES).series, |n| *n == name, || name);
        SeriesId(u16::try_from(BUILTIN_SERIES.len() + i).expect("under 65 536 series names"))
    })
}

/// Records a scoped sink holds before it is handed over.
pub const BATCH: usize = 4_096;

/// Shard tag of a record published outside any shard worker.
const NO_SHARD: u16 = u16::MAX;

/// A record as sinks, ring and full trace hold it: 32 bytes, names as
/// interned ids. Readers materialise [`Record`]s from it.
#[derive(Clone, Copy)]
struct Raw {
    t: f64,
    value: f64,
    key: u64,
    scope: u32,
    series: SeriesId,
    shard: u16,
}

/// What a thread has published and not handed over yet. Nothing here is
/// shared, so publishing takes no lock.
struct Sink {
    scope: u32,
    shard: u16,
    batch: Vec<Raw>,
    /// This thread's reducers for `scope` while derivation is running.
    derive: Option<DeriveScope>,
}

thread_local! {
    static SINK: RefCell<Sink> = const {
        RefCell::new(Sink { scope: 0, shard: NO_SHARD, batch: Vec::new(), derive: None })
    };
}

/// Run `f` on the calling thread's sink. Does nothing (`None`) when the
/// sink is in use further up the stack — a panic hook running inside
/// `record` — or the thread's locals are already torn down.
#[inline]
fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
    SINK.try_with(|s| s.try_borrow_mut().ok().map(|mut s| f(&mut s)))
        .ok()
        .flatten()
}

impl Sink {
    /// Hand the batch over: reduce it into this thread's own derive
    /// state, then feed the flight ring and the full trace under one
    /// `BUFFERS` lock. With `close` (the scope ends or changes hands)
    /// the reducers are absorbed into the shared set under one `DERIVE`
    /// lock. Runs while a job unwinds, so it must not panic.
    fn hand_over(&mut self, close: bool) {
        if !self.batch.is_empty() {
            if DERIVE_ON.load(Ordering::Relaxed) {
                let d = self.derive.get_or_insert_with(DeriveScope::default);
                for r in &self.batch {
                    d.ingest_id(r.series, r.key, r.t, r.value);
                }
            }
            let mut buf = lock_counted(&BUFFERS);
            if FULL_TRACE.load(Ordering::Relaxed) {
                buf.full.extend_from_slice(&self.batch);
            }
            let newest = &self.batch[self.batch.len().saturating_sub(FLIGHT_CAP)..];
            let excess = (buf.ring.len() + newest.len()).saturating_sub(FLIGHT_CAP);
            buf.ring.drain(..excess);
            buf.ring.extend(newest);
            drop(buf);
            self.batch.clear();
        }
        if let Some(part) = self.derive.take_if(|_| close) {
            let scope = lock(&NAMES).scope(self.scope);
            if let Some(set) = lock_counted(&DERIVE).as_mut() {
                set.absorb_scope(&scope, part);
            }
        }
    }
}

/// Hand over what the calling thread has published so far. Every reader
/// starts with this, so a thread always sees its own records.
fn hand_over_thread() {
    with_sink(|s| s.hand_over(true));
}

/// Set this thread's telemetry scope for the lifetime of the returned
/// guard (the previous scope is restored on drop). The experiment
/// runner scopes each job by its label. What the thread publishes in
/// the scope stays with it until [`BATCH`] records or the guard's drop.
pub fn scoped(label: &str) -> ScopeGuard {
    let id = match label {
        "" => 0,
        _ => 1 + intern(&mut lock(&NAMES).scopes, |s| **s == *label, || label.into()) as u32,
    };
    let prev = with_sink(|s| {
        s.hand_over(true);
        std::mem::replace(&mut s.scope, id)
    });
    ScopeGuard { prev }
}

/// Hands the thread's sink over and restores the previous scope on
/// drop. See [`scoped`].
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<u32>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        with_sink(|s| {
            s.hand_over(true);
            s.scope = self.prev.unwrap_or(s.scope);
        });
    }
}

/// This thread's current telemetry scope (empty when unscoped).
pub fn current_scope() -> Arc<str> {
    lock(&NAMES).scope(with_sink(|s| s.scope).unwrap_or(0))
}

/// Hand the calling thread's sink over and return its scope, for worker
/// threads to re-establish with [`scoped`]: the shard driver calls this
/// right before it spawns, so a worker's records group with the owning
/// job *after* everything the caller published before the fork.
pub fn fork_scope() -> Arc<str> {
    hand_over_thread();
    current_scope()
}

/// Tag every record this thread publishes with the originating shard id
/// for the lifetime of the returned guard (the previous tag is restored
/// on drop). The shard workers establish this so flight dumps and traces
/// from a multi-shard run attribute each sample — a violation in a
/// 4-shard run names its shard instead of interleaving anonymously.
/// Monolithic runs never set it, and untagged records serialize exactly
/// as before, so single-shard trace bytes are unchanged.
pub fn shard_scoped(shard: u32) -> ShardScopeGuard {
    let tag = shard.min(u32::from(NO_SHARD) - 1) as u16;
    let prev = with_sink(|s| std::mem::replace(&mut s.shard, tag));
    ShardScopeGuard { prev }
}

/// Restores the previous shard tag on drop. See [`shard_scoped`].
#[derive(Debug)]
pub struct ShardScopeGuard {
    prev: Option<u16>,
}

impl Drop for ShardScopeGuard {
    fn drop(&mut self) {
        with_sink(|s| s.shard = self.prev.unwrap_or(s.shard));
    }
}

// ---------------------------------------------------------------------
// Records and taps
// ---------------------------------------------------------------------

/// One telemetry sample: series `series[key]` had `value` at simulated
/// time `t` (seconds), published from job `scope`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Publishing job's label (runner-assigned; empty outside a job).
    /// Shared, not owned: every record from one job points at the same
    /// allocation.
    pub scope: Arc<str>,
    /// Series name, `subsystem/signal`.
    pub series: &'static str,
    /// Publisher-chosen instance key (seed, link index, flow id).
    pub key: u64,
    /// Simulated time, seconds.
    pub t: f64,
    /// Sample value.
    pub value: f64,
    /// Originating shard id when published from a shard worker (see
    /// [`shard_scoped`]); `None` on monolithic runs.
    pub shard: Option<u32>,
}

struct Buffers {
    ring: VecDeque<Raw>,
    full: Vec<Raw>,
}

static BUFFERS: Mutex<Buffers> = Mutex::new(Buffers {
    ring: VecDeque::new(),
    full: Vec::new(),
});

/// Publish one sample by series name. In-tree publishers hold a
/// [`Tap`] or a [`SeriesId`] constant and skip the name lookup.
pub fn record(series: &'static str, key: u64, t: f64, value: f64) {
    record_id(series_id(series), key, t, value);
}

/// Publish one sample into the calling thread's sink. Prefer holding a
/// [`Tap`]: attachment is the runtime gate, so detached code paths
/// never reach this.
#[inline]
pub fn record_id(series: SeriesId, key: u64, t: f64, value: f64) {
    with_sink(|s| {
        s.batch.push(Raw {
            t,
            value,
            key,
            scope: s.scope,
            series,
            shard: s.shard,
        });
        // Outside any scope nobody promises a hand-over later, so a
        // record is a batch of one.
        if s.scope == 0 || s.batch.len() >= BATCH {
            s.hand_over(s.scope == 0);
        }
    });
}

/// A handle a publisher holds when telemetry was enabled at its
/// construction. Holding `Option<Tap>` (or just the key) and branching
/// on it is the whole runtime cost when detached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tap {
    series: SeriesId,
    key: u64,
}

impl Tap {
    /// Attach a tap for `series[key]` when `on` (the decision of the
    /// simulator that builds the publisher), else `None`.
    pub fn attach_if(on: bool, series: &'static str, key: u64) -> Option<Tap> {
        on.then(|| Tap {
            series: series_id(series),
            key,
        })
    }

    /// Publish one sample on this tap's series.
    #[inline]
    pub fn record(&self, t: f64, value: f64) {
        record_id(self.series, self.key, t, value);
    }
}

/// Materialise public records from raw ones (one `NAMES` lock).
fn materialise(raw: &[Raw]) -> Vec<Record> {
    let names = lock(&NAMES);
    let public = |r: &Raw| Record {
        scope: names.scope(r.scope),
        series: names.series(r.series),
        key: r.key,
        t: r.t,
        value: r.value,
        shard: (r.shard != NO_SHARD).then_some(u32::from(r.shard)),
    };
    raw.iter().map(public).collect()
}

/// The newest handed-over records (up to [`FLIGHT_CAP`]), oldest first,
/// in hand-over order — the window a post-mortem wants. The calling
/// thread's own sink is handed over first.
pub fn flight_snapshot() -> Vec<Record> {
    hand_over_thread();
    let raw: Vec<Raw> = lock_counted(&BUFFERS).ring.iter().copied().collect();
    materialise(&raw)
}

/// All records the full trace holds (see [`trace_reset`]), stable-sorted by
/// `(scope, series, key)` so the output is deterministic at any worker
/// count (within a group, records were published by one thread at a
/// time and keep their publication order).
pub fn trace_snapshot_sorted() -> Vec<Record> {
    hand_over_thread();
    let raw = lock_counted(&BUFFERS).full.clone();
    let mut out = materialise(&raw);
    out.sort_by(|a, b| (&*a.scope, a.series, a.key).cmp(&(&*b.scope, b.series, b.key)));
    out
}

/// Start the full trace afresh, for [`trace_snapshot_sorted`] and [`write_trace_jsonl`].
pub fn trace_reset() {
    hand_over_thread();
    lock_counted(&BUFFERS).full = Vec::new();
    FULL_TRACE.store(true, Ordering::Relaxed);
}

/// Stop the full trace and drop what it holds.
pub fn trace_clear() {
    hand_over_thread();
    FULL_TRACE.store(false, Ordering::Relaxed);
    lock_counted(&BUFFERS).full = Vec::new();
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

static METRICS: Mutex<MetricsSet> = Mutex::new(MetricsSet::new());

/// Bucket edges for RTT-class histograms, nanoseconds:
/// 1/2/5-stepped from 1 ms to 5 s, plus overflow.
pub const RTT_EDGES_NS: [u64; 12] = [
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
];

/// Add `n` to the global counter `name`. Callers batch per simulation
/// and flush once (typically on drop) — never per event.
pub fn counter_add(name: &str, n: u64) {
    if n > 0 {
        lock(&METRICS).counter_add(name, n);
    }
}

/// Raise the global gauge `name` to at least `v`.
pub fn gauge_max(name: &str, v: u64) {
    lock(&METRICS).gauge_max(name, v);
}

/// Record one observation into the global histogram `name`.
pub fn histogram_observe(name: &str, edges: &[u64], value: u64) {
    lock(&METRICS).histogram_observe(name, edges, value);
}

/// Merge a locally accumulated histogram into the global one.
pub fn histogram_merge(name: &str, hist: &BucketHistogram) {
    if hist.total > 0 {
        lock(&METRICS).histogram_merge(name, hist);
    }
}

/// A point-in-time copy of the global metrics. Use
/// [`MetricsSet::since`] on two snapshots for per-target deltas.
pub fn metrics_snapshot() -> MetricsSet {
    lock(&METRICS).clone()
}

// ---------------------------------------------------------------------
// Derived metrics
// ---------------------------------------------------------------------

static DERIVE_ON: AtomicBool = AtomicBool::new(false);
static DERIVE: Mutex<Option<DeriveSet>> = Mutex::new(None);

/// Start (or restart) online derivation: every subsequent [`record`]
/// is also fed through a fresh [`DeriveSet`]. The experiments binary
/// calls this per target so each report gets its own derived block.
pub fn derive_reset() {
    hand_over_thread();
    *lock_counted(&DERIVE) = Some(DeriveSet::new());
    DERIVE_ON.store(true, Ordering::Relaxed);
}

/// Stop online derivation and drop the accumulated state.
pub fn derive_clear() {
    hand_over_thread();
    DERIVE_ON.store(false, Ordering::Relaxed);
    *lock_counted(&DERIVE) = None;
}

/// Summarize the records derived since [`derive_reset`], or `None`
/// when derivation is not running. The summary is integer-only and
/// order-independent, so it is byte-identical at any worker count.
pub fn derive_summary() -> Option<DerivedSummary> {
    hand_over_thread();
    lock_counted(&DERIVE).as_ref().map(DeriveSet::summary)
}

// ---------------------------------------------------------------------
// Progress (stderr-only; never part of deterministic output)
// ---------------------------------------------------------------------

static PROGRESS_ON: AtomicBool = AtomicBool::new(false);
static PROGRESS_EVENTS: AtomicU64 = AtomicU64::new(0);
static PROGRESS_SIM_NS: AtomicU64 = AtomicU64::new(0);
static PROGRESS_JOBS_DONE: AtomicU64 = AtomicU64::new(0);
static PROGRESS_JOBS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Turn the progress counters on or off. Publishers check this once
/// per batch, so the cost with the flag down is one relaxed load.
pub fn progress_set_enabled(on: bool) {
    PROGRESS_ON.store(on, Ordering::Relaxed);
}

/// True when progress counters are being collected.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS_ON.load(Ordering::Relaxed)
}

/// Add a batch of processed events and advanced simulated time.
/// Publishers batch (the sim loop flushes every few thousand events) —
/// never call this per event.
pub fn progress_add(events: u64, sim_ns: u64) {
    PROGRESS_EVENTS.fetch_add(events, Ordering::Relaxed);
    PROGRESS_SIM_NS.fetch_add(sim_ns, Ordering::Relaxed);
}

/// Reset the counters and set the total job count for the coming run.
pub fn progress_start(total_jobs: u64) {
    PROGRESS_EVENTS.store(0, Ordering::Relaxed);
    PROGRESS_SIM_NS.store(0, Ordering::Relaxed);
    PROGRESS_JOBS_DONE.store(0, Ordering::Relaxed);
    PROGRESS_JOBS_TOTAL.store(total_jobs, Ordering::Relaxed);
}

/// Mark one job complete.
pub fn progress_job_done() {
    PROGRESS_JOBS_DONE.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot `(events, sim_ns, jobs_done, jobs_total)`.
pub fn progress_snapshot() -> (u64, u64, u64, u64) {
    (
        PROGRESS_EVENTS.load(Ordering::Relaxed),
        PROGRESS_SIM_NS.load(Ordering::Relaxed),
        PROGRESS_JOBS_DONE.load(Ordering::Relaxed),
        PROGRESS_JOBS_TOTAL.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Append `r` as one JSONL trace line, newline included: the record
/// shape `experiments trace` reads back.
pub fn push_record_line(out: &mut String, r: &Record) {
    out.push_str("{\"scope\":");
    json::push_str(out, &r.scope);
    out.push_str(",\"series\":");
    json::push_str(out, r.series);
    let _ = write!(out, ",\"key\":{},\"t\":", r.key);
    json::push_num(out, r.t);
    out.push_str(",\"v\":");
    json::push_num(out, r.value);
    // The shard tag is emitted only when present, so traces from
    // monolithic runs stay byte-identical to pre-tagging output.
    if let Some(sh) = r.shard {
        let _ = write!(out, ",\"shard\":{sh}");
    }
    out.push_str("}\n");
}

fn write_records_jsonl(path: &Path, records: &[Record]) -> io::Result<usize> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut line = String::new();
    for r in records {
        line.clear();
        push_record_line(&mut line, r);
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(records.len())
}

/// Dump the flight-recorder window (newest [`FLIGHT_CAP`] records,
/// arrival order) as JSONL. Returns the record count.
pub fn write_flight_jsonl(path: &Path) -> io::Result<usize> {
    write_records_jsonl(path, &flight_snapshot())
}

/// Write the full trace (see [`trace_reset`]) as JSONL, sorted
/// for determinism as described on [`trace_snapshot_sorted`]. Returns
/// the record count.
pub fn write_trace_jsonl(path: &Path) -> io::Result<usize> {
    write_records_jsonl(path, &trace_snapshot_sorted())
}

/// Chain a panic hook that dumps the flight recorder to `path` before
/// the default handler runs, so audit violations (which panic) and
/// scenario panics leave the telemetry window that preceded them on
/// disk. Installs at most once per process; later calls are no-ops.
pub fn install_flight_dump_on_panic(path: PathBuf) {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(move || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // The snapshot hands the panicking thread's sink over first
            // (unless the panic came from inside `record`), so the dump
            // ends with the failing job's newest records.
            match write_flight_jsonl(&path) {
                Ok(n) => eprintln!("flight recorder: dumped {n} records to {}", path.display()),
                Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::Attach;

    /// The full trace is one process-wide sink: the tests that reset it
    /// take turns.
    static FULL_TRACE_SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn full_trace_sink() -> std::sync::MutexGuard<'static, ()> {
        FULL_TRACE_SINK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn tap_requires_enabled_flag() {
        let on = Attach {
            telemetry: true,
            audit: false,
        };
        let tap = {
            let _on = on.enter();
            let _off = Attach::default().enter();
            assert_eq!(
                Tap::attach_if(Attach::current().telemetry, "test/tap_gate", 9),
                None
            );
            assert_eq!(Attach::current(), Attach::default());
            drop(_off);
            assert_eq!(Attach::current(), on);
            Tap::attach_if(Attach::current().telemetry, "test/tap_gate", 9).expect("attached")
        };
        tap.record(1.0, 2.0);
        let found = flight_snapshot()
            .iter()
            .any(|r| r.series == "test/tap_gate" && r.key == 9 && r.value == 2.0);
        assert!(found);
    }

    #[test]
    fn full_trace_sorted_deterministically() {
        let _sink = full_trace_sink();
        trace_reset();
        {
            let _s = scoped("job-b");
            record("test/sorted", 1, 0.5, 5.0);
        }
        {
            let _s = scoped("job-a");
            record("test/sorted", 1, 0.25, 2.5);
            record("test/sorted", 1, 0.75, 7.5);
        }
        let trace: Vec<Record> = trace_snapshot_sorted()
            .into_iter()
            .filter(|r| r.series == "test/sorted")
            .collect();
        let scopes: Vec<&str> = trace.iter().map(|r| &*r.scope).collect();
        assert_eq!(scopes, vec!["job-a", "job-a", "job-b"]);
        // Within a scope, publication order survives the stable sort.
        assert_eq!(trace[0].t, 0.25);
        assert_eq!(trace[1].t, 0.75);
        trace_clear();
        assert!(trace_snapshot_sorted().is_empty());
    }

    #[test]
    fn scope_guard_restores_previous() {
        let _outer = scoped("outer");
        assert_eq!(&*current_scope(), "outer");
        {
            let _inner = scoped("inner");
            assert_eq!(&*current_scope(), "inner");
        }
        assert_eq!(&*current_scope(), "outer");
    }

    #[test]
    fn metrics_flow_through_registry() {
        let before = metrics_snapshot();
        counter_add("test/ctr", 3);
        counter_add("test/ctr", 4);
        gauge_max("test/gauge", 5);
        gauge_max("test/gauge", 2);
        histogram_observe("test/hist", &RTT_EDGES_NS, 1_500_000);
        let delta = metrics_snapshot().since(&before);
        assert_eq!(delta.get("test/ctr"), Some(&MetricValue::Counter(7)));
        assert_eq!(delta.get("test/gauge"), Some(&MetricValue::Gauge(5)));
        match delta.get("test/hist") {
            Some(MetricValue::Histogram(h)) => assert!(h.total >= 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn writers_emit_valid_lines() {
        let _sink = full_trace_sink();
        trace_reset();
        record("test/writer", 3, 1.5, 0.25);
        let dir = std::env::temp_dir();
        let flight = dir.join("pert_test_flight.jsonl");
        let trace = dir.join("pert_test_trace.jsonl");
        assert!(write_flight_jsonl(&flight).unwrap() >= 1);
        assert!(write_trace_jsonl(&trace).unwrap() >= 1);
        let line = std::fs::read_to_string(&trace)
            .unwrap()
            .lines()
            .find(|l| l.contains("\"series\":\"test/writer\""))
            .map(str::to_owned)
            .expect("record present");
        assert!(line.contains("\"key\":3"));
        assert!(line.contains("\"t\":1.5"));
        assert!(line.contains("\"v\":0.25"));
        for p in [flight, trace] {
            let _ = std::fs::remove_file(p);
        }
        trace_clear();
    }

    #[test]
    fn panic_dump_leaves_flight_window_on_disk() {
        record("test/panic_dump", 7, 2.0, 42.0);
        let path = std::env::temp_dir().join("pert_test_panic_flight.jsonl");
        let _ = std::fs::remove_file(&path);
        install_flight_dump_on_panic(path.clone());
        // An audit violation panics; any panic must leave the preceding
        // telemetry window on disk before the default handler runs.
        let _ = std::panic::catch_unwind(|| panic!("induced violation"));
        let body = std::fs::read_to_string(&path).expect("dump written");
        assert!(body.contains("\"series\":\"test/panic_dump\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn derive_hook_feeds_recorded_samples() {
        derive_reset();
        // Series no other test in this process emits, so the counts
        // below are exact even with tests running concurrently.
        record("queue/final_offered", 0, 0.0, 400.0);
        record("queue/final_dropped", 0, 0.0, 10.0);
        record("tcp/acked_final", 1, 0.0, 30.0);
        record("tcp/acked_final", 2, 0.0, 30.0);
        let s = derive_summary().expect("derivation running");
        let l = s.loss.expect("loss ingested");
        assert_eq!(l.offered, 400);
        assert_eq!(l.dropped, 10);
        assert_eq!(l.drop_bp, 250);
        let f = s.fairness.expect("fairness ingested");
        assert_eq!(f.flows, 2);
        assert_eq!(f.jain_max_milli, 1_000);
        derive_clear();
        assert!(derive_summary().is_none());
    }

    #[test]
    fn progress_counters_accumulate() {
        progress_set_enabled(true);
        progress_start(4);
        progress_add(1_000, 500_000);
        progress_add(500, 250_000);
        progress_job_done();
        let (events, sim_ns, done, total) = progress_snapshot();
        assert!(events >= 1_500);
        assert!(sim_ns >= 750_000);
        assert!(done >= 1);
        assert_eq!(total, 4);
        progress_set_enabled(false);
    }

    #[test]
    fn shard_tag_flows_into_records_and_dumps() {
        {
            let _g = shard_scoped(3);
            record("test/shard_tag", 1, 0.0, 1.0);
        }
        record("test/shard_tag", 2, 0.0, 2.0);
        let recs: Vec<Record> = flight_snapshot()
            .into_iter()
            .filter(|r| r.series == "test/shard_tag")
            .collect();
        assert!(recs.iter().any(|r| r.key == 1 && r.shard == Some(3)));
        assert!(recs.iter().any(|r| r.key == 2 && r.shard.is_none()));
        let path = std::env::temp_dir().join("pert_test_shard_tag.jsonl");
        write_flight_jsonl(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let tagged = body
            .lines()
            .find(|l| l.contains("\"series\":\"test/shard_tag\",\"key\":1"))
            .expect("tagged record present");
        assert!(tagged.trim_end().ends_with("\"shard\":3}"));
        let untagged = body
            .lines()
            .find(|l| l.contains("\"series\":\"test/shard_tag\",\"key\":2"))
            .expect("untagged record present");
        assert!(!untagged.contains("\"shard\":"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn json_escaping() {
        let mut line = String::new();
        let r = Record {
            scope: Arc::from("a\"b\\c\nd"),
            series: "s",
            key: 3,
            t: f64::NAN,
            value: 0.5,
            shard: None,
        };
        push_record_line(&mut line, &r);
        assert_eq!(
            line,
            "{\"scope\":\"a\\\"b\\\\c\\nd\",\"series\":\"s\",\"key\":3,\"t\":null,\"v\":0.5}\n"
        );
    }
}
