//! Telemetry integration: taps attached to a real figure's simulations
//! publish the paper's signals, the metrics registry merges per-job
//! flushes deterministically whatever the worker count, and the mode
//! matrix (workers × shards × telemetry, plus an audited run) changes no
//! byte it must not.
//!
//! Each run says how it is built with the `SimConfig` its jobs carry; no
//! test writes process state. The metrics registry, the derive state,
//! the full trace and the audit counters are process-wide sinks, so the
//! tests that read them take turns on `SINKS`.
//!
//! The CC zoo's two checks live here for that lock: per competitor axis
//! an audited mixed-competition run is clean with its reference oracles
//! live, and an attached one reports the CC derived block.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use experiments::common::Scale;
use experiments::mix::CcAxis;
use experiments::report::{reports_to_csv, reports_to_json, Report};
use experiments::runner::{run_jobs, Job};
use experiments::scenario::{lookup, lookup_with, run_target};
use netsim::SimConfig;
use pert_core::{telemetry, Attach};
use sim_stats::MetricsSet;

static SINKS: Mutex<()> = Mutex::new(());

fn sinks() -> MutexGuard<'static, ()> {
    SINKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monolithic, taps attached, not audited.
const ATTACHED: SimConfig = SimConfig {
    shards: 1,
    attach: Attach {
        telemetry: true,
        audit: false,
    },
};

/// `target` at quick scale and its default seed, run as the binary runs
/// it with `config` on `workers` threads.
fn run(target: &str, config: SimConfig, workers: usize) -> Report {
    let sc = lookup(target).expect("known target");
    let report = run_target(
        &*sc,
        Scale::Quick,
        sc.default_seed(),
        config,
        workers,
        false,
    );
    telemetry::derive_clear();
    report
}

/// Run fig6 at Quick scale attached on `workers` threads and return the
/// metrics delta that run contributed to the global registry.
fn fig6_metrics_with_workers(workers: usize) -> MetricsSet {
    run("fig6", ATTACHED, workers).metrics.expect("attached")
}

#[test]
fn fig6_metrics_merge_identically_across_worker_counts() {
    let _g = sinks();
    let m1 = fig6_metrics_with_workers(1);
    let m4 = fig6_metrics_with_workers(4);

    // Identical simulations flush identical integer metrics, and the
    // merge is commutative — so the thread interleaving of the 4-worker
    // pool must be invisible.
    assert!(!m1.is_empty(), "telemetry run produced no metrics");
    assert_eq!(m1, m4, "metrics diverged between --jobs 1 and --jobs 4");

    // The simulator and TCP flushes both arrived.
    for name in [
        "sim/events",
        "sim/timers_scheduled",
        "queue/enqueued",
        "queue/peak_len",
        "tcp/acked_segments",
        "tcp/rtt_ns",
    ] {
        assert!(m1.get(name).is_some(), "metric {name} missing: {m1:?}");
    }

    // A link departure nobody waits for is never scheduled, only counted:
    // the events that fire plus the elided ones are the events of an
    // always-scheduled departure — fig6 quick's count from before
    // departures went lazy.
    let counter = |name: &str| match m1.get(name) {
        Some(sim_stats::MetricValue::Counter(n)) => *n,
        other => panic!("{name} is not a counter: {other:?}"),
    };
    let (events, elided) = (counter("sim/events"), counter("sim/ev_departure_elided"));
    assert_eq!((events, elided), (2_645_126, 1_873_793));
    assert_eq!(events + elided, 4_518_919);
}

/// Run fig6 at Quick scale attached on `workers` threads and return the
/// derived summary reduced online from that run's tap records.
fn fig6_derived_with_workers(workers: usize) -> sim_stats::DerivedSummary {
    run("fig6", ATTACHED, workers)
        .derived
        .expect("derivation was running")
}

/// Re-render compact JSON of objects, arrays, strings without escapes
/// and integers the way `jq -S .` prints it: keys sorted, two-space
/// indent, one element per line, a final newline.
fn jq_sorted(json: &str) -> String {
    enum Value {
        Object(Vec<(String, Value)>),
        Array(Vec<Value>),
        Atom(String),
    }
    fn parse(s: &[u8], i: &mut usize) -> Value {
        let list_end = |s: &[u8], i: &mut usize, close: u8| {
            let done = s[*i] == close;
            *i += usize::from(done || s[*i] == b',');
            done
        };
        match s[*i] {
            open @ (b'{' | b'[') => {
                *i += 1;
                let (mut fields, mut items) = (Vec::new(), Vec::new());
                while !list_end(s, i, open + 2) {
                    if open == b'{' {
                        let Value::Atom(key) = parse(s, i) else {
                            panic!("object key at byte {i}");
                        };
                        assert_eq!(s[*i], b':', "after key {key}");
                        *i += 1;
                        fields.push((key, parse(s, i)));
                    } else {
                        items.push(parse(s, i));
                    }
                }
                if open == b'{' {
                    fields.sort_by(|a, b| a.0.cmp(&b.0));
                    Value::Object(fields)
                } else {
                    Value::Array(items)
                }
            }
            first => {
                // A string runs to its closing quote, a number to the next
                // delimiter.
                let start = *i;
                let find = |from: usize, stop: &[u8]| {
                    let len = s[from..].iter().position(|c| stop.contains(c));
                    from + len.expect("unterminated value")
                };
                *i = match first {
                    b'"' => find(start + 1, b"\"") + 1,
                    _ => find(start, b",]}"),
                };
                Value::Atom(String::from_utf8(s[start..*i].to_vec()).unwrap())
            }
        }
    }
    fn print(v: &Value, depth: usize, out: &mut String) {
        let pad = |n| "  ".repeat(n);
        let (open, close, len) = match v {
            Value::Atom(a) => return out.push_str(a),
            Value::Object(f) => ('{', '}', f.len()),
            Value::Array(a) => ('[', ']', a.len()),
        };
        out.push(open);
        for k in 0..len {
            out.push_str(if k == 0 { "\n" } else { ",\n" });
            out.push_str(&pad(depth + 1));
            match v {
                Value::Object(f) => {
                    out.push_str(&format!("{}: ", f[k].0));
                    print(&f[k].1, depth + 1, out);
                }
                Value::Array(a) => print(&a[k], depth + 1, out),
                Value::Atom(_) => unreachable!(),
            }
        }
        if len > 0 {
            out.push('\n');
            out.push_str(&pad(depth));
        }
        out.push(close);
    }
    let mut out = String::new();
    print(&parse(json.as_bytes(), &mut 0), 0, &mut out);
    out.push('\n');
    out
}

/// The check CI's `observatory` job does in shell (`jq -S '.[0].derived'`
/// diffed against the golden file): fig6 quick's derived summary has not
/// moved by a byte.
#[test]
fn fig6_quick_derived_matches_the_golden_file() {
    let _g = sinks();

    let golden = include_str!("../../../ci/golden/fig6_quick_derived.json");
    assert_eq!(jq_sorted(r#"{"b":[],"a":{"y":[{"k":-1},2],"x":"s"}}"#), {
        "{\n  \"a\": {\n    \"x\": \"s\",\n    \"y\": [\n      {\n        \"k\": -1\n      },\n      2\n    ]\n  },\n  \"b\": []\n}\n"
    });
    let derived = jq_sorted(&fig6_derived_with_workers(2).render_json());
    if let Some((n, (got, want))) = (1..)
        .zip(derived.lines().zip(golden.lines()))
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {n} of ci/golden/fig6_quick_derived.json: got {got:?}, want {want:?}");
    }
    assert_eq!(derived, golden);
}

#[test]
fn fig6_derived_summary_is_identical_across_worker_counts() {
    let _g = sinks();

    let d1 = fig6_derived_with_workers(1);
    let d4 = fig6_derived_with_workers(4);

    // The derive reducers are integer-only and commutative, so the
    // 4-worker interleaving must be invisible — the summaries (and
    // therefore the rendered report section) are equal field by field.
    assert!(!d1.is_empty(), "derived run produced nothing");
    assert_eq!(d1, d4, "derived metrics diverged between 1 and 4 workers");

    // fig6 exercises every reducer: PERT publishes qdelay and response
    // signals, links transmit (utilization), queues see offered load,
    // and TCP flows finish with positive throughput (fairness).
    let q = d1.qdelay.expect("no qdelay CDF");
    assert!(q.samples > 0);
    assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us);
    let u = d1.util.expect("no utilization windows");
    assert!(u.windows > 0);
    assert!(u.mean_bp <= 10_000);
    let l = d1.loss.expect("no loss totals");
    assert!(l.offered > 0);
    assert!(l.dropped <= l.offered);
    let f = d1.fairness.expect("no fairness summary");
    assert!(f.flows > 0);
    assert!(f.jain_min_milli <= f.jain_mean_milli && f.jain_mean_milli <= f.jain_max_milli);
    assert!(f.jain_max_milli <= 1000);
    let p = d1.pert.expect("no PERT response summary");
    assert!(p.active_us > 0);

    let mut text = String::new();
    d1.render_text_into(&mut text);
    assert!(text.contains("derived metrics:"), "{text}");
}

/// A trace record with its scope as the job labelled it.
type Traced = (String, &'static str, u64, f64, f64, Option<u32>);

/// Run fig6's 5 Mbps points (all four schemes, a tenth of the figure's
/// records) with every job label prefixed by `run`, so the one full
/// trace of this process keeps the runs apart.
fn run_fig6_5mbps(run: &str, workers: usize, shards: usize) {
    let sc = lookup("fig6").expect("known target");
    let mut jobs = sc.points(Scale::Quick, sc.default_seed());
    jobs.retain(|j| j.label.contains("/5Mbps/"));
    assert_eq!(jobs.len(), 4, "fig6 quick has four 5 Mbps points");
    for j in &mut jobs {
        j.label = format!("{run}:{}", j.label);
        j.config = SimConfig { shards, ..ATTACHED };
    }
    drop(run_jobs(jobs, workers));
}

/// Panic naming the first `(scope, series, key, t)` where two traces
/// part ways.
fn assert_same_trace(what: &str, a: &[Traced], b: &[Traced]) {
    if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| x != y) {
        panic!("{what}: traces diverge at {x:?} vs {y:?}");
    }
    assert_eq!(
        a.len(),
        b.len(),
        "{what}: one trace is a prefix of the other"
    );
}

#[test]
fn full_trace_is_equal_across_workers_and_shards() {
    let _g = sinks();
    telemetry::trace_reset();
    run_fig6_5mbps("w1", 1, 1);
    run_fig6_5mbps("w4", 4, 1);
    run_fig6_5mbps("s2", 2, 2);
    let sorted = telemetry::trace_snapshot_sorted();
    telemetry::trace_clear();

    let of_run = |run: &str| of_run(&sorted, run);
    let w1 = of_run("w1");
    assert!(w1.len() > 50_000, "only {} records traced", w1.len());
    assert_same_trace("workers 1 vs 4", &w1, &of_run("w4"));

    // A sharded run adds the shard/* series and the shard tag, and moves
    // every other series from the job's thread (warm-up) to the shard
    // workers and back (final records) without reordering one of them.
    let mut s2 = of_run("s2");
    assert!(s2.iter().any(|r| r.5.is_some()), "no job ran sharded");
    s2.retain(|r| !r.1.starts_with("shard/"));
    s2.iter_mut().for_each(|r| r.5 = None);
    assert_same_trace("shards 1 vs 2", &w1, &s2);
}

/// The records of the full trace `sorted` whose job label starts with
/// `run`, with that prefix cut off.
fn of_run(sorted: &[telemetry::Record], run: &str) -> Vec<Traced> {
    let mine = |r: &&telemetry::Record| r.scope.starts_with(run);
    let traced = |r: &telemetry::Record| {
        let scope = r.scope[run.len() + 1..].to_owned();
        (scope, r.series, r.key, r.t, r.value, r.shard)
    };
    sorted.iter().filter(mine).map(traced).collect()
}

/// Nothing a shard worker publishes reads a clock, so an attached
/// sharded run is as deterministic as its report: the whole trace —
/// `shard/*` series and shard tags included — and the derived summary
/// are the same at any worker count.
#[test]
fn attached_sharded_output_is_equal_across_workers() {
    let _g = sinks();
    telemetry::trace_reset();
    let derived = |run: &str, workers: usize| {
        telemetry::derive_reset();
        run_fig6_5mbps(run, workers, 2);
        let summary = telemetry::derive_summary().expect("derivation was running");
        telemetry::derive_clear();
        let mut text = String::new();
        summary.render_text_into(&mut text);
        (text, summary.render_json())
    };
    let d1 = derived("a1", 1);
    let d2 = derived("a2", 2);
    let sorted = telemetry::trace_snapshot_sorted();
    telemetry::trace_clear();

    assert!(d1.0.contains("  shards: n=2 "), "{}", d1.0);
    assert_eq!(d1, d2, "derived summary differs between workers 1 and 2");
    let a1 = of_run(&sorted, "a1");
    assert!(
        a1.iter().any(|r| r.1.starts_with("shard/")),
        "no shard series"
    );
    assert_same_trace("sharded, workers 1 vs 2", &a1, &of_run(&sorted, "a2"));
}

#[test]
fn panicking_job_keeps_the_other_jobs_telemetry() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::channel;

    let _g = sinks();
    let dump = std::env::temp_dir().join("pert_test_panicking_job_flight.jsonl");
    let _ = std::fs::remove_file(&dump);
    telemetry::install_flight_dump_on_panic(dump.clone());
    telemetry::derive_reset();

    let offered = |n: f64| telemetry::record("queue/final_offered", 0, 0.0, n);
    let (started_tx, started_rx) = channel::<()>();
    let (boom_tx, boom_rx) = channel::<()>();
    let jobs = vec![
        Job::new("panic/done", move || offered(100.0)),
        // Publishes, then panics once `panic/bystander` is running.
        Job::new("panic/boom", move || {
            let _dropped_by_the_unwind = boom_tx;
            telemetry::record("queue/final_dropped", 0, 0.0, 7.0);
            telemetry::record("test/boom_last", 1, 2.5, 42.0);
            started_rx.recv().unwrap();
            panic!("induced job failure");
        }),
        // Holds unhanded-over records while the other job panics, and
        // finishes only after the panic hook has run.
        Job::new("panic/bystander", move || {
            offered(100.0);
            started_tx.send(()).unwrap();
            assert!(boom_rx.recv().is_err(), "boom never sends");
        }),
    ];
    let err = catch_unwind(AssertUnwindSafe(|| run_jobs(jobs, 2))).err();
    assert!(err.is_some(), "the job's panic was swallowed");

    let loss = telemetry::derive_summary().and_then(|s| s.loss);
    telemetry::derive_clear();
    let loss = loss.expect("the finished jobs' records were derived");
    assert_eq!((loss.offered, loss.dropped), (200, 7));

    let body = std::fs::read_to_string(&dump).expect("the panic hook dumped the flight window");
    let last = body.lines().last().expect("the dump has records");
    assert!(
        last.contains("\"scope\":\"panic/boom\",\"series\":\"test/boom_last\""),
        "the dump ends with {last}"
    );
    let _ = std::fs::remove_file(dump);
}

#[test]
fn fig6_taps_publish_the_papers_signals() {
    let _g = sinks();

    let sc = lookup("fig6").expect("known target");
    let seed = sc.default_seed();
    // The flight recorder keeps only the newest FLIGHT_CAP records, and
    // the non-PERT comparison schemes publish enough tcp/queue samples
    // to evict an earlier job's window — so run just the PERT points.
    let mut jobs = sc.points(Scale::Quick, seed);
    jobs.retain(|j| j.label.ends_with("/PERT"));
    jobs.iter_mut().for_each(|j| j.config = ATTACHED);
    assert!(!jobs.is_empty(), "fig6 has no PERT jobs?");
    let (results, _) = run_jobs(jobs, 2);
    drop(results);

    // Figures 5–7 of the paper plot exactly these per-ACK signals; with
    // taps attached every PERT run publishes them, alongside the queue
    // and TCP series.
    let flight = telemetry::flight_snapshot();
    for series in [
        "pert/srtt",
        "pert/qdelay",
        "pert/prob",
        "queue/len",
        "queue/ewma_len",
        "tcp/cwnd",
    ] {
        assert!(
            flight.iter().any(|r| r.series == series),
            "series {series} never published"
        );
    }
    // Signal sanity: srtt and the queuing-delay estimate are positive
    // times; the response probability is a probability.
    let vals = |s: &str| {
        flight
            .iter()
            .filter(|r| r.series == s)
            .map(|r| r.value)
            .collect::<Vec<_>>()
    };
    assert!(vals("pert/srtt").iter().all(|&v| v > 0.0));
    assert!(vals("pert/qdelay").iter().all(|&v| v >= 0.0));
    assert!(vals("pert/prob").iter().all(|&v| (0.0..=1.0).contains(&v)));
}

/// One cell of the mode matrix: a worker count and the config every job
/// of the cell is declared under.
#[derive(Clone, Copy)]
struct Cell {
    jobs: usize,
    config: SimConfig,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Attach { telemetry, audit } = self.config.attach;
        let (shards, jobs) = (self.config.shards, self.jobs);
        write!(
            f,
            "jobs {jobs} shards {shards} telemetry {telemetry} audit {audit}"
        )
    }
}

/// Per `(scope, series, key)` group of a full trace: record count and an
/// FNV-1a digest of its `(t, value, shard)` in publication order.
type TraceDigest = BTreeMap<(String, &'static str, u64), (usize, u64)>;

fn digest(trace: &[telemetry::Record], keep: impl Fn(&telemetry::Record) -> bool) -> TraceDigest {
    let mut groups = TraceDigest::new();
    for r in trace.iter().filter(|r| keep(r)) {
        let key = (r.scope.to_string(), r.series, r.key);
        let (n, h) = groups.entry(key).or_insert((0, 0xcbf2_9ce4_8422_2325));
        *n += 1;
        let shard = r.shard.map_or(u64::MAX, u64::from);
        for v in [r.t.to_bits(), r.value.to_bits(), shard] {
            *h = (*h ^ v).wrapping_mul(0x0100_0000_01b3);
        }
    }
    groups
}

/// What one cell wrote: the reports of fig6, mix6 and mix12 and fig6's
/// full trace, whole and without the `shard/*` series and shard tags.
struct Outputs {
    reports: Vec<Report>,
    trace: TraceDigest,
    unsharded_trace: TraceDigest,
}

fn run_cell(cell: Cell) -> Outputs {
    let tel = cell.config.attach.telemetry;
    if tel {
        telemetry::trace_reset();
    }
    let fig6 = run("fig6", cell.config, cell.jobs);
    let trace = telemetry::trace_snapshot_sorted();
    telemetry::trace_clear();
    let mut reports = vec![fig6];
    for target in ["mix6", "mix12"] {
        reports.push(run(target, cell.config, cell.jobs));
    }
    let not_shard = |r: &telemetry::Record| !r.series.starts_with("shard/");
    let mut untagged = trace.clone();
    untagged.iter_mut().for_each(|r| r.shard = None);
    Outputs {
        reports,
        trace: digest(&trace, |_| true),
        unsharded_trace: digest(&untagged, not_shard),
    }
}

/// `reports` without what telemetry and audit add: the text every cell
/// must print.
fn tables_only(reports: &[Report]) -> Vec<Report> {
    let strip = |r: &Report| Report {
        timings: Vec::new(),
        audit: None,
        metrics: None,
        derived: None,
        ..r.clone()
    };
    reports.iter().map(strip).collect()
}

fn render(reports: &[Report]) -> [String; 3] {
    let text = reports.iter().map(Report::render_text).collect();
    [text, reports_to_json(reports), reports_to_csv(reports)]
}

/// Panic naming `cell` and the first `(scope, series, key)` group where
/// `got` and `want` part ways.
fn assert_same_digest(cell: Cell, what: &str, got: &TraceDigest, want: &TraceDigest) {
    let mut pairs = got.iter().zip(want.iter());
    if let Some((g, w)) = pairs.find(|(g, w)| g != w) {
        panic!("{cell}: {what} diverges at {g:?}, want {w:?}");
    }
    assert_eq!(got.len(), want.len(), "{cell}: {what} has other groups");
}

/// The mode matrix: fig6, mix6 and mix12 at quick on jobs {1, 4} × shards
/// {1, 2} × telemetry {off, on}, plus one audited detached cell, each
/// cell's config set on its jobs. Every cell must print the same tables;
/// detached cells the same bytes (the audited one beside its audit
/// block, which must be clean); attached cells the same derived and
/// fidelity blocks (outside the shard summary) and, at one shard count,
/// the same text, JSON and trace at any worker count; and across shard
/// counts the same trace once the `shard/*` series and shard tags are
/// removed. Detached runs carry no derived or fidelity block. A failure
/// names the first cell that diverges.
#[test]
fn mode_matrix_changes_only_what_each_mode_adds() {
    let _g = sinks();
    let mut cells = Vec::new();
    for telemetry in [false, true] {
        for shards in [1, 2] {
            for jobs in [1, 4] {
                let attach = Attach {
                    telemetry,
                    audit: false,
                };
                let config = SimConfig { shards, attach };
                cells.push(Cell { jobs, config });
            }
        }
    }
    let audit = Attach {
        telemetry: false,
        audit: true,
    };
    let config = SimConfig {
        shards: 2,
        attach: audit,
    };
    cells.push(Cell { jobs: 4, config });

    let (mut tables, mut detached) = (None, None);
    // Per shard count: the first attached cell's (text, JSON, trace).
    let mut attached: BTreeMap<usize, ([String; 3], TraceDigest)> = BTreeMap::new();
    let (mut derived, mut unsharded_trace) = (None, None);
    for cell in cells {
        let out = run_cell(cell);
        let tables_now = render(&tables_only(&out.reports))[0].clone();
        let want = tables.get_or_insert_with(|| tables_now.clone());
        assert!(
            tables_now == *want,
            "{cell}: tables differ from the first cell's"
        );
        let Attach { telemetry, audit } = cell.config.attach;
        if !telemetry {
            for r in &out.reports {
                let block = r.render_text().contains("\nfidelity:");
                assert!(
                    r.derived.is_none() && !block,
                    "{cell}: {} derived",
                    r.target
                );
            }
            let reports = if audit {
                for r in &out.reports {
                    let a = r.audit.expect("an audited run counts its checks");
                    let checks = a.total_checks();
                    assert!(
                        checks > 0 && a.violations == 0,
                        "{cell}: {} {a:?}",
                        r.target
                    );
                }
                tables_only(&out.reports)
            } else {
                out.reports
            };
            let bytes = render(&reports);
            let want = detached.get_or_insert_with(|| bytes.clone());
            for (k, kind) in ["text", "JSON", "CSV"].iter().enumerate() {
                assert!(bytes[k] == want[k], "{cell}: detached {kind} differs");
            }
            continue;
        }
        assert!(
            out.trace.len() > 100,
            "{cell}: {} groups traced",
            out.trace.len()
        );
        let mut blocks: Vec<_> = out.reports.iter().map(|r| r.derived.clone()).collect();
        for d in blocks.iter_mut().flatten() {
            d.shards = None;
        }
        assert!(blocks[0].as_ref().is_some_and(|d| d.fidelity.is_some()));
        let want = derived.get_or_insert_with(|| blocks.clone());
        if let Some(k) = (0..want.len()).find(|&k| blocks[k] != want[k]) {
            let target = &out.reports[k].target;
            panic!("{cell}: {target}'s derived or fidelity block differs");
        }
        let want = unsharded_trace.get_or_insert_with(|| out.unsharded_trace.clone());
        assert_same_digest(cell, "trace without shards", &out.unsharded_trace, want);
        let bytes = render(&out.reports);
        let (want, trace) = attached
            .entry(cell.config.shards)
            .or_insert_with(|| (bytes.clone(), out.trace.clone()));
        assert!(bytes[0] == want[0], "{cell}: attached text differs");
        assert!(bytes[1] == want[1], "{cell}: attached JSON differs");
        assert_same_digest(cell, "trace", &out.trace, trace);
    }
}

/// Each competitor's window arithmetic is shadowed by its straight-line
/// reference (`CubicReference` / `BbrReference`): per axis, audited mix6
/// and mix12 at quick have no violation and ran the oracles in every
/// report (a zero count means the cross-check fell off the hot path).
#[test]
fn cc_zoo_audits_clean_with_live_oracles_per_axis() {
    let _g = sinks();
    let config = SimConfig {
        shards: 1,
        attach: Attach {
            telemetry: false,
            audit: true,
        },
    };
    for cc in [CcAxis::Cubic, CcAxis::Bbr] {
        for target in ["mix6", "mix12"] {
            let sc = lookup_with(target, cc).expect("known target");
            let r = run_target(&*sc, Scale::Quick, sc.default_seed(), config, 2, false);
            let a = r.audit.expect("an audited run counts its checks");
            assert!(
                a.violations == 0 && a.oracle_checks > 0,
                "{target} --cc {cc:?}: {a:?}"
            );
        }
    }
}

/// An attached mix12 reports the CC derived block (HyStart++ exits,
/// CUBIC epochs, BBR rounds and filters).
#[test]
fn attached_mix12_reports_cc_derived_metrics() {
    let _g = sinks();
    let derived = run("mix12", ATTACHED, 2).derived.expect("attached");
    assert!(derived.cc.is_some(), "mix12 has no CC derived block");
}
