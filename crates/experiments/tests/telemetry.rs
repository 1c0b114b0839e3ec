//! Telemetry integration: taps attached to a real figure's simulations
//! publish the paper's signals, and the metrics registry merges per-job
//! flushes deterministically whatever the worker count.
//!
//! The telemetry flag is process-global and attachment happens at
//! construction time, so these tests raise it once and serialize on a
//! file-local mutex; no test ever lowers the flag (other test binaries
//! run in their own processes and are unaffected).

use std::sync::Mutex;

use experiments::common::Scale;
use experiments::runner::{run_jobs, Job};
use experiments::scenario::lookup;
use pert_core::telemetry;
use sim_stats::MetricsSet;

static LOCK: Mutex<()> = Mutex::new(());

/// Run fig6 at Quick scale on `workers` threads and return the metrics
/// delta that run contributed to the global registry.
fn fig6_metrics_with_workers(workers: usize) -> MetricsSet {
    let sc = lookup("fig6").expect("known target");
    let seed = sc.default_seed();
    let before = telemetry::metrics_snapshot();
    let jobs = sc.points(Scale::Quick, seed);
    let (results, _) = run_jobs(jobs, workers);
    let _ = sc.assemble(Scale::Quick, seed, results);
    telemetry::metrics_snapshot().since(&before)
}

#[test]
fn fig6_metrics_merge_identically_across_worker_counts() {
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);

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

/// Run fig6 at Quick scale on `workers` threads and return the derived
/// summary reduced online from that run's tap records.
fn fig6_derived_with_workers(workers: usize) -> sim_stats::DerivedSummary {
    let sc = lookup("fig6").expect("known target");
    let seed = sc.default_seed();
    telemetry::derive_reset();
    let jobs = sc.points(Scale::Quick, seed);
    let (results, _) = run_jobs(jobs, workers);
    let _ = sc.assemble(Scale::Quick, seed, results);
    let summary = telemetry::derive_summary().expect("derivation was running");
    telemetry::derive_clear();
    summary
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
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);

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
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);

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

#[test]
fn flight_window_flag_bounds_the_ring() {
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    let default_cap = telemetry::flight_cap();

    let sc = lookup("fig6").expect("known target");
    let seed = sc.default_seed();
    // Smaller than one hand-over batch, and larger than one without
    // being a multiple of it.
    for window in [telemetry::FLIGHT_CAP_MIN, 2 * telemetry::BATCH + 77] {
        telemetry::set_flight_cap(window).unwrap();
        let mut jobs = sc.points(Scale::Quick, seed);
        jobs.truncate(2);
        let (results, _) = run_jobs(jobs, 1);
        drop(results);
        let flight = telemetry::flight_snapshot();
        assert_eq!(flight.len(), window, "ring does not hold the window");
    }

    telemetry::set_flight_cap(default_cap).unwrap();
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
    }
    netsim::set_default_shards(shards);
    drop(run_jobs(jobs, workers));
    netsim::set_default_shards(1);
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
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::set_full_trace(true);
    run_fig6_5mbps("w1", 1, 1);
    run_fig6_5mbps("w4", 4, 1);
    run_fig6_5mbps("s2", 2, 2);
    telemetry::set_full_trace(false);

    let sorted = telemetry::trace_snapshot_sorted();
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
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::set_full_trace(true);
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
    telemetry::set_full_trace(false);

    assert!(d1.0.contains("  shards: n=2 "), "{}", d1.0);
    assert_eq!(d1, d2, "derived summary differs between workers 1 and 2");
    let sorted = telemetry::trace_snapshot_sorted();
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

    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
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
    let _g = LOCK.lock().unwrap();
    telemetry::set_enabled(true);

    let sc = lookup("fig6").expect("known target");
    let seed = sc.default_seed();
    // The flight recorder keeps only the newest FLIGHT_CAP records, and
    // the non-PERT comparison schemes publish enough tcp/queue samples
    // to evict an earlier job's window — so run just the PERT points.
    let mut jobs = sc.points(Scale::Quick, seed);
    jobs.retain(|j| j.label.ends_with("/PERT"));
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
