//! The `trace` subcommand: offline queries over JSONL telemetry traces.
//!
//! Operates on the files the telemetry layer writes — `--trace-out`
//! traces and flight-recorder dumps share one record shape
//! (`{"scope":...,"series":...,"key":...,"t":...,"v":...}`), so both
//! feed the same tooling:
//!
//! ```text
//! experiments trace summarize FILE [--series S] [--scope S]
//!                                  [--since T] [--until T]
//!                                  [--csv PATH] [--json PATH]
//! experiments trace diff A B [--tol X]
//! experiments trace shards FILE
//! experiments trace fidelity FILE [--flow F] [--csv PATH]
//! ```
//!
//! `summarize` prints one row per series (record count, scope/key
//! cardinality, time range, value min/mean/max) after applying the
//! filters (`--since`/`--until` keep the half-open interval
//! `[since, until)`); `--csv`/`--json` additionally write the same rows
//! to files. `diff` aligns two traces per `(scope, series, key)` group,
//! record by record, and reports the per-series maximum absolute value
//! delta — the regression-triage primitive: a reference trace diffed
//! against a fresh run pinpoints which signal moved and by how much.
//! The exit code is nonzero when any series differs beyond `--tol`
//! (default 0, since traces are deterministic). `shards` reads the
//! `shard/*` series a sharded run emits and prints the load-balance
//! view: exact per-shard event and mailbox totals. `fidelity` pairs
//! each flow's `pert/qdelay` estimates against the scope's bottleneck
//! `truth/qdelay` window by window — by the online reducers' own rule —
//! annotates every window with the controller regime reconstructed from
//! `pert/response` tags, and prints per-flow bias / worst divergence
//! windows (full timeline via `--csv`).
//!
//! Lines are read with [`sim_stats::json`], keys and shard ids as exact
//! integers. Parsing is lossy by design: a truncated tail or an
//! interleaved log line is skipped and counted (warning on stderr)
//! instead of sinking the whole trace; only a trace with zero valid
//! records errors out.

use crate::report::render_aligned;
use sim_stats::{json, DeriveSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed trace record (owned strings — the file outlives nothing).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Job label the record was published under.
    pub scope: String,
    /// Series name, `subsystem/signal`.
    pub series: String,
    /// Publisher-chosen instance key.
    pub key: u64,
    /// Simulated time, seconds.
    pub t: f64,
    /// Sample value.
    pub v: f64,
    /// Originating shard, when the record was published inside a shard
    /// worker thread (absent in monolithic runs and older traces).
    pub shard: Option<u64>,
}

/// Parse one JSONL line of the fixed record shape. Field order is
/// irrelevant; unknown fields are rejected (they would mean the file is
/// not a telemetry trace). Returns `Err` with a human-readable reason.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let (mut scope, mut series, mut key, mut t, mut v, mut shard) =
        (None, None, None, None, None, None);
    let mut p = json::Parser::new(line);
    p.object(|p, field| {
        match field {
            "scope" => scope = Some(p.str()?.into_owned()),
            "series" => series = Some(p.str()?.into_owned()),
            "key" => key = Some(p.u64()?),
            // `null` is how the writer spells a non-finite float.
            "t" => t = Some(p.f64_or_null()?),
            "v" => v = Some(p.f64_or_null()?),
            "shard" => shard = Some(p.u64()?),
            other => return Err(format!("unexpected field {other:?}")),
        }
        Ok(())
    })?;
    p.end()?;
    Ok(TraceRecord {
        scope: scope.ok_or("missing field \"scope\"")?,
        series: series.ok_or("missing field \"series\"")?,
        key: key.ok_or("missing field \"key\"")?,
        t: t.ok_or("missing field \"t\"")?,
        v: v.ok_or("missing field \"v\"")?,
        shard,
    })
}

/// Parse a whole JSONL trace file body. Blank lines are skipped.
/// Malformed lines — a truncated final write, an editor mangling, a
/// partial copy — are *skipped*, not fatal: they come back as
/// `(line number, reason)` pairs so callers can warn with a count
/// instead of refusing the whole trace.
pub fn parse_jsonl(text: &str) -> (Vec<TraceRecord>, Vec<(usize, String)>) {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(r) => out.push(r),
            Err(e) => errors.push((lineno + 1, e)),
        }
    }
    (out, errors)
}

/// Record filters shared by `summarize` (`diff` takes none: a diff must
/// see both files whole).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Filters {
    /// Keep records whose series contains this substring.
    pub series: Option<String>,
    /// Keep records whose scope contains this substring.
    pub scope: Option<String>,
    /// Keep records with `t >= since`.
    pub since: Option<f64>,
    /// Keep records with `t < until`. Together with `since` this makes
    /// `[since, until)` half-open, so adjacent windows partition a
    /// trace with no double-counted boundary records.
    pub until: Option<f64>,
}

impl Filters {
    fn keep(&self, r: &TraceRecord) -> bool {
        let has = |part: &Option<String>, s: &str| part.as_ref().is_none_or(|p| s.contains(p));
        // NaN times (null in the file) fail any time-range filter.
        has(&self.series, &r.series)
            && has(&self.scope, &r.scope)
            && self.since.is_none_or(|since| r.t >= since)
            && self.until.is_none_or(|until| r.t < until)
    }
}

/// One `summarize` output row (per series, after filtering).
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryRow {
    /// Series name.
    pub series: String,
    /// Records kept.
    pub records: u64,
    /// Distinct scopes seen.
    pub scopes: u64,
    /// Distinct keys seen.
    pub keys: u64,
    /// Earliest sample time.
    pub t_min: f64,
    /// Latest sample time.
    pub t_max: f64,
    /// Smallest value.
    pub v_min: f64,
    /// Mean value.
    pub v_mean: f64,
    /// Largest value.
    pub v_max: f64,
}

/// Summarize `records` per series after applying `filters`. Rows come
/// back in series name order (BTreeMap), so output is deterministic.
pub fn summarize(records: &[TraceRecord], filters: &Filters) -> Vec<SummaryRow> {
    struct Acc {
        records: u64,
        scopes: std::collections::BTreeSet<String>,
        keys: std::collections::BTreeSet<u64>,
        t_min: f64,
        t_max: f64,
        v_min: f64,
        v_max: f64,
        v_sum: f64,
    }
    let mut by_series: BTreeMap<String, Acc> = BTreeMap::new();
    for r in records.iter().filter(|r| filters.keep(r)) {
        let a = by_series.entry(r.series.clone()).or_insert(Acc {
            records: 0,
            scopes: Default::default(),
            keys: Default::default(),
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            v_min: f64::INFINITY,
            v_max: f64::NEG_INFINITY,
            v_sum: 0.0,
        });
        a.records += 1;
        a.scopes.insert(r.scope.clone());
        a.keys.insert(r.key);
        if r.t.is_finite() {
            a.t_min = a.t_min.min(r.t);
            a.t_max = a.t_max.max(r.t);
        }
        if r.v.is_finite() {
            a.v_min = a.v_min.min(r.v);
            a.v_max = a.v_max.max(r.v);
            a.v_sum += r.v;
        }
    }
    by_series
        .into_iter()
        .map(|(series, a)| SummaryRow {
            series,
            records: a.records,
            scopes: a.scopes.len() as u64,
            keys: a.keys.len() as u64,
            t_min: zero_if_unset(a.t_min),
            t_max: zero_if_unset(a.t_max),
            v_min: zero_if_unset(a.v_min),
            // `records` is at least one: a row exists once a record did.
            v_mean: a.v_sum / a.records as f64,
            v_max: zero_if_unset(a.v_max),
        })
        .collect()
}

/// A min/max that never saw a finite sample is still ±∞: report 0.
fn zero_if_unset(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// One `diff` output row (per series present in either trace).
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Series name.
    pub series: String,
    /// Records in the first trace.
    pub count_a: u64,
    /// Records in the second trace.
    pub count_b: u64,
    /// Maximum |v_a − v_b| over positionally aligned records (NaN pairs
    /// count as 0; a NaN against a number counts as infinity).
    pub max_abs_delta: f64,
}

impl DiffRow {
    /// True when the series matches within `tol` (counts equal, delta
    /// bounded).
    pub fn matches(&self, tol: f64) -> bool {
        self.count_a == self.count_b && self.max_abs_delta <= tol
    }
}

/// Compare two traces per series. Records are grouped by
/// `(scope, series, key)` preserving file order within each group (the
/// trace writer sorts groups but keeps publication order inside them),
/// then aligned positionally; the per-series row takes the worst delta
/// over all of that series' groups. Count mismatches surface via
/// `count_a != count_b`.
pub fn diff(a: &[TraceRecord], b: &[TraceRecord]) -> Vec<DiffRow> {
    type GroupKey = (String, String, u64);
    fn group(records: &[TraceRecord]) -> BTreeMap<GroupKey, Vec<f64>> {
        let mut m: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
        for r in records {
            m.entry((r.scope.clone(), r.series.clone(), r.key))
                .or_default()
                .push(r.v);
        }
        m
    }
    let ga = group(a);
    let gb = group(b);
    let empty: Vec<f64> = Vec::new();

    let mut rows: BTreeMap<String, DiffRow> = BTreeMap::new();
    let keys: std::collections::BTreeSet<&GroupKey> = ga.keys().chain(gb.keys()).collect();
    for k in keys {
        let va = ga.get(k).unwrap_or(&empty);
        let vb = gb.get(k).unwrap_or(&empty);
        let row = rows.entry(k.1.clone()).or_insert(DiffRow {
            series: k.1.clone(),
            count_a: 0,
            count_b: 0,
            max_abs_delta: 0.0,
        });
        row.count_a += va.len() as u64;
        row.count_b += vb.len() as u64;
        for i in 0..va.len().max(vb.len()) {
            let d = match (va.get(i), vb.get(i)) {
                (Some(x), Some(y)) => {
                    if x.is_nan() && y.is_nan() {
                        0.0
                    } else {
                        (x - y).abs()
                    }
                }
                // Length mismatch already shows in the counts; the
                // delta stays meaningful for the aligned prefix.
                _ => continue,
            };
            if d > row.max_abs_delta || d.is_nan() {
                row.max_abs_delta = if d.is_nan() { f64::INFINITY } else { d };
            }
        }
    }
    rows.into_values().collect()
}

/// Build the `trace shards` report from a parsed trace: exact per-shard
/// totals over the `shard/*` series. Returns `None` when the trace has
/// no shard records (monolithic run).
pub fn render_shards_report(records: &[TraceRecord]) -> Option<String> {
    // shard → [events, mailbox packets in, mailbox packets out]
    let mut shards: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
    for r in records.iter().filter(|r| r.series.starts_with("shard/")) {
        let a = shards.entry(r.key).or_default();
        let i = match r.series.as_str() {
            "shard/events" => 0,
            "shard/mailbox_in_pkts" => 1,
            "shard/mailbox_out_pkts" => 2,
            _ => continue,
        };
        // Saturating casts and sums: a negative count reads as 0, and a
        // doctored trace cannot wrap a total.
        let v = if r.v.is_finite() { r.v as u64 } else { 0 };
        a[i] = a[i].saturating_add(v);
    }
    if shards.is_empty() {
        return None;
    }
    let total_events = shards.values().fold(0, |t: u64, a| t.saturating_add(a[0]));
    let rows: Vec<Vec<String>> = shards
        .iter()
        .map(|(&id, &[events, ins, outs])| {
            // Rounded like the derived `shards:` line's `max_share`.
            let share_bp = sim_stats::derive::rate_bp(events, total_events);
            [id, events, share_bp, ins, outs]
                .map(|x| x.to_string())
                .to_vec()
        })
        .collect();
    let header = ["shard", "events", "share_bp", "in_pkts", "out_pkts"].map(String::from);
    let mut out = String::from("per-shard totals:\n");
    render_aligned(&mut out, &header, &rows, true);
    Some(out)
}

// ---------------------------------------------------------------------
// Fidelity timelines (trace fidelity FILE [--flow F] [--csv PATH])
// ---------------------------------------------------------------------

/// Windows a response's hold shadow extends over when annotating
/// regimes: 10 windows × 10 ms = 100 ms, a generous once-per-RTT bound
/// for the paper's RTT range.
const FID_HOLD_WINDOWS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Before the flow's first early response (startup transient).
    Start,
    /// Congestion avoidance (default steady state).
    Avoid,
    /// Slow start, tagged by the response record itself.
    SlowStart,
    /// Inside the post-response hold shadow.
    Hold,
    /// Truth flowed but the estimator published nothing — the sender
    /// was blind (loss recovery suppresses controller decisions).
    Recovery,
}

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::Start => "start",
            Regime::Avoid => "avoid",
            Regime::SlowStart => "slow-start",
            Regime::Hold => "hold",
            Regime::Recovery => "recovery",
        }
    }
}

/// Reconstruct per-flow estimator-error timelines from an attached
/// trace. The trace is replayed into a [`DeriveSet`], so each flow is
/// paired against its scope's bottleneck by the online reducers' own
/// rule ([`DeriveSet::fidelity_pairs`]); this adds only what needs the
/// whole trace: each window's regime from the `pert/response` tags, the
/// timeline CSV and per-flow worst divergence windows. Returns `(text
/// report, csv body)`, or `None` when no scope carries both sides.
pub fn fidelity_report(
    records: &[TraceRecord],
    flow_filter: Option<u64>,
) -> Option<(String, String)> {
    use sim_stats::derive::{quantize_us, FIDELITY_WINDOW_US};

    let mut set = DeriveSet::new();
    // (scope, flow) → window → (regime code, probability bp) of the last
    // response in that window.
    type ByWindow = BTreeMap<u64, (u8, u32)>;
    let mut responses: BTreeMap<(&str, u64), ByWindow> = BTreeMap::new();
    for r in records {
        let other_flow = r.series.starts_with("pert/") && flow_filter.is_some_and(|f| f != r.key);
        if r.t.is_nan() || r.v.is_nan() || other_flow {
            continue;
        }
        set.ingest(&r.scope, &r.series, r.key, r.t, r.v);
        if r.series == "pert/response" {
            let win = quantize_us(r.t) / FIDELITY_WINDOW_US;
            let by_win = responses.entry((&r.scope, r.key)).or_default();
            by_win.insert(win, pert_core::pert::decode_response(r.v));
        }
    }

    let mut text = String::new();
    let mut csv = String::from("scope,flow,t_s,truth_us,est_us,err_us,regime\n");
    let mut any = false;

    for (scope, p) in set.fidelity_pairs().filter(|(_, p)| !p.est_us.is_empty()) {
        any = true;
        let truth = &p.truth_us;
        let t_span = (truth.first()?.0, truth.last()?.0);
        // A window is exactly 10 ms; render times from the integer
        // window index so no float noise leaks into the report.
        let per_s = 1_000_000 / FIDELITY_WINDOW_US;
        let fmt_w = |w: u64| format!("{}.{:02}", w / per_s, (w % per_s) * 100 / per_s);
        let _ = writeln!(
            text,
            "fidelity timeline: {scope}\n  bottleneck link {}: truth windows={} span=[{}s, {}s]",
            p.link,
            truth.len(),
            fmt_w(t_span.0),
            fmt_w(t_span.1 + 1),
        );

        for est in p.est_us.chunk_by(|a, b| a.0 == b.0) {
            let (flow, first_w, last_w) = (est[0].0, est[0].1, est[est.len() - 1].1);
            let resp = responses.get(&(scope, flow));
            let first_resp = resp.and_then(|m| m.keys().next().copied());
            let mut worst: Vec<(u64, i64, u64, u64)> = Vec::new(); // (win, err, truth, est)
            let mut tallies = [0u64; 5];
            let span =
                truth.partition_point(|t| t.0 < first_w)..truth.partition_point(|t| t.0 <= last_w);
            for &(w, t_us) in &truth[span] {
                let e_us = est.binary_search_by_key(&w, |e| e.1).ok().map(|i| est[i].2);
                let err = e_us.map(|e| e as i64 - t_us as i64);
                let regime = if let Some((code, _)) = resp.and_then(|m| m.get(&w)) {
                    match *code {
                        pert_core::pert::REGIME_SLOW_START => Regime::SlowStart,
                        _ => Regime::Avoid,
                    }
                } else if e_us.is_none() {
                    Regime::Recovery
                } else if resp.is_some_and(|m| {
                    m.range(w.saturating_sub(FID_HOLD_WINDOWS)..w)
                        .next_back()
                        .is_some()
                }) {
                    Regime::Hold
                } else if first_resp.is_none_or(|f| w < f) {
                    Regime::Start
                } else {
                    Regime::Avoid
                };
                tallies[regime as usize] += 1;
                if let (Some(e_us), Some(err)) = (e_us, err) {
                    worst.push((w, err, t_us, e_us));
                }
                let show = |v: Option<i64>| v.map(|v| v.to_string()).unwrap_or_default();
                let (e, d) = (show(e_us.map(|e| e as i64)), show(err));
                let (t_s, name) = (fmt_w(w), regime.name());
                let _ = writeln!(csv, "{scope},{flow},{t_s},{t_us},{e},{d},{name}");
            }
            let (agree, agree_n) = p.agree.get(&flow).copied().unwrap_or_default();
            let paired = worst.len() as u64;
            let err_sum: i128 = worst.iter().map(|x| i128::from(x.1)).sum();
            let bias = err_sum.checked_div(i128::from(paired)).unwrap_or(0) as i64;
            let mut errs: Vec<i64> = worst.iter().map(|x| x.1.abs()).collect();
            errs.sort_unstable();
            let p95 = (errs.len() * 95)
                .div_ceil(100)
                .checked_sub(1)
                .map_or(0, |i| errs[i]);
            let ss = resp.map_or(0, |m| m.values().filter(|(code, _)| *code == 1).count());
            let ca = resp.map_or(0, BTreeMap::len) - ss;
            let _ = writeln!(
                text,
                "  flow {flow}: paired={paired} bias={bias}us abs_p95={p95}us \
                 agree={agree}/{agree_n} responses={} (slow-start={ss} avoid={ca}) \
                 regimes start={} avoid={} slow-start={} hold={} recovery={}",
                ss + ca,
                tallies[Regime::Start as usize],
                tallies[Regime::Avoid as usize],
                tallies[Regime::SlowStart as usize],
                tallies[Regime::Hold as usize],
                tallies[Regime::Recovery as usize],
            );
            worst.sort_by_key(|(w, err, _, _)| (std::cmp::Reverse(err.unsigned_abs()), *w));
            for (w, err, t_us, e_us) in worst.iter().take(3) {
                let _ = writeln!(
                    text,
                    "    worst t={}s err={err}us truth={t_us}us est={e_us}us",
                    fmt_w(*w)
                );
            }
        }
    }
    any.then_some((text, csv))
}

// ---------------------------------------------------------------------
// Rendering and the subcommand driver
// ---------------------------------------------------------------------

/// The `summarize` columns, in output order.
const SUMMARY_COLUMNS: [&str; 9] = [
    "series", "records", "scopes", "keys", "t_min", "t_max", "v_min", "v_mean", "v_max",
];

impl SummaryRow {
    /// The text/CSV cells, in [`SUMMARY_COLUMNS`] order. Floats render
    /// in shortest round-trip form, which keeps the output diff-stable.
    fn cells(&self) -> Vec<String> {
        let counts = [self.records, self.scopes, self.keys].map(|n| n.to_string());
        let floats = [self.t_min, self.t_max, self.v_min, self.v_mean, self.v_max];
        let cells = [self.series.clone()].into_iter().chain(counts);
        cells.chain(floats.map(|x| x.to_string())).collect()
    }
}

/// Render summary rows as the aligned text table.
pub fn render_summary_text(rows: &[SummaryRow]) -> String {
    let cells: Vec<Vec<String>> = rows.iter().map(SummaryRow::cells).collect();
    let mut out = String::new();
    render_aligned(&mut out, &SUMMARY_COLUMNS.map(String::from), &cells, true);
    out
}

/// Render summary rows as CSV.
pub fn render_summary_csv(rows: &[SummaryRow]) -> String {
    let lines = rows.iter().map(|r| r.cells().join(",") + "\n");
    lines.fold(SUMMARY_COLUMNS.join(",") + "\n", |out, line| out + &line)
}

/// Render summary rows as a JSON array.
pub fn render_summary_json(rows: &[SummaryRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(if i > 0 {
            ",{\"series\":"
        } else {
            "{\"series\":"
        });
        json::push_str(&mut out, &r.series);
        let (records, scopes, keys) = (r.records, r.scopes, r.keys);
        let _ = write!(
            out,
            ",\"records\":{records},\"scopes\":{scopes},\"keys\":{keys}"
        );
        let floats = [r.t_min, r.t_max, r.v_min, r.v_mean, r.v_max];
        for (name, x) in SUMMARY_COLUMNS[4..].iter().zip(floats) {
            let _ = write!(out, ",\"{name}\":");
            json::push_num(&mut out, x);
        }
        out.push('}');
    }
    out.push_str("]\n");
    out
}

/// Render diff rows as the aligned text table.
pub fn render_diff_text(rows: &[DiffRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let counts = [r.count_a, r.count_b].map(|n| n.to_string());
            [r.series.clone()]
                .into_iter()
                .chain(counts)
                .chain([r.max_abs_delta.to_string()])
                .collect()
        })
        .collect();
    let header = ["series", "count_a", "count_b", "max_abs_delta"].map(String::from);
    let mut out = String::new();
    render_aligned(&mut out, &header, &cells, true);
    out
}

const TRACE_USAGE: &str = "usage: experiments trace summarize FILE [--series S] [--scope S] \
[--since T] [--until T] [--csv PATH] [--json PATH]\n\
\x20      experiments trace diff A B [--tol X]\n\
\x20      experiments trace shards FILE\n\
\x20      experiments trace fidelity FILE [--flow F] [--csv PATH]\n\
Operates on --trace-out JSONL traces and flight-recorder dumps.\n\
summarize prints per-series record counts, time ranges and value stats\n\
(--since/--until keep the half-open interval [since, until));\n\
diff aligns two traces per (scope, series, key) and reports each series'\n\
max |v_a - v_b| (exit 1 when any series differs beyond --tol);\n\
shards prints exact per-shard event and mailbox totals from a sharded\n\
run's shard/* series;\n\
fidelity reconstructs per-flow estimator-vs-truth error timelines with\n\
regime annotation and worst divergence windows from truth/* + pert/*.";

/// A parsed `experiments trace` command line.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceCmd {
    /// `summarize FILE [filters] [--csv PATH] [--json PATH]`.
    Summarize {
        /// The trace.
        file: String,
        /// `--series`, `--scope`, `--since`, `--until`.
        filters: Filters,
        /// `--csv PATH`.
        csv: Option<String>,
        /// `--json PATH`.
        json: Option<String>,
    },
    /// `diff A B [--tol X]`.
    Diff {
        /// The two traces.
        files: [String; 2],
        /// Largest per-series delta that still matches (default 0).
        tol: f64,
    },
    /// `shards FILE`.
    Shards {
        /// The trace.
        file: String,
    },
    /// `fidelity FILE [--flow F] [--csv PATH]`.
    Fidelity {
        /// The trace.
        file: String,
        /// Only this flow's estimates.
        flow: Option<u64>,
        /// `--csv PATH` for the full timeline.
        csv: Option<String>,
    },
}

/// Parse the arguments after `experiments trace`. Pure: reads no file.
pub fn parse(args: &[String]) -> Result<TraceCmd, String> {
    let (mode, rest) = args.split_first().ok_or("missing subcommand")?;
    let (takes, want_files): (&[&str], usize) = match mode.as_str() {
        "summarize" => (
            &[
                "--series", "--scope", "--since", "--until", "--csv", "--json",
            ],
            1,
        ),
        "diff" => (&["--tol"], 2),
        "shards" => (&[], 1),
        "fidelity" => (&["--flow", "--csv"], 1),
        other => return Err(format!("unknown trace subcommand '{other}'")),
    };
    let (mut files, mut flags) = (Vec::new(), BTreeMap::new());
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            f if takes.contains(&f) => {
                let v = rest.next().ok_or_else(|| format!("{f} needs a value"))?;
                flags.insert(f, v.clone());
            }
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
            p if files.len() == want_files => return Err(format!("unexpected argument '{p}'")),
            p => files.push(p.to_owned()),
        }
    }
    if files.len() < want_files {
        return Err(match want_files {
            1 => format!("{mode} needs a trace file"),
            _ => format!("{mode} needs exactly two trace files"),
        });
    }
    // NaN compares false with everything: as a bound it would keep no
    // record, as a tolerance it would fail identical series.
    let num = |flag, what, ok: fn(f64) -> bool| match parsed::<f64>(&flags, flag, what)? {
        Some(v) if !ok(v) => Err(format!("{flag} wants {what}, got '{}'", flags[flag])),
        v => Ok(v),
    };
    let time = |flag| num(flag, "a time in seconds", |t| !t.is_nan());
    let mut files = files.into_iter();
    let file = files.next().unwrap_or_default();
    Ok(match mode.as_str() {
        "summarize" => TraceCmd::Summarize {
            file,
            filters: Filters {
                series: flags.get("--series").cloned(),
                scope: flags.get("--scope").cloned(),
                since: time("--since")?,
                until: time("--until")?,
            },
            csv: flags.get("--csv").cloned(),
            json: flags.get("--json").cloned(),
        },
        "diff" => TraceCmd::Diff {
            files: [file, files.next().unwrap_or_default()],
            tol: num("--tol", "a finite tolerance >= 0", |x| {
                x.is_finite() && x >= 0.0
            })?
            .unwrap_or(0.0),
        },
        "shards" => TraceCmd::Shards { file },
        _ => TraceCmd::Fidelity {
            file,
            flow: parsed(&flags, "--flow", "a flow id")?,
            csv: flags.get("--csv").cloned(),
        },
    })
}

/// The value of `flag`, if given, parsed as a `T`.
fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, String>,
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    let parse = |v: &String| {
        v.parse()
            .map_err(|_| format!("{flag} wants {what}, got '{v}'"))
    };
    flags.get(flag).map(parse).transpose()
}

fn read_trace(path: &str) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (records, errors) = parse_jsonl(&text);
    if let Some((line, reason)) = errors.first() {
        eprintln!(
            "warning: {path}: skipped {} malformed line(s), first at line {line}: {reason}",
            errors.len()
        );
        if records.is_empty() {
            return Err(format!(
                "{path}: no valid records ({} malformed line(s))",
                errors.len()
            ));
        }
    }
    Ok(records)
}

/// Write to stdout ignoring errors: a downstream `head`/`grep -q`
/// closing the pipe early must not turn into a panic.
fn emit(s: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

/// Write `body` to an optional output file.
fn write_out(path: Option<String>, body: impl FnOnce() -> String) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(&path, body()).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("[wrote {path}]");
    Ok(())
}

/// Run `experiments trace <args>`; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match parse(args).and_then(execute) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{TRACE_USAGE}");
            2
        }
    }
}

/// Carry out a parsed command; returns the process exit code.
fn execute(cmd: TraceCmd) -> Result<i32, String> {
    match cmd {
        TraceCmd::Summarize {
            file,
            filters,
            csv,
            json,
        } => {
            let records = read_trace(&file)?;
            let rows = summarize(&records, &filters);
            emit(&render_summary_text(&rows));
            emit(&format!("({} records in {file})\n", records.len()));
            write_out(csv, || render_summary_csv(&rows))?;
            write_out(json, || render_summary_json(&rows))?;
            Ok(0)
        }
        TraceCmd::Diff { files: [a, b], tol } => {
            let rows = diff(&read_trace(&a)?, &read_trace(&b)?);
            emit(&render_diff_text(&rows));
            let bad = rows.iter().filter(|r| !r.matches(tol)).count();
            let n = rows.len();
            match bad {
                0 => emit(&format!("traces match ({n} series, tol {tol})\n")),
                _ => emit(&format!("{bad} of {n} series differ (tol {tol})\n")),
            }
            Ok(i32::from(bad > 0))
        }
        TraceCmd::Shards { file } => match render_shards_report(&read_trace(&file)?) {
            Some(report) => {
                emit(&report);
                Ok(0)
            }
            None => {
                emit(&format!(
                    "no shard/* records in {file} (monolithic run, or telemetry detached)\n"
                ));
                Ok(1)
            }
        },
        TraceCmd::Fidelity { file, flow, csv } => {
            match fidelity_report(&read_trace(&file)?, flow) {
                Some((text, csv_body)) => {
                    emit(&text);
                    write_out(csv, || csv_body)?;
                    Ok(0)
                }
                None => {
                    emit(&format!(
                        "no truth/estimate pairs in {file} (needs an attached run with \
                         truth/* and pert/* series{})\n",
                        flow.map(|f| format!(", flow {f} not found"))
                            .unwrap_or_default()
                    ));
                    Ok(1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(scope: &str, series: &str, key: u64, t: f64, v: f64) -> TraceRecord {
        TraceRecord {
            scope: scope.into(),
            series: series.into(),
            key,
            t,
            v,
            shard: None,
        }
    }

    #[test]
    fn parses_writer_shaped_lines() {
        let r = parse_line(
            r#"{"scope":"fig6/5Mbps/PERT","series":"pert/srtt","key":42,"t":1.5,"v":0.25}"#,
        )
        .unwrap();
        assert_eq!(r, rec("fig6/5Mbps/PERT", "pert/srtt", 42, 1.5, 0.25));

        // Escapes, null values, arbitrary field order, whitespace.
        let r =
            parse_line(r#"{ "v":null, "t":-2e-3, "key":0, "series":"a\"b", "scope":"" }"#).unwrap();
        assert_eq!(r.series, "a\"b");
        assert!(r.v.is_nan());
        assert_eq!(r.t, -2e-3);

        // Shard-tagged records (sharded runs append the shard field).
        let r = parse_line(
            r#"{"scope":"fig6","series":"shard/events","key":2,"t":1.0,"v":50.0,"shard":2}"#,
        )
        .unwrap();
        assert_eq!(r.shard, Some(2));
        assert!(
            parse_line(r#"{"scope":"s","series":"x","key":0,"t":0,"v":0,"shard":-1}"#).is_err()
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("{}").is_err());
        assert!(parse_line(r#"{"scope":"x"}"#).is_err());
        assert!(parse_line(r#"{"scope":1,"series":"s","key":0,"t":0,"v":0}"#).is_err());
        assert!(parse_line(r#"{"bogus":"x","scope":"s"}"#).is_err());
        let (records, errors) = parse_jsonl("{}\n");
        assert!(records.is_empty());
        assert_eq!(errors.len(), 1);
        let (records, errors) = parse_jsonl("\n\nnot json\n");
        assert!(records.is_empty());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 3, "{errors:?}");
    }

    #[test]
    fn doctored_trace_parses_lossy_with_counted_errors() {
        // A healthy trace whose tail was truncated mid-write and that
        // picked up a stray log line: the good records must survive,
        // the bad lines must be counted with their line numbers.
        let text =
            "{\"scope\":\"job/a\",\"series\":\"pert/srtt\",\"key\":3,\"t\":0.5,\"v\":0.25}\n\
                    [runner] progress: 50%\n\
                    {\"scope\":\"job/a\",\"series\":\"pert/srtt\",\"key\":3,\"t\":1.5,\"v\":0.5}\n\
                    {\"scope\":\"job/a\",\"series\":\"pert/srtt\",\"key\":3,\"t\":2.5,\"v\":0.\n";
        let (records, errors) = parse_jsonl(text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].t, 1.5);
        let lines: Vec<usize> = errors.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![2, 4], "{errors:?}");
        // The survivors are still usable downstream.
        let rows = summarize(&records, &Filters::default());
        assert_eq!(rows[0].records, 2);
    }

    #[test]
    fn summarize_filters_and_aggregates() {
        let records = vec![
            rec("a", "pert/srtt", 1, 0.5, 0.030),
            rec("a", "pert/srtt", 1, 1.5, 0.050),
            rec("b", "pert/srtt", 2, 1.0, 0.040),
            rec("a", "queue/len", 0, 1.0, 7.0),
        ];
        let all = summarize(&records, &Filters::default());
        assert_eq!(all.len(), 2);
        let srtt = &all[0];
        assert_eq!(srtt.series, "pert/srtt");
        assert_eq!((srtt.records, srtt.scopes, srtt.keys), (3, 2, 2));
        assert_eq!(srtt.t_min, 0.5);
        assert_eq!(srtt.v_max, 0.050);
        assert!((srtt.v_mean - 0.040).abs() < 1e-12);

        let filtered = summarize(
            &records,
            &Filters {
                series: Some("srtt".into()),
                scope: Some("a".into()),
                since: Some(1.0),
                until: None,
            },
        );
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].records, 1);
        assert_eq!(filtered[0].v_min, 0.050);
    }

    #[test]
    fn since_until_is_half_open() {
        // [since, until): a record exactly at `since` is kept, a
        // record exactly at `until` is not, so adjacent windows
        // partition the trace with no double counting.
        let records = vec![
            rec("a", "s", 0, 0.0, 1.0),
            rec("a", "s", 0, 5.0, 2.0),
            rec("a", "s", 0, 10.0, 3.0),
        ];
        let window = |since: f64, until: f64| {
            summarize(
                &records,
                &Filters {
                    since: Some(since),
                    until: Some(until),
                    ..Filters::default()
                },
            )
            .first()
            .map_or(0, |r| r.records)
        };
        assert_eq!(window(0.0, 5.0), 1); // t=0 in, t=5 out
        assert_eq!(window(5.0, 10.0), 1); // t=5 in, t=10 out
        assert_eq!(window(10.0, 15.0), 1); // t=10 in
        assert_eq!(window(0.0, 5.0) + window(5.0, 10.0) + window(10.0, 15.0), 3);
        assert_eq!(window(5.0, 5.0), 0); // empty interval is empty
                                         // Open-ended bounds keep their edge record.
        let since_only = summarize(
            &records,
            &Filters {
                since: Some(10.0),
                ..Filters::default()
            },
        );
        assert_eq!(since_only[0].records, 1);
        let until_only = summarize(
            &records,
            &Filters {
                until: Some(10.0),
                ..Filters::default()
            },
        );
        assert_eq!(until_only[0].records, 2);
    }

    #[test]
    fn fidelity_report_pairs_and_annotates_regimes() {
        let win = sim_stats::derive::FIDELITY_WINDOW_US as f64 / 1e6; // 10 ms
        let mut records = Vec::new();
        // Truth on link 0 over windows 0..6: 10 ms queueing delay.
        for w in 0..6 {
            records.push(rec(
                "mix/5Mbps/PERT",
                "truth/qdelay",
                0,
                w as f64 * win,
                0.010,
            ));
            records.push(rec("mix/5Mbps/PERT", "truth/prob", 0, w as f64 * win, 0.05));
        }
        // Flow 7 estimates: window 0 before any response (start), a
        // slow-start response in window 1, hold shadow afterwards; the
        // estimator goes silent in window 4 (recovery) and returns in
        // window 5 with a large error.
        records.push(rec("mix/5Mbps/PERT", "pert/qdelay", 7, 0.0, 0.011));
        records.push(rec("mix/5Mbps/PERT", "pert/qdelay", 7, win, 0.012));
        records.push(rec(
            "mix/5Mbps/PERT",
            "pert/response",
            7,
            win,
            pert_core::pert::encode_response(pert_core::pert::REGIME_SLOW_START, 0.05),
        ));
        records.push(rec("mix/5Mbps/PERT", "pert/qdelay", 7, 2.0 * win, 0.010));
        records.push(rec("mix/5Mbps/PERT", "pert/qdelay", 7, 3.0 * win, 0.010));
        records.push(rec("mix/5Mbps/PERT", "pert/qdelay", 7, 5.0 * win, 0.020));
        records.push(rec("mix/5Mbps/PERT", "pert/prob", 7, 2.0 * win, 0.05));

        let (text, csv) = fidelity_report(&records, None).unwrap();
        assert!(text.contains("bottleneck link 0"), "{text}");
        assert!(text.contains("flow 7: paired=5"), "{text}");
        // Bias: errors are +1000, +2000, 0, 0, +10000 us → +2600.
        assert!(text.contains("bias=2600us"), "{text}");
        assert!(text.contains("agree=1/1"), "{text}");
        assert!(
            text.contains("responses=1 (slow-start=1 avoid=0)"),
            "{text}"
        );
        assert!(
            text.contains("start=1 avoid=0 slow-start=1 hold=3 recovery=1"),
            "{text}"
        );
        // Worst divergence window is the 10 ms overshoot at t=50ms.
        assert!(text.contains("worst t=0.05s err=10000us"), "{text}");
        // CSV carries the full timeline including the silent window.
        assert!(csv.starts_with("scope,flow,t_s,"), "{csv}");
        assert!(
            csv.contains("mix/5Mbps/PERT,7,0.04,10000,,,recovery"),
            "{csv}"
        );
        assert!(csv.contains(",slow-start\n"), "{csv}");

        // Deterministic rendering.
        assert_eq!(fidelity_report(&records, None).unwrap().0, text);
        // --flow filtering: an absent flow yields no pairs.
        assert!(fidelity_report(&records, Some(99)).is_none());
        assert!(fidelity_report(&records, Some(7)).is_some());
        // Truth-only or estimate-only traces have nothing to pair.
        assert!(fidelity_report(&records[..2], None).is_none());
    }

    #[test]
    fn diff_of_a_trace_against_itself_is_all_zero() {
        let records = vec![
            rec("a", "pert/srtt", 1, 0.5, 0.030),
            rec("a", "pert/srtt", 1, 1.5, 0.050),
            rec("b", "queue/len", 0, 1.0, 7.0),
        ];
        let rows = diff(&records, &records);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.count_a, r.count_b);
            assert_eq!(r.max_abs_delta, 0.0);
            assert!(r.matches(0.0));
        }
    }

    #[test]
    fn diff_reports_max_delta_and_count_mismatch() {
        let a = vec![
            rec("a", "pert/srtt", 1, 0.5, 0.030),
            rec("a", "pert/srtt", 1, 1.5, 0.050),
        ];
        let b = vec![
            rec("a", "pert/srtt", 1, 0.5, 0.031),
            rec("a", "pert/srtt", 1, 1.5, 0.055),
            rec("a", "pert/qdelay", 1, 1.5, 0.1),
        ];
        let rows = diff(&a, &b);
        assert_eq!(rows.len(), 2);
        let qd = rows.iter().find(|r| r.series == "pert/qdelay").unwrap();
        assert_eq!((qd.count_a, qd.count_b), (0, 1));
        assert!(!qd.matches(1.0));
        let srtt = rows.iter().find(|r| r.series == "pert/srtt").unwrap();
        assert!((srtt.max_abs_delta - 0.005).abs() < 1e-12);
        assert!(srtt.matches(0.01));
        assert!(!srtt.matches(0.001));
    }

    #[test]
    fn round_trip_through_writer_format() {
        // The exact shape write_records_jsonl emits.
        let text =
            "{\"scope\":\"job/a\",\"series\":\"pert/srtt\",\"key\":3,\"t\":0.5,\"v\":0.25}\n\
                    {\"scope\":\"job/a\",\"series\":\"pert/srtt\",\"key\":3,\"t\":1.5,\"v\":0.5}\n";
        let (records, errors) = parse_jsonl(text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(records.len(), 2);
        let rows = diff(&records, &records);
        assert!(rows.iter().all(|r| r.matches(0.0)));
        let text_out = render_summary_text(&summarize(&records, &Filters::default()));
        assert!(text_out.contains("pert/srtt"), "{text_out}");
    }

    #[test]
    fn shards_report_exact_totals() {
        let mut records = Vec::new();
        // Two shards over two epochs.
        for (shard, t, ev) in [
            (0u64, 1.0, 30.0),
            (1, 1.0, 10.0),
            (0, 2.0, 45.0),
            (1, 2.0, 15.0),
        ] {
            records.push(rec("fig6", "shard/events", shard, t, ev));
        }
        records.push(rec("fig6", "shard/mailbox_out_pkts", 0, 2.0, 7.0));
        records.push(rec("fig6", "shard/mailbox_in_pkts", 1, 2.0, 7.0));
        let report = render_shards_report(&records).unwrap();
        let rows: Vec<Vec<&str>> = report
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Shard 0: 75 of 100 events = 7500 bp.
        assert_eq!(
            rows,
            [["0", "75", "7500", "0", "7"], ["1", "25", "2500", "7", "0"]],
            "{report}"
        );

        // A 2:1 split rounds to nearest, as the derived `max_share` does.
        let split =
            [(0u64, 2.0), (1, 1.0)].map(|(shard, ev)| rec("f", "shard/events", shard, 1.0, ev));
        let report = render_shards_report(&split).unwrap();
        let shares: Vec<&str> = report
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert_eq!(shares, ["6667", "3333"], "{report}");

        // Totals past u64::MAX saturate instead of wrapping.
        let huge = [1.0, 2.0].map(|t| rec("f", "shard/events", 0, t, 1e19));
        let report = render_shards_report(&huge).unwrap();
        assert!(report.contains(&u64::MAX.to_string()), "{report}");

        // A shard-free trace has no report.
        assert!(render_shards_report(&[rec("a", "pert/srtt", 0, 1.0, 0.1)]).is_none());
    }

    #[test]
    fn renderers_are_stable() {
        let rows = summarize(&[rec("a", "s", 0, 1.0, 2.0)], &Filters::default());
        assert_eq!(render_summary_text(&rows), render_summary_text(&rows));
        let csv = render_summary_csv(&rows);
        assert!(csv.starts_with("series,records,"));
        assert!(csv.contains("s,1,1,1,1,1,2,2,2"), "{csv}");
        let json = render_summary_json(&rows);
        assert!(
            json.starts_with("[{\"series\":\"s\",\"records\":1,"),
            "{json}"
        );
    }

    #[test]
    fn summary_json_parses_back_with_any_series_name() {
        let names = ["a\"b", "c\\d", "tab\there", "plain"];
        let records: Vec<TraceRecord> = names.iter().map(|n| rec("s", n, 0, 1.0, 2.0)).collect();
        let body = render_summary_json(&summarize(&records, &Filters::default()));
        let mut p = json::Parser::new(&body);
        let mut series = p
            .array(|p| {
                let mut name = String::new();
                p.object(|p, field| match field {
                    "series" => p.str().map(|s| name = s.into_owned()),
                    _ => p.f64_or_null().map(drop),
                })?;
                Ok(name)
            })
            .unwrap();
        p.end().unwrap();
        series.sort();
        let mut want = names.map(String::from);
        want.sort();
        assert_eq!(series, want);
    }

    #[test]
    fn keys_and_shards_round_trip_exactly_above_2_pow_53() {
        for key in [(1u64 << 53) + 1, u64::MAX - 1] {
            let mut line = String::new();
            let record = pert_core::telemetry::Record {
                scope: "job".into(),
                series: "pert/qdelay",
                key,
                t: 0.5,
                value: 0.25,
                shard: Some(u32::MAX),
            };
            pert_core::telemetry::push_record_line(&mut line, &record);
            let r = parse_line(line.trim_end()).unwrap();
            assert_eq!((r.key, r.shard), (key, Some(u64::from(u32::MAX))), "{line}");
        }
        // Neighbouring 64-bit seeds stay two flows, which an f64 detour
        // would merge into one.
        let line =
            |k: u64| format!("{{\"scope\":\"s\",\"series\":\"x\",\"key\":{k},\"t\":0,\"v\":0}}\n");
        let (records, _) = parse_jsonl(&(line(1 << 53) + &line((1 << 53) + 1)));
        assert_eq!(summarize(&records, &Filters::default())[0].keys, 2);
    }

    #[test]
    fn documented_flags_parse_and_bad_ones_do_not() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse(&args(
                "fidelity t.jsonl --flow 18446744073709551614 --csv f.csv"
            )),
            Ok(TraceCmd::Fidelity {
                file: "t.jsonl".into(),
                flow: Some(u64::MAX - 1),
                csv: Some("f.csv".into()),
            })
        );
        let diff = parse(&args("diff a b --tol 0.5")).unwrap();
        assert_eq!(
            diff,
            TraceCmd::Diff {
                files: ["a".into(), "b".into()],
                tol: 0.5
            }
        );
        for bad in [
            "",
            "bogus f",
            "summarize",
            "summarize a b",
            "summarize a --since x",
            "summarize a --since nan",
            "summarize a --until NaN",
            "diff a b --tol -1",
            "diff a b --tol nan",
            "diff a b --tol inf",
            "summarize a --flow 3",
            "diff a",
            "shards a --csv x",
            "fidelity a --flow -1",
            "fidelity a --flow 1.5",
            "fidelity a --csv",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
