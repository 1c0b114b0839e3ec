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
//! `truth/qdelay` window by window, annotates every window with the
//! controller regime reconstructed from `pert/response` tags, and
//! prints per-flow bias / worst divergence windows (full timeline via
//! `--csv`).
//!
//! Parsing is lossy by design: a truncated tail or an interleaved log
//! line is skipped and counted (warning on stderr) instead of sinking
//! the whole trace; only a trace with zero valid records errors out.

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
    let mut chars = line.char_indices().peekable();
    let mut scope = None;
    let mut series = None;
    let mut key = None;
    let mut t = None;
    let mut v = None;
    let mut shard = None;

    skip_ws(line, &mut chars);
    expect(line, &mut chars, '{')?;
    loop {
        skip_ws(line, &mut chars);
        if let Some(&(_, '}')) = chars.peek() {
            chars.next();
            break;
        }
        let field = parse_string(line, &mut chars)?;
        skip_ws(line, &mut chars);
        expect(line, &mut chars, ':')?;
        skip_ws(line, &mut chars);
        match field.as_str() {
            "scope" => scope = Some(parse_string(line, &mut chars)?),
            "series" => series = Some(parse_string(line, &mut chars)?),
            "key" => {
                let n = parse_number(line, &mut chars)?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(format!("key {n} is not a u64"));
                }
                key = Some(n as u64);
            }
            "t" => t = Some(parse_number_or_null(line, &mut chars)?),
            "v" => v = Some(parse_number_or_null(line, &mut chars)?),
            "shard" => {
                let n = parse_number(line, &mut chars)?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(format!("shard {n} is not a u64"));
                }
                shard = Some(n as u64);
            }
            other => return Err(format!("unexpected field {other:?}")),
        }
        skip_ws(line, &mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    Ok(TraceRecord {
        scope: scope.ok_or("missing field \"scope\"")?,
        series: series.ok_or("missing field \"series\"")?,
        key: key.ok_or("missing field \"key\"")?,
        t: t.ok_or("missing field \"t\"")?,
        v: v.ok_or("missing field \"v\"")?,
        shard,
    })
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(_line: &str, chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(_line: &str, chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_string(_line: &str, chars: &mut Chars<'_>) -> Result<String, String> {
    expect(_line, chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + c.to_digit(16).ok_or("bad \\u escape")?;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(line: &str, chars: &mut Chars<'_>) -> Result<f64, String> {
    let start = match chars.peek() {
        Some(&(i, c)) if c == '-' || c.is_ascii_digit() => i,
        other => return Err(format!("expected number, got {other:?}")),
    };
    let mut end = start;
    while let Some(&(i, c)) = chars.peek() {
        if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
            end = i + c.len_utf8();
            chars.next();
        } else {
            break;
        }
    }
    line[start..end]
        .parse::<f64>()
        .map_err(|e| format!("bad number {:?}: {e}", &line[start..end]))
}

/// `t`/`v` may be `null` (the writer emits null for non-finite floats).
fn parse_number_or_null(line: &str, chars: &mut Chars<'_>) -> Result<f64, String> {
    if let Some(&(i, 'n')) = chars.peek() {
        if line[i..].starts_with("null") {
            for _ in 0..4 {
                chars.next();
            }
            return Ok(f64::NAN);
        }
    }
    parse_number(line, chars)
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
#[derive(Clone, Debug, Default)]
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
        if let Some(s) = &self.series {
            if !r.series.contains(s.as_str()) {
                return false;
            }
        }
        if let Some(s) = &self.scope {
            if !r.scope.contains(s.as_str()) {
                return false;
            }
        }
        // NaN times (null in the file) fail any time-range filter.
        if let Some(since) = self.since {
            if r.t.is_nan() || r.t < since {
                return false;
            }
        }
        if let Some(until) = self.until {
            if r.t.is_nan() || r.t >= until {
                return false;
            }
        }
        true
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
            v_mean: if a.records == 0 {
                0.0
            } else {
                a.v_sum / a.records as f64
            },
            v_max: zero_if_unset(a.v_max),
        })
        .collect()
}

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
    #[derive(Clone, Copy, Default)]
    struct ShardAcc {
        events: u64,
        in_pkts: u64,
        out_pkts: u64,
    }
    let mut shards: BTreeMap<u64, ShardAcc> = BTreeMap::new();
    for r in records {
        if !r.series.starts_with("shard/") {
            continue;
        }
        let a = shards.entry(r.key).or_default();
        let v = if r.v.is_finite() && r.v > 0.0 {
            r.v as u64
        } else {
            0
        };
        match r.series.as_str() {
            "shard/events" => a.events += v,
            "shard/mailbox_in_pkts" => a.in_pkts += v,
            "shard/mailbox_out_pkts" => a.out_pkts += v,
            _ => {}
        }
    }
    if shards.is_empty() {
        return None;
    }

    let total_events: u128 = shards.values().map(|a| u128::from(a.events)).sum();
    let header = ["shard", "events", "share_bp", "in_pkts", "out_pkts"];
    let rows: Vec<Vec<String>> = shards
        .iter()
        .map(|(id, a)| {
            let share_bp = (u128::from(a.events) * 10_000)
                .checked_div(total_events)
                .unwrap_or(0) as u64;
            vec![
                id.to_string(),
                a.events.to_string(),
                share_bp.to_string(),
                a.in_pkts.to_string(),
                a.out_pkts.to_string(),
            ]
        })
        .collect();
    Some(format!(
        "per-shard totals:\n{}",
        render_aligned(&header, &rows)
    ))
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
/// trace: pair `pert/qdelay` flows against the scope's bottleneck
/// `truth/qdelay` link window by window (the same 10 ms bins and
/// quantization as the online reducers), annotate each window's regime
/// from the `pert/response` tags, and report per-flow bias / worst
/// divergence windows. Returns `(text report, csv body)`, or `None`
/// when no scope carries both sides of a pair.
pub fn fidelity_report(
    records: &[TraceRecord],
    flow_filter: Option<u64>,
) -> Option<(String, String)> {
    use sim_stats::derive::{agreement_ok, prob_bp, quantize_us, FIDELITY_WINDOW_US};

    type WinMap = BTreeMap<u64, (u64, u64)>; // window → (Σ, n)
    #[derive(Default)]
    struct ScopeAcc {
        truth_qd: BTreeMap<u64, WinMap>, // link → windows
        truth_p: BTreeMap<u64, WinMap>,
        est_qd: BTreeMap<u64, WinMap>, // flow → windows
        est_p: BTreeMap<u64, WinMap>,
        /// flow → window → (regime code, probability bp) of the last
        /// response in that window.
        responses: BTreeMap<u64, BTreeMap<u64, (u8, u32)>>,
    }

    let mut scopes: BTreeMap<String, ScopeAcc> = BTreeMap::new();
    for r in records {
        if r.t.is_nan() || r.v.is_nan() {
            continue;
        }
        let win = quantize_us(r.t) / FIDELITY_WINDOW_US;
        let acc = scopes.entry(r.scope.clone()).or_default();
        let add = |m: &mut BTreeMap<u64, WinMap>, key: u64, val: u64| {
            let e = m.entry(key).or_default().entry(win).or_insert((0, 0));
            e.0 += val;
            e.1 += 1;
        };
        match r.series.as_str() {
            "truth/qdelay" => add(&mut acc.truth_qd, r.key, quantize_us(r.v)),
            "truth/prob" => add(&mut acc.truth_p, r.key, prob_bp(r.v)),
            "pert/qdelay" if flow_filter.is_none_or(|f| f == r.key) => {
                add(&mut acc.est_qd, r.key, quantize_us(r.v))
            }
            "pert/prob" if flow_filter.is_none_or(|f| f == r.key) => {
                add(&mut acc.est_p, r.key, prob_bp(r.v))
            }
            "pert/response" if flow_filter.is_none_or(|f| f == r.key) => {
                acc.responses
                    .entry(r.key)
                    .or_default()
                    .insert(win, pert_core::pert::decode_response(r.v));
            }
            _ => {}
        }
    }

    let mut text = String::new();
    let mut csv = String::from("scope,flow,t_s,truth_us,est_us,err_us,regime\n");
    let mut any = false;

    for (scope, acc) in &scopes {
        // Bottleneck: the truth link with the most qdelay samples
        // (ties to the lowest id) — same rule as the online reducer.
        let Some((bkey, _)) = acc
            .truth_qd
            .iter()
            .map(|(k, w)| (*k, w.values().map(|(_, n)| n).sum::<u64>()))
            .max_by_key(|(k, n)| (*n, std::cmp::Reverse(*k)))
        else {
            continue;
        };
        if acc.est_qd.is_empty() {
            continue;
        }
        any = true;
        let mean = |m: &WinMap, w: u64| m.get(&w).map(|(s, n)| s / n);
        let truth = &acc.truth_qd[&bkey];
        let empty_p = WinMap::new();
        let truth_p = acc.truth_p.get(&bkey).unwrap_or(&empty_p);
        let t_span = (
            *truth.keys().next().unwrap(),
            *truth.keys().next_back().unwrap(),
        );
        // A window is exactly 10 ms; render times from the integer
        // window index so no float noise leaks into the report.
        let per_s = 1_000_000 / FIDELITY_WINDOW_US;
        let fmt_w = |w: u64| format!("{}.{:02}", w / per_s, (w % per_s) * 100 / per_s);
        let _ = writeln!(
            text,
            "fidelity timeline: {scope}\n  bottleneck link {bkey}: truth windows={} span=[{}s, {}s]",
            truth.len(),
            fmt_w(t_span.0),
            fmt_w(t_span.1 + 1),
        );

        for (flow, est) in &acc.est_qd {
            let (first_w, last_w) = (
                *est.keys().next().unwrap(),
                *est.keys().next_back().unwrap(),
            );
            let resp = acc.responses.get(flow);
            let first_resp = resp.and_then(|m| m.keys().next().copied());
            let mut paired = 0u64;
            let mut err_sum: i128 = 0;
            let mut errs: Vec<i64> = Vec::new();
            let mut worst: Vec<(u64, i64, u64, u64)> = Vec::new(); // (win, err, truth, est)
            let mut tallies = [0u64; 5];
            for (w, _) in truth.range(first_w.max(t_span.0)..=last_w) {
                let w = *w;
                let t_us = mean(truth, w).unwrap();
                let e_us = mean(est, w);
                let regime = if let Some((code, _)) = resp.and_then(|m| m.get(&w)) {
                    match code {
                        1 => Regime::SlowStart,
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
                if let Some(e_us) = e_us {
                    let err = e_us as i64 - t_us as i64;
                    paired += 1;
                    err_sum += i128::from(err);
                    errs.push(err.abs());
                    worst.push((w, err, t_us, e_us));
                }
                let _ = writeln!(
                    csv,
                    "{scope},{flow},{},{t_us},{},{},{}",
                    fmt_w(w),
                    e_us.map(|v| v.to_string()).unwrap_or_default(),
                    e_us.map(|v| (v as i64 - t_us as i64).to_string())
                        .unwrap_or_default(),
                    regime.name()
                );
            }
            // Agreement over the probability pair, same tolerance as
            // the online reducer.
            let (mut agree, mut agree_n) = (0u64, 0u64);
            if let Some(ep) = acc.est_p.get(flow) {
                for (w, (s, n)) in ep {
                    if let Some(t_bp) = mean(truth_p, *w) {
                        agree_n += 1;
                        agree += u64::from(agreement_ok(s / n, t_bp));
                    }
                }
            }
            let bias = if paired == 0 {
                0
            } else {
                (err_sum / i128::from(paired)) as i64
            };
            errs.sort_unstable();
            let p95 = if errs.is_empty() {
                0
            } else {
                errs[(errs.len() * 95).div_ceil(100).saturating_sub(1)]
            };
            let (ss, ca) = resp.map_or((0, 0), |m| {
                m.values()
                    .fold((0u64, 0u64), |(ss, ca), (code, _)| match code {
                        1 => (ss + 1, ca),
                        _ => (ss, ca + 1),
                    })
            });
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

fn fmt_g(x: f64) -> String {
    // Shortest-roundtrip float rendering keeps the output diff-stable.
    format!("{x}")
}

/// Render summary rows as the aligned text table.
pub fn render_summary_text(rows: &[SummaryRow]) -> String {
    let header = [
        "series", "records", "scopes", "keys", "t_min", "t_max", "v_min", "v_mean", "v_max",
    ];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.series.clone(),
                r.records.to_string(),
                r.scopes.to_string(),
                r.keys.to_string(),
                fmt_g(r.t_min),
                fmt_g(r.t_max),
                fmt_g(r.v_min),
                fmt_g(r.v_mean),
                fmt_g(r.v_max),
            ]
        })
        .collect();
    render_aligned(&header, &cells)
}

/// Render summary rows as CSV.
pub fn render_summary_csv(rows: &[SummaryRow]) -> String {
    let mut out = String::from("series,records,scopes,keys,t_min,t_max,v_min,v_mean,v_max\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            r.series,
            r.records,
            r.scopes,
            r.keys,
            fmt_g(r.t_min),
            fmt_g(r.t_max),
            fmt_g(r.v_min),
            fmt_g(r.v_mean),
            fmt_g(r.v_max)
        );
    }
    out
}

/// Render summary rows as a JSON array.
pub fn render_summary_json(rows: &[SummaryRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"series\":\"{}\",\"records\":{},\"scopes\":{},\"keys\":{},\"t_min\":{},\
             \"t_max\":{},\"v_min\":{},\"v_mean\":{},\"v_max\":{}}}",
            r.series,
            r.records,
            r.scopes,
            r.keys,
            json_num(r.t_min),
            json_num(r.t_max),
            json_num(r.v_min),
            json_num(r.v_mean),
            json_num(r.v_max)
        );
    }
    out.push_str("]\n");
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Render diff rows as the aligned text table.
pub fn render_diff_text(rows: &[DiffRow]) -> String {
    let header = ["series", "count_a", "count_b", "max_abs_delta"];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.series.clone(),
                r.count_a.to_string(),
                r.count_b.to_string(),
                fmt_g(r.max_abs_delta),
            ]
        })
        .collect();
    render_aligned(&header, &cells)
}

fn render_aligned(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[0])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect();
        out.push_str(joined.join("  ").trim_end());
        out.push('\n');
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
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

/// Run `experiments trace <args>`; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match run_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{TRACE_USAGE}");
            2
        }
    }
}

fn run_inner(args: &[String]) -> Result<i32, String> {
    let mode = args
        .first()
        .map(String::as_str)
        .ok_or("missing subcommand")?;
    match mode {
        "summarize" => {
            let mut file = None;
            let mut filters = Filters::default();
            let mut csv = None;
            let mut json = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--series" => filters.series = Some(value(args, &mut i)?),
                    "--scope" => filters.scope = Some(value(args, &mut i)?),
                    "--since" => filters.since = Some(num_value(args, &mut i)?),
                    "--until" => filters.until = Some(num_value(args, &mut i)?),
                    "--csv" => csv = Some(value(args, &mut i)?),
                    "--json" => json = Some(value(args, &mut i)?),
                    f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
                    p if file.is_none() => file = Some(p.to_string()),
                    p => return Err(format!("unexpected argument '{p}'")),
                }
                i += 1;
            }
            let file = file.ok_or("summarize needs a trace file")?;
            let records = read_trace(&file)?;
            let rows = summarize(&records, &filters);
            emit(&render_summary_text(&rows));
            emit(&format!("({} records in {file})\n", records.len()));
            if let Some(path) = csv {
                std::fs::write(&path, render_summary_csv(&rows))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("[wrote {path}]");
            }
            if let Some(path) = json {
                std::fs::write(&path, render_summary_json(&rows))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("[wrote {path}]");
            }
            Ok(0)
        }
        "diff" => {
            let mut files = Vec::new();
            let mut tol = 0.0f64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--tol" => tol = num_value(args, &mut i)?,
                    f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
                    p => files.push(p.to_string()),
                }
                i += 1;
            }
            let [a_path, b_path] = files.as_slice() else {
                return Err("diff needs exactly two trace files".into());
            };
            let a = read_trace(a_path)?;
            let b = read_trace(b_path)?;
            let rows = diff(&a, &b);
            emit(&render_diff_text(&rows));
            let bad: Vec<&DiffRow> = rows.iter().filter(|r| !r.matches(tol)).collect();
            if bad.is_empty() {
                emit(&format!(
                    "traces match ({} series, tol {tol})\n",
                    rows.len()
                ));
                Ok(0)
            } else {
                emit(&format!(
                    "{} of {} series differ (tol {tol})\n",
                    bad.len(),
                    rows.len()
                ));
                Ok(1)
            }
        }
        "shards" => {
            let file = match &args[1..] {
                [f] if !f.starts_with('-') => f,
                [] => return Err("shards needs a trace file".into()),
                [f] => return Err(format!("unknown flag '{f}'")),
                [_, p, ..] => return Err(format!("unexpected argument '{p}'")),
            };
            let records = read_trace(file)?;
            match render_shards_report(&records) {
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
            }
        }
        "fidelity" => {
            let mut file = None;
            let mut flow = None;
            let mut csv = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--flow" => {
                        let n = num_value(args, &mut i)?;
                        if n < 0.0 || n.fract() != 0.0 {
                            return Err(format!("--flow wants a flow id, got {n}"));
                        }
                        flow = Some(n as u64);
                    }
                    "--csv" => csv = Some(value(args, &mut i)?),
                    f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
                    p if file.is_none() => file = Some(p.to_string()),
                    p => return Err(format!("unexpected argument '{p}'")),
                }
                i += 1;
            }
            let file = file.ok_or("fidelity needs a trace file")?;
            let records = read_trace(&file)?;
            match fidelity_report(&records, flow) {
                Some((text, csv_body)) => {
                    emit(&text);
                    if let Some(path) = csv {
                        std::fs::write(&path, csv_body)
                            .map_err(|e| format!("writing {path}: {e}"))?;
                        eprintln!("[wrote {path}]");
                    }
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
        other => Err(format!("unknown trace subcommand '{other}'")),
    }
}

fn value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = args[*i].clone();
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn num_value(args: &[String], i: &mut usize) -> Result<f64, String> {
    let flag = args[*i].clone();
    let v = value(args, i)?;
    v.parse::<f64>()
        .map_err(|_| format!("{flag} wants a number, got '{v}'"))
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
}
