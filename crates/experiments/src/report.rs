//! Structured experiment output: typed tables plus run metadata,
//! rendered to the aligned text format, JSON, and CSV.
//!
//! Every experiment target assembles its results into a [`Report`]
//! instead of printing ad-hoc tables; this module is the only place that
//! renders them. Text output is byte-identical regardless of how many
//! worker threads produced the underlying points, because rendering only
//! reads the (deterministically ordered) cells — per-point wall-clock
//! lives in [`Report::timings`] and is excluded from JSON/CSV for the
//! same reason. The paper's claims, checked by each target's `assemble`
//! on its own typed results, live in [`Report::claims`] and are never
//! rendered either; the CLI reports them on stderr
//! ([`Report::render_claims`]).

use crate::common::{fmt, Scale};
use pert_core::audit::AuditSnapshot;
use sim_stats::{json, DerivedSummary, MetricValue, MetricsSet};
use std::fmt::Write as _;

/// One typed table cell. The variant picks both the text rendering and
/// the JSON/CSV serialization (numbers stay numbers).
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Text (labels, scheme names, ASCII bars).
    Str(String),
    /// Integer count.
    Int(i64),
    /// Float, compact [`fmt`] rendering.
    Num(f64),
    /// Float with a fixed number of decimal places.
    Fixed(f64, usize),
    /// Float with Rust's default shortest rendering (`{}`).
    Plain(f64),
}

impl Cell {
    /// The text-table / CSV rendering.
    pub fn render(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(i) => format!("{i}"),
            Cell::Num(x) => fmt(*x),
            Cell::Fixed(x, d) => format!("{:.*}", *d, *x),
            Cell::Plain(x) => format!("{x}"),
        }
    }

    /// Append the JSON value (numbers unquoted; non-finite floats become
    /// null).
    fn push_json(&self, out: &mut String) {
        match self {
            Cell::Str(s) => json::push_str(out, s),
            Cell::Num(x) | Cell::Plain(x) => json::push_num(out, *x),
            Cell::Fixed(x, _) if !x.is_finite() => json::push_num(out, *x),
            Cell::Int(_) | Cell::Fixed(..) => out.push_str(&self.render()),
        }
    }
}

/// One titled table of a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Heading, e.g. `"Figure 6: impact of bottleneck bandwidth"`.
    pub title: String,
    /// A parenthetical note (usually the paper's expectation); may be
    /// empty.
    pub note: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<Cell>>,
    /// Optional trailing line (e.g. pooled sample counts).
    pub footer: Option<String>,
}

impl Table {
    /// A table with no note or footer.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            note: String::new(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            footer: None,
        }
    }

    /// Attach the parenthetical note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Append one row.
    pub fn push(&mut self, row: Vec<Cell>) {
        debug_assert_eq!(row.len(), self.columns.len(), "ragged table row");
        self.rows.push(row);
    }
}

/// Wall-clock spent on one point, seconds (stderr/bench only — never
/// serialized, so parallel and sequential runs emit identical files).
#[derive(Clone, Debug, PartialEq)]
pub struct PointTiming {
    /// The job label, e.g. `"fig6/5Mbps/PERT"`.
    pub label: String,
    /// Seconds of wall-clock.
    pub secs: f64,
}

/// One of the paper's claims about a target, checked on the typed point
/// results `assemble` reads (which hold values no table prints).
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Short `snake_case` name, unique within the target.
    pub name: &'static str,
    /// Whether the predicate held.
    pub holds: bool,
    /// The values the predicate read; formatted only when it failed, so
    /// a passing claim is empty.
    pub detail: String,
}

/// The structured result of one experiment target.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Target name (`fig6`, `table1`, ...).
    pub target: String,
    /// Scale the experiment ran at.
    pub scale: Scale,
    /// Base seed used for the runs.
    pub seed: u64,
    /// The tables, in display order.
    pub tables: Vec<Table>,
    /// Per-point wall-clock (populated by the runner; not serialized).
    pub timings: Vec<PointTiming>,
    /// Audit counters for this target (`--audit` runs only).
    pub audit: Option<AuditSnapshot>,
    /// Telemetry metrics accumulated while this target ran
    /// (`--telemetry` runs only; rendering is unchanged when absent).
    pub metrics: Option<MetricsSet>,
    /// Derived metrics (qdelay CDF, utilization, loss rates, fairness,
    /// PERT response frequency) reduced online from the tap stream
    /// while this target ran (`--telemetry` runs only). Rendered after
    /// the metrics block so the CI strip marker covers both.
    pub derived: Option<DerivedSummary>,
    /// The paper's claims, checked by `assemble` (not serialized).
    pub claims: Vec<Claim>,
}

impl Report {
    /// An empty report for `target`.
    pub fn new(target: impl Into<String>, scale: Scale, seed: u64) -> Self {
        Report {
            target: target.into(),
            scale,
            seed,
            tables: Vec::new(),
            timings: Vec::new(),
            audit: None,
            metrics: None,
            derived: None,
            claims: Vec::new(),
        }
    }

    /// Record claim `name`; `detail` (the values the predicate read) is
    /// called only when the claim fails.
    pub fn claim(&mut self, name: &'static str, holds: bool, detail: impl FnOnce() -> String) {
        let detail = if holds { String::new() } else { detail() };
        self.claims.push(Claim {
            name,
            holds,
            detail,
        });
    }

    /// Record claim `name`: `holds` is true of every item. The detail
    /// lists the failing items, so each item carries the values its
    /// predicate reads (grid key first).
    pub fn claim_each<T: std::fmt::Debug>(
        &mut self,
        name: &'static str,
        items: impl IntoIterator<Item = T>,
        holds: impl Fn(&T) -> bool,
    ) {
        let mut detail = String::new();
        for item in items.into_iter().filter(|i| !holds(i)) {
            let sep = if detail.is_empty() { "" } else { "; " };
            let _ = write!(detail, "{sep}{item:?}");
        }
        self.claims.push(Claim {
            name,
            holds: detail.is_empty(),
            detail,
        });
    }

    /// The stderr lines for the claims: `[target claims k/n hold]`, then
    /// `  FAIL target/claim: detail` for each claim that failed.
    pub fn render_claims(&self) -> String {
        let held = self.claims.iter().filter(|c| c.holds).count();
        let mut out = format!(
            "[{} claims {held}/{} hold]\n",
            self.target,
            self.claims.len()
        );
        for c in self.claims.iter().filter(|c| !c.holds) {
            let _ = writeln!(out, "  FAIL {}/{}: {}", self.target, c.name, c.detail);
        }
        out
    }

    /// Render to the aligned text-table format the harness has always
    /// printed.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.title);
            out.push('\n');
            if !t.note.is_empty() {
                out.push_str(&t.note);
                out.push('\n');
            }
            out.push('\n');
            let rows: Vec<Vec<String>> = t
                .rows
                .iter()
                .map(|r| r.iter().map(Cell::render).collect())
                .collect();
            render_aligned(&mut out, &t.columns, &rows, false);
            if let Some(f) = &t.footer {
                out.push_str("  ");
                out.push_str(f);
                out.push('\n');
            }
        }
        if let Some(a) = &self.audit {
            out.push_str(&format!(
                "\naudit: {} checks, {} violations (queue {}, oracle {}, tcp {}, event {}, \
                 calendar {})\n",
                a.total_checks(),
                a.violations,
                a.queue_checks,
                a.oracle_checks,
                a.tcp_checks,
                a.event_checks,
                a.calendar_checks,
            ));
        }
        if let Some(m) = &self.metrics {
            out.push_str("\ntelemetry metrics:\n");
            for (name, v) in m.iter() {
                match v {
                    MetricValue::Counter(c) => out.push_str(&format!("  {name} = {c}\n")),
                    MetricValue::Gauge(g) => out.push_str(&format!("  {name} = {g} (peak)\n")),
                    MetricValue::Histogram(h) => {
                        out.push_str(&format!("  {name}: n={} mean={:.0}\n", h.total, h.mean()))
                    }
                }
            }
        }
        if let Some(d) = &self.derived {
            d.render_text_into(&mut out);
        }
        out
    }

    /// Render one report as a JSON object (no timings — see module doc).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"target\":");
        json::push_str(&mut out, &self.target);
        out.push_str(",\"scale\":");
        json::push_str(&mut out, &format!("{:?}", self.scale));
        let _ = write!(out, ",\"seed\":{},", self.seed);
        if let Some(a) = &self.audit {
            let _ = write!(
                out,
                "\"audit\":{{\"queue_checks\":{},\"oracle_checks\":{},\"tcp_checks\":{},\
                 \"event_checks\":{},\"calendar_checks\":{},\"violations\":{}}},",
                a.queue_checks,
                a.oracle_checks,
                a.tcp_checks,
                a.event_checks,
                a.calendar_checks,
                a.violations,
            );
        }
        if let Some(m) = &self.metrics {
            out.push_str("\"metrics\":{");
            let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            for (i, (name, v)) in m.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                json::push_str(&mut out, name);
                let _ = match v {
                    MetricValue::Counter(c) => write!(out, ":{{\"counter\":{c}}}"),
                    MetricValue::Gauge(g) => write!(out, ":{{\"gauge\":{g}}}"),
                    MetricValue::Histogram(h) => write!(
                        out,
                        ":{{\"histogram\":{{\"edges\":[{}],\"counts\":[{}],\"total\":{},\
                         \"sum\":{}}}}}",
                        join(&h.edges),
                        join(&h.counts),
                        h.total,
                        h.sum,
                    ),
                };
            }
            out.push_str("},");
        }
        if let Some(d) = self.derived.as_ref().filter(|d| !d.is_empty()) {
            let _ = write!(out, "\"derived\":{},", d.render_json());
        }
        out.push_str("\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"title\":" } else { "{\"title\":" });
            json::push_str(&mut out, &t.title);
            out.push_str(",\"note\":");
            json::push_str(&mut out, &t.note);
            out.push_str(",\"columns\":[");
            for (j, c) in t.columns.iter().enumerate() {
                out.push_str(if j > 0 { "," } else { "" });
                json::push_str(&mut out, c);
            }
            out.push_str("],\"rows\":[");
            for (j, row) in t.rows.iter().enumerate() {
                out.push_str(if j > 0 { ",[" } else { "[" });
                for (k, cell) in row.iter().enumerate() {
                    out.push_str(if k > 0 { "," } else { "" });
                    cell.push_json(&mut out);
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render one report as CSV sections: per table, a `# target/title`
    /// comment line, the header row, then data rows.
    pub fn render_csv(&self) -> String {
        let line = |cells: &[String]| {
            let fields: Vec<String> = cells.iter().map(|c| csv_field(c)).collect();
            fields.join(",") + "\n"
        };
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!(
                "# {} / {}\n{}",
                self.target,
                t.title,
                line(&t.columns)
            ));
            for row in &t.rows {
                out.push_str(&line(&row.iter().map(Cell::render).collect::<Vec<_>>()));
            }
        }
        out
    }
}

/// Serialize several reports as one JSON array (the `--json` file).
pub fn reports_to_json(reports: &[Report]) -> String {
    let each: Vec<String> = reports.iter().map(Report::render_json).collect();
    format!("[{}]\n", each.join(","))
}

/// Concatenate several reports' CSV sections (the `--csv` file).
pub fn reports_to_csv(reports: &[Report]) -> String {
    reports.iter().map(Report::render_csv).collect()
}

/// The aligned text table of every report and `trace` view: a header,
/// a dash rule under it, two-space gutters, columns right-aligned. With
/// `key_left` (the `trace` views) the first column is left-aligned and
/// lines are not indented; otherwise lines are indented two spaces.
pub(crate) fn render_aligned(
    out: &mut String,
    header: &[String],
    rows: &[Vec<String>],
    key_left: bool,
) {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    for cells in [header, &rule]
        .into_iter()
        .chain(rows.iter().map(Vec::as_slice))
    {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| match widths.get(i).copied().unwrap_or(8) {
                w if key_left && i == 0 => format!("{c:<w$}"),
                w => format!("{c:>w$}"),
            })
            .collect();
        out.push_str(if key_left { "" } else { "  " });
        out.push_str(joined.join("  ").trim_end());
        out.push('\n');
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("demo", Scale::Quick, 7);
        let mut t = Table::new("Demo table", &["name", "n", "x"]).with_note("(a note)");
        t.push(vec![Cell::Str("a".into()), Cell::Int(1), Cell::Num(0.5)]);
        t.push(vec![
            Cell::Str("b,c".into()),
            Cell::Int(20),
            Cell::Num(123.456),
        ]);
        r.tables.push(t);
        r
    }

    #[test]
    fn text_is_aligned_and_stable() {
        let text = sample().render_text();
        assert!(text.contains("Demo table"));
        assert!(text.contains("(a note)"));
        // Header underline present.
        assert!(text.contains("----"));
        // Compact float formatting flows through.
        assert!(text.contains("0.5000"));
        assert!(text.contains("123.5"));
    }

    #[test]
    fn json_keeps_numbers_typed_and_excludes_timings() {
        let mut r = sample();
        r.timings.push(PointTiming {
            label: "p0".into(),
            secs: 1.25,
        });
        let js = r.render_json();
        assert!(js.contains("\"seed\":7"));
        assert!(js.contains("[\"a\",1,0.5]"));
        assert!(!js.contains("timings"));
        assert!(!js.contains("1.25"));
    }

    #[test]
    fn json_nan_is_null() {
        let mut r = Report::new("n", Scale::Quick, 0);
        let mut t = Table::new("t", &["x"]);
        t.push(vec![Cell::Num(f64::NAN)]);
        r.tables.push(t);
        assert!(r.render_json().contains("[null]"));
    }

    #[test]
    fn csv_quotes_embedded_commas() {
        let csv = sample().render_csv();
        assert!(csv.starts_with("# demo / Demo table\n"));
        assert!(csv.contains("\"b,c\",20,"));
    }

    #[test]
    fn identical_reports_render_identically() {
        assert_eq!(sample().render_text(), sample().render_text());
        assert_eq!(sample().render_json(), sample().render_json());
    }

    #[test]
    fn claims_are_never_rendered() {
        let plain = sample();
        let mut claimed = sample();
        claimed.claim("a_holds", true, || {
            unreachable!("detail of a passing claim")
        });
        claimed.claim("b_fails", false, || "x=1".into());
        claimed.claim_each("c_each", [1, 2, 3], |x| *x < 3);
        assert_eq!(claimed.claims.len(), 3);
        assert_eq!(claimed.claims[0].detail, "");
        assert_eq!(plain.render_text(), claimed.render_text());
        assert_eq!(plain.render_json(), claimed.render_json());
        assert_eq!(plain.render_csv(), claimed.render_csv());
    }

    #[test]
    fn failing_claim_line_names_target_claim_and_values() {
        let mut r = sample();
        r.claim("pert_q_le_red_q", true, String::new);
        r.claim_each(
            "pert_q_le_sack_q",
            [(5.0, 0.9, 0.8), (50.0, 0.1, 0.7)],
            |(_, p, s)| p <= s,
        );
        r.claim("jain_above_0.5", false, || format!("jain={}", 0.25));
        assert_eq!(
            r.render_claims(),
            "[demo claims 1/3 hold]\n  FAIL demo/pert_q_le_sack_q: (5.0, 0.9, 0.8)\n  \
             FAIL demo/jain_above_0.5: jain=0.25\n"
        );
    }

    #[test]
    fn audit_counts_render_only_when_present() {
        let plain = sample();
        let mut audited = sample();
        audited.audit = Some(AuditSnapshot {
            queue_checks: 10,
            oracle_checks: 4,
            tcp_checks: 3,
            event_checks: 2,
            calendar_checks: 5,
            violations: 0,
        });
        assert!(!plain.render_text().contains("audit:"));
        assert!(!plain.render_json().contains("\"audit\""));
        let text = audited.render_text();
        assert!(text.contains("audit: 24 checks, 0 violations"), "{text}");
        assert!(text.contains("calendar 5"), "{text}");
        let js = audited.render_json();
        assert!(js.contains("\"calendar_checks\":5"), "{js}");
        assert!(
            js.contains("\"audit\":{\"queue_checks\":10,") && js.contains("\"violations\":0}"),
            "{js}"
        );
        // The audit block must not disturb anything else.
        assert_eq!(plain.render_csv(), audited.render_csv());
    }

    #[test]
    fn metrics_render_only_when_present() {
        let plain = sample();
        let mut metered = sample();
        let mut m = MetricsSet::new();
        m.counter_add("sim/events", 1234);
        m.gauge_max("queue/peak_len", 17);
        m.histogram_observe("tcp/rtt_ns", &[1_000_000, 10_000_000], 2_000_000);
        metered.metrics = Some(m);

        assert!(!plain.render_text().contains("telemetry metrics:"));
        assert!(!plain.render_json().contains("\"metrics\""));

        let text = metered.render_text();
        assert!(text.contains("telemetry metrics:"), "{text}");
        assert!(text.contains("  sim/events = 1234"), "{text}");
        assert!(text.contains("  queue/peak_len = 17 (peak)"), "{text}");
        assert!(text.contains("  tcp/rtt_ns: n=1 mean=2000000"), "{text}");

        let js = metered.render_json();
        assert!(
            js.contains("\"metrics\":{\"queue/peak_len\":{\"gauge\":17}"),
            "{js}"
        );
        assert!(js.contains("\"sim/events\":{\"counter\":1234}"), "{js}");
        assert!(
            js.contains(
                "\"tcp/rtt_ns\":{\"histogram\":{\"edges\":[1000000,10000000],\
                 \"counts\":[0,1,0],\"total\":1,\"sum\":2000000}}"
            ),
            "{js}"
        );

        // The metrics block must not disturb anything else.
        assert_eq!(plain.render_csv(), metered.render_csv());
        assert_eq!(metered.render_json(), metered.clone().render_json());
    }

    #[test]
    fn derived_renders_only_when_present() {
        let plain = sample();

        let mut set = sim_stats::DeriveSet::new();
        set.ingest("a", "queue/final_offered", 0, 0.0, 200.0);
        set.ingest("a", "queue/final_dropped", 0, 0.0, 5.0);
        set.ingest("a", "queue/final_marked", 0, 0.0, 10.0);
        let mut derived = sample();
        derived.derived = Some(set.summary());

        assert!(!plain.render_text().contains("derived metrics:"));
        assert!(!plain.render_json().contains("\"derived\""));

        let text = derived.render_text();
        assert!(text.contains("derived metrics:"), "{text}");
        assert!(
            text.contains("loss: offered=200 dropped=5 marked=10"),
            "{text}"
        );
        let js = derived.render_json();
        assert!(js.contains("\"derived\":{"), "{js}");
        assert!(js.contains("\"offered\":200"), "{js}");

        // An all-empty summary renders nothing at all.
        let mut empty = sample();
        empty.derived = Some(sim_stats::DeriveSet::new().summary());
        assert_eq!(empty.render_text(), plain.render_text());
        assert_eq!(empty.render_json(), plain.render_json());

        // The derived block must not disturb CSV.
        assert_eq!(plain.render_csv(), derived.render_csv());
    }
}
