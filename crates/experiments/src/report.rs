//! Structured experiment output: typed tables plus run metadata,
//! rendered to the aligned text format, JSON, and CSV.
//!
//! Every experiment target assembles its results into a [`Report`]
//! instead of printing ad-hoc tables; this module is the only place that
//! renders them. Text output is byte-identical regardless of how many
//! worker threads produced the underlying points, because rendering only
//! reads the (deterministically ordered) cells — per-point wall-clock
//! lives in [`Report::timings`] and is excluded from JSON/CSV for the
//! same reason.

use crate::common::{fmt, Scale};
use sim_stats::{DerivedSummary, MetricValue, MetricsSet};

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

    /// The JSON value (numbers unquoted; non-finite floats become null).
    fn json(&self) -> String {
        match self {
            Cell::Str(s) => json_string(s),
            Cell::Int(i) => format!("{i}"),
            Cell::Num(x) | Cell::Plain(x) => {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".into()
                }
            }
            Cell::Fixed(x, d) => {
                if x.is_finite() {
                    format!("{:.*}", *d, *x)
                } else {
                    "null".into()
                }
            }
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

/// Invariant-audit counters accumulated while one target ran (present
/// only under `--audit`; rendering is unchanged when absent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// Queue-ledger verifications (conservation + stats mirror).
    pub queue_checks: u64,
    /// Differential-oracle comparisons (RED/PI/REM/PERT references,
    /// interval-set and scoreboard shadows count as tcp checks).
    pub oracle_checks: u64,
    /// TCP-layer checks (sequence invariants, shadow structures).
    pub tcp_checks: u64,
    /// Event-loop checks (time monotonicity).
    pub event_checks: u64,
    /// Calendar-equivalence checks (timing wheel vs heap shadow pops).
    pub calendar_checks: u64,
    /// Invariant violations observed. Anything nonzero is a bug.
    pub violations: u64,
}

impl AuditCounts {
    /// Sum of all check counters.
    pub fn total_checks(&self) -> u64 {
        self.queue_checks
            + self.oracle_checks
            + self.tcp_checks
            + self.event_checks
            + self.calendar_checks
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
    pub audit: Option<AuditCounts>,
    /// Telemetry metrics accumulated while this target ran
    /// (`--telemetry` runs only; rendering is unchanged when absent).
    pub metrics: Option<MetricsSet>,
    /// Derived metrics (qdelay CDF, utilization, loss rates, fairness,
    /// PERT response frequency) reduced online from the tap stream
    /// while this target ran (`--telemetry` runs only). Rendered after
    /// the metrics block so the CI strip marker covers both.
    pub derived: Option<DerivedSummary>,
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
        }
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
            render_aligned(&mut out, t);
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
            if !d.is_empty() {
                d.render_text_into(&mut out);
            }
        }
        out
    }

    /// Render one report as a JSON object (no timings — see module doc).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!("\"target\":{},", json_string(&self.target)));
        out.push_str(&format!(
            "\"scale\":{},",
            json_string(&format!("{:?}", self.scale))
        ));
        out.push_str(&format!("\"seed\":{},", self.seed));
        if let Some(a) = &self.audit {
            out.push_str(&format!(
                "\"audit\":{{\"queue_checks\":{},\"oracle_checks\":{},\"tcp_checks\":{},\
                 \"event_checks\":{},\"calendar_checks\":{},\"violations\":{}}},",
                a.queue_checks,
                a.oracle_checks,
                a.tcp_checks,
                a.event_checks,
                a.calendar_checks,
                a.violations,
            ));
        }
        if let Some(m) = &self.metrics {
            out.push_str("\"metrics\":{");
            for (i, (name, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(name));
                out.push(':');
                match v {
                    MetricValue::Counter(c) => out.push_str(&format!("{{\"counter\":{c}}}")),
                    MetricValue::Gauge(g) => out.push_str(&format!("{{\"gauge\":{g}}}")),
                    MetricValue::Histogram(h) => {
                        let join =
                            |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                        out.push_str(&format!(
                            "{{\"histogram\":{{\"edges\":[{}],\"counts\":[{}],\
                             \"total\":{},\"sum\":{}}}}}",
                            join(&h.edges),
                            join(&h.counts),
                            h.total,
                            h.sum,
                        ));
                    }
                }
            }
            out.push_str("},");
        }
        if let Some(d) = &self.derived {
            if !d.is_empty() {
                out.push_str("\"derived\":");
                out.push_str(&d.render_json());
                out.push(',');
            }
        }
        out.push_str("\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"title\":{},", json_string(&t.title)));
            out.push_str(&format!("\"note\":{},", json_string(&t.note)));
            out.push_str("\"columns\":[");
            for (j, c) in t.columns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(c));
            }
            out.push_str("],\"rows\":[");
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, cell) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&cell.json());
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
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("# {} / {}\n", self.target, t.title));
            out.push_str(
                &t.columns
                    .iter()
                    .map(|c| csv_field(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
            for row in &t.rows {
                out.push_str(
                    &row.iter()
                        .map(|c| csv_field(&c.render()))
                        .collect::<Vec<_>>()
                        .join(","),
                );
                out.push('\n');
            }
        }
        out
    }
}

/// Serialize several reports as one JSON array (the `--json` file).
pub fn reports_to_json(reports: &[Report]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.render_json());
    }
    out.push_str("]\n");
    out
}

/// Concatenate several reports' CSV sections (the `--csv` file).
pub fn reports_to_csv(reports: &[Report]) -> String {
    reports.iter().map(Report::render_csv).collect()
}

/// Right-aligned columns, two-space gutters, a dash rule under the
/// header — the format `common::print_table` used to emit.
fn render_aligned(out: &mut String, t: &Table) {
    let rendered: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|row| row.iter().map(Cell::render).collect())
        .collect();
    let mut widths: Vec<usize> = t.columns.iter().map(|h| h.len()).collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        out.push_str("  ");
        out.push_str(joined.join("  ").trim_end());
        out.push('\n');
    };
    line(&t.columns.to_vec());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rendered {
        line(row);
    }
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn audit_counts_render_only_when_present() {
        let plain = sample();
        let mut audited = sample();
        audited.audit = Some(AuditCounts {
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
