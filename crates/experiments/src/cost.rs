//! Event-loop cost attribution: the "where the time goes" table.
//!
//! The simulator attributes its inner loop two ways while telemetry is
//! on: wall-clock per event class (`sim/ev/<class>` closed spans, with
//! matching `sim/ev_<class>` counters) and per queue discipline
//! (`sim/queue_ops/<name>` spans and counters). Sharded runs add a
//! third family, `shard/<n>` (worker-thread wall-clock + events
//! processed per shard), which makes load imbalance across shards
//! visible. This module joins the streams into one ranked table per
//! target.
//!
//! Wall-clock is machine-dependent, so the table goes to **stderr** —
//! never into the deterministic stdout/JSON/CSV surfaces (`pert-bench
//! trace` prices the same layers from outside the simulator). The event
//! *counts* in the table are the same deterministic counters that already
//! appear in the report's metrics block.

use pert_core::telemetry::Span;
use sim_stats::{MetricValue, MetricsSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One attributed row: an event class or a queue discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostRow {
    /// Display name, e.g. `ev/departure` or `queue_ops/DropTail`.
    pub name: String,
    /// Deterministic operation count (events processed / queue calls).
    pub count: u64,
    /// Attributed wall-clock, microseconds.
    pub wall_us: u64,
}

/// Join per-target metric deltas and span deltas into attribution rows,
/// sorted by wall-clock descending (name ascending on ties, so equal
/// inputs render identically). Returns an empty vec when the run
/// produced no attribution data (telemetry off, or no simulator ran).
pub fn attribute(metrics: &MetricsSet, spans: &[Span]) -> Vec<CostRow> {
    // Sum span durations by name for the two attribution families. The
    // legacy aggregate `sim/queue_ops` (no discipline suffix) is
    // skipped: it is the sum of the per-discipline spans.
    let mut wall: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let interesting = s.name.starts_with("sim/ev/")
            || s.name.starts_with("sim/queue_ops/")
            || s.name.starts_with("shard/");
        if interesting {
            *wall.entry(s.name.as_str()).or_default() += s.dur_us;
        }
    }

    let count_for = |span_name: &str| -> u64 {
        // `sim/ev/arrival` span ↔ `sim/ev_arrival` counter;
        // `sim/queue_ops/X` span ↔ `sim/queue_ops/X` counter;
        // `shard/N` span ↔ `shard/N` counter (events on that shard).
        let counter_name = match span_name.strip_prefix("sim/ev/") {
            Some(class) => format!("sim/ev_{class}"),
            None => span_name.to_string(),
        };
        match metrics.get(&counter_name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    };

    let mut rows: Vec<CostRow> = wall
        .into_iter()
        .map(|(span_name, wall_us)| CostRow {
            name: span_name.strip_prefix("sim/").unwrap_or(span_name).into(),
            count: count_for(span_name),
            wall_us,
        })
        .collect();
    rows.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.name.cmp(&b.name)));
    rows
}

/// Render the attribution table (empty string when there are no rows).
pub fn render(target: &str, rows: &[CostRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let total_us: u64 = rows.iter().map(|r| r.wall_us).sum();
    let mut out = format!("[{target} cost attribution]\n");
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(0)
        .max("kind".len());
    let _ = writeln!(
        out,
        "  {:<name_w$}  {:>12}  {:>10}  {:>6}",
        "kind", "count", "wall", "share"
    );
    for r in rows {
        let share = if total_us == 0 {
            0.0
        } else {
            100.0 * r.wall_us as f64 / total_us as f64
        };
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:>12}  {:>9.3}s  {share:>5.1}%",
            r.name,
            r.count,
            r.wall_us as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, dur_us: u64) -> Span {
        Span {
            name: name.into(),
            scope: String::new(),
            tid: 1,
            start_us: 0,
            dur_us,
        }
    }

    #[test]
    fn joins_counts_and_wall_and_ranks_by_wall() {
        let mut m = MetricsSet::new();
        m.counter_add("sim/ev_arrival", 1000);
        m.counter_add("sim/ev_departure", 900);
        m.counter_add("sim/queue_ops/DropTail", 1900);
        let spans = vec![
            span("sim/ev/arrival", 300),
            span("sim/ev/arrival", 200), // same name sums
            span("sim/ev/departure", 800),
            span("sim/queue_ops/DropTail", 100),
            span("sim/queue_ops", 100),  // legacy aggregate: skipped
            span("sim/run_until", 5000), // unrelated span: skipped
        ];
        let rows = attribute(&m, &spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            CostRow {
                name: "ev/departure".into(),
                count: 900,
                wall_us: 800
            }
        );
        assert_eq!(
            rows[1],
            CostRow {
                name: "ev/arrival".into(),
                count: 1000,
                wall_us: 500
            }
        );
        assert_eq!(
            rows[2],
            CostRow {
                name: "queue_ops/DropTail".into(),
                count: 1900,
                wall_us: 100
            }
        );
    }

    #[test]
    fn shard_rows_join_worker_wall_with_event_counts() {
        let mut m = MetricsSet::new();
        m.counter_add("shard/0", 600);
        m.counter_add("shard/1", 400);
        let spans = vec![
            span("shard/0", 900),
            span("shard/0", 100), // two run_until calls on shard 0 sum
            span("shard/1", 700),
        ];
        let rows = attribute(&m, &spans);
        assert_eq!(
            rows,
            vec![
                CostRow {
                    name: "shard/0".into(),
                    count: 600,
                    wall_us: 1000
                },
                CostRow {
                    name: "shard/1".into(),
                    count: 400,
                    wall_us: 700
                },
            ]
        );
    }

    #[test]
    fn missing_counter_renders_as_zero_count() {
        let rows = attribute(&MetricsSet::new(), &[span("sim/ev/timer", 50)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 0);
        assert_eq!(rows[0].wall_us, 50);
    }

    #[test]
    fn render_is_stable_and_shares_sum_to_100() {
        let rows = vec![
            CostRow {
                name: "ev/arrival".into(),
                count: 10,
                wall_us: 750_000,
            },
            CostRow {
                name: "ev/timer".into(),
                count: 5,
                wall_us: 250_000,
            },
        ];
        let text = render("fig6", &rows);
        assert!(text.starts_with("[fig6 cost attribution]\n"), "{text}");
        assert!(text.contains("ev/arrival"), "{text}");
        assert!(text.contains("0.750s"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
        assert_eq!(text, render("fig6", &rows));
        assert_eq!(render("x", &[]), "");
    }
}
