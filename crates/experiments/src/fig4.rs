//! **Figure 4** — the distribution of normalized bottleneck queue length
//! at the instants the `srtt_0.99` predictor raises a false positive.
//!
//! The paper's design insight: false positives concentrate at *small*
//! queue lengths (mostly below 50 % of the buffer), so a response whose
//! probability grows with the delay estimate — gentle-RED style — damps
//! exactly the responses most likely to be wrong.

use pert_core::predictors::{CongestionState, EwmaRtt, Predictor};
use sim_stats::{analyze, Histogram};

use crate::cases::{CaseScenario, CaseTrace, HIGH_RTT_THRESHOLD};
use crate::common::fmt;
use crate::report::{Cell, Report, Table};

/// Figure 4's result: one normalized-queue-length histogram per case plus
/// the pooled distribution.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// Per-case `(label, histogram over normalized queue length)`.
    pub per_case: Vec<(String, Histogram)>,
    /// All cases pooled.
    pub pooled: Histogram,
    /// Fraction of false positives occurring below half the buffer
    /// (pooled) — the paper's headline observation.
    pub fraction_below_half: f64,
}

/// Analyze pre-computed case traces.
pub fn analyze_traces(traces: &[CaseTrace]) -> Fig4Result {
    let bins = 10;
    let mut pooled = Histogram::unit(bins);
    let mut per_case = Vec::new();
    for t in traces {
        let mut pred = EwmaRtt::srtt_099(HIGH_RTT_THRESHOLD);
        let states: Vec<(f64, bool)> = t
            .samples
            .iter()
            .map(|s| (s.at, pred.on_sample(s) == CongestionState::High))
            .collect();
        let counts = analyze(&states, &t.queue_drops, 0.060);
        let mut h = Histogram::unit(bins);
        for &fp_time in &counts.false_positive_times {
            if let Some(q) = t.queue_series.value_at(fp_time) {
                h.add(q);
                pooled.add(q);
            }
        }
        per_case.push((t.label.clone(), h));
    }
    let fraction_below_half = pooled.fraction_below(0.5);
    Fig4Result {
        per_case,
        pooled,
        fraction_below_half,
    }
}

/// Figure 4 alone: the six case runs feed only this figure.
pub const FIG4: CaseScenario = CaseScenario {
    name: "fig4",
    figures: &[add_to],
};

/// Figure 4's table and claims, from the case traces.
pub fn add_to(report: &mut Report, traces: &[CaseTrace]) {
    let r = analyze_traces(traces);
    let mut table = Table::new(
        "Figure 4: PDF of normalized queue length at srtt_0.99 false positives",
        &["q/B", "pdf", ""],
    )
    .with_note(format!(
        "(paper: false positives cluster at low queue; pooled P(q < 0.5) here = {})",
        fmt(r.fraction_below_half)
    ));
    for (i, &p) in r.pooled.pmf().iter().enumerate() {
        table.push(vec![
            Cell::Fixed(r.pooled.bin_center(i), 2),
            Cell::Num(p),
            Cell::Str("#".repeat((p * 50.0).round() as usize)),
        ]);
    }
    table.footer = Some(format!("(false positives pooled: {})", r.pooled.total()));
    report.tables.push(table);
    // The paper's observation: the bulk sits in the lower half.
    let (n, below) = (r.pooled.total(), r.fraction_below_half);
    report.claim("fp_skew_below_half_buffer", n < 5 || below > 0.5, || {
        format!("P(q < B/2) = {below} with {n} FPs")
    });
    let cases = r.per_case.len();
    report.claim("one_histogram_per_case", cases == traces.len(), || {
        format!("{cases} histograms for {} traces", traces.len())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::run_case;
    use crate::common::Scale;

    #[test]
    fn false_positives_skew_toward_low_queue() {
        let t = run_case("t", 16, 20, Scale::Quick, 11);
        let r = analyze_traces(&[t]);
        if r.pooled.total() >= 5 {
            // The paper's observation: the bulk sits in the lower half.
            assert!(
                r.fraction_below_half > 0.5,
                "P(q < B/2) = {} with {} FPs",
                r.fraction_below_half,
                r.pooled.total()
            );
        }
    }

    #[test]
    fn histograms_per_case_present() {
        let t = run_case("t", 10, 10, Scale::Quick, 12);
        let r = analyze_traces(&[t]);
        assert_eq!(r.per_case.len(), 1);
    }
}
