//! **Figure 2** — flow-level vs queue-level loss correlation.
//!
//! For each §2.2 traffic case, drive the simple high-RTT threshold
//! predictor (instantaneous RTT > 65 ms) over the observed flow's trace
//! and measure the fraction of high-RTT episodes that end in a loss —
//! once counting only the observed flow's own losses (what [21, 26]
//! measured) and once counting losses at the bottleneck queue. The
//! paper's claim: the queue-level correlation is much higher.

use pert_core::predictors::{CongestionState, InstRtt, Predictor};
use sim_stats::analyze;

use crate::cases::{CaseScenario, CaseTrace, HIGH_RTT_THRESHOLD};
use crate::report::{Cell, Report, Table};

/// One row of Figure 2.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Case label.
    pub case: String,
    /// Long-term flows / web sessions in the case.
    pub load: (usize, usize),
    /// Fraction of high-RTT→loss transitions with flow-level losses.
    pub flow_level: f64,
    /// Fraction of high-RTT→loss transitions with queue-level losses.
    pub queue_level: f64,
}

/// Analyze pre-computed case traces.
pub fn analyze_traces(traces: &[CaseTrace]) -> Vec<Fig2Row> {
    traces
        .iter()
        .map(|t| {
            let mut pred = InstRtt::new(HIGH_RTT_THRESHOLD);
            let states: Vec<(f64, bool)> = t
                .samples
                .iter()
                .map(|s| (s.at, pred.on_sample(s) == CongestionState::High))
                .collect();
            // Cluster drop bursts within one observed RTT.
            let cluster = 0.060;
            let flow = analyze(&states, &t.flow_drops, cluster);
            let queue = analyze(&states, &t.queue_drops, cluster);
            Fig2Row {
                case: t.label.clone(),
                load: (t.n_long, t.n_web),
                flow_level: flow.efficiency().unwrap_or(0.0),
                queue_level: queue.efficiency().unwrap_or(0.0),
            }
        })
        .collect()
}

/// Figure 2 alone: the six case runs feed only this figure.
pub const FIG2: CaseScenario = CaseScenario {
    name: "fig2",
    figures: &[add_to],
};

/// Figure 2's table and claims, from the case traces.
pub fn add_to(report: &mut Report, traces: &[CaseTrace]) {
    let rows = analyze_traces(traces);
    let mut table = Table::new(
        "Figure 2: fraction of high-RTT -> loss transitions",
        &["case", "long x web", "flow-level", "queue-level"],
    )
    .with_note("(paper: queue-level correlation substantially exceeds flow-level)");
    for r in &rows {
        table.push(vec![
            Cell::Str(r.case.clone()),
            Cell::Str(format!("{}x{}", r.load.0, r.load.1)),
            Cell::Num(r.flow_level),
            Cell::Num(r.queue_level),
        ]);
    }
    report.tables.push(table);
    let each = || {
        rows.iter()
            .map(|r| (r.case.as_str(), r.flow_level, r.queue_level))
    };
    report.claim_each("queue_level_ge_flow_level", each(), |&(_, flow, queue)| {
        queue >= flow
    });
    let some = rows.iter().any(|r| r.queue_level > 0.0);
    report.claim("queue_level_positive_in_some_case", some, || {
        format!("{:?}", each().collect::<Vec<_>>())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::run_case;
    use crate::common::Scale;

    #[test]
    fn queue_level_correlation_dominates_flow_level() {
        // The paper's headline for Fig. 2. One case at Quick scale.
        let t = run_case("t", 16, 20, Scale::Quick, 3);
        let rows = analyze_traces(&[t]);
        let r = &rows[0];
        assert!(
            r.queue_level >= r.flow_level,
            "queue {} < flow {}",
            r.queue_level,
            r.flow_level
        );
        assert!(r.queue_level > 0.0, "no queue-level correlation at all");
    }
}
