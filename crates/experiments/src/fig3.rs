//! **Figure 3** — prediction efficiency, false positives and false
//! negatives of the end-host congestion predictors (§2.3–§2.4), scored
//! against queue-level losses, averaged over the six traffic cases.
//!
//! Predictors: Vegas, CARD, TRI-S, DUAL, CIM, instantaneous RTT,
//! buffer-sized moving average, EWMA 7/8, and EWMA 0.99 (`srtt_0.99`).

use pert_core::predictors::{
    Card, Cim, CongestionState, Dual, EwmaRtt, InstRtt, MovingAvgRtt, Predictor, SyncTcpTrend,
    TriS, VegasPredictor,
};
use sim_stats::analyze;

use crate::cases::{CaseScenario, CaseTrace, CASE_BUFFER, HIGH_RTT_THRESHOLD};
use crate::report::{Cell, Report, Table};

/// One row of Figure 3 (averaged over cases).
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Predictor name.
    pub predictor: &'static str,
    /// Prediction efficiency `2/(2+5)`.
    pub efficiency: f64,
    /// False-positive rate `5/(2+5)`.
    pub false_positives: f64,
    /// False-negative rate `4/(2+4)`.
    pub false_negatives: f64,
}

/// The predictor battery of Figure 3.
pub fn predictor_battery() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(VegasPredictor::new()),
        Box::new(Card::new()),
        Box::new(TriS::new()),
        Box::new(Dual::new()),
        Box::new(Cim::new()),
        Box::new(SyncTcpTrend::new()),
        Box::new(InstRtt::new(HIGH_RTT_THRESHOLD)),
        Box::new(MovingAvgRtt::new(CASE_BUFFER, HIGH_RTT_THRESHOLD)),
        Box::new(EwmaRtt::new(7.0 / 8.0, HIGH_RTT_THRESHOLD)),
        Box::new(EwmaRtt::srtt_099(HIGH_RTT_THRESHOLD)),
    ]
}

/// Display names aligned with [`predictor_battery`] (the threshold family
/// gets distinguishing labels).
pub const PREDICTOR_NAMES: [&str; 10] = [
    "vegas",
    "card",
    "tri-s",
    "dual",
    "cim",
    "sync-tcp",
    "inst-rtt",
    "mavg-750",
    "ewma-7/8",
    "ewma-0.99",
];

/// Analyze pre-computed case traces.
pub fn analyze_traces(traces: &[CaseTrace]) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for (pi, name) in PREDICTOR_NAMES.iter().enumerate() {
        let mut eff = Vec::new();
        let mut fp = Vec::new();
        let mut fnr = Vec::new();
        for t in traces {
            let mut battery = predictor_battery();
            let pred = &mut battery[pi];
            let states: Vec<(f64, bool)> = t
                .samples
                .iter()
                .map(|s| (s.at, pred.on_sample(s) == CongestionState::High))
                .collect();
            let counts = analyze(&states, &t.queue_drops, 0.060);
            if let Some(e) = counts.efficiency() {
                eff.push(e);
                fp.push(1.0 - e);
            }
            if let Some(f) = counts.false_negative_rate() {
                fnr.push(f);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        rows.push(Fig3Row {
            predictor: name,
            efficiency: mean(&eff),
            false_positives: mean(&fp),
            false_negatives: mean(&fnr),
        });
    }
    rows
}

/// Figure 3 alone: the six case runs feed only this figure.
pub const FIG3: CaseScenario = CaseScenario {
    name: "fig3",
    figures: &[add_to],
};

/// Figure 3's table and claims, from the case traces.
pub fn add_to(report: &mut Report, traces: &[CaseTrace]) {
    let rows = analyze_traces(traces);
    let mut table = Table::new(
        "Figure 3: predictor quality vs queue-level losses (mean over cases)",
        &["predictor", "efficiency", "false-pos", "false-neg"],
    )
    .with_note("(paper: srtt_0.99 attains high efficiency with low FP and FN)");
    for r in &rows {
        table.push(vec![
            Cell::Str(r.predictor.to_string()),
            Cell::Num(r.efficiency),
            Cell::Num(r.false_positives),
            Cell::Num(r.false_negatives),
        ]);
    }
    report.tables.push(table);
    // The §2.4 smoothing claim.
    let fp = |name| {
        rows.iter()
            .find(|r| r.predictor == name)
            .map_or(f64::NAN, |r| r.false_positives)
    };
    let (smooth, inst) = (fp("ewma-0.99"), fp("inst-rtt"));
    report.claim("ewma_0.99_fp_le_inst_rtt_fp", smooth <= inst + 1e-9, || {
        format!("ewma-0.99 FP {smooth}, inst-rtt FP {inst}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::run_case;
    use crate::common::Scale;

    #[test]
    fn battery_and_names_align() {
        let b = predictor_battery();
        assert_eq!(b.len(), PREDICTOR_NAMES.len());
        // Spot-check the trait names for the non-threshold predictors.
        assert_eq!(b[0].name(), "vegas");
        assert_eq!(b[1].name(), "card");
        assert_eq!(b[4].name(), "cim");
    }

    #[test]
    fn srtt_099_beats_inst_rtt_on_false_positives() {
        // The §2.4 smoothing claim, on one Quick-scale case.
        let t = run_case("t", 16, 20, Scale::Quick, 5);
        let rows = analyze_traces(&[t]);
        let inst = rows.iter().find(|r| r.predictor == "inst-rtt").unwrap();
        let smooth = rows.iter().find(|r| r.predictor == "ewma-0.99").unwrap();
        assert!(
            smooth.false_positives <= inst.false_positives + 1e-9,
            "srtt_0.99 FP {} > inst FP {}",
            smooth.false_positives,
            inst.false_positives
        );
    }
}
