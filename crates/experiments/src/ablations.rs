//! Ablations over PERT's design choices (§3 and §7 call these out):
//!
//! * **decrease factor** — 0.35 was chosen from the buffer relation
//!   (eq. 1); compare against gentler and TCP-standard (0.5) reductions;
//! * **EWMA weight** — 0.99 was chosen in §2.4; compare 7/8 and 0.995;
//! * **response curve** — `p_max` and threshold variations around the
//!   `(5 ms, 10 ms, 0.05)` defaults.

use netsim::SimDuration;
use pert_core::pert::PertParams;
use pert_core::ResponseCurve;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;
use crate::sweep::{run_one, SchemePoint};

/// One ablation row: a label and the measured panels.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Parameter description.
    pub label: String,
    /// Measured metrics.
    pub point: SchemePoint,
}

fn base_config(scale: Scale, seed: u64) -> DumbbellConfig {
    let (bps, flows) = if scale == Scale::Quick {
        (20_000_000, 6)
    } else {
        (150_000_000, 50)
    };
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: vec![0.060; flows],
        start_window_secs: scale.start_window(),
        seed,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// The ablation groups: `(group name, [(variant label, params)])`.
pub fn variant_groups() -> Vec<(&'static str, Vec<(String, PertParams)>)> {
    let decrease = [0.20, 0.35, 0.50]
        .into_iter()
        .map(|f| {
            (
                format!("decrease={f}"),
                PertParams {
                    decrease_factor: f,
                    ..Default::default()
                },
            )
        })
        .collect();
    let weight = [0.875, 0.99, 0.995]
        .into_iter()
        .map(|w| {
            (
                format!("alpha={w}"),
                PertParams {
                    srtt_weight: w,
                    ..Default::default()
                },
            )
        })
        .collect();
    let curve = [
        ("pmax=0.02", ResponseCurve::new(0.005, 0.010, 0.02)),
        ("pmax=0.05 (paper)", ResponseCurve::PAPER_DEFAULT),
        ("pmax=0.20", ResponseCurve::new(0.005, 0.010, 0.20)),
        ("thresholds x2", ResponseCurve::new(0.010, 0.020, 0.05)),
    ]
    .into_iter()
    .map(|(label, curve)| {
        (
            label.to_string(),
            PertParams {
                curve,
                ..Default::default()
            },
        )
    })
    .collect();
    vec![
        ("decrease factor", decrease),
        ("EWMA weight", weight),
        ("response curve", curve),
    ]
}

/// All three ablation groups as one [`Scenario`]: one job per variant,
/// one table per group.
pub struct AblationsScenario;

impl Scenario for AblationsScenario {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn default_seed(&self) -> u64 {
        777
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (group, variants) in variant_groups() {
            for (label, params) in variants {
                let job_label = format!("ablations/{group}/{label}");
                jobs.push(Job::new(job_label, move || AblationRow {
                    label,
                    point: run_one(&base_config(scale, seed), Scheme::PertCustom(params), scale),
                }));
            }
        }
        jobs
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut results = results.into_iter();
        let mut report = Report::new("ablations", scale, seed);
        let mut groups = Vec::new();
        for (i, (group, variants)) in variant_groups().into_iter().enumerate() {
            let mut table = Table::new(
                format!("Ablations ({group}): PERT design choices (150 Mbps, 50 flows, 60 ms)"),
                &[
                    "variant",
                    "Q (norm)",
                    "drop rate",
                    "util %",
                    "Jain",
                    "early",
                ],
            );
            if i == 0 {
                table =
                    table.with_note("(eq. 1 motivates decrease=0.35; §2.4 motivates alpha=0.99)");
            }
            let rows: Vec<AblationRow> = results.by_ref().take(variants.len()).map(take).collect();
            for r in &rows {
                table.push(vec![
                    Cell::Str(r.label.clone()),
                    Cell::Num(r.point.queue_norm),
                    Cell::Num(r.point.drop_rate),
                    Cell::Num(r.point.utilization),
                    Cell::Num(r.point.jain),
                    Cell::Int(r.point.early_reductions as i64),
                ]);
            }
            report.tables.push(table);
            groups.push(rows);
        }
        let [decrease, _, curve] = &groups[..] else {
            panic!("ablations runs three groups");
        };
        // A 0.5 decrease should not leave a larger queue than 0.2.
        let (q_02, q_05) = (decrease[0].point.queue_norm, decrease[2].point.queue_norm);
        report.claim(
            "decrease_0.5_q_le_0.2_q_plus_0.05",
            q_05 <= q_02 + 0.05,
            || format!("Q at decrease=0.5 {q_05}, at 0.2 {q_02}"),
        );
        let (low, high) = (
            curve[0].point.early_reductions,
            curve[2].point.early_reductions,
        );
        report.claim("pmax_0.20_responds_ge_pmax_0.02", high >= low, || {
            format!("early reductions: pmax=0.20 {high}, pmax=0.02 {low}")
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn larger_decrease_lowers_queue() {
        // 0.5 decrease should not leave a larger queue than 0.2.
        assert_claims_hold("ablations", &["decrease_0.5_q_le_0.2_q_plus_0.05"]);
    }

    #[test]
    fn heavier_pmax_responds_more() {
        assert_claims_hold("ablations", &["pmax_0.20_responds_ge_pmax_0.02"]);
    }
}
