//! **Figure 5** — the PERT probabilistic response curve itself.
//!
//! Purely analytic: evaluate the gentle-RED-shaped curve at a grid of
//! smoothed-queuing-delay values and print the anchor points.

use pert_core::ResponseCurve;

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// One sampled point of the curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// Queuing delay (srtt − P), seconds.
    pub queuing_delay: f64,
    /// Response probability.
    pub probability: f64,
}

/// Sample `curve` at `n` evenly spaced delays in `[0, 2.5·T_max]`.
pub fn sample_curve(curve: &ResponseCurve, n: usize) -> Vec<CurvePoint> {
    assert!(n >= 2);
    let hi = 2.5 * curve.t_max;
    (0..n)
        .map(|i| {
            let qd = hi * i as f64 / (n - 1) as f64;
            CurvePoint {
                queuing_delay: qd,
                probability: curve.probability(qd),
            }
        })
        .collect()
}

/// Sample count per scale (Quick thins the grid, Full refines it; the
/// historical default was 26).
pub fn samples_for(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 11,
        Scale::Standard => 26,
        Scale::Full => 51,
    }
}

/// The response curve as a [`Scenario`]. Purely analytic — a single job;
/// the seed only labels the report.
pub struct Fig5Scenario;

impl Scenario for Fig5Scenario {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn default_seed(&self) -> u64 {
        0
    }

    fn points(&self, scale: Scale, _seed: u64) -> Vec<Job> {
        vec![Job::new("fig5/curve", move || {
            sample_curve(&ResponseCurve::PAPER_DEFAULT, samples_for(scale))
        })]
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let points = take::<Vec<CurvePoint>>(results.into_iter().next().expect("one job"));
        let c = ResponseCurve::PAPER_DEFAULT;
        let mut table = Table::new(
            "Figure 5: PERT response curve",
            &["qd (ms)", "p(response)", ""],
        )
        .with_note(format!(
            "(T_min = {} ms, T_max = {} ms, p_max = {}; ramps to 1 at 2*T_max)",
            c.t_min * 1e3,
            c.t_max * 1e3,
            c.p_max
        ));
        for p in &points {
            table.push(vec![
                Cell::Fixed(p.queuing_delay * 1e3, 1),
                Cell::Num(p.probability),
                Cell::Str("#".repeat((p.probability * 40.0).round() as usize)),
            ]);
        }
        let mut report = Report::new("fig5", scale, seed);
        report.tables.push(table);
        // The anchors: 0 at T_min, p_max at T_max, 1 at 2*T_max.
        for (name, qd, p) in [
            ("p_zero_at_t_min", c.t_min, 0.0),
            ("p_max_at_t_max", c.t_max, c.p_max),
            ("p_one_at_2_t_max", 2.0 * c.t_max, 1.0),
        ] {
            let at = points.iter().find(|s| (s.queuing_delay - qd).abs() < 1e-9);
            let got = at.map_or(f64::NAN, |s| s.probability);
            report.claim(name, (got - p).abs() < 1e-9, || {
                format!("p({} ms) = {got}, want {p}", qd * 1e3)
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_sampling_covers_all_segments() {
        let pts = sample_curve(&ResponseCurve::PAPER_DEFAULT, 26);
        assert_eq!(pts.first().unwrap().probability, 0.0);
        assert_eq!(pts.last().unwrap().probability, 1.0);
        // Monotone.
        assert!(pts.windows(2).all(|w| w[1].probability >= w[0].probability));
    }
}
