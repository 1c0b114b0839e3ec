//! **Figure 13** — the fluid-model validation of Theorem 1 (§5.3):
//!
//! * panel (a): the minimum stable sampling interval δ against the lower
//!   bound N⁻ on the number of flows (eq. 13);
//! * panels (b)–(d): trajectories of the PERT fluid model (eq. 14) at
//!   R = 100 ms (stable, monotonic), 160 ms (stable, decaying
//!   oscillations), and 171 ms (the boundary — sustained oscillations).

use fluid::dde::{integrate, Method};
use fluid::models::PertRedFluid;
use fluid::stability;

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// One point of panel (a).
#[derive(Clone, Copy, Debug)]
pub struct DeltaPoint {
    /// Lower bound on the number of flows.
    pub n_min: f64,
    /// Minimum stable sampling interval, seconds.
    pub min_delta: f64,
}

/// Panel (a): δ(N⁻) for the paper's configuration — R⁺ = 200 ms,
/// C = 1000 pkt/s (10 Mbps at 1250-byte packets), p_max = 0.1,
/// T_max = 100 ms, T_min = 50 ms, α = 0.99.
pub fn run_13a() -> Vec<DeltaPoint> {
    let l = stability::l_pert(0.1, 0.100, 0.050);
    (1..=50)
        .map(|n| DeltaPoint {
            n_min: n as f64,
            min_delta: stability::min_delta(0.99, l, 1000.0, n as f64, 0.2),
        })
        .collect()
}

/// Qualitative classification of a trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrajectoryClass {
    /// Converges with no late oscillation.
    Stable,
    /// Oscillates but the envelope decays.
    DecayingOscillation,
    /// Oscillation persists or grows.
    Unstable,
}

/// One trajectory run of panels (b)–(d).
#[derive(Clone, Debug)]
pub struct TrajectoryRun {
    /// RTT, seconds.
    pub rtt: f64,
    /// Whether Theorem 1's sufficient condition holds at this RTT.
    pub theorem1_holds: bool,
    /// Sampled `(t, W)` points (thinned for display).
    pub window_series: Vec<(f64, f64)>,
    /// Peak |W − W*| in the middle and final fifths of the run.
    pub mid_deviation: f64,
    /// See `mid_deviation`.
    pub late_deviation: f64,
    /// Classification.
    pub class: TrajectoryClass,
}

/// Integrate the §5.3 model at RTT `r` for `horizon` seconds.
pub fn run_trajectory(r: f64, horizon: f64) -> TrajectoryRun {
    let model = PertRedFluid::paper_section_5_3(r);
    let tr = integrate(
        &model,
        0.0,
        horizon,
        0.002,
        &[1.0, 1.0, 1.0],
        &|_, _| 1.0,
        Method::Rk4,
    );
    let (w_star, _) = model.equilibrium();
    let dev = |a: f64, b: f64| {
        tr.component(0)
            .iter()
            .filter(|(t, _)| (a..b).contains(t))
            .map(|(_, w)| (w - w_star).abs())
            .fold(0.0, f64::max)
    };
    let mid = dev(0.4 * horizon, 0.6 * horizon);
    let late = dev(0.8 * horizon, horizon);
    let class = if late < 0.02 * w_star {
        TrajectoryClass::Stable
    } else if late < 0.6 * mid {
        TrajectoryClass::DecayingOscillation
    } else {
        TrajectoryClass::Unstable
    };

    let l = stability::l_pert(0.1, 0.100, 0.050);
    let k = stability::lpf_k(0.99, 1.0e-4);
    let holds = stability::theorem1_holds(l, k, model.c, model.n, r);

    // Thin to ~100 display points.
    let every = (tr.states.len() / 100).max(1);
    let window_series: Vec<(f64, f64)> = tr.component(0).into_iter().step_by(every).collect();

    TrajectoryRun {
        rtt: r,
        theorem1_holds: holds,
        window_series,
        mid_deviation: mid,
        late_deviation: late,
        class,
    }
}

/// Panel (a) as a [`Scenario`]. The fluid model is deterministic, so the
/// seed only labels the report.
pub struct Fig13aScenario;

impl Scenario for Fig13aScenario {
    fn name(&self) -> &'static str {
        "fig13a"
    }

    fn default_seed(&self) -> u64 {
        0
    }

    fn points(&self, _scale: Scale, _seed: u64) -> Vec<Job> {
        vec![Job::new("fig13a/eq13", run_13a)]
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let points = take::<Vec<DeltaPoint>>(results.into_iter().next().expect("one job"));
        let mut table = Table::new(
            "Figure 13a: minimum sampling interval vs N- (eq. 13)",
            &["N-", "delta_min (s)"],
        )
        .with_note("(paper: monotonically decreasing, ~0.1 s at N- = 40)");
        for p in points.iter().step_by(5) {
            table.push(vec![Cell::Plain(p.n_min), Cell::Num(p.min_delta)]);
        }
        let mut report = Report::new("fig13a", scale, seed);
        report.tables.push(table);
        report.claim("fifty_points", points.len() == 50, || {
            format!("{} points", points.len())
        });
        report.claim_each(
            "delta_monotone_decreasing",
            points
                .windows(2)
                .map(|w| (w[1].n_min, w[0].min_delta, w[1].min_delta)),
            |&(_, before, at)| at <= before + 1e-12,
        );
        let d40 = points.get(39).map_or(f64::NAN, |p| p.min_delta);
        report.claim("delta_at_n40_near_0.1", (0.08..0.15).contains(&d40), || {
            format!("delta(40) = {d40}")
        });
        report
    }
}

/// Panels (b)–(d) as a [`Scenario`]: one job per RTT.
pub struct Fig13bcdScenario;

impl Scenario for Fig13bcdScenario {
    fn name(&self) -> &'static str {
        "fig13bcd"
    }

    fn default_seed(&self) -> u64 {
        0
    }

    fn points(&self, scale: Scale, _seed: u64) -> Vec<Job> {
        let horizon = if scale == Scale::Quick { 120.0 } else { 300.0 };
        [0.100, 0.160, 0.171]
            .into_iter()
            .map(|r| {
                Job::new(format!("fig13bcd/{:.0}ms", r * 1e3), move || {
                    run_trajectory(r, horizon)
                })
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut table = Table::new(
            "Figure 13b-d: PERT fluid model (eq. 14) trajectories",
            &["R (ms)", "thm1 holds", "|dev| mid", "|dev| late", "class"],
        )
        .with_note("(paper: stable at 100 ms; decaying oscillation at 160 ms; unstable at 171 ms)");
        let runs: Vec<TrajectoryRun> = results.into_iter().map(take).collect();
        for r in &runs {
            table.push(vec![
                Cell::Fixed(r.rtt * 1e3, 0),
                Cell::Str(format!("{}", r.theorem1_holds)),
                Cell::Num(r.mid_deviation),
                Cell::Num(r.late_deviation),
                Cell::Str(format!("{:?}", r.class)),
            ]);
        }
        let mut report = Report::new("fig13bcd", scale, seed);
        report.tables.push(table);
        let [r100, r160, r171] = &runs[..] else {
            panic!("fig13bcd runs three RTTs");
        };
        let show = |r: &TrajectoryRun| {
            format!(
                "R {} ms: {:?}, thm1 {}, |dev| mid {} late {}",
                r.rtt * 1e3,
                r.class,
                r.theorem1_holds,
                r.mid_deviation,
                r.late_deviation
            )
        };
        report.claim("r100_stable", r100.class == TrajectoryClass::Stable, || {
            show(r100)
        });
        report.claim("r100_theorem1_holds", r100.theorem1_holds, || show(r100));
        let r160_unstable = r160.class == TrajectoryClass::Unstable;
        report.claim("r160_not_unstable", !r160_unstable, || show(r160));
        report.claim("r160_theorem1_holds", r160.theorem1_holds, || show(r160));
        let r171_unstable = r171.class == TrajectoryClass::Unstable;
        report.claim("r171_unstable", r171_unstable, || show(r171));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn panel_a_monotone_and_anchored() {
        let pts = run_13a();
        assert_eq!(pts.len(), 50);
        assert!(pts
            .windows(2)
            .all(|w| w[1].min_delta <= w[0].min_delta + 1e-12));
        let d40 = pts[39].min_delta;
        assert!((0.08..0.15).contains(&d40), "delta(40) = {d40}");
    }

    #[test]
    fn panels_bcd_reproduce_the_paper_classification() {
        let names = [
            "r100_stable",
            "r100_theorem1_holds",
            "r160_not_unstable",
            "r160_theorem1_holds",
            "r171_unstable",
        ];
        assert_claims_hold("fig13bcd", &names);
    }
}
