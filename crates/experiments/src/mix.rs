//! Mixed-competition experiments **beyond the paper**: PERT flows share
//! a bottleneck with modern CUBIC or BBR cross-traffic.
//!
//! The paper (2007) competes PERT against Reno-era stacks only; today's
//! traffic is CUBIC- and BBR-dominated, so the open question is whether
//! PERT's AQM emulation survives a competitor that does not back off the
//! same way. Two targets answer it:
//!
//! - `mix6` — the fig6-class bandwidth sweep, with half the long-term
//!   flows PERT and half the chosen competitor;
//! - `mix12` — the fig12-class dynamic experiment: a PERT cohort runs
//!   throughout while a competitor cohort joins mid-run and leaves
//!   again, showing the displacement and the re-convergence.
//!
//! `--cc cubic|bbr|both` picks the competitor axes (default: both).

use std::sync::atomic::{AtomicU8, Ordering};

use netsim::{SimDuration, SimTime};
use sim_stats::{jain_index, TimeSeries};
use workload::{
    build_dumbbell, link_metrics, run_measured, snapshot_goodput, DumbbellConfig, Scheme,
};

use crate::common::Scale;
use crate::fig12::{cohort_goodput, phase_mean};
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;
use crate::sweep::spread_rtts;

/// Which modern competitor axes the mixed scenarios run (`--cc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcAxis {
    /// CUBIC cross-traffic only.
    Cubic,
    /// BBR cross-traffic only.
    Bbr,
    /// Both competitors, one point each (the default).
    Both,
}

/// The axes [`CcAxis::current`] returns; written only by [`set_cc_axis`].
static CC_AXIS: AtomicU8 = AtomicU8::new(2);

/// Deprecated: set the axes [`crate::scenario::lookup`] gives `mix6` and
/// `mix12`; kept for one release. Use [`crate::scenario::lookup_with`].
#[doc(hidden)]
pub fn set_cc_axis(axis: CcAxis) {
    CC_AXIS.store(axis as u8, Ordering::Relaxed);
}

impl CcAxis {
    /// Both competitors, unless the deprecated [`set_cc_axis`] said not.
    pub fn current() -> CcAxis {
        match CC_AXIS.load(Ordering::Relaxed) {
            0 => CcAxis::Cubic,
            1 => CcAxis::Bbr,
            _ => CcAxis::Both,
        }
    }

    /// The cross-traffic schemes these axes select, in report order.
    pub fn schemes(self) -> Vec<Scheme> {
        match self {
            CcAxis::Cubic => vec![Scheme::Cubic],
            CcAxis::Bbr => vec![Scheme::Bbr],
            CcAxis::Both => vec![Scheme::Cubic, Scheme::Bbr],
        }
    }
}

/// Split a fig6-style flow budget between PERT and the competitor:
/// PERT keeps the larger half, both sides get at least two flows.
pub fn split_flows(total: usize) -> (usize, usize) {
    let pert = total.div_ceil(2).max(2);
    let cross = (total / 2).max(2);
    (pert, cross)
}

/// One `mix6` sweep point: PERT + one competitor on a shared bottleneck.
#[derive(Clone, Debug)]
pub struct MixPoint {
    /// Bottleneck bandwidth, Mbps.
    pub mbps: f64,
    /// Competitor display name.
    pub cross: &'static str,
    /// Mean queue normalized by the buffer.
    pub queue_norm: f64,
    /// Bottleneck drop rate.
    pub drop_rate: f64,
    /// Bottleneck utilization percent.
    pub utilization: f64,
    /// PERT's share of the combined long-flow goodput, in [0, 1].
    pub pert_share: f64,
    /// Jain index over *all* competing long flows (PERT + competitor).
    pub jain_all: f64,
    /// Early (delay-triggered) reductions across the PERT senders.
    pub early_reductions: u64,
}

/// The `mix6` base configuration at one bandwidth.
pub fn mix6_config(mbps: f64, scale: Scale, seed: u64, cross: Scheme) -> DumbbellConfig {
    let (n_pert, n_cross) = split_flows(crate::fig6::flows_for_bandwidth(mbps));
    DumbbellConfig {
        bottleneck_bps: (mbps * 1e6) as u64,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: spread_rtts(n_pert, 0.060),
        cross_scheme: Some(cross),
        cross_rtts: spread_rtts(n_cross, 0.060),
        start_window_secs: scale.start_window(),
        seed,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// Run one `mix6` point.
pub fn run_mix_point(cfg: &DumbbellConfig, scale: Scale) -> MixPoint {
    let cross_name = cfg
        .cross_scheme
        .as_ref()
        .expect("mix point needs cross-traffic")
        .name();
    let d = build_dumbbell(cfg);
    let mut sim = d.sim;

    sim.run_until(SimTime::from_secs_f64(scale.warmup()));
    let n_pert = d.forward.len();
    let long_flows: Vec<_> = d.forward.iter().chain(&d.cross).copied().collect();
    let before = snapshot_goodput(&sim, &long_flows);
    let (start, end) = run_measured(&mut sim, scale.warmup(), scale.end());
    let after = snapshot_goodput(&sim, &long_flows);

    let m = link_metrics(&sim, d.bottleneck_fwd, start, end);
    let rates = after.rates_since(&before);
    let pert_rate: f64 = rates[..n_pert].iter().sum();
    let total_rate: f64 = rates.iter().sum();
    let early: u64 = d
        .forward
        .iter()
        .map(|c| pert_tcp::sender_cc(&sim, c).early_reductions())
        .sum();

    MixPoint {
        mbps: cfg.bottleneck_bps as f64 / 1e6,
        cross: cross_name,
        queue_norm: m.mean_queue_norm,
        drop_rate: m.drop_rate,
        utilization: m.utilization,
        pert_share: if total_rate > 0.0 {
            pert_rate / total_rate
        } else {
            0.0
        },
        jain_all: jain_index(&rates),
        early_reductions: early,
    }
}

/// The `mix6` bandwidth sweep against the competitors of its axes as a
/// [`Scenario`]: one job per (bandwidth × competitor) simulation.
pub struct Mix6Scenario(pub CcAxis);

impl Scenario for Mix6Scenario {
    fn name(&self) -> &'static str {
        "mix6"
    }

    fn default_seed(&self) -> u64 {
        600
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        let mut jobs = Vec::new();
        for mbps in crate::fig6::bandwidth_grid(scale) {
            for cross in self.0.schemes() {
                let cfg = mix6_config(mbps, scale, seed, cross.clone());
                jobs.push(Job::new(
                    format!("mix6/{mbps}Mbps/{}", cross.name()),
                    move || run_mix_point(&cfg, scale),
                ));
            }
        }
        jobs
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut table = Table::new(
            "mix6: PERT vs modern cross-traffic across bandwidths (RTT 60 ms)",
            &[
                "Mbps",
                "PERT flows",
                "cross flows",
                "cross",
                "Q (norm)",
                "drop rate",
                "util %",
                "PERT share",
                "Jain (all)",
            ],
        )
        .with_note("(beyond the paper: PERT share 0.5 = even split with the competitor)");
        let points: Vec<MixPoint> = results.into_iter().map(take).collect();
        for p in &points {
            let (n_pert, n_cross) = split_flows(crate::fig6::flows_for_bandwidth(p.mbps));
            table.push(vec![
                Cell::Plain(p.mbps),
                Cell::Int(n_pert as i64),
                Cell::Int(n_cross as i64),
                Cell::Str(p.cross.to_string()),
                Cell::Num(p.queue_norm),
                Cell::Num(p.drop_rate),
                Cell::Num(p.utilization),
                Cell::Num(p.pert_share),
                Cell::Num(p.jain_all),
            ]);
        }
        let mut report = Report::new("mix6", scale, seed);
        report.tables.push(table);
        let names = self.0.schemes().into_iter().cycle().map(|s| s.name());
        report.claim_each(
            "points_name_their_competitor",
            points.iter().map(|p| p.cross).zip(names),
            |(got, want)| got == want,
        );
        report.claim_each("util_above_50", &points, |p| p.utilization > 50.0);
        let both_fed = |p: &&MixPoint| p.pert_share > 0.02 && p.pert_share < 0.98;
        report.claim_each("no_side_starves", &points, both_fed);
        report.claim_each("pert_responds_early", &points, |p| p.early_reductions > 0);
        // §7: PERT concedes bandwidth to loss- and model-based rivals.
        report.claim_each("pert_share_below_half", &points, |p| p.pert_share < 0.5);
        report
    }
}

/// The `mix12` shape: a PERT cohort active throughout, a competitor
/// cohort active only in the middle phase.
#[derive(Clone, Debug)]
pub struct Mix12Config {
    /// PERT flows (active phases 0–2).
    pub pert_flows: usize,
    /// Competitor flows (active phase 1 only).
    pub cross_flows: usize,
    /// Seconds per phase (3 phases total).
    pub phase_secs: f64,
    /// Bottleneck bandwidth, bits/second.
    pub bottleneck_bps: u64,
}

impl Mix12Config {
    /// The shape at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Mix12Config {
                pert_flows: 4,
                cross_flows: 4,
                phase_secs: 5.0,
                bottleneck_bps: 20_000_000,
            },
            Scale::Standard => Mix12Config {
                pert_flows: 16,
                cross_flows: 16,
                phase_secs: 20.0,
                bottleneck_bps: 100_000_000,
            },
            Scale::Full => Mix12Config {
                pert_flows: 25,
                cross_flows: 25,
                phase_secs: 60.0,
                bottleneck_bps: 150_000_000,
            },
        }
    }
}

/// One `mix12` run: aggregate goodput series for each side.
#[derive(Clone, Debug)]
pub struct Mix12Result {
    /// Shape used.
    pub config: Mix12Config,
    /// Competitor display name.
    pub cross: &'static str,
    /// PERT aggregate `(t, segments/s)`, sampled once per second.
    pub pert_throughput: TimeSeries,
    /// Competitor aggregate, same sampling.
    pub cross_throughput: TimeSeries,
}

/// Run one `mix12` point: the PERT cohort starts at t=0 and never
/// leaves; the competitor cohort joins at `phase_secs` and departs at
/// `2·phase_secs`.
pub fn run_mix12(cross: Scheme, scale: Scale, seed: u64) -> Mix12Result {
    let cfg = Mix12Config::at_scale(scale);
    let cross_name = cross.name();
    let dcfg = DumbbellConfig {
        bottleneck_bps: cfg.bottleneck_bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: vec![0.060; cfg.pert_flows],
        cross_scheme: Some(cross),
        cross_rtts: vec![0.060; cfg.cross_flows],
        start_window_secs: 0.0,
        auto_start: false, // starts are scheduled per cohort below
        seed,
        ..DumbbellConfig::new(Scheme::Pert)
    };
    let d = build_dumbbell(&dcfg);
    let mut sim = d.sim;

    for conn in &d.forward {
        sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    }
    let join = SimTime::from_secs_f64(cfg.phase_secs);
    let leave = SimTime::from_secs_f64(2.0 * cfg.phase_secs);
    for conn in &d.cross {
        sim.schedule_agent_timer(join, conn.sender, conn.start_token);
        sim.schedule_agent_timer(leave, conn.sender, conn.stop_token);
    }

    let cohorts = vec![d.forward.clone(), d.cross.clone()];
    let until = SimTime::from_secs_f64(3.0 * cfg.phase_secs);
    let mut sides = cohort_goodput(sim, cohorts, until).into_iter();
    let (pert_throughput, cross_throughput) = (sides.next().unwrap(), sides.next().unwrap());

    Mix12Result {
        config: cfg,
        cross: cross_name,
        pert_throughput,
        cross_throughput,
    }
}

/// The dynamic mixed-competition experiment against the competitors of
/// its axes as a [`Scenario`]: one job per competitor.
pub struct Mix12Scenario(pub CcAxis);

impl Scenario for Mix12Scenario {
    fn name(&self) -> &'static str {
        "mix12"
    }

    fn default_seed(&self) -> u64 {
        1200
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        self.0
            .schemes()
            .into_iter()
            .map(|cross| {
                let label = format!("mix12/{}", cross.name());
                Job::new(label, move || run_mix12(cross.clone(), scale, seed))
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut table = Table::new(
            "mix12: competitor cohort joins mid-run and departs",
            &["cross", "PERT ph0", "PERT ph1", "cross ph1", "PERT ph2"],
        )
        .with_note(
            "(cells: mean aggregate goodput in segments/s; the competitor is active \
             only in ph1 — ph2 shows PERT's re-convergence)",
        );
        let runs: Vec<Mix12Result> = results.into_iter().map(take).collect();
        let means = |r: &Mix12Result| {
            let p = r.config.phase_secs;
            let mean = |s: &TimeSeries, ph| phase_mean(s, p, ph);
            [
                mean(&r.pert_throughput, 0),
                mean(&r.pert_throughput, 1),
                mean(&r.cross_throughput, 1),
                mean(&r.pert_throughput, 2),
                mean(&r.cross_throughput, 2),
            ]
        };
        for r in &runs {
            let mut row = Vec::with_capacity(5);
            row.push(Cell::Str(r.cross.to_string()));
            row.extend(
                means(r)[..4]
                    .iter()
                    .map(|m| m.map_or(Cell::Str("-".into()), Cell::Num)),
            );
            table.push(row);
        }
        let mut report = Report::new("mix12", scale, seed);
        report.tables.push(table);
        // The competitor gets real bandwidth in its phase, costing PERT
        // some of its solo rate; once it leaves, PERT recovers. Each item
        // is (cross, [PERT ph0, PERT ph1, cross ph1, PERT ph2, cross ph2]).
        let phases = || {
            runs.iter()
                .map(|r| (r.cross, means(r).map(|m| m.unwrap_or(f64::NAN))))
        };
        report.claim_each("competitor_gets_bandwidth", phases(), |(_, m)| {
            m[2] > m[0] * 0.05
        });
        report.claim_each("pert_yields_to_competitor", phases(), |(_, m)| m[1] < m[0]);
        report.claim_each("pert_reconverges", phases(), |(_, m)| m[3] > m[1]);
        let quiet = |(_, m): &(_, [f64; 5])| m[4] < m[2] * 0.05 + 1.0;
        report.claim_each("departed_competitor_goes_quiet", phases(), quiet);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_split_keeps_both_sides_populated() {
        assert_eq!(split_flows(5), (3, 2));
        assert_eq!(split_flows(10), (5, 5));
        assert_eq!(split_flows(1), (2, 2));
        assert_eq!(split_flows(200), (100, 100));
    }

    #[test]
    fn axis_selects_schemes() {
        // The default runs both competitors.
        assert_eq!(CcAxis::current(), CcAxis::Both);
        assert_eq!(CcAxis::Both.schemes().len(), 2);
        assert_eq!(CcAxis::Cubic.schemes().len(), 1);
        assert_eq!(CcAxis::Cubic.schemes()[0].name(), "CUBIC");
        assert_eq!(CcAxis::Bbr.schemes()[0].name(), "BBR");
        let mix12 = |axis| Mix12Scenario(axis).points(Scale::Quick, 1);
        assert_eq!(mix12(CcAxis::Bbr)[0].label, "mix12/BBR");
        assert_eq!(mix12(CcAxis::Both).len(), 2);
    }

    #[test]
    fn mix6_point_both_sides_get_goodput() {
        let cfg = mix6_config(20.0, Scale::Quick, 600, Scheme::Cubic);
        let p = run_mix_point(&cfg, Scale::Quick);
        assert_eq!(p.cross, "CUBIC");
        assert!(p.utilization > 50.0, "util {}", p.utilization);
        assert!(
            p.pert_share > 0.02 && p.pert_share < 0.98,
            "one side starved: PERT share {}",
            p.pert_share
        );
        assert!(p.early_reductions > 0, "PERT never responded early");
    }

    #[test]
    fn mix12_competitor_displaces_and_releases() {
        let r = run_mix12(Scheme::Cubic, Scale::Quick, 1200);
        let p = r.config.phase_secs;
        let pert0 = phase_mean(&r.pert_throughput, p, 0).unwrap();
        let pert1 = phase_mean(&r.pert_throughput, p, 1).unwrap();
        let cross1 = phase_mean(&r.cross_throughput, p, 1).unwrap();
        let pert2 = phase_mean(&r.pert_throughput, p, 2).unwrap();
        let cross2 = phase_mean(&r.cross_throughput, p, 2).unwrap();
        // The competitor gets real bandwidth in its phase, costing PERT
        // some of its solo rate; once it leaves, PERT recovers.
        assert!(cross1 > pert0 * 0.05, "competitor starved: {cross1}");
        assert!(pert1 < pert0, "PERT unaffected by competitor");
        assert!(
            pert2 > pert1,
            "PERT did not re-converge: ph1 {pert1} ph2 {pert2}"
        );
        assert!(
            cross2 < cross1 * 0.05 + 1.0,
            "departed competitor still sending: {cross2}"
        );
    }
}
