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
use std::sync::{Arc, Mutex};
use workload::{
    build_dumbbell, link_metrics, run_measured, snapshot_goodput, DumbbellConfig, Scheme,
};

use crate::common::Scale;
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

static CC_AXIS: AtomicU8 = AtomicU8::new(2);

/// Select the competitor axes for subsequent `mix6`/`mix12` runs. Must
/// be called before [`Scenario::points`]; the CLI applies it once at
/// startup, like the shard and audit globals.
pub fn set_cc_axis(axis: CcAxis) {
    let v = match axis {
        CcAxis::Cubic => 0,
        CcAxis::Bbr => 1,
        CcAxis::Both => 2,
    };
    CC_AXIS.store(v, Ordering::SeqCst);
}

/// The currently selected competitor axes.
pub fn cc_axis() -> CcAxis {
    match CC_AXIS.load(Ordering::SeqCst) {
        0 => CcAxis::Cubic,
        1 => CcAxis::Bbr,
        _ => CcAxis::Both,
    }
}

/// The cross-traffic schemes the current axis selects, in report order.
pub fn cross_schemes() -> Vec<Scheme> {
    match cc_axis() {
        CcAxis::Cubic => vec![Scheme::Cubic],
        CcAxis::Bbr => vec![Scheme::Bbr],
        CcAxis::Both => vec![Scheme::Cubic, Scheme::Bbr],
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

/// The `mix6` bandwidth sweep as a [`Scenario`]: one job per
/// (bandwidth × competitor) simulation.
pub struct Mix6Scenario;

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
            for cross in cross_schemes() {
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
        let per_bw = cross_schemes().len();
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
        let mut it = results.into_iter();
        for mbps in crate::fig6::bandwidth_grid(scale) {
            let (n_pert, n_cross) = split_flows(crate::fig6::flows_for_bandwidth(mbps));
            for _ in 0..per_bw {
                let p = take::<MixPoint>(it.next().expect("one result per (bw, cross)"));
                table.push(vec![
                    Cell::Plain(mbps),
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
        }
        let mut report = Report::new("mix6", scale, seed);
        report.tables.push(table);
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

    // Sample each side's aggregate goodput once per second.
    let series: Arc<Mutex<(TimeSeries, TimeSeries)>> =
        Arc::new(Mutex::new((TimeSeries::new(), TimeSeries::new())));
    let series2 = Arc::clone(&series);
    let pert_conns = d.forward.clone();
    let cross_conns = d.cross.clone();
    let prev: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0, 0)));
    let prev2 = Arc::clone(&prev);
    sim.add_probe(SimDuration::from_secs(1), move |sim, now| {
        let acked = |conns: &[pert_tcp::Connection]| -> u64 {
            conns
                .iter()
                .map(|c| pert_tcp::sender_stats(sim, c).acked_segments)
                .sum()
        };
        let (p_now, c_now) = (acked(&pert_conns), acked(&cross_conns));
        let mut prev = prev2.lock().unwrap();
        let mut ser = series2.lock().unwrap();
        ser.0
            .push(now.as_secs_f64(), p_now.saturating_sub(prev.0) as f64);
        ser.1
            .push(now.as_secs_f64(), c_now.saturating_sub(prev.1) as f64);
        *prev = (p_now, c_now);
    });

    sim.run_until(SimTime::from_secs_f64(3.0 * cfg.phase_secs));
    drop(sim);
    let (pert_throughput, cross_throughput) = Arc::try_unwrap(series)
        .expect("probe closure still alive")
        .into_inner()
        .unwrap();

    Mix12Result {
        config: cfg,
        cross: cross_name,
        pert_throughput,
        cross_throughput,
    }
}

/// Mean of `series` during phase `p`, skipping the transient first
/// quarter of the phase.
pub fn mix12_phase_mean(series: &TimeSeries, phase_secs: f64, phase: usize) -> Option<f64> {
    let from = phase as f64 * phase_secs + 0.25 * phase_secs;
    let to = (phase + 1) as f64 * phase_secs;
    series.mean_in(from, to)
}

/// The dynamic mixed-competition experiment as a [`Scenario`]: one job
/// per competitor.
pub struct Mix12Scenario;

impl Scenario for Mix12Scenario {
    fn name(&self) -> &'static str {
        "mix12"
    }

    fn default_seed(&self) -> u64 {
        1200
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        cross_schemes()
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
        for r in results {
            let r = take::<Mix12Result>(r);
            let p = r.config.phase_secs;
            let cell = |s: &TimeSeries, ph: usize| {
                mix12_phase_mean(s, p, ph).map_or(Cell::Str("-".into()), Cell::Num)
            };
            table.push(vec![
                Cell::Str(r.cross.to_string()),
                cell(&r.pert_throughput, 0),
                cell(&r.pert_throughput, 1),
                cell(&r.cross_throughput, 1),
                cell(&r.pert_throughput, 2),
            ]);
        }
        let mut report = Report::new("mix12", scale, seed);
        report.tables.push(table);
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
        // Default (and the explicit Both) runs both competitors.
        set_cc_axis(CcAxis::Both);
        assert_eq!(cross_schemes().len(), 2);
        set_cc_axis(CcAxis::Cubic);
        assert_eq!(cross_schemes().len(), 1);
        assert_eq!(cross_schemes()[0].name(), "CUBIC");
        set_cc_axis(CcAxis::Bbr);
        assert_eq!(cross_schemes()[0].name(), "BBR");
        set_cc_axis(CcAxis::Both);
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
        let pert0 = mix12_phase_mean(&r.pert_throughput, p, 0).unwrap();
        let pert1 = mix12_phase_mean(&r.pert_throughput, p, 1).unwrap();
        let cross1 = mix12_phase_mean(&r.cross_throughput, p, 1).unwrap();
        let pert2 = mix12_phase_mean(&r.pert_throughput, p, 2).unwrap();
        let cross2 = mix12_phase_mean(&r.cross_throughput, p, 2).unwrap();
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
