//! **Figure 12** — dynamic protocol behaviour (§4.7): cohorts of 25 flows
//! join at fixed intervals, then leave at the same cadence; the panel
//! plots each cohort's aggregate throughput over time. PERT should
//! re-converge quickly after every arrival/departure and share bandwidth
//! across cohorts.

use netsim::{SimDuration, SimTime, Simulator};
use pert_tcp::Connection;
use sim_stats::TimeSeries;
use std::sync::{Arc, Mutex};
use workload::{build_dumbbell, DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// The experiment's shape.
#[derive(Clone, Debug)]
pub struct Fig12Config {
    /// Flows per cohort (paper: 25).
    pub cohort_size: usize,
    /// Number of cohorts (paper: 4 — at 0, 100, 200, 300 s).
    pub cohorts: usize,
    /// Seconds between arrival (and departure) events (paper: 100).
    pub phase_secs: f64,
    /// Bottleneck bandwidth, bits/second.
    pub bottleneck_bps: u64,
    /// Scheme under test.
    pub scheme: Scheme,
}

impl Fig12Config {
    /// Paper shape at the given scale (Quick shrinks cohorts and phases).
    pub fn at_scale(scheme: Scheme, scale: Scale) -> Self {
        match scale {
            Scale::Quick => Fig12Config {
                cohort_size: 4,
                cohorts: 3,
                phase_secs: 5.0,
                bottleneck_bps: 20_000_000,
                scheme,
            },
            Scale::Standard => Fig12Config {
                cohort_size: 25,
                cohorts: 4,
                phase_secs: 25.0,
                bottleneck_bps: 150_000_000,
                scheme,
            },
            Scale::Full => Fig12Config {
                cohort_size: 25,
                cohorts: 4,
                phase_secs: 100.0,
                bottleneck_bps: 150_000_000,
                scheme,
            },
        }
    }

    /// Total run time: cohorts join for `cohorts` phases, then leave one
    /// cohort per phase.
    pub fn total_secs(&self) -> f64 {
        self.phase_secs * (2 * self.cohorts - 1) as f64
    }
}

/// The result: one aggregate-throughput series per cohort (segments/s,
/// sampled once per second).
#[derive(Clone, Debug)]
pub struct Fig12Result {
    /// Configuration used.
    pub config: Fig12Config,
    /// Per-cohort `(t, aggregate segments/s)` series.
    pub cohort_throughput: Vec<TimeSeries>,
}

/// Run the experiment with an explicit master seed.
pub fn run_scheme_seeded(scheme: Scheme, scale: Scale, seed: u64) -> Fig12Result {
    let cfg = Fig12Config::at_scale(scheme, scale);
    let n_total = cfg.cohort_size * cfg.cohorts;
    let dcfg = DumbbellConfig {
        bottleneck_bps: cfg.bottleneck_bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: vec![0.060; n_total],
        start_window_secs: 0.0,
        auto_start: false, // starts are scheduled per cohort below
        seed,
        ..DumbbellConfig::new(cfg.scheme.clone())
    };
    let d = build_dumbbell(&dcfg);
    let mut sim = d.sim;

    // Cohort c: flows [c·size, (c+1)·size); joins at c·phase.
    // Departures: cohort c leaves at (cohorts + c)·phase (the paper removes
    // flows in arrival order).
    for c in 0..cfg.cohorts {
        let join = SimTime::from_secs_f64(c as f64 * cfg.phase_secs);
        for conn in &d.forward[c * cfg.cohort_size..(c + 1) * cfg.cohort_size] {
            sim.schedule_agent_timer(join, conn.sender, conn.start_token);
        }
        if c < cfg.cohorts - 1 {
            // All but the last cohort leave.
            let leave = SimTime::from_secs_f64((cfg.cohorts + c) as f64 * cfg.phase_secs);
            for conn in &d.forward[c * cfg.cohort_size..(c + 1) * cfg.cohort_size] {
                sim.schedule_agent_timer(leave, conn.sender, conn.stop_token);
            }
        }
    }

    let cohorts = (0..cfg.cohorts)
        .map(|c| d.forward[c * cfg.cohort_size..(c + 1) * cfg.cohort_size].to_vec())
        .collect();
    let until = SimTime::from_secs_f64(cfg.total_secs());
    let cohort_throughput = cohort_goodput(sim, cohorts, until);
    Fig12Result {
        config: cfg,
        cohort_throughput,
    }
}

/// Run `sim` until `until`, sampling each cohort's aggregate goodput
/// (segments acked in the last second) once per second.
pub fn cohort_goodput(
    mut sim: Simulator,
    cohorts: Vec<Vec<Connection>>,
    until: SimTime,
) -> Vec<TimeSeries> {
    let series = Arc::new(Mutex::new(vec![TimeSeries::new(); cohorts.len()]));
    let sink = Arc::clone(&series);
    let mut prev = vec![0; cohorts.len()];
    sim.add_probe(SimDuration::from_secs(1), move |sim, now| {
        let mut series = sink.lock().unwrap();
        for (c, conns) in cohorts.iter().enumerate() {
            let acked: u64 = conns
                .iter()
                .map(|conn| pert_tcp::sender_stats(sim, conn).acked_segments)
                .sum();
            series[c].push(now.as_secs_f64(), acked.saturating_sub(prev[c]) as f64);
            prev[c] = acked;
        }
    });
    sim.run_until(until);
    drop(sim);
    Arc::try_unwrap(series)
        .expect("probe closure still alive")
        .into_inner()
        .unwrap()
}

/// Mean of `series` during phase `phase` (phases are `phase_secs` long),
/// skipping the transient first quarter of the phase.
pub fn phase_mean(series: &TimeSeries, phase_secs: f64, phase: usize) -> Option<f64> {
    let from = phase as f64 * phase_secs + 0.25 * phase_secs;
    let to = (phase + 1) as f64 * phase_secs;
    series.mean_in(from, to)
}

/// The dynamic-behaviour experiment as a [`Scenario`]: a single job (the
/// paper's PERT panel) whose result becomes the phase-by-phase cohort
/// throughput table.
pub struct Fig12Scenario;

impl Scenario for Fig12Scenario {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn default_seed(&self) -> u64 {
        120
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        vec![Job::new("fig12/PERT", move || {
            run_scheme_seeded(Scheme::Pert, scale, seed)
        })]
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let result = take::<Fig12Result>(results.into_iter().next().expect("one job"));
        let cfg = &result.config;
        let mean = |c: usize, ph| phase_mean(&result.cohort_throughput[c], cfg.phase_secs, ph);
        let phases = 2 * cfg.cohorts - 1;
        let mut header = vec!["cohort".to_string()];
        for ph in 0..phases {
            header.push(format!("ph{ph}"));
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            format!(
                "Figure 12: dynamic behaviour — {} cohorts of {} {} flows, {}s phases",
                cfg.cohorts,
                cfg.cohort_size,
                cfg.scheme.name(),
                cfg.phase_secs
            ),
            &header_refs,
        )
        .with_note("(cells: mean aggregate goodput in segments/s; '-' = cohort inactive)");
        for c in 0..cfg.cohorts {
            let mut row = vec![Cell::Str(format!("cohort{c}"))];
            for ph in 0..phases {
                let active = ph >= c && (c == cfg.cohorts - 1 || ph < cfg.cohorts + c);
                if active {
                    row.push(mean(c, ph).map_or(Cell::Str("-".into()), Cell::Num));
                } else {
                    row.push(Cell::Str("-".into()));
                }
            }
            table.push(row);
        }
        let mut report = Report::new("fig12", scale, seed);
        report.tables.push(table);

        // In the all-active phase (phase cohorts-1) each cohort gets a
        // non-trivial, fair share.
        let all_active = cfg.cohorts - 1;
        let shares: Vec<f64> = (0..cfg.cohorts)
            .map(|c| mean(c, all_active).unwrap_or(0.0))
            .collect();
        let total: f64 = shares.iter().sum();
        let floor = total / (cfg.cohorts as f64 * 4.0);
        report.claim(
            "cohorts_share_when_all_active",
            total > 0.0 && shares.iter().all(|&s| s > floor),
            || format!("shares {shares:?}, floor {floor}"),
        );
        let jain = sim_stats::jain_index(&shares);
        report.claim("all_active_jain_ge_0.95", jain >= 0.95, || {
            format!("Jain {jain} over shares {shares:?}")
        });
        // In the final phase only the last cohort remains: it takes
        // clearly more than its all-active share, and the departed
        // cohort 0 is ~silent.
        let final_phase = 2 * cfg.cohorts - 2;
        let last_share = shares[all_active];
        let final_rate = mean(all_active, final_phase).unwrap_or(0.0);
        report.claim(
            "last_cohort_takes_over",
            final_rate > last_share * 1.5,
            || format!("final {final_rate} vs all-active share {last_share}"),
        );
        let departed = mean(0, final_phase).unwrap_or(0.0);
        report.claim(
            "departed_cohorts_go_quiet",
            departed < final_rate * 0.05 + 1.0,
            || format!("cohort0 {departed} vs active {final_rate}"),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn cohorts_share_when_all_active_and_last_takes_over() {
        assert_claims_hold(
            "fig12",
            &["cohorts_share_when_all_active", "last_cohort_takes_over"],
        );
    }

    #[test]
    fn departed_cohorts_go_quiet() {
        assert_claims_hold("fig12", &["departed_cohorts_go_quiet"]);
    }
}
