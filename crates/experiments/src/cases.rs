//! The six traffic cases of paper §2.2 and the observed-flow trace they
//! produce.
//!
//! Topology (paper): two routers joined by a 100 Mbps / 20 ms link with a
//! 750-packet queue; hosts on 500 Mbps access links with varying delays;
//! *standard TCP* long-term flows in both directions plus background web
//! sessions. One forward flow (end-to-end RTT 60 ms) is the "observed"
//! flow whose per-packet RTT samples feed the predictor studies of
//! Figures 2–4.

use netsim::{SimDuration, SimTime};
use pert_core::predictors::AckSample;
use sim_stats::TimeSeries;
use std::sync::{Arc, Mutex};
use workload::{build_dumbbell, DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::Report;
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// The six (n_long, n_web) combinations of §2.2: 50 or 100 long-term
/// flows (split evenly between directions) × 100/500/1000 web sessions.
pub const PAPER_CASES: [(usize, usize); 6] = [
    (50, 100),
    (50, 500),
    (50, 1000),
    (100, 100),
    (100, 500),
    (100, 1000),
];

/// Reduced cases for `Scale::Quick`.
pub const QUICK_CASES: [(usize, usize); 6] =
    [(10, 10), (10, 30), (10, 60), (20, 10), (20, 30), (20, 60)];

/// The paper's bottleneck buffer for these runs (packets).
pub const CASE_BUFFER: usize = 750;

/// The observed flow's end-to-end RTT (seconds) and the high-RTT
/// threshold used in Figure 2 (65 ms).
pub const OBSERVED_RTT: f64 = 0.060;
/// See [`OBSERVED_RTT`].
pub const HIGH_RTT_THRESHOLD: f64 = 0.065;

/// Everything Figures 2–4 need from one case run.
pub struct CaseTrace {
    /// Case label, e.g. `"case3"`.
    pub label: String,
    /// Long-term flows (total) and web sessions in this case.
    pub n_long: usize,
    /// Web sessions.
    pub n_web: usize,
    /// Per-ACK samples of the observed flow.
    pub samples: Vec<AckSample>,
    /// Data-packet drop times at the bottleneck (queue-level losses),
    /// seconds, sorted.
    pub queue_drops: Vec<f64>,
    /// Drop times of the observed flow only (flow-level losses), sorted.
    pub flow_drops: Vec<f64>,
    /// Normalized bottleneck queue length sampled every 5 ms.
    pub queue_series: TimeSeries,
    /// Measurement window start, seconds.
    pub window_start: f64,
    /// Measurement window end, seconds.
    pub window_end: f64,
}

/// Run one §2.2 case: `n_long` standard-TCP long flows (half forward,
/// half reverse) plus `n_web` web sessions, recording the observed flow.
pub fn run_case(label: &str, n_long: usize, n_web: usize, scale: Scale, seed: u64) -> CaseTrace {
    let n_fwd = (n_long / 2).max(1);
    let n_rev = n_long - n_fwd;

    // Forward RTTs: observed flow at exactly 60 ms, the rest spread over
    // 44–140 ms (access delays vary per the paper's setup).
    let mut forward_rtts = vec![OBSERVED_RTT];
    for i in 1..n_fwd {
        forward_rtts.push(0.044 + 0.096 * (i as f64 / n_fwd.max(2) as f64));
    }
    let reverse_rtts: Vec<f64> = (0..n_rev)
        .map(|i| 0.044 + 0.096 * (i as f64 / n_rev.max(2) as f64))
        .collect();

    let cfg = DumbbellConfig {
        bottleneck_bps: 100_000_000,
        bottleneck_delay: SimDuration::from_millis(20),
        buffer_pkts: CASE_BUFFER,
        forward_rtts,
        reverse_rtts,
        num_web_sessions: n_web,
        web_rtt: 0.080,
        start_window_secs: scale.start_window(),
        seed,
        observed_flow: Some(0),
        ..DumbbellConfig::new(Scheme::SackDroptail)
    };
    let d = build_dumbbell(&cfg);
    let mut sim = d.sim;

    // Probe the bottleneck queue every 5 ms for Figure 4's lookups.
    let series: Arc<Mutex<TimeSeries>> = Arc::default();
    let series2 = Arc::clone(&series);
    let fwd = d.bottleneck_fwd;
    sim.add_probe(SimDuration::from_millis(5), move |sim, now| {
        let len = sim.link(fwd).queue.len() as f64;
        series2
            .lock()
            .unwrap()
            .push(now.as_secs_f64(), len / CASE_BUFFER as f64);
    });

    let warmup = scale.warmup();
    let end = scale.end();
    sim.run_until(SimTime::from_secs_f64(warmup));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(end));

    let observed_flow = d.forward[0].flow;
    let queue_drops: Vec<f64> = sim
        .trace
        .drops
        .iter()
        .filter(|r| r.link == fwd && r.was_data)
        .map(|r| r.at.as_secs_f64())
        .collect();
    let flow_drops: Vec<f64> = sim
        .trace
        .drops
        .iter()
        .filter(|r| r.flow == observed_flow && r.was_data)
        .map(|r| r.at.as_secs_f64())
        .collect();

    let samples: Vec<AckSample> = pert_tcp::sender_samples(&sim, &d.forward[0])
        .iter()
        .filter(|s| s.at >= warmup)
        .copied()
        .collect();

    // The probe closure (and its Arc clone) dies with the simulator.
    drop(sim);
    let queue_series = Arc::try_unwrap(series)
        .expect("probe closure still holds the series")
        .into_inner()
        .unwrap();

    CaseTrace {
        label: label.to_string(),
        n_long,
        n_web,
        samples,
        queue_drops,
        flow_drops,
        queue_series,
        window_start: warmup,
        window_end: end,
    }
}

/// One independent [`Job`] per §2.2 case (case `i` runs at `seed + i`,
/// the historical per-case seeds 42–47 at the default seed).
pub fn case_jobs(target: &str, scale: Scale, seed: u64) -> Vec<Job> {
    let cases = if scale == Scale::Quick {
        QUICK_CASES
    } else {
        PAPER_CASES
    };
    cases
        .iter()
        .enumerate()
        .map(|(i, &(n_long, n_web))| {
            let label = format!("{target}/case{}", i + 1);
            let case_label = format!("case{}", i + 1);
            Job::new(label, move || {
                run_case(&case_label, n_long, n_web, scale, seed + i as u64)
            })
        })
        .collect()
}

/// One figure's share of a case-based report: its table and its claims,
/// computed from the six traces.
pub type CaseFigure = fn(&mut Report, &[CaseTrace]);

/// Figures 2–4 from one set of case runs.
pub const FIG234: CaseScenario = CaseScenario {
    name: "fig234",
    figures: &[
        crate::fig2::add_to,
        crate::fig3::add_to,
        crate::fig4::add_to,
    ],
};

/// A [`Scenario`] over the six §2.2 case runs: the simulations run once
/// and every figure in `figures` reads the same traces (`fig234` all
/// three; `fig2`, `fig3`, `fig4` one each).
pub struct CaseScenario {
    /// The CLI name.
    pub name: &'static str,
    /// The figures the report holds, in display order.
    pub figures: &'static [CaseFigure],
}

impl Scenario for CaseScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn default_seed(&self) -> u64 {
        42
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        case_jobs(self.name, scale, seed)
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let traces: Vec<CaseTrace> = results.into_iter().map(take).collect();
        let mut report = Report::new(self.name, scale, seed);
        for figure in self.figures {
            figure(&mut report, &traces);
        }
        claim_trace_invariants(&mut report, &traces, scale);
        report
    }
}

/// The harness invariants every case trace meets: the observed flow is
/// busy, its RTT floors at the configured value, and its samples lie in
/// the window; at the paper's loads standard TCP also overflows the
/// DropTail bottleneck.
fn claim_trace_invariants(report: &mut Report, traces: &[CaseTrace], scale: Scale) {
    let each = || traces.iter().map(|t| (t.label.as_str(), t));
    report.claim_each(
        "observed_flow_has_500_samples",
        each().map(|(c, t)| (c, t.samples.len())),
        |&(_, n)| n > 500,
    );
    report.claim_each(
        "queue_probed",
        each().map(|(c, t)| (c, t.queue_series.len())),
        |&(_, n)| n > 0,
    );
    if scale >= Scale::Standard {
        // Quick case2 (10 long flows, 30 web sessions) drops nothing in
        // its 10 s window.
        report.claim_each(
            "queue_overflows",
            each().map(|(c, t)| (c, t.queue_drops.len())),
            |&(_, n)| n > 0,
        );
    }
    // Flow-level losses are a subset of queue-level ones.
    report.claim_each(
        "flow_drops_le_queue_drops",
        each().map(|(c, t)| (c, t.flow_drops.len(), t.queue_drops.len())),
        |&(_, flow, queue)| flow <= queue,
    );
    let min_rtt = |t: &CaseTrace| {
        t.samples
            .iter()
            .map(|s| s.rtt)
            .fold(f64::INFINITY, f64::min)
    };
    report.claim_each(
        "rtt_floors_at_configured_value",
        each().map(|(c, t)| (c, min_rtt(t))),
        |&(_, min)| (min - OBSERVED_RTT).abs() < 0.01,
    );
    report.claim_each(
        "samples_inside_window",
        each().map(|(c, t)| (c, t.samples.iter().all(|s| s.at >= t.window_start))),
        |&(_, inside)| inside,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_trace_has_activity() {
        let t = run_case("t", 10, 10, Scale::Quick, 7);
        assert!(
            t.samples.len() > 500,
            "observed flow too quiet: {} samples",
            t.samples.len()
        );
        assert!(!t.queue_series.is_empty());
        // Standard TCP over a DropTail bottleneck must overflow eventually.
        assert!(!t.queue_drops.is_empty(), "no queue-level losses");
        // Flow-level losses are a subset of queue-level ones.
        assert!(t.flow_drops.len() <= t.queue_drops.len());
    }

    #[test]
    fn observed_flow_rtt_floors_at_configured_value() {
        let t = run_case("t", 10, 5, Scale::Quick, 8);
        let min = t
            .samples
            .iter()
            .map(|s| s.rtt)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (min - OBSERVED_RTT).abs() < 0.01,
            "observed min RTT {min} vs configured {OBSERVED_RTT}"
        );
    }

    #[test]
    fn samples_are_restricted_to_window() {
        let t = run_case("t", 10, 5, Scale::Quick, 9);
        assert!(t.samples.iter().all(|s| s.at >= t.window_start));
    }
}
