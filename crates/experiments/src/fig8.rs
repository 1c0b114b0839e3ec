//! **Figure 8** — impact of the number of long-term flows (1 … 1000) at
//! 500 Mbps, 60 ms RTT (§4.3).
//!
//! The paper's key observations: PERT tracks SACK/RED-ECN's low queue and
//! near-zero drops; Vegas — which tries to hold α…β packets *per flow* in
//! the queue — sees its queue and drop rate grow with the flow count while
//! its fairness stays poor.

use netsim::SimDuration;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::Cell;
use crate::sweep::{paper_schemes, point, SchemePoint, SweepClaims, SweepScenario};

/// Flow-count grid per scale.
pub fn flow_grid(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 16],
        Scale::Standard => vec![1, 10, 50, 100, 500, 1000],
        Scale::Full => vec![1, 5, 10, 50, 100, 500, 1000],
    }
}

/// Configuration for one flow-count point (Quick: 50 Mbps to keep tests
/// fast).
pub fn config_for(flows: usize, scale: Scale) -> DumbbellConfig {
    let bps = if scale == Scale::Quick {
        50_000_000
    } else {
        500_000_000
    };
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: crate::sweep::spread_rtts(flows, 0.060),
        start_window_secs: scale.start_window(),
        seed: 80,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// The flow-count sweep.
pub const FIG8: SweepScenario<usize> = SweepScenario {
    name: "fig8",
    seed: 80,
    title: "Figure 8: impact of the number of long-term flows (500 Mbps, 60 ms)",
    note: "(paper: Vegas queue/drops grow with N; PERT stays low with high fairness)",
    columns: &["flows", "scheme", "Q (norm)", "drop rate", "util %", "Jain"],
    grid: flow_grid,
    label: |flows| format!("{flows}flows"),
    config: config_for,
    schemes: paper_schemes,
    key_cells: |flows, row| row.push(Cell::Int(flows as i64)),
    claims,
};

fn claims(c: &mut SweepClaims<usize>, _: Scale) {
    let vegas_q = |g: &[SchemePoint]| point(g, "Vegas").queue_pkts;
    let (first, last) = (
        vegas_q(&c.groups[0]),
        vegas_q(&c.groups[c.groups.len() - 1]),
    );
    let (n0, n1) = (c.keys[0], c.keys[c.keys.len() - 1]);
    c.report
        .claim("vegas_queue_grows_with_flows", last > first, || {
            format!("Vegas queue {first} pkts at {n0} flows, {last} at {n1}")
        });
    let jain = |s: &SchemePoint| s.jain;
    c.vs(
        "pert_jain_ge_vegas_jain_minus_0.1",
        ("PERT", "Vegas"),
        jain,
        |p, v| p >= v - 0.1,
    );
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn vegas_queue_grows_with_flow_count() {
        assert_claims_hold("fig8", &["vegas_queue_grows_with_flows"]);
    }

    #[test]
    fn pert_fairness_stays_high() {
        assert_claims_hold("fig8", &["pert_jain_ge_vegas_jain_minus_0.1"]);
    }
}
