//! **Figure 6** — impact of bottleneck bandwidth (1 Mbps … 1 Gbps).
//!
//! Four schemes over a 60 ms-RTT dumbbell; the flow count grows with
//! bandwidth so the link stays efficiently utilized (paper §4.1). Panels:
//! average queue (normalized), drop rate, utilization, Jain index.

use netsim::SimDuration;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::Cell;
use crate::sweep::{paper_schemes, SchemePoint, SweepClaims, SweepScenario};

/// The bandwidth grid (Mbps) at each scale.
pub fn bandwidth_grid(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![5.0, 50.0],
        Scale::Standard => vec![1.0, 10.0, 100.0, 500.0, 1000.0],
        Scale::Full => vec![1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0],
    }
}

/// Flow count for a bandwidth, mirroring the paper's "varied such that the
/// link is efficiently utilized even at large bandwidth".
pub fn flows_for_bandwidth(mbps: f64) -> usize {
    ((mbps / 5.0).round() as usize).clamp(5, 200)
}

/// The base configuration for one sweep point.
pub fn config_for(mbps: f64, scale: Scale) -> DumbbellConfig {
    let flows = flows_for_bandwidth(mbps);
    DumbbellConfig {
        bottleneck_bps: (mbps * 1e6) as u64,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: crate::sweep::spread_rtts(flows, 0.060),
        start_window_secs: scale.start_window(),
        seed: 60,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// The bandwidth sweep.
pub const FIG6: SweepScenario<f64> = SweepScenario {
    name: "fig6",
    seed: 60,
    title: "Figure 6: impact of bottleneck bandwidth (RTT 60 ms)",
    note: "(paper: PERT tracks SACK/RED-ECN on queue & drops; SACK/DropTail queue stays high)",
    columns: &[
        "Mbps",
        "flows",
        "scheme",
        "Q (norm)",
        "drop rate",
        "util %",
        "Jain",
    ],
    grid: bandwidth_grid,
    label: |mbps| format!("{mbps}Mbps"),
    config: config_for,
    schemes: paper_schemes,
    key_cells: |mbps, row| {
        row.extend([
            Cell::Plain(mbps),
            Cell::Int(flows_for_bandwidth(mbps) as i64),
        ])
    },
    claims,
};

fn claims(c: &mut SweepClaims<f64>, scale: Scale) {
    let sack = ("PERT", "SACK/DropTail");
    c.vs(
        "pert_q_le_sack_q_plus_0.05",
        sack,
        |s| s.queue_norm,
        |p, s| p <= s + 0.05,
    );
    c.vs("pert_q_below_sack_q", sack, |s| s.queue_norm, |p, s| p < s);
    c.vs(
        "pert_drop_le_sack_drop",
        sack,
        |s| s.drop_rate,
        |p, s| p <= s + 1e-9,
    );
    c.vs("pert_jain_ge_sack_jain", sack, |s| s.jain, |p, s| p >= s);
    let red = ("PERT", "SACK/RED-ECN");
    c.vs("pert_q_le_red_ecn_q", red, |s| s.queue_norm, |p, r| p <= r);
    c.each(
        "pert_util_above_70",
        "PERT",
        |s| s.utilization,
        |u| u > 70.0,
    );
    let early = |s: &SchemePoint| s.early_reductions as f64;
    c.each("pert_responds_early", "PERT", early, |e| e > 0.0);
    c.each("sack_never_responds_early", sack.1, early, |e| e == 0.0);
    for (name, scheme) in [
        ("pert_drops_nothing", "PERT"),
        ("red_ecn_drops_nothing", "SACK/RED-ECN"),
        ("vegas_drops_nothing", "Vegas"),
    ] {
        c.each(name, scheme, |s| s.drop_rate, |d| d == 0.0);
    }
    if scale >= Scale::Standard {
        c.each("pert_jain_ge_0.99", "PERT", |s| s.jain, |j| j >= 0.99);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn flow_scaling_rule() {
        assert_eq!(flows_for_bandwidth(1.0), 5);
        assert_eq!(flows_for_bandwidth(100.0), 20);
        assert_eq!(flows_for_bandwidth(1000.0), 200);
    }

    #[test]
    fn grids_are_monotone() {
        for scale in [Scale::Quick, Scale::Standard, Scale::Full] {
            let g = bandwidth_grid(scale);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn quick_sweep_preserves_orderings() {
        assert_claims_hold("fig6", &["pert_q_le_sack_q_plus_0.05"]);
    }
}
