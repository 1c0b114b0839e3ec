//! **Figure 7** — impact of end-to-end RTT (10 ms … 1 s) at 150 Mbps with
//! 50 long-term flows (§4.2).

use netsim::SimDuration;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::Cell;
use crate::sweep::{paper_schemes, SweepScenario};

/// RTT grid (seconds) per scale.
pub fn rtt_grid(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.030, 0.120],
        Scale::Standard => vec![0.010, 0.030, 0.060, 0.120, 0.300, 1.0],
        Scale::Full => vec![0.010, 0.020, 0.040, 0.060, 0.120, 0.250, 0.500, 1.0],
    }
}

/// Configuration for one RTT point: 150 Mbps (Quick: 30 Mbps), 50 flows
/// (Quick: 10). The bottleneck propagation is a quarter of the RTT so the
/// access links can realize the rest.
pub fn config_for(rtt: f64, scale: Scale) -> DumbbellConfig {
    let (bps, flows) = if scale == Scale::Quick {
        (30_000_000, 10)
    } else {
        (150_000_000, 50)
    };
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_secs_f64(rtt / 4.0),
        forward_rtts: crate::sweep::spread_rtts(flows, rtt),
        start_window_secs: scale.start_window(),
        seed: 70,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// The RTT sweep.
pub const FIG7: SweepScenario<f64> = SweepScenario {
    name: "fig7",
    seed: 70,
    title: "Figure 7: impact of end-to-end RTT (150 Mbps, 50 flows)",
    note: "(paper: PERT ~ SACK/RED-ECN queue & drops; fixed thresholds cost a little utilization)",
    columns: &[
        "RTT ms",
        "scheme",
        "Q (norm)",
        "drop rate",
        "util %",
        "Jain",
    ],
    grid: rtt_grid,
    label: rtt_label,
    config: config_for,
    schemes: paper_schemes,
    key_cells: rtt_cells,
    claims: |c, _| c.each("pert_jain_above_0.5", "PERT", |s| s.jain, |j| j > 0.5),
};

/// The job-label segment of an RTT key (shared with Figure 14 and §8).
pub fn rtt_label(rtt: f64) -> String {
    format!("{:.0}ms", rtt * 1e3)
}

/// Push the key cell of an RTT row (shared with Figure 14 and §8).
pub fn rtt_cells(rtt: f64, row: &mut Vec<Cell>) {
    row.push(Cell::Fixed(rtt * 1e3, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn configs_scale_bottleneck_delay_with_rtt() {
        let c = config_for(0.120, Scale::Quick);
        assert_eq!(c.bottleneck_delay, SimDuration::from_millis(30));
        // RTTs spread ±5 % around the target (varying access delays, as in
        // the paper's topology).
        assert!(c
            .forward_rtts
            .iter()
            .all(|&r| (0.95 * 0.120..=1.05 * 0.120).contains(&r)));
        let mean: f64 = c.forward_rtts.iter().sum::<f64>() / c.forward_rtts.len() as f64;
        assert!((mean - 0.120).abs() < 0.002);
    }

    #[test]
    fn quick_sweep_runs_and_keeps_fairness() {
        assert_claims_hold("fig7", &["pert_jain_above_0.5"]);
    }
}
