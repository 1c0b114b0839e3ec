//! **Figure 9** — impact of bursty web traffic (10 … 1000 sessions) at
//! 150 Mbps with 50 long-term flows (§4.4). Jain is computed over the
//! long-term flows only, as in the paper.

use netsim::SimDuration;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::Cell;
use crate::sweep::{paper_schemes, SweepScenario};

/// Web-session grid per scale.
pub fn web_grid(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![5, 25],
        Scale::Standard => vec![10, 100, 500, 1000],
        Scale::Full => vec![10, 50, 100, 500, 1000],
    }
}

/// Configuration for one point (Quick: 30 Mbps / 10 flows).
pub fn config_for(web: usize, scale: Scale) -> DumbbellConfig {
    let (bps, flows) = if scale == Scale::Quick {
        (30_000_000, 10)
    } else {
        (150_000_000, 50)
    };
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: crate::sweep::spread_rtts(flows, 0.060),
        num_web_sessions: web,
        start_window_secs: scale.start_window(),
        seed: 90,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// The web-session sweep.
pub const FIG9: SweepScenario<usize> = SweepScenario {
    name: "fig9",
    seed: 90,
    title: "Figure 9: impact of web traffic (150 Mbps, 50 long-term flows)",
    note: "(paper: queue stays low and losses near zero for PERT as web load grows)",
    columns: &["web", "scheme", "Q (norm)", "drop rate", "util %", "Jain"],
    grid: web_grid,
    label: |web| format!("{web}web"),
    config: config_for,
    schemes: paper_schemes,
    key_cells: |web, row| row.push(Cell::Int(web as i64)),
    claims: |c, _| {
        let sack = ("PERT", "SACK/DropTail");
        c.vs(
            "pert_q_le_sack_q_plus_0.05",
            sack,
            |s| s.queue_norm,
            |p, s| p <= s + 0.05,
        );
    },
};

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_keeps_low_queue_under_web_load() {
        assert_claims_hold("fig9", &["pert_q_le_sack_q_plus_0.05"]);
    }
}
