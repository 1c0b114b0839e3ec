//! **Figure 14** — emulating PI at end hosts (§6.1): PERT/PI against
//! router-based PI with ECN support, over the Figure 7 RTT sweep
//! (150 Mbps, 50 flows, target delay 3 ms).

use workload::Scheme;

use crate::fig7::{config_for, rtt_cells, rtt_grid, rtt_label};
use crate::sweep::{SchemePoint, SweepScenario};

/// The PI-emulation sweep: PERT/PI vs SACK over router PI-ECN.
pub const FIG14: SweepScenario<f64> = SweepScenario {
    name: "fig14",
    seed: 140,
    title: "Figure 14: emulating PI from end hosts (150 Mbps, 50 flows)",
    note: "(paper: PERT-PI ~ router PI-ECN on queue & utilization, near-zero drops)",
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
    schemes: || vec![Scheme::PertPi, Scheme::SackPiEcn],
    key_cells: rtt_cells,
    claims: |c, _| {
        c.each(
            "pert_pi_drop_below_0.01",
            "PERT-PI",
            |s| s.drop_rate,
            |d| d < 0.01,
        );
        c.each(
            "pert_pi_util_above_50",
            "PERT-PI",
            |s| s.utilization,
            |u| u > 50.0,
        );
        let early = |s: &SchemePoint| s.early_reductions as f64;
        c.each("pert_pi_responds_early", "PERT-PI", early, |e| e > 0.0);
    },
};

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_pi_avoids_drops_like_router_pi() {
        assert_claims_hold(
            "fig14",
            &[
                "pert_pi_drop_below_0.01",
                "pert_pi_util_above_50",
                "pert_pi_responds_early",
            ],
        );
    }
}
