//! **§8 generalization** — emulating REM from end hosts.
//!
//! The paper closes with "the proposed scheme is flexible in the sense
//! that other AQM schemes can be potentially emulated at the end-host".
//! This experiment demonstrates it beyond the paper's own PI case: a
//! PERT variant whose response probability follows REM's
//! price-and-exponential-marking law, compared against router REM with
//! ECN over the Figure-7 RTT sweep.

use workload::Scheme;

use crate::common::Scale;
use crate::fig7::{config_for, rtt_cells, rtt_grid, rtt_label};
use crate::sweep::{SchemePoint, SweepClaims, SweepScenario};

/// The REM-emulation sweep: PERT/REM vs SACK over router REM-ECN.
pub const REM: SweepScenario<f64> = SweepScenario {
    name: "rem",
    seed: 180,
    title: "Section 8 generalization: emulating REM from end hosts (150 Mbps, 50 flows)",
    note: "(PERT-REM ~ router REM-ECN on queue & utilization, near-zero drops)",
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
    schemes: || vec![Scheme::PertRem, Scheme::SackRemEcn],
    key_cells: rtt_cells,
    claims,
};

fn claims(c: &mut SweepClaims<f64>, _: Scale) {
    let early = |s: &SchemePoint| s.early_reductions as f64;
    c.each("pert_rem_responds_early", "PERT-REM", early, |e| e > 0.0);
    // The 30 ms quick point runs saturated (50 flows, queue near the
    // buffer); the RFC 5681 stretch-ACK crossover fix moved its drop
    // rate within the same regime, so the bound matches the router-REM
    // one rather than the tighter pre-fix trajectory.
    c.each(
        "pert_rem_drop_below_0.05",
        "PERT-REM",
        |s| s.drop_rate,
        |d| d < 0.05,
    );
    c.each(
        "pert_rem_util_above_50",
        "PERT-REM",
        |s| s.utilization,
        |u| u > 50.0,
    );
    c.each(
        "router_rem_drop_below_0.05",
        "SACK/REM-ECN",
        |s| s.drop_rate,
        |d| d < 0.05,
    );
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_rem_responds_early_and_avoids_drops() {
        assert_claims_hold(
            "rem",
            &[
                "pert_rem_responds_early",
                "pert_rem_drop_below_0.05",
                "pert_rem_util_above_50",
            ],
        );
    }

    #[test]
    fn router_rem_marks_rather_than_drops() {
        assert_claims_hold("rem", &["router_rem_drop_below_0.05"]);
    }
}
