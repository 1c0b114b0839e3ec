//! **Table 1** — flows with different RTTs (12, 24, …, 120 ms) sharing a
//! 150 Mbps bottleneck with 100 background web sessions (§4.5). Reports
//! normalized queue `Q`, drop rate `p`, utilization `U`, and Jain `F` for
//! the four schemes; the paper's point is that PERT (and Vegas) reduce
//! TCP's RTT-unfairness while keeping the queue low.

use netsim::SimDuration;
use workload::{DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::sweep::{paper_schemes, SweepClaims, SweepScenario};

/// The configuration of Table 1.
pub fn config(scale: Scale) -> DumbbellConfig {
    let (bps, n, web) = if scale == Scale::Quick {
        (30_000_000, 10, 10)
    } else {
        (150_000_000, 10, 100)
    };
    // RTTs 12, 24, ..., 120 ms.
    let rtts: Vec<f64> = (1..=n).map(|i| 0.012 * i as f64).collect();
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(3),
        forward_rtts: rtts,
        num_web_sessions: web,
        web_rtt: 0.060,
        start_window_secs: scale.start_window(),
        seed: 11,
        ..DumbbellConfig::new(Scheme::Pert)
    }
}

/// Table 1: one job per scheme at the one configuration.
pub const TABLE1: SweepScenario<&str> = SweepScenario {
    name: "table1",
    seed: 11,
    title: "Table 1: flows with different RTTs (12..120 ms) + 100 web sessions, 150 Mbps",
    note: "(paper: PERT Q=0.28 p~4e-6 U=93.8 F=0.86; SACK/DropTail F=0.44; Vegas F=0.98)",
    columns: &["scheme", "Q", "p", "U %", "F"],
    grid: |_| vec!["hetero-rtt"],
    label: str::to_string,
    config: |_, scale| config(scale),
    schemes: paper_schemes,
    key_cells: |_, _| {},
    claims,
};

fn claims(c: &mut SweepClaims<&str>, scale: Scale) {
    let sack = ("PERT", "SACK/DropTail");
    c.vs("pert_q_below_sack_q", sack, |s| s.queue_norm, |p, s| p < s);
    c.vs("pert_p_le_sack_p", sack, |s| s.drop_rate, |p, s| p <= s);
    // Quick windows (15 s) are too short for the fairness index to
    // converge, so the paper's F ordering is checked from standard on.
    c.each("pert_jain_above_0.3", "PERT", |s| s.jain, |j| j > 0.3);
    if scale >= Scale::Standard {
        c.vs("pert_f_above_sack_f", sack, |s| s.jain, |p, s| p > s);
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_keeps_queue_low_with_heterogeneous_rtts() {
        assert_claims_hold("table1", &["pert_q_below_sack_q", "pert_jain_above_0.3"]);
    }
}
