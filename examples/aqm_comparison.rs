//! AQM comparison: the paper's four schemes side by side on one
//! bottleneck.
//!
//! Uses the `workload` scenario builder and measurement protocol to
//! compare PERT, SACK/DropTail, SACK/RED-ECN and Vegas on a 50 Mbps /
//! 60 ms dumbbell with 10 long-term flows and 20 background web sessions
//! — a miniature of the paper's Figures 6–9 rows.
//!
//! Run with: `cargo run --release --example aqm_comparison`

use pert::netsim::SimDuration;
use pert::stats::jain_index;
use pert::tcp::sender_cc;
use pert::workload::{
    build_dumbbell, link_metrics, run_measured, snapshot_goodput, DumbbellConfig, Scheme,
};

fn main() {
    println!("scheme comparison — 50 Mbps, 60 ms RTT, 10 flows + 20 web sessions\n");
    println!(
        "  {:<14} {:>9} {:>10} {:>8} {:>6} {:>7}",
        "scheme", "Q (norm)", "drop rate", "util %", "Jain", "early"
    );

    for scheme in [
        Scheme::Pert,
        Scheme::SackDroptail,
        Scheme::SackRedEcn,
        Scheme::Vegas,
    ] {
        let name = scheme.name();
        let cfg = DumbbellConfig {
            bottleneck_bps: 50_000_000,
            bottleneck_delay: SimDuration::from_millis(10),
            forward_rtts: vec![0.060; 10],
            num_web_sessions: 20,
            start_window_secs: 5.0,
            seed: 7,
            ..DumbbellConfig::new(scheme)
        };
        let d = build_dumbbell(&cfg);
        let mut sim = d.sim;

        sim.run_until(pert::netsim::SimTime::from_secs_f64(15.0));
        let before = snapshot_goodput(&sim, &d.forward);
        let (start, end) = run_measured(&mut sim, 15.0, 60.0);
        let after = snapshot_goodput(&sim, &d.forward);

        let m = link_metrics(&sim, d.bottleneck_fwd, start, end);
        let jain = jain_index(&after.rates_since(&before));
        let early: u64 = d
            .forward
            .iter()
            .map(|c| sender_cc(&sim, c).early_reductions())
            .sum();

        println!(
            "  {:<14} {:>9.3} {:>10.2e} {:>8.1} {:>6.3} {:>7}",
            name, m.mean_queue_norm, m.drop_rate, m.utilization, jain, early
        );
    }

    println!(
        "\nExpected shape (paper Figs. 6-9): PERT ~ SACK/RED-ECN with low queue and\n\
         ~zero drops; SACK/DropTail holds a large standing queue; Vegas utilizes\n\
         highly but shares unfairly across staggered starts."
    );
}
