//! The benchmark's definition: metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is `pert-bench list --json`
//! written to a file; `check.sh` holds the two together.

use std::fmt::Write as _;

use crate::workloads::Workload;

/// Seconds one driver invocation may spend, set-up and counted passes
/// included. 4 + 22 × 4 invocations of 28 s and two 25–60 s builds stay
/// under the contract's 3420 s with 10 min to spare for a slow host.
pub const RUN_SECONDS: u64 = 28;

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may get worse.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and in every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics, in output order. Bounds are calibrated from
/// `pert-bench aa` on the reference host (README.md has the table): each
/// is at least twice the disagreement two sets of the same build showed
/// and above the largest quartile spread of either set, capped at the
/// contract's 0.25. Runs of one build differ by seed, and on the sweeps
/// the seed alone moves events by ±3.5 % and allocations by ±5 %.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_vs_base",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_vs_base",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.07,
    },
    EndToEnd {
        name: "allocs",
        unit: "count",
        better: "lower",
        bound: 0.2,
    },
];

/// The per-layer metrics `(name, unit, better)`, in output order. A
/// layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("workload.build_s", "s", "lower"),
    ("workload.flows", "count", "lower"),
    ("netsim.sim.run_until_s", "s", "lower"),
    ("netsim.sim.events", "count", "lower"),
    ("netsim.sim.ns_event", "ns", "lower"),
    ("netsim.sim.ev_arrival", "count", "lower"),
    ("netsim.sim.ev_timer", "count", "lower"),
    ("netsim.sim.ev_departure", "count", "lower"),
    ("netsim.event.churn64_ns_op", "ns", "lower"),
    ("netsim.event.churn100k_ns_op", "ns", "lower"),
    ("netsim.event.cancel_ns_op", "ns", "lower"),
    ("netsim.queue.droptail_ns_op", "ns", "lower"),
    ("netsim.queue.red_ns_op", "ns", "lower"),
    ("netsim.queue.pi_ns_op", "ns", "lower"),
    ("netsim.queue.rem_ns_op", "ns", "lower"),
    ("netsim.queue.avq_ns_op", "ns", "lower"),
    ("netsim.arena.alloc_free_ns_op", "ns", "lower"),
    ("pert_tcp.scoreboard_ns_op", "ns", "lower"),
    ("pert_tcp.cc.reno_ns_ack", "ns", "lower"),
    ("pert_tcp.cc.vegas_ns_ack", "ns", "lower"),
    ("pert_tcp.cc.pert_ns_ack", "ns", "lower"),
    ("pert_tcp.cc.cubic_ns_ack", "ns", "lower"),
    ("pert_tcp.cc.bbr_ns_ack", "ns", "lower"),
    ("pert_core.pert.on_ack_ns_op", "ns", "lower"),
    ("experiments.job.cubic_s", "s", "lower"),
    ("experiments.job.bbr_s", "s", "lower"),
    ("experiments.job.pert_rem_s", "s", "lower"),
    ("experiments.job.sack_rem_s", "s", "lower"),
    ("experiments.job.pert_pi_s", "s", "lower"),
    ("experiments.job.sack_pi_s", "s", "lower"),
    ("pert_core.telemetry.record_ns_op", "ns", "lower"),
    ("pert_core.telemetry.record_2t_ns_op", "ns", "lower"),
    ("pert_core.telemetry.records", "count", "lower"),
    ("sim_stats.derive.ingest_ns_op", "ns", "lower"),
    ("sim_stats.derive.summary_s", "s", "lower"),
    ("pert_core.telemetry.write_trace_s", "s", "lower"),
    ("pert_core.telemetry.trace_mib", "MiB", "lower"),
    ("experiments.trace_cli.parse_mib_s", "MiB/s", "higher"),
    ("netsim.shard.split_s", "s", "lower"),
    ("netsim.shard.run_until_s", "s", "lower"),
    ("netsim.shard.merge_s", "s", "lower"),
    ("netsim.shard.max_event_share", "ratio", "lower"),
    ("netsim.shard.cpu_over_wall", "ratio", "higher"),
    ("experiments.runner.run_jobs_s", "s", "lower"),
    ("experiments.runner.jobs", "count", "lower"),
    ("experiments.runner.imbalance", "ratio", "higher"),
    ("experiments.runner.j1_over_j2", "ratio", "higher"),
    ("experiments.report.assemble_s", "s", "lower"),
    ("experiments.report.render_text_s", "s", "lower"),
    ("experiments.report.render_json_s", "s", "lower"),
    ("experiments.report.report_bytes", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
];

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "pertbench/Cargo.toml",
    "--bin",
    "pert-bench",
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    for (i, c) in COMMAND.iter().chain(&["--"]).enumerate() {
        let _ = write!(out, "{}\"{c}\"", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"pertbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn definition_meets_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for (_, unit, better) in &PER_LAYER {
            assert!(unit_ok(unit) && ["lower", "higher"].contains(better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
        assert!(COMMAND.len() < 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }
}
