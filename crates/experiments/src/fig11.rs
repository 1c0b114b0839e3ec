//! **Figure 11** — multiple bottlenecks (§4.6, topology of Figure 10):
//! the six-router chain with per-hop local traffic plus end-to-end flows.
//! Reports per-hop queue, drop rate, utilization, and the Jain index of
//! the flows crossing that hop.

use sim_stats::jain_index;
use workload::{build_chain, link_metrics, run_measured, snapshot_goodput, ChainConfig, Scheme};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;
use crate::sweep::paper_schemes;

/// Per-hop metrics for one scheme.
#[derive(Clone, Debug)]
pub struct HopMetrics {
    /// Hop index (0 = R1→R2).
    pub hop: usize,
    /// Normalized mean queue.
    pub queue_norm: f64,
    /// Drop rate.
    pub drop_rate: f64,
    /// Utilization percent.
    pub utilization: f64,
    /// Jain index of the hop-local flows plus the end-to-end flows.
    pub jain: f64,
}

/// One scheme's Figure 11 result.
#[derive(Clone, Debug)]
pub struct Fig11Result {
    /// Scheme name.
    pub scheme: &'static str,
    /// Per-hop rows.
    pub hops: Vec<HopMetrics>,
}

/// Chain configuration per scale.
pub fn config(scheme: Scheme, scale: Scale) -> ChainConfig {
    let mut cfg = ChainConfig::paper(scheme);
    if scale == Scale::Quick {
        cfg.num_routers = 4;
        cfg.cloud_size = 4;
        cfg.router_bps = 20_000_000;
    }
    cfg.start_window_secs = scale.start_window();
    cfg
}

/// Run one scheme through the chain with an explicit master seed.
pub fn run_scheme_seeded(scheme: Scheme, scale: Scale, seed: u64) -> Fig11Result {
    let name = scheme.name();
    let mut cfg = config(scheme, scale);
    cfg.seed = seed;
    let c = build_chain(&cfg);
    let mut sim = c.sim;

    sim.run_until(netsim::SimTime::from_secs_f64(scale.warmup()));
    // Flows relevant per hop: the hop-local ones plus every end-to-end flow.
    let mut per_hop_flows = Vec::new();
    for flows in &c.hop_flows {
        let mut v = flows.clone();
        v.extend_from_slice(&c.end_to_end);
        per_hop_flows.push(v);
    }
    let before: Vec<_> = per_hop_flows
        .iter()
        .map(|f| snapshot_goodput(&sim, f))
        .collect();
    let (start, end) = run_measured(&mut sim, scale.warmup(), scale.end());
    let after: Vec<_> = per_hop_flows
        .iter()
        .map(|f| snapshot_goodput(&sim, f))
        .collect();

    let hops = c
        .hop_links
        .iter()
        .enumerate()
        .map(|(i, &(fwd, _rev))| {
            let m = link_metrics(&sim, fwd, start, end);
            let rates = after[i].rates_since(&before[i]);
            HopMetrics {
                hop: i,
                queue_norm: m.mean_queue_norm,
                drop_rate: m.drop_rate,
                utilization: m.utilization,
                jain: jain_index(&rates),
            }
        })
        .collect();

    Fig11Result { scheme: name, hops }
}

/// The chain experiment as a [`Scenario`]: one job per scheme.
pub struct Fig11Scenario;

impl Scenario for Fig11Scenario {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn default_seed(&self) -> u64 {
        ChainConfig::paper(Scheme::Pert).seed
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        paper_schemes()
            .into_iter()
            .map(|scheme| {
                let label = format!("fig11/{}", scheme.name());
                Job::new(label, move || run_scheme_seeded(scheme, scale, seed))
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut table = Table::new(
            "Figure 11: multiple bottlenecks (six-router chain, Fig. 10 topology)",
            &["scheme", "hop", "Q (norm)", "drop rate", "util %", "Jain"],
        )
        .with_note("(paper: PERT holds low queues and ~zero drops on every hop)");
        let results: Vec<Fig11Result> = results.into_iter().map(take).collect();
        for r in &results {
            for h in &r.hops {
                table.push(vec![
                    Cell::Str(r.scheme.to_string()),
                    Cell::Str(format!("R{}-R{}", h.hop + 1, h.hop + 2)),
                    Cell::Num(h.queue_norm),
                    Cell::Num(h.drop_rate),
                    Cell::Num(h.utilization),
                    Cell::Num(h.jain),
                ]);
            }
        }
        let mut report = Report::new("fig11", scale, seed);
        report.tables.push(table);
        let hops = |name: &str| {
            &results
                .iter()
                .find(|r| r.scheme == name)
                .expect("fig11 runs every paper scheme")
                .hops
        };
        let mean_q = |hops: &[HopMetrics]| {
            hops.iter().map(|h| h.queue_norm).sum::<f64>() / hops.len() as f64
        };
        let (pert, sack) = (hops("PERT"), hops("SACK/DropTail"));
        let (pert_q, sack_q) = (mean_q(pert), mean_q(sack));
        report.claim("pert_mean_hop_q_below_sack", pert_q < sack_q, || {
            format!("PERT mean hop Q {pert_q}, SACK/DropTail {sack_q}")
        });
        report.claim_each(
            "pert_hop_drop_below_0.02",
            pert.iter().map(|h| (h.hop, h.drop_rate)),
            |&(_, d)| d < 0.02,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_low_queue_across_all_hops() {
        assert_claims_hold(
            "fig11",
            &["pert_mean_hop_q_below_sack", "pert_hop_drop_below_0.02"],
        );
    }
}
