//! The paper's measurement protocol: run a warm-up, measure a stable
//! window, and report `(Q, p, U, F)` — normalized average queue, drop
//! rate, link utilization, and Jain fairness (the columns of Table 1 and
//! the panels of Figures 6–9, 11, 14).

use netsim::{LinkId, SimTime, Simulator};
use pert_tcp::Connection;

/// Per-link measurements over a window.
#[derive(Clone, Copy, Debug)]
pub struct LinkMetrics {
    /// Time-weighted mean queue, packets.
    pub mean_queue_pkts: f64,
    /// Mean queue normalized by the buffer size (the paper's `Q`).
    pub mean_queue_norm: f64,
    /// Fraction of offered packets dropped (the paper's `p`).
    pub drop_rate: f64,
    /// Fraction of offered packets ECN-marked.
    pub mark_rate: f64,
    /// Link utilization in percent (the paper's `U`).
    pub utilization: f64,
    /// Packets delivered in the window.
    pub delivered_pkts: u64,
}

/// Snapshot of per-flow goodput counters, for windowed throughput and
/// fairness.
#[derive(Clone, Debug)]
pub struct GoodputSnapshot {
    at: SimTime,
    acked: Vec<u64>,
}

/// Take a goodput snapshot of `conns` (senders' cumulative acked
/// segments).
pub fn snapshot_goodput(sim: &Simulator, conns: &[Connection]) -> GoodputSnapshot {
    GoodputSnapshot {
        at: sim.now(),
        acked: conns
            .iter()
            .map(|c| pert_tcp::sender_stats(sim, c).acked_segments)
            .collect(),
    }
}

impl GoodputSnapshot {
    /// Per-flow goodput in segments/second since `earlier`.
    ///
    /// # Panics
    /// Panics if the snapshots cover different flow sets or zero time.
    pub fn rates_since(&self, earlier: &GoodputSnapshot) -> Vec<f64> {
        assert_eq!(self.acked.len(), earlier.acked.len(), "flow sets differ");
        let dt = self.at.duration_since(earlier.at).as_secs_f64();
        assert!(dt > 0.0, "zero-length window");
        self.acked
            .iter()
            .zip(&earlier.acked)
            .map(|(&a, &b)| (a.saturating_sub(b)) as f64 / dt)
            .collect()
    }
}

/// Read `link`'s metrics for the window `[start, end]`. The caller must
/// have called [`Simulator::reset_measurements`] at `start` and
/// [`Simulator::flush_measurements`] at `end`.
pub fn link_metrics(sim: &Simulator, link: LinkId, start: SimTime, end: SimTime) -> LinkMetrics {
    let l = sim.link(link);
    let stats = l.queue.stats();
    let span = end.duration_since(start);
    let mean_q = stats.mean_len(start, end);
    LinkMetrics {
        mean_queue_pkts: mean_q,
        mean_queue_norm: mean_q / l.queue.capacity_pkts() as f64,
        drop_rate: stats.drop_rate(),
        mark_rate: stats.mark_rate(),
        utilization: l.utilization_percent(span),
        delivered_pkts: l.delivered_pkts,
    }
}

/// Run the paper's standard protocol on a prepared simulator: simulate to
/// `warmup`, reset counters, simulate to `end`, flush, and return nothing —
/// the caller then reads metrics. Returns the `(start, end)` window.
///
/// When the simulator's config asks for more than one shard
/// ([`netsim::SimConfig::shards`]), the post-warmup phase is
/// attempted space-parallel: the simulator is split along positive-delay
/// links and the shards run in deterministic barrier epochs, merged back
/// before the caller reads metrics (byte-identical results — see the
/// `netsim::shard` docs). Scenarios that cannot be split — probes
/// installed, inseparable topology — silently run monolithically.
pub fn run_measured(sim: &mut Simulator, warmup: f64, end: f64) -> (SimTime, SimTime) {
    assert!(end > warmup, "measurement window must be positive");
    let w = SimTime::from_secs_f64(warmup);
    let e = SimTime::from_secs_f64(end);
    let shards = sim.config().shards;
    if shards > 1 {
        // Warm up sequentially (cheap: the transient is short), then
        // split for the long measured phase.
        sim.run_until(w);
        let owned = std::mem::replace(sim, Simulator::with_config(0, Default::default()));
        match netsim::ShardedSim::split(owned, shards) {
            Ok(mut sharded) => {
                sharded.reset_measurements();
                sharded.run_until(e);
                sharded.flush_measurements();
                *sim = sharded.merge();
                return (w, e);
            }
            Err((owned, _reason)) => {
                // Unsplittable scenario: restore and fall through to the
                // monolithic path (already warmed; run_until(w) is a
                // no-op).
                *sim = owned;
            }
        }
    }
    sim.run_until(w);
    sim.reset_measurements();
    sim.run_until(e);
    sim.flush_measurements();
    (w, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumbbell::{build_dumbbell, DumbbellConfig};
    use crate::scheme::Scheme;
    use sim_stats::jain_index;

    fn cfg() -> DumbbellConfig {
        DumbbellConfig {
            bottleneck_bps: 10_000_000,
            forward_rtts: vec![0.060; 4],
            start_window_secs: 1.0,
            ..DumbbellConfig::new(Scheme::SackDroptail)
        }
    }

    #[test]
    fn protocol_produces_consistent_metrics() {
        let d = build_dumbbell(&cfg());
        let mut sim = d.sim;
        let before = snapshot_goodput(&sim, &d.forward);
        let (start, end) = run_measured(&mut sim, 5.0, 20.0);
        let m = link_metrics(&sim, d.bottleneck_fwd, start, end);
        assert!(m.utilization > 80.0, "util {}", m.utilization);
        assert!(m.mean_queue_pkts >= 0.0);
        assert!((0.0..=1.0).contains(&m.mean_queue_norm));
        assert!(m.delivered_pkts > 10_000);

        let after = snapshot_goodput(&sim, &d.forward);
        let rates = after.rates_since(&before);
        assert_eq!(rates.len(), 4);
        // Four identical-RTT SACK flows: decent fairness.
        let j = jain_index(&rates);
        assert!(j > 0.7, "jain {j}");
        // Rates sum ≈ link capacity (1250 seg/s at 10 Mbps).
        let sum: f64 = rates.iter().sum();
        assert!((1000.0..1350.0).contains(&sum), "sum {sum}");
    }

    #[test]
    fn reset_clears_the_warmup_transient() {
        let d = build_dumbbell(&cfg());
        let mut sim = d.sim;
        sim.run_until(SimTime::from_secs_f64(5.0));
        let drops_before = sim.trace.drops.len();
        sim.reset_measurements();
        assert_eq!(sim.trace.drops.len(), 0);
        let _ = drops_before;
        let l = sim.link(d.bottleneck_fwd);
        assert_eq!(l.queue.stats().enqueued, 0);
        assert_eq!(l.delivered_bits, 0);
    }

    #[test]
    #[should_panic(expected = "zero-length window")]
    fn zero_window_rejected() {
        let d = build_dumbbell(&cfg());
        let sim = d.sim;
        let a = snapshot_goodput(&sim, &d.forward);
        let b = snapshot_goodput(&sim, &d.forward);
        let _ = b.rates_since(&a);
    }
}
