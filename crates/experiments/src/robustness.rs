//! Robustness: non-congestion loss and delayed ACKs.
//!
//! Two stress tests of PERT's end-host machinery beyond the paper's
//! evaluation, probing assumptions the paper states explicitly:
//!
//! * **Random loss** — delay-based prediction should be *indifferent* to
//!   losses that carry no congestion information (wireless corruption):
//!   PERT's predictor reads queuing delay, not loss. We corrupt the
//!   bottleneck with Bernoulli loss and compare PERT's goodput retention
//!   against SACK's (both lose throughput to spurious loss response —
//!   PERT must not lose *more*).
//! * **Delayed ACKs** — the paper samples RTT per ACK "as Linux does"
//!   (§2.4, footnote 2). RFC-1122 delayed ACKs halve the sampling rate;
//!   PERT should keep working with only mildly degraded behaviour.

use netsim::SimDuration;
use workload::{build_dumbbell, link_metrics, run_measured, DumbbellConfig, Scheme};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// One random-loss point.
#[derive(Clone, Debug)]
pub struct LossPoint {
    /// Scheme name.
    pub scheme: &'static str,
    /// Corruption probability.
    pub loss_prob: f64,
    /// Bottleneck utilization, percent.
    pub utilization: f64,
    /// Mean queue (normalized).
    pub queue_norm: f64,
}

fn loss_config(scheme: Scheme, loss: f64, scale: Scale, seed: u64) -> DumbbellConfig {
    let (bps, flows) = if scale == Scale::Quick {
        (20_000_000, 5)
    } else {
        (100_000_000, 20)
    };
    DumbbellConfig {
        bottleneck_bps: bps,
        bottleneck_delay: SimDuration::from_millis(10),
        forward_rtts: vec![0.060; flows],
        random_loss: loss,
        start_window_secs: scale.start_window(),
        seed,
        ..DumbbellConfig::new(scheme)
    }
}

/// The corruption probabilities of the random-loss sweep.
pub const LOSS_PROBS: [f64; 3] = [0.0, 0.001, 0.01];

/// Run one random-loss point.
pub fn run_loss_point(scheme: Scheme, p: f64, scale: Scale, seed: u64) -> LossPoint {
    let name = scheme.name();
    let d = build_dumbbell(&loss_config(scheme, p, scale, seed));
    let mut sim = d.sim;
    let (s, e) = run_measured(&mut sim, scale.warmup(), scale.end());
    let m = link_metrics(&sim, d.bottleneck_fwd, s, e);
    LossPoint {
        scheme: name,
        loss_prob: p,
        utilization: m.utilization,
        queue_norm: m.mean_queue_norm,
    }
}

/// One delayed-ACK comparison row.
#[derive(Clone, Debug)]
pub struct DelackRow {
    /// ACK policy description.
    pub policy: &'static str,
    /// Bottleneck utilization, percent.
    pub utilization: f64,
    /// Mean queue (normalized).
    pub queue_norm: f64,
    /// Drop rate.
    pub drop_rate: f64,
    /// Early reductions taken by the PERT senders.
    pub early_reductions: u64,
}

/// The two ACK policies compared, as `(label, delayed-ACK timeout)`.
pub fn ack_policies() -> [(&'static str, Option<SimDuration>); 2] {
    [
        ("per-packet acks", None),
        ("delayed acks (100ms)", Some(SimDuration::from_millis(100))),
    ]
}

/// Run one ACK-policy point.
pub fn run_delack_point(
    policy: &'static str,
    delack: Option<SimDuration>,
    scale: Scale,
    seed: u64,
) -> DelackRow {
    let cfg = loss_config(Scheme::Pert, 0.0, scale, seed);
    // The generic dumbbell builder intentionally defaults to the paper's
    // per-packet ACK policy; the delayed-ACK variant needs the dedicated
    // constructor below.
    let d = match delack {
        Some(timeout) => build_delack_dumbbell(&cfg, timeout),
        None => build_dumbbell(&cfg),
    };
    let mut sim = d.sim;
    let (s, e) = run_measured(&mut sim, scale.warmup(), scale.end());
    let m = link_metrics(&sim, d.bottleneck_fwd, s, e);
    let early: u64 = d
        .forward
        .iter()
        .map(|c| pert_tcp::sender_cc(&sim, c).early_reductions())
        .sum();
    DelackRow {
        policy,
        utilization: m.utilization,
        queue_norm: m.mean_queue_norm,
        drop_rate: m.drop_rate,
        early_reductions: early,
    }
}

/// A dumbbell whose sinks use delayed ACKs (hand-built: the generic
/// builder intentionally defaults to the paper's per-packet policy).
fn build_delack_dumbbell(cfg: &DumbbellConfig, delack: SimDuration) -> workload::Dumbbell {
    use netsim::{FlowId, SimTime, Simulator};
    use pert_tcp::{connect_with_source, Greedy};

    let mut sim = Simulator::new(cfg.seed);
    let r1 = sim.add_node();
    let r2 = sim.add_node();
    let pps = cfg.pps();
    let buffer = cfg.auto_buffer();
    let mut qseed = cfg.seed;
    let (fwd, rev) = sim.add_duplex_link(r1, r2, cfg.bottleneck_bps, cfg.bottleneck_delay, |_| {
        qseed = qseed.wrapping_add(1);
        cfg.scheme.make_bottleneck_queue(buffer, pps, qseed)
    });
    // Access links per flow, as in the generic builder.
    let mut forward = Vec::new();
    for (i, &rtt) in cfg.forward_rtts.iter().enumerate() {
        let access =
            SimDuration::from_secs_f64((rtt / 2.0 - cfg.bottleneck_delay.as_secs_f64()) / 2.0);
        let src = sim.add_node();
        let dst = sim.add_node();
        sim.add_duplex_link(src, r1, cfg.access_bps, access, |_| {
            Box::new(netsim::queue::DropTail::new(200_000))
        });
        sim.add_duplex_link(r2, dst, cfg.access_bps, access, |_| {
            Box::new(netsim::queue::DropTail::new(200_000))
        });
        let mut spec =
            cfg.scheme
                .connection(FlowId(i), src, dst, cfg.seed.wrapping_add(i as u64), pps);
        spec.delack = Some(delack);
        forward.push(connect_with_source(&mut sim, spec, Box::new(Greedy)));
    }
    sim.compute_routes();
    for (i, c) in forward.iter().enumerate() {
        sim.schedule_agent_timer(
            SimTime::from_secs_f64(i as f64 * 0.3),
            c.sender,
            c.start_token,
        );
    }
    workload::Dumbbell {
        sim,
        r1,
        r2,
        bottleneck_fwd: fwd,
        bottleneck_rev: rev,
        forward,
        reverse: Vec::new(),
        web: Vec::new(),
        cross: Vec::new(),
        buffer_pkts: buffer,
    }
}

/// Both robustness studies as one [`Scenario`]: six random-loss jobs
/// followed by the two ACK-policy jobs (run at `seed + 50`, matching the
/// historical per-study seeds 1900/1950).
pub struct RobustnessScenario;

impl Scenario for RobustnessScenario {
    fn name(&self) -> &'static str {
        "robustness"
    }

    fn default_seed(&self) -> u64 {
        1900
    }

    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        let mut jobs = Vec::new();
        for scheme in [Scheme::Pert, Scheme::SackDroptail] {
            for p in LOSS_PROBS {
                let scheme = scheme.clone();
                let label = format!("robustness/loss/{}/{p}", scheme.name());
                jobs.push(Job::new(label, move || {
                    run_loss_point(scheme, p, scale, seed)
                }));
            }
        }
        for (policy, delack) in ack_policies() {
            let label = format!("robustness/delack/{policy}");
            jobs.push(Job::new(label, move || {
                run_delack_point(policy, delack, scale, seed + 50)
            }));
        }
        jobs
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let mut results = results.into_iter();
        let losses: Vec<LossPoint> = results
            .by_ref()
            .take(2 * LOSS_PROBS.len())
            .map(take)
            .collect();
        let acks: Vec<DelackRow> = results.map(take).collect();
        let mut loss = Table::new(
            "Robustness: non-congestion (random) loss",
            &["scheme", "corruption", "util %", "Q (norm)"],
        )
        .with_note("(PERT's delay signal ignores corruption; goodput loss mirrors SACK's)");
        for r in &losses {
            loss.push(vec![
                Cell::Str(r.scheme.to_string()),
                Cell::Num(r.loss_prob),
                Cell::Num(r.utilization),
                Cell::Num(r.queue_norm),
            ]);
        }
        let mut delack = Table::new(
            "Robustness: delayed ACKs (halved RTT sampling)",
            &["ack policy", "util %", "Q (norm)", "drop rate", "early"],
        );
        for r in &acks {
            delack.push(vec![
                Cell::Str(r.policy.to_string()),
                Cell::Num(r.utilization),
                Cell::Num(r.queue_norm),
                Cell::Num(r.drop_rate),
                Cell::Int(r.early_reductions as i64),
            ]);
        }
        let mut report = Report::new("robustness", scale, seed);
        report.tables.push(loss);
        report.tables.push(delack);

        let util = |scheme: &str, p: f64| {
            losses
                .iter()
                .find(|x| x.scheme == scheme && (x.loss_prob - p).abs() < 1e-12)
                .map_or(f64::NAN, |x| x.utilization)
        };
        let (pert_0, pert_1) = (util("PERT", 0.0), util("PERT", 0.01));
        let (sack_0, sack_1) = (util("SACK/DropTail", 0.0), util("SACK/DropTail", 0.01));
        let (pert_drop, sack_drop) = (pert_0 - pert_1, sack_0 - sack_1);
        let show = || {
            format!(
                "util at 0 / 1 % corruption: PERT {pert_0} / {pert_1}, SACK {sack_0} / {sack_1}"
            )
        };
        report.claim(
            "pert_util_loss_le_sack_plus_10",
            pert_drop <= sack_drop + 10.0,
            show,
        );
        report.claim("pert_util_loss_le_sack", pert_drop <= sack_drop, show);
        // Sanity: corruption hurts SACK.
        report.claim("sack_util_below_100_at_1pct", sack_1 < 100.0, show);

        let [per_packet, delayed] = &acks[..] else {
            panic!("robustness runs two ACK policies");
        };
        let show = || format!("per-packet {per_packet:?}, delayed {delayed:?}");
        report.claim(
            "delayed_acks_respond_early",
            delayed.early_reductions > 0,
            show,
        );
        let kept = delayed.utilization > per_packet.utilization - 15.0;
        report.claim("delayed_acks_keep_util_within_15", kept, show);
        report.claim("delayed_acks_q_below_0.9", delayed.queue_norm < 0.9, show);
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn pert_degrades_no_worse_than_sack_under_corruption() {
        assert_claims_hold(
            "robustness",
            &[
                "pert_util_loss_le_sack_plus_10",
                "sack_util_below_100_at_1pct",
            ],
        );
    }

    #[test]
    fn pert_survives_delayed_acks() {
        assert_claims_hold(
            "robustness",
            &[
                "delayed_acks_respond_early",
                "delayed_acks_keep_util_within_15",
                "delayed_acks_q_below_0.9",
            ],
        );
    }
}
