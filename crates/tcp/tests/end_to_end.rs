//! End-to-end transport tests: full TCP dynamics over the simulator.
//!
//! Connections are built through the flow slab and read back with the
//! `sender_*` and `sink_stats` accessors. Three tests pin whole runs to
//! the fingerprints both flow hostings produced before the per-flow-agent
//! hosting was deleted.

use netsim::prelude::*;
use netsim::queue::QueueDiscipline;
use pert_tcp::{
    connect, connect_with_source, sender_samples, sender_stats, sender_stopped, sink_stats,
    Connection, ConnectionSpec, Finite, SinkStats,
};

/// Dumbbell: n0 — bottleneck — n1; returns (sim, n0, n1, forward link id).
fn dumbbell(
    capacity_bps: u64,
    delay: SimDuration,
    queue: impl Fn(usize) -> Box<dyn QueueDiscipline>,
    seed: u64,
) -> (Simulator, NodeId, NodeId, LinkId) {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node();
    let b = sim.add_node();
    let (f, _r) = sim.add_duplex_link(a, b, capacity_bps, delay, |d| queue(d));
    sim.compute_routes();
    (sim, a, b, f)
}

#[test]
fn sack_fills_the_link() {
    // 10 Mbps, 20 ms RTT, ample buffer: one SACK flow should reach ≳90%
    // utilization after slow start.
    let (mut sim, a, b, fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(100)),
        1,
    );
    let conn = connect(&mut sim, ConnectionSpec::sack(FlowId(0), a, b, 1));
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(15.0));
    let util = sim
        .link(fwd)
        .utilization_percent(SimDuration::from_secs(10));
    assert!(util > 90.0, "utilization {util}%");
}

#[test]
fn sack_recovers_from_buffer_overflow_losses() {
    // Tiny buffer forces periodic loss; the flow must keep making progress
    // and actually retransmit.
    let (mut sim, a, b, _fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(10)),
        2,
    );
    let conn = connect(&mut sim, ConnectionSpec::sack(FlowId(0), a, b, 2));
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(20.0));
    let stats = sender_stats(&sim, &conn);
    assert!(
        !sim.trace.drops.is_empty(),
        "expected drops with a 10-pkt buffer"
    );
    assert!(stats.retransmits > 0, "no retransmissions despite drops");
    assert!(stats.loss_events > 0);
    // Goodput sanity: ≥ 70% of the link over 20 s (10 Mbps = 1250 seg/s).
    assert!(
        stats.acked_segments > 17_000,
        "acked only {}",
        stats.acked_segments
    );
}

#[test]
fn delivery_is_reliable_and_in_order() {
    // A finite 5000-segment transfer over a lossy bottleneck must deliver
    // every segment exactly (cumulative ack reaches the limit).
    let (mut sim, a, b, _f) = dumbbell(
        5_000_000,
        SimDuration::from_millis(5),
        |_| Box::new(DropTail::new(8)),
        3,
    );
    let conn = connect_with_source(
        &mut sim,
        ConnectionSpec::sack(FlowId(0), a, b, 3),
        Box::new(Finite::new(5000)),
    );
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(60.0));
    assert_eq!(sender_stats(&sim, &conn).acked_segments, 5000);
    assert!(sender_stopped(&sim, &conn), "finite flow should finish");
    assert_eq!(sink_stats(&sim, &conn).rcv_next, 5000);
}

#[test]
fn pert_keeps_queue_and_drops_low() {
    // 10 Mbps, 60 ms RTT, buffer = BDP (75 pkts). PERT should hold the
    // average queue well below DropTail-SACK and avoid (nearly all) drops.
    let run = |spec: fn(FlowId, NodeId, NodeId, u64) -> ConnectionSpec| {
        let (mut sim, a, b, fwd) = dumbbell(
            10_000_000,
            SimDuration::from_millis(30),
            |_| Box::new(DropTail::new(75)),
            4,
        );
        for i in 0..4u64 {
            let c = connect(&mut sim, spec(FlowId(i as usize), a, b, i + 10));
            sim.schedule_agent_timer(
                SimTime::from_secs_f64(i as f64 * 0.5),
                c.sender,
                c.start_token,
            );
        }
        sim.run_until(SimTime::from_secs_f64(20.0));
        sim.reset_measurements();
        sim.run_until(SimTime::from_secs_f64(60.0));
        sim.flush_measurements();
        let link = sim.link(fwd);
        let span = SimTime::from_secs_f64(60.0).duration_since(SimTime::from_secs_f64(20.0));
        let mean_q = link
            .queue
            .stats()
            .mean_len(SimTime::from_secs_f64(20.0), SimTime::from_secs_f64(60.0));
        let drops = link.queue.stats().dropped;
        let util = link.utilization_percent(span);
        (mean_q, drops, util)
    };

    let (q_sack, drops_sack, util_sack) = run(ConnectionSpec::sack);
    let (q_pert, drops_pert, util_pert) = run(ConnectionSpec::pert);

    assert!(
        q_pert < q_sack * 0.6,
        "PERT queue {q_pert:.1} not ≪ SACK queue {q_sack:.1}"
    );
    assert!(
        drops_pert * 10 <= drops_sack.max(10),
        "PERT drops {drops_pert} vs SACK {drops_sack}"
    );
    assert!(util_pert > 80.0, "PERT utilization {util_pert}%");
    assert!(util_sack > 90.0, "SACK utilization {util_sack}%");
}

#[test]
fn vegas_holds_small_backlog() {
    let (mut sim, a, b, fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(30),
        |_| Box::new(DropTail::new(75)),
        5,
    );
    let c = connect(&mut sim, ConnectionSpec::vegas(FlowId(0), a, b, 5));
    sim.schedule_agent_timer(SimTime::ZERO, c.sender, c.start_token);
    sim.run_until(SimTime::from_secs_f64(10.0));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(30.0));
    sim.flush_measurements();
    let link = sim.link(fwd);
    let mean_q = link
        .queue
        .stats()
        .mean_len(SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(30.0));
    // A single Vegas flow targets 1–3 packets of backlog.
    assert!(mean_q < 8.0, "Vegas mean queue {mean_q}");
    assert_eq!(link.queue.stats().dropped, 0);
    let util = link.utilization_percent(SimDuration::from_secs(20));
    assert!(util > 85.0, "Vegas utilization {util}%");
}

#[test]
fn ecn_with_red_avoids_drops() {
    // SACK-ECN through a RED-ECN bottleneck: marks instead of drops.
    let capacity_pps = 10_000_000.0 / 8000.0;
    let (mut sim, a, b, fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(30),
        |_| {
            Box::new(RedQueue::adaptive(
                RedParams::recommended(75, capacity_pps, true, 9),
                AdaptiveRedParams::default(),
            ))
        },
        6,
    );
    for i in 0..4u64 {
        let c = connect(
            &mut sim,
            ConnectionSpec::sack_ecn(FlowId(i as usize), a, b, i),
        );
        sim.schedule_agent_timer(
            SimTime::from_secs_f64(i as f64 * 0.3),
            c.sender,
            c.start_token,
        );
    }
    sim.run_until(SimTime::from_secs_f64(10.0));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(40.0));
    sim.flush_measurements();
    let link = sim.link(fwd);
    assert!(link.queue.stats().marked > 0, "RED never marked");
    // ECN converts congestion signals to marks; only the rare excursion
    // beyond RED's hard-drop region may still drop.
    let stats = link.queue.stats();
    assert!(
        stats.dropped * 20 < stats.marked,
        "drops {} not rare vs marks {}",
        stats.dropped,
        stats.marked
    );
    assert!(stats.drop_rate() < 0.001, "drop rate {}", stats.drop_rate());
    let util = link.utilization_percent(SimDuration::from_secs(30));
    assert!(util > 85.0, "utilization {util}%");
}

#[test]
fn identical_seeds_reproduce_exactly() {
    let run = || {
        let (mut sim, a, b, _f) = dumbbell(
            5_000_000,
            SimDuration::from_millis(20),
            |_| Box::new(DropTail::new(30)),
            7,
        );
        for i in 0..3u64 {
            let c = connect(&mut sim, ConnectionSpec::pert(FlowId(i as usize), a, b, i));
            sim.schedule_agent_timer(
                SimTime::from_secs_f64(i as f64 * 0.1),
                c.sender,
                c.start_token,
            );
        }
        sim.run_until(SimTime::from_secs_f64(15.0));
        (
            sim.events_processed(),
            sim.trace.drops.len(),
            sim.link(LinkId(0)).delivered_bits,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn delayed_acks_halve_ack_traffic_without_breaking_reliability() {
    let (mut sim, a, b, _f) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(50)),
        9,
    );
    let mut spec = ConnectionSpec::sack(FlowId(0), a, b, 9);
    spec.delack = Some(SimDuration::from_millis(100));
    let conn = connect_with_source(&mut sim, spec, Box::new(Finite::new(3000)));
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(30.0));
    assert_eq!(
        sender_stats(&sim, &conn).acked_segments,
        3000,
        "reliability broken"
    );
    assert_eq!(sink_stats(&sim, &conn).rcv_next, 3000);
    // ACK traffic on the reverse link should be roughly halved: ~1 ACK per
    // 2 data segments (allow slack for timer ACKs and recovery).
    let acks = sim.link(LinkId(1)).delivered_pkts;
    assert!(
        acks < 2200,
        "delayed ACKs sent {acks} ACKs for 3000 segments"
    );
    assert!(acks > 1400);
}

#[test]
fn per_ack_samples_are_recorded_when_requested() {
    let (mut sim, a, b, _f) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(50)),
        8,
    );
    let c = connect(
        &mut sim,
        ConnectionSpec::sack(FlowId(0), a, b, 8).with_samples(),
    );
    sim.schedule_agent_timer(SimTime::ZERO, c.sender, c.start_token);
    sim.run_until(SimTime::from_secs_f64(3.0));
    let samples = sender_samples(&sim, &c);
    assert!(!samples.is_empty());
    // Samples are (time, rtt, cwnd) with sane ranges.
    for smp in samples {
        assert!(smp.rtt >= 0.020, "rtt below propagation: {}", smp.rtt);
        assert!(smp.cwnd >= 1.0);
    }
    // One sample per ACK ≈ one per acked segment.
    assert!(samples.len() as u64 >= sender_stats(&sim, &c).acked_segments / 2);
}

#[test]
fn cubic_fills_the_link() {
    // One CUBIC flow over 10 Mbps / 20 ms RTT with a BDP buffer: HyStart
    // exits slow start before overshoot and the cubic window keeps the
    // pipe full.
    let (mut sim, a, b, fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(50)),
        21,
    );
    let conn = connect(&mut sim, ConnectionSpec::cubic(FlowId(0), a, b, 21));
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(5.0));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(15.0));
    let util = sim
        .link(fwd)
        .utilization_percent(SimDuration::from_secs(10));
    assert!(util > 90.0, "CUBIC utilization {util}%");
}

#[test]
fn bbr_fills_the_link_without_standing_queue() {
    // BBR paces at the estimated bottleneck bandwidth: high utilization
    // with a mean queue far below what a loss-based probe would build.
    let (mut sim, a, b, fwd) = dumbbell(
        10_000_000,
        SimDuration::from_millis(30),
        |_| Box::new(DropTail::new(150)),
        22,
    );
    let conn = connect(&mut sim, ConnectionSpec::bbr(FlowId(0), a, b, 22));
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(10.0));
    sim.reset_measurements();
    sim.run_until(SimTime::from_secs_f64(40.0));
    sim.flush_measurements();
    let link = sim.link(fwd);
    let util = link.utilization_percent(SimDuration::from_secs(30));
    let mean_q = link
        .queue
        .stats()
        .mean_len(SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(40.0));
    assert!(util > 80.0, "BBR utilization {util}%");
    // 150-pkt buffer = 2 BDP; BBR should sit well under half of it.
    assert!(mean_q < 75.0, "BBR standing queue {mean_q} pkts");
}

/// What a run is pinned by: events processed, drops, bits delivered on
/// the forward bottleneck, and per flow the sender's `(acked,
/// retransmits, loss events)` with the receiver's statistics.
type Fingerprint = (u64, usize, u64, Vec<((u64, u64, u64), SinkStats)>);

/// Per-flow observables of both halves of a connection: sender
/// `(acked, retransmits, loss events)` and the receiver's statistics.
fn per_flow(sim: &Simulator, conns: &[Connection]) -> Vec<((u64, u64, u64), SinkStats)> {
    conns
        .iter()
        .map(|c| {
            let s = sender_stats(sim, c);
            (
                (s.acked_segments, s.retransmits.into(), s.loss_events.into()),
                sink_stats(sim, c),
            )
        })
        .collect()
}

fn fingerprint(sim: &Simulator, conns: &[Connection]) -> Fingerprint {
    (
        sim.events_processed(),
        sim.trace.drops.len(),
        sim.link(LinkId(0)).delivered_bits,
        per_flow(sim, conns),
    )
}

/// Receiver statistics `(segments received, duplicates, CE marked,
/// rcv_next)`.
fn rx(segments_received: u64, duplicates: u64, marked: u64, rcv_next: u64) -> SinkStats {
    SinkStats {
        segments_received,
        duplicates,
        marked,
        rcv_next,
    }
}

/// Run one flow of `spec` for 15 s with delayed ACKs and fingerprint it.
fn one_flow_trajectory(
    spec: impl Fn(FlowId, NodeId, NodeId, u64) -> ConnectionSpec,
) -> Fingerprint {
    let (mut sim, a, b, _f) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(40)),
        23,
    );
    let mut c = spec(FlowId(0), a, b, 23);
    // Delayed ACKs make every ACK a stretch ACK, so the slow-start to
    // congestion-avoidance crossover credit split is on the hot path.
    c.delack = Some(SimDuration::from_millis(100));
    let conn = connect(&mut sim, c);
    sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
    sim.run_until(SimTime::from_secs_f64(15.0));
    fingerprint(&sim, &[conn])
}

// The fingerprints below are the values the per-flow-agent hosting and
// the flow slab both produced, event for event, when the per-flow
// hosting was deleted: they keep that equivalence oracle as data.

/// Regression for the RFC 5681 §3.1 stretch-ACK crossover fix: under
/// delayed ACKs the Reno window grows exactly as pinned, and the flow
/// still fills the link (pre-fix, the whole stretch ACK was credited as
/// slow start, over-inflating cwnd).
#[test]
fn stretch_ack_crossover_agrees_in_both_hostings() {
    // 18 646 segments acked of the ≈ 18 750 that 10 Mbps carries in 15 s.
    assert_eq!(
        one_flow_trajectory(ConnectionSpec::sack),
        (
            55_989,
            84,
            149_376_000,
            vec![((18_646, 84, 12), rx(18_659, 0, 0, 18_659))]
        )
    );
}

/// The CUBIC and BBR trajectories are pinned the same way.
#[test]
fn cubic_and_bbr_agree_in_both_hostings() {
    assert_eq!(
        one_flow_trajectory(ConnectionSpec::cubic),
        (
            55_990,
            7,
            149_376_000,
            vec![((18_646, 7, 7), rx(18_659, 0, 0, 18_659))]
        )
    );
    assert_eq!(
        one_flow_trajectory(ConnectionSpec::bbr),
        (
            61_856,
            9,
            140_928_000,
            vec![((17_589, 9, 1), rx(17_603, 0, 0, 17_603))]
        )
    );
}

/// A RED-ECN bottleneck with a buffer small enough to drop, shared by
/// ECN-capable SACK flows and non-ECN PERT flows (whose early signals
/// are drops), every receiver delaying its ACKs: out-of-order intervals,
/// SACK blocks and delayed-ACK epoch tokens all stay busy.
fn lossy_red_ecn_spec(i: usize, src: NodeId, dst: NodeId) -> ConnectionSpec {
    let mut spec = if i.is_multiple_of(2) {
        ConnectionSpec::sack_ecn(FlowId(i), src, dst, i as u64)
    } else {
        ConnectionSpec::pert(FlowId(i), src, dst, i as u64)
    };
    spec.delack = Some(SimDuration::from_millis(40));
    spec
}

fn lossy_red_ecn_queue(capacity_bps: u64) -> Box<dyn QueueDiscipline> {
    let pps = capacity_bps as f64 / 8000.0;
    Box::new(RedQueue::new(RedParams::recommended(24, pps, true, 5)))
}

/// Same event count, same drop trace, same delivered bits, same per-flow
/// statistics at both ends as pinned — for the same seeds, on a clean
/// DropTail PERT dumbbell and on a lossy RED-ECN one with delayed ACKs.
#[test]
fn slab_and_legacy_modes_agree() {
    let run = |lossy: bool| {
        let (mut sim, a, b, _f) = dumbbell(
            5_000_000,
            SimDuration::from_millis(20),
            |_| {
                if lossy {
                    lossy_red_ecn_queue(5_000_000)
                } else {
                    Box::new(DropTail::new(30))
                }
            },
            11,
        );
        let mut conns = Vec::new();
        for i in 0..if lossy { 6 } else { 3 } {
            let spec = if lossy {
                lossy_red_ecn_spec(i, a, b)
            } else {
                ConnectionSpec::pert(FlowId(i), a, b, i as u64)
            };
            let c = connect(&mut sim, spec);
            sim.schedule_agent_timer(
                SimTime::from_secs_f64(i as f64 * 0.1),
                c.sender,
                c.start_token,
            );
            conns.push(c);
        }
        sim.run_until(SimTime::from_secs_f64(15.0));
        fingerprint(&sim, &conns)
    };
    assert_eq!(
        run(false),
        (
            26_815,
            53,
            71_608_000,
            vec![
                ((3_230, 43, 1), rx(3_235, 0, 0, 3_235)),
                ((3_083, 8, 1), rx(3_083, 0, 0, 3_083)),
                ((2_612, 2, 1), rx(2_619, 0, 0, 2_619)),
            ]
        )
    );
    let lossy = run(true);
    assert_eq!(
        lossy,
        (
            27_865,
            157,
            71_840_000,
            vec![
                ((2_801, 49, 3), rx(2_806, 0, 54, 2_806)),
                ((562, 81, 3), rx(562, 0, 0, 562)),
                ((2_388, 7, 4), rx(2_391, 0, 56, 2_391)),
                ((201, 7, 0), rx(202, 0, 0, 202)),
                ((2_605, 3, 1), rx(2_609, 0, 42, 2_609)),
                ((395, 10, 6), rx(396, 0, 0, 396)),
            ]
        )
    );
    // The lossy run exercises what it is meant to.
    assert!(lossy.1 > 0, "no drops");
    let flows = &lossy.3;
    assert!(
        flows.iter().any(|((_, rtx, _), _)| *rtx > 0),
        "no retransmits"
    );
    assert!(flows.iter().any(|(_, sink)| sink.marked > 0), "no CE marks");
}

/// A same-node connection would deliver its data and ACKs synchronously
/// into the agent that is still sending; it is refused at construction.
#[test]
#[should_panic(expected = "flow f3 connects node n0 to itself")]
fn same_node_connection_is_refused() {
    let (mut sim, a, _b, _f) = dumbbell(
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(50)),
        1,
    );
    connect(&mut sim, ConnectionSpec::sack(FlowId(3), a, a, 1));
}

/// The slab's two halves of one connection on two shards: on a
/// two-router dumbbell cut at the bottleneck, every sender runs on one
/// shard and its receiver (with its delayed-ACK timers, routed by token)
/// on the other. Split after a warm-up so pending delayed-ACK timers and
/// out-of-order intervals migrate; the run must match the monolithic one
/// event for event, elided departure for elided departure, and in every
/// per-flow statistic at both ends. The flows start 50 ms apart, so a cut
/// at 120 ms moves started and not-yet-started senders, and receivers that
/// have and have not yet seen data, to both shards; one at 1 s only
/// started senders.
#[test]
fn sharded_halves_match_monolithic() {
    let build = || {
        let mut sim = Simulator::new(31);
        let (ra, rb) = (sim.add_node(), sim.add_node());
        let left: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
        let right: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
        sim.add_duplex_link(ra, rb, 5_000_000, SimDuration::from_millis(10), |_| {
            lossy_red_ecn_queue(5_000_000)
        });
        for &h in &left {
            sim.add_duplex_link(h, ra, 100_000_000, SimDuration::from_millis(1), |_| {
                Box::new(DropTail::new(100))
            });
        }
        for &h in &right {
            sim.add_duplex_link(h, rb, 100_000_000, SimDuration::from_millis(1), |_| {
                Box::new(DropTail::new(100))
            });
        }
        sim.compute_routes();
        let mut conns = Vec::new();
        for i in 0..6 {
            // Four flows left → right, two right → left.
            let (src, dst) = if i < 4 {
                (left[i % 3], right[(i + 1) % 3])
            } else {
                (right[i % 3], left[i % 3])
            };
            let c = connect(&mut sim, lossy_red_ecn_spec(i, src, dst));
            sim.schedule_agent_timer(SimTime::from_millis(50 * i as u64), c.sender, c.start_token);
            conns.push((c, src, dst));
        }
        (sim, conns)
    };
    let fingerprint = |sim: &Simulator, conns: &[(Connection, NodeId, NodeId)]| {
        let conns: Vec<Connection> = conns.iter().map(|c| c.0).collect();
        (
            sim.events_processed(),
            sim.counters().departures_elided,
            sim.trace.drops.len(),
            per_flow(sim, &conns),
        )
    };
    let until = SimTime::from_secs(8);

    let (mut mono, conns) = build();
    mono.run_until(until);
    let want = fingerprint(&mono, &conns);

    for warm in [SimTime::from_millis(120), SimTime::from_secs(1)] {
        let (mut sim, conns) = build();
        sim.run_until(warm);
        let part = netsim::shard::partition(&sim, 2).expect("the dumbbell cuts in two");
        let mut unseen = [0; 2];
        for (c, src, dst) in &conns {
            let rx_shard = part.shard_of_node[dst.index()];
            assert_ne!(
                part.shard_of_node[src.index()],
                rx_shard,
                "{}: both halves on one shard",
                c.flow
            );
            if sink_stats(&sim, c).segments_received == 0 {
                unseen[rx_shard] += 1;
            }
        }
        if warm < SimTime::from_secs(1) {
            assert!(
                unseen.iter().all(|&n| n > 0),
                "receivers without data per shard at {warm:?}: {unseen:?}"
            );
        }
        let mut sharded = netsim::ShardedSim::split(sim, 2).unwrap_or_else(|(_, e)| panic!("{e}"));
        assert_eq!(sharded.num_shards(), 2);
        sharded.run_until(until);
        let got = fingerprint(&sharded.merge(), &conns);
        assert_eq!(got, want, "split at {warm:?}");
    }
    assert!(want.2 > 0, "no drops");
    assert!(want
        .3
        .iter()
        .any(|(_, sink)| sink.duplicates > 0 || sink.marked > 0));
}
