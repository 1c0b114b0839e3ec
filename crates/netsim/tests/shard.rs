//! Property test for the space-parallel shard layer: on random
//! partitionable topologies, a sharded run is observably identical to
//! the monolithic run — same event count, same per-agent progress, same
//! drop trace. This is the micro-level sibling of the experiments
//! crate's report-level shard-equivalence suite.

use std::any::Any;

use netsim::event::TimerToken;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::DropTail;
use netsim::sim::{Agent, Ctx, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::ShardedSim;
use proptest::prelude::*;

/// Stop-and-wait sender: one data packet per received ACK. The bounded
/// in-flight window keeps event counts small while still exercising
/// queues, departures, and cross-cut arrivals in both directions.
struct Pinger {
    peer_agent: AgentId,
    peer_node: NodeId,
    next_seq: u64,
    acked: u64,
}

impl Pinger {
    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.send(Packet {
            flow: FlowId(0),
            dst_node: self.peer_node,
            dst_agent: self.peer_agent,
            size_bytes: 1000,
            ecn: Ecn::NotCapable,
            sent_at: ctx.now(),
            payload: Payload::Data {
                seq,
                retransmit: false,
            },
        });
    }
}

impl Agent for Pinger {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let Payload::Ack { .. } = pkt.payload {
            self.acked += 1;
            self.send_next(ctx);
        }
    }
    fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_>) {
        self.send_next(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Echoes every data packet back as a 40-byte ACK.
struct Ponger {
    peer_agent: AgentId,
    peer_node: NodeId,
}

impl Agent for Ponger {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let Payload::Data { seq, .. } = pkt.payload {
            ctx.send(Packet {
                flow: pkt.flow,
                dst_node: self.peer_node,
                dst_agent: self.peer_agent,
                size_bytes: 40,
                ecn: Ecn::NotCapable,
                sent_at: ctx.now(),
                payload: Payload::Ack {
                    cum_ack: seq + 1,
                    sack: [None; 3],
                    ts_echo: pkt.sent_at,
                    owd_echo: ctx.now().duration_since(pkt.sent_at),
                    ece: false,
                },
            });
        }
    }
    fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A random topology: a router chain with per-segment delays drawn from
/// {0, 2, 5} ms, plus hosts hung off random routers with access delays
/// from the same set. Zero-delay segments force the partitioner to
/// contract; positive ones give it cuts to choose from.
#[derive(Clone, Debug)]
struct Topo {
    segment_delays_ms: Vec<u64>,
    /// Per host: (router index, access delay ms, pinger start µs).
    hosts: Vec<(usize, u64, u64)>,
}

fn delay_ms() -> impl Strategy<Value = u64> {
    (0usize..3).prop_map(|i| [0u64, 2, 5][i])
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (2usize..5).prop_flat_map(|routers| {
        let seg = proptest::collection::vec(delay_ms(), routers - 1..routers);
        let hosts = proptest::collection::vec((0..routers, delay_ms(), 0u64..20_000), 2..7);
        (seg, hosts).prop_map(move |(mut segment_delays_ms, hosts)| {
            segment_delays_ms.truncate(routers - 1);
            Topo {
                segment_delays_ms,
                hosts,
            }
        })
    })
}

/// Deterministic build: same `Topo` → identical simulator.
fn build(topo: &Topo) -> (Simulator, Vec<AgentId>) {
    let mut sim = Simulator::new(11);
    let routers: Vec<NodeId> = (0..=topo.segment_delays_ms.len())
        .map(|_| sim.add_node())
        .collect();
    for (i, &d) in topo.segment_delays_ms.iter().enumerate() {
        sim.add_duplex_link(
            routers[i],
            routers[i + 1],
            8_000_000,
            SimDuration::from_millis(d),
            |_| Box::new(DropTail::new(16)),
        );
    }
    let host_nodes: Vec<NodeId> = topo
        .hosts
        .iter()
        .map(|&(r, d, _)| {
            let h = sim.add_node();
            sim.add_duplex_link(
                h,
                routers[r],
                8_000_000,
                SimDuration::from_millis(d),
                |_| Box::new(DropTail::new(16)),
            );
            h
        })
        .collect();
    sim.compute_routes();

    // Adjacent hosts pair up: even index pings the next host.
    let mut pingers = Vec::new();
    for pair in 0..topo.hosts.len() / 2 {
        let (pi, qi) = (2 * pair, 2 * pair + 1);
        let ping_id = sim.alloc_agent();
        let pong_id = sim.alloc_agent();
        sim.install_agent(
            ping_id,
            host_nodes[pi],
            Box::new(Pinger {
                peer_agent: pong_id,
                peer_node: host_nodes[qi],
                next_seq: 0,
                acked: 0,
            }),
        );
        sim.install_agent(
            pong_id,
            host_nodes[qi],
            Box::new(Ponger {
                peer_agent: ping_id,
                peer_node: host_nodes[pi],
            }),
        );
        sim.schedule_agent_timer(
            SimTime::from_micros(topo.hosts[pi].2),
            ping_id,
            TimerToken(0),
        );
        pingers.push(ping_id);
    }
    (sim, pingers)
}

/// Everything the runs must agree on: events fired and link departures
/// elided (no shard materialises or loses either across a split or a
/// merge), per-agent progress, the drop trace.
#[allow(clippy::type_complexity)]
fn fingerprint(
    sim: &Simulator,
    events: u64,
    pingers: &[AgentId],
) -> ((u64, u64), Vec<(u64, u64)>, Vec<(SimTime, FlowId)>) {
    let progress = pingers
        .iter()
        .map(|&id| {
            let p = sim.agent::<Pinger>(id);
            (p.next_seq, p.acked)
        })
        .collect();
    let drops = sim.trace.drops.iter().map(|d| (d.at, d.flow)).collect();
    let elided = sim.counters().departures_elided;
    ((events, elided), progress, drops)
}

/// Records the timers that fire on it; the trigger timer cancels
/// `victim` through the id it was given before the split.
struct Canceller {
    victim: Option<netsim::EventId>,
    cancelled: Option<bool>,
    fired: Vec<u64>,
}

const TRIGGER: u64 = 3;

impl Agent for Canceller {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx<'_>) {
        self.fired.push(t.0);
        if t.0 == TRIGGER {
            let victim = self.victim.take().expect("one trigger");
            self.cancelled = Some(ctx.cancel_timer(victim));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An `EventId` is the event's sequence number, and shard calendars keep
/// the sequence numbers of the events they adopt: a timer armed before
/// the split is cancelled through its old id on the shard that owns it.
/// (Shard calendars used to number adopted events from zero, so the old
/// id named nothing there, or an unrelated event.)
#[test]
fn event_ids_survive_the_split() {
    let topo = Topo {
        segment_delays_ms: vec![5],
        hosts: vec![(0, 2, 0), (1, 2, 0)],
    };
    let (mut sim, pingers) = build(&topo);
    // Let the ping-pong use up sequence numbers first, so the timers' ids
    // are not the ranks they will have on their shard.
    sim.run_until(SimTime::from_millis(40));
    let host = sim.num_nodes() - 1;
    let agent = sim.add_agent(
        NodeId(host),
        Box::new(Canceller {
            victim: None,
            cancelled: None,
            fired: Vec::new(),
        }),
    );
    let at = SimTime::from_millis;
    let victim = sim.schedule_agent_timer(at(60), agent, TimerToken(1));
    sim.schedule_agent_timer(at(70), agent, TimerToken(2));
    sim.schedule_agent_timer(at(50), agent, TimerToken(TRIGGER));
    sim.agent_mut::<Canceller>(agent).victim = Some(victim);

    let mut sharded = ShardedSim::split(sim, 2).unwrap_or_else(|(_, why)| panic!("{why}"));
    assert_eq!(sharded.num_shards(), 2);
    sharded.run_until(at(100));
    let merged = sharded.merge();
    let c = merged.agent::<Canceller>(agent);
    assert_eq!(c.cancelled, Some(true), "the pre-split id was refused");
    assert_eq!(c.fired, [TRIGGER, 2], "the cancelled timer fired");
    assert!(merged.agent::<Pinger>(pingers[0]).acked > 0);
}

/// The middle shard of a three-router chain is fed over two cut links of
/// different delay (5 ms from the left, 2 ms from the right), so what it
/// collects at a barrier — source 0's batch, then source 2's — is not in
/// arrival order and the barrier sort has real work to do. It sorts on the
/// tie each packet carries from its source arena (`WirePacket::tie`); the
/// run must still be the monolithic one, transit packets (left → right,
/// re-sent across the second cut from a pre-seeded memo) included.
#[test]
fn shard_fed_by_two_cut_links_of_different_delay_matches_monolithic() {
    let topo = Topo {
        segment_delays_ms: vec![5, 2],
        // Pairs: left → middle, right → middle, left → right (transit),
        // middle → left; zero access delays glue hosts to their routers.
        hosts: vec![
            (0, 0, 0),
            (1, 0, 0),
            (2, 0, 130),
            (1, 0, 0),
            (0, 0, 410),
            (2, 0, 0),
            (1, 0, 977),
            (0, 0, 0),
        ],
    };
    let until = SimTime::from_millis(400);

    let (mut mono, pingers) = build(&topo);
    mono.run_until(until);
    let want = fingerprint(&mono, mono.events_processed(), &pingers);
    assert!(want.1.iter().all(|&(_, acked)| acked > 10), "{want:?}");

    let (sim, pingers2) = build(&topo);
    let mut sharded = ShardedSim::split(sim, 3).unwrap_or_else(|(_, why)| panic!("{why}"));
    assert_eq!(sharded.num_shards(), 3);
    assert_eq!(sharded.lookahead(), SimDuration::from_millis(2));
    sharded.run_until(until);
    let events = sharded.events_processed();
    let got = fingerprint(&sharded.merge(), events, &pingers2);
    assert_eq!(want, got);
}

proptest! {
    /// Splitting at a random instant into a random shard count, running
    /// to the end, and merging is observably identical to never
    /// splitting. Inseparable topologies exercise the refusal path (the
    /// returned simulator must be intact and continue monolithically).
    #[test]
    fn sharded_run_matches_monolithic(
        topo in topo_strategy(),
        split_at_us in 0u64..250_000,
        shards in 2usize..5,
    ) {
        let until = SimTime::from_millis(300);

        let (mut mono, pingers) = build(&topo);
        mono.run_until(until);
        let want = fingerprint(&mono, mono.events_processed(), &pingers);

        let (mut sim, pingers2) = build(&topo);
        sim.run_until(SimTime::from_micros(split_at_us));
        let (merged, events) = match ShardedSim::split(sim, shards) {
            Ok(mut sharded) => {
                sharded.run_until(until);
                let events = sharded.events_processed();
                (sharded.merge(), events)
            }
            Err((mut sim, _reason)) => {
                // Refusal hands the simulator back untouched; prove it by
                // finishing the run on it.
                sim.run_until(until);
                let events = sim.events_processed();
                (sim, events)
            }
        };
        let got = fingerprint(&merged, events, &pingers2);
        prop_assert_eq!(want, got);
    }

    /// Profile-guided partitioning with arbitrary weights — random,
    /// all-zero, `u64::MAX` spikes, or a vector of the wrong length —
    /// always produces a total cover: every node owned by exactly one
    /// shard, every shard nonempty, shard count within the request.
    #[test]
    fn weighted_partition_is_always_a_total_cover(
        topo in topo_strategy(),
        want in 2usize..5,
        weights in proptest::collection::vec(
            prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1_000_000], 0..32),
    ) {
        let (sim, _) = build(&topo);
        match netsim::shard::partition_with(&sim, want, Some(&weights)) {
            Ok(p) => {
                prop_assert_eq!(p.shard_of_node.len(), sim.num_nodes());
                prop_assert!(p.shards >= 1 && p.shards <= want);
                let mut seen = vec![false; p.shards];
                for &s in &p.shard_of_node {
                    prop_assert!(s < p.shards, "node assigned to shard {} of {}", s, p.shards);
                    seen[s] = true;
                }
                prop_assert!(seen.iter().all(|&s| s), "empty shard in {:?}", p.shard_of_node);
                // Weights must never change *whether* a topology splits,
                // nor the lookahead the cut achieves — only the grouping.
                let unweighted = netsim::shard::partition_with(&sim, want, None).unwrap();
                prop_assert_eq!(p.shards, unweighted.shards);
                prop_assert_eq!(p.lookahead, unweighted.lookahead);
            }
            Err(_) => {
                // Refusal must be weight-independent.
                prop_assert!(netsim::shard::partition_with(&sim, want, None).is_err());
            }
        }
    }

    /// A sharded run under arbitrary partition weights is observably
    /// identical to the monolithic run — weights relocate nodes, never
    /// results.
    #[test]
    fn weighted_sharded_run_matches_monolithic(
        topo in topo_strategy(),
        shards in 2usize..4,
        weights in proptest::collection::vec(0u64..1_000, 4..24),
    ) {
        let until = SimTime::from_millis(200);

        let (mut mono, pingers) = build(&topo);
        mono.run_until(until);
        let want = fingerprint(&mono, mono.events_processed(), &pingers);

        let (sim, pingers2) = build(&topo);
        let (merged, events) = match ShardedSim::split_with(sim, shards, Some(&weights)) {
            Ok(mut sharded) => {
                sharded.run_until(until);
                let events = sharded.events_processed();
                (sharded.merge(), events)
            }
            Err((mut sim, _reason)) => {
                sim.run_until(until);
                let events = sim.events_processed();
                (sim, events)
            }
        };
        let got = fingerprint(&merged, events, &pingers2);
        prop_assert_eq!(want, got);
    }
}
