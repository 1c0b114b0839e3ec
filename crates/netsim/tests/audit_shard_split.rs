//! An audited run split into shards after its warm-up checks exactly
//! what the monolithic run checks: the auditor's ledgers move to the
//! shard that owns their link (`ConservationAuditor::shard_split`), so
//! the event, queue, TCP and calendar check totals match at 1, 2 and 3
//! shards, with no violation.
//!
//! The audit counters are process-global, so this file holds one test
//! and no other test in its binary can add to them.

use std::any::Any;

use netsim::audit::{self, AuditSnapshot};
use netsim::event::TimerToken;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::DropTail;
use netsim::sim::{Agent, Ctx, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::{ShardedSim, SimConfig};

/// Sends a burst of new data every 10 ms; bursts overflow the 8-packet
/// queues on the way, so the ledgers see drops as well as service.
struct Burst {
    peer: (NodeId, AgentId),
    flow: FlowId,
    next_seq: u64,
}

impl Agent for Burst {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx<'_>) {
        for _ in 0..12 {
            ctx.send(Packet {
                flow: self.flow,
                dst_node: self.peer.0,
                dst_agent: self.peer.1,
                size_bytes: 1000,
                ecn: Ecn::NotCapable,
                sent_at: ctx.now(),
                payload: Payload::Data {
                    seq: self.next_seq,
                    retransmit: false,
                },
            });
            self.next_seq += 1;
        }
        ctx.schedule(SimDuration::from_millis(10), t);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Acknowledges every data packet with a 40-byte cumulative ACK.
struct Acker {
    peer: (NodeId, AgentId),
}

impl Agent for Acker {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let Payload::Data { seq, .. } = pkt.payload {
            ctx.send(Packet {
                flow: pkt.flow,
                dst_node: self.peer.0,
                dst_agent: self.peer.1,
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

/// Three routers in a 5 ms chain, two hosts on each; every host sends
/// to a host two routers away or one, so traffic crosses every cut.
fn build() -> Simulator {
    let audited = SimConfig {
        shards: 1,
        attach: pert_core::Attach {
            telemetry: false,
            audit: true,
        },
    };
    let mut sim = Simulator::with_config(7, audited);
    let routers = sim.add_nodes(3);
    for w in routers.windows(2) {
        sim.add_duplex_link(w[0], w[1], 8_000_000, SimDuration::from_millis(5), |_| {
            Box::new(DropTail::new(8))
        });
    }
    let hosts: Vec<NodeId> = (0..6)
        .map(|i| {
            let h = sim.add_node();
            sim.add_duplex_link(
                h,
                routers[i / 2],
                100_000_000,
                SimDuration::from_millis(1),
                |_| Box::new(DropTail::new(8)),
            );
            h
        })
        .collect();
    sim.compute_routes();
    for (flow, (src, dst)) in [(0, 4), (5, 1), (2, 5), (3, 0)].into_iter().enumerate() {
        let (tx, rx) = (sim.alloc_agent(), sim.alloc_agent());
        sim.install_agent(
            tx,
            hosts[src],
            Box::new(Burst {
                peer: (hosts[dst], rx),
                flow: FlowId(flow),
                next_seq: 0,
            }),
        );
        sim.install_agent(
            rx,
            hosts[dst],
            Box::new(Acker {
                peer: (hosts[src], tx),
            }),
        );
        sim.schedule_agent_timer(SimTime::from_micros(300 * flow as u64), tx, TimerToken(0));
    }
    sim
}

/// The audit checks one run adds to the global counters: warm up to
/// 100 ms on one simulator, then split into `shards` (1 = no split) and
/// measure to 400 ms. Everything is dropped before the counters are
/// read, as auditors and calendars flush their batched counts on drop.
fn audited_run(shards: usize) -> AuditSnapshot {
    let before = audit::snapshot();
    let mut sim = build();
    sim.run_until(SimTime::from_millis(100));
    let end = SimTime::from_millis(400);
    if shards == 1 {
        sim.reset_measurements();
        sim.run_until(end);
        sim.flush_measurements();
        drop(sim);
    } else {
        let mut sharded = ShardedSim::split(sim, shards).unwrap_or_else(|(_, e)| panic!("{e}"));
        assert_eq!(sharded.num_shards(), shards);
        sharded.reset_measurements();
        sharded.run_until(end);
        sharded.flush_measurements();
        drop(sharded.merge());
    }
    audit::snapshot().since(&before)
}

#[test]
fn shard_split_audit_totals_match_the_monolithic_run() {
    let mono = audited_run(1);
    assert!(
        mono.event_checks > 0 && mono.queue_checks > 0 && mono.calendar_checks > 0,
        "{mono:?}"
    );
    for shards in [2, 3] {
        let split = audited_run(shards);
        let totals = |s: &AuditSnapshot| {
            (
                s.event_checks,
                s.queue_checks,
                s.tcp_checks,
                s.calendar_checks,
            )
        };
        assert_eq!(totals(&split), totals(&mono), "{shards} shards");
        assert_eq!(split.violations, 0);
    }
    assert_eq!(mono.violations, 0);
}
