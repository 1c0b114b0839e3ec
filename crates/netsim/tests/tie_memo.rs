//! Pins what the calendar's content tie costs: one `Packet::order_tie`
//! evaluation per packet that crosses a link, plus one per CE mark applied
//! after the first hop — not one per hop. (Before the arena memoised the
//! tie, a packet on this path was hashed three times.)

use std::any::Any;

use netsim::event::TimerToken;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::{DropTail, QueueDiscipline, RedParams, RedQueue};
use netsim::sim::{Agent, Ctx, Simulator};
use netsim::time::{SimDuration, SimTime};

/// Sends `burst` ECN-capable data packets back to back when its timer fires.
struct Burst {
    sink: (NodeId, AgentId),
    burst: u64,
}

impl Agent for Burst {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_>) {
        for seq in 0..self.burst {
            ctx.send(Packet {
                flow: FlowId(0),
                dst_node: self.sink.0,
                dst_agent: self.sink.1,
                size_bytes: 1000,
                ecn: Ecn::Capable,
                sent_at: ctx.now(),
                payload: Payload::Data {
                    seq,
                    retransmit: false,
                },
            });
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts deliveries, marked ones apart.
#[derive(Default)]
struct Sink {
    got: u64,
    marked: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.got += 1;
        self.marked += u64::from(pkt.ecn.is_marked());
    }
    fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `0 → 1 → 2 → 3`: a fast access hop, a 10× slower middle hop behind
/// `middle`, a fast last hop. Returns (tie hashes, packets sent, CE marks,
/// packets delivered, of which marked).
fn three_hops(middle: fn() -> Box<dyn QueueDiscipline>) -> (u64, u64, u64, u64, u64) {
    const BURST: u64 = 40;
    let mut sim = Simulator::new(5);
    let n = sim.add_nodes(4);
    let ms = SimDuration::from_millis;
    sim.add_link(n[0], n[1], 100_000_000, ms(1), Box::new(DropTail::new(64)));
    sim.add_link(n[1], n[2], 10_000_000, ms(2), middle());
    sim.add_link(n[2], n[3], 100_000_000, ms(1), Box::new(DropTail::new(64)));
    sim.compute_routes();
    let sink = sim.add_agent(n[3], Box::new(Sink::default()));
    let src = sim.add_agent(
        n[0],
        Box::new(Burst {
            sink: (n[3], sink),
            burst: BURST,
        }),
    );
    sim.schedule_agent_timer(SimTime::ZERO, src, TimerToken(0));
    sim.run_until(SimTime::from_millis(200));
    let c = sim.counters();
    assert_eq!(
        c.dropped_overflow + c.dropped_early,
        0,
        "lossless by design"
    );
    let s = sim.agent::<Sink>(sink);
    (sim.tie_hashes(), BURST, c.marked, s.got, s.marked)
}

#[test]
fn an_unmarked_packet_is_hashed_once_over_three_hops() {
    let (hashes, sent, marks, got, _) = three_hops(|| Box::new(DropTail::new(64)));
    assert_eq!((marks, got), (0, sent));
    assert_eq!(hashes, sent, "one hash per packet, not per hop");
}

#[test]
fn a_ce_mark_costs_exactly_one_more_hash() {
    // RED on the instantaneous queue (w_q = 1) with thresholds far below
    // the burst: it marks, never drops (ECN, gentle region out of reach).
    let (hashes, sent, marks, got, got_marked) = three_hops(|| {
        Box::new(RedQueue::new(RedParams {
            capacity_pkts: 64,
            min_th: 2.0,
            max_th: 60.0,
            max_p: 0.5,
            w_q: 1.0,
            gentle: true,
            ecn: true,
            mean_pkt_time: SimDuration::from_micros(800),
            seed: 9,
        }))
    });
    assert!(marks > 0 && marks < sent, "want a mix: {marks} of {sent}");
    assert_eq!((got, got_marked), (sent, marks));
    // The mark lands on the second hop, after the first hop's arrival was
    // keyed: the memo is dropped with the edit and refilled once.
    assert_eq!(hashes, sent + marks);
}
