//! Pins the sharded driver's memory claim: once warm, a barrier epoch
//! hands cross-shard mail over without touching the heap.
//!
//! Shard workers are threads of their own, so the counting allocator here
//! is process-wide (unlike `alloc_count.rs`'s per-thread one). A
//! `run_until` call has a fixed cost — spawning the workers, reading their
//! CPU clocks — but nothing it does per epoch may allocate: outboxes and
//! mailboxes are swapped and drained in place, never rebuilt, and
//! injection needs no sort. So a call spanning 2E epochs must allocate
//! exactly as often as one spanning E.
//!
//! This file holds one test, so no other test's allocations can land in
//! its measurement windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::event::TimerToken;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::DropTail;
use netsim::sim::{Agent, Ctx, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::ShardedSim;

/// Counts every allocation made by any thread of the process. Only
/// `alloc` is counted; the default `realloc` forwards to it, so a growing
/// buffer counts too.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keeps `window` data packets in flight: the whole window on its timer,
/// then one per ACK. Holds no growing state.
struct Pinger {
    peer_agent: AgentId,
    peer_node: NodeId,
    window: u64,
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
        for _ in 0..self.window {
            self.send_next(ctx);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Echoes every data packet back as a 40-byte ACK; no growing state.
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

#[test]
fn a_warm_epoch_allocates_nothing() {
    // host — router ═ 5 ms ═ router — host: the access links have no delay,
    // so the only cut is the router link and the epoch is 5 ms wide.
    let mut sim = Simulator::new(3);
    let nodes: Vec<NodeId> = (0..4).map(|_| sim.add_node()).collect();
    for (i, ms) in [0, 5, 0].into_iter().enumerate() {
        sim.add_duplex_link(
            nodes[i],
            nodes[i + 1],
            8_000_000,
            SimDuration::from_millis(ms),
            |_| Box::new(DropTail::new(64)),
        );
    }
    sim.compute_routes();
    let ping = sim.alloc_agent();
    let pong = sim.alloc_agent();
    sim.install_agent(
        ping,
        nodes[0],
        Box::new(Pinger {
            peer_agent: pong,
            peer_node: nodes[3],
            window: 8,
            next_seq: 0,
            acked: 0,
        }),
    );
    sim.install_agent(
        pong,
        nodes[3],
        Box::new(Ponger {
            peer_agent: ping,
            peer_node: nodes[0],
        }),
    );
    sim.schedule_agent_timer(SimTime::ZERO, ping, TimerToken(0));

    let mut sharded = ShardedSim::split(sim, 2).unwrap_or_else(|(_, e)| panic!("{e}"));
    let window = sharded.lookahead();
    assert_eq!(window, SimDuration::from_millis(5));
    let epochs = 40u64;
    let mut t = SimTime::from_millis(500);
    sharded.run_until(t);

    let mut allocs_over = |span: u64| {
        let events = sharded.events_processed();
        t += SimDuration::from_nanos(window.as_nanos() * span);
        let before = ALLOCS.load(Ordering::Relaxed);
        sharded.run_until(t);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(
            sharded.events_processed() > events + 4 * span,
            "the run idled"
        );
        allocs
    };
    let one = allocs_over(epochs);
    let two = allocs_over(2 * epochs);
    assert_eq!(
        one,
        two,
        "{epochs} more epochs allocated {} more times",
        two as i64 - one as i64
    );

    let sim = sharded.merge();
    let p = sim.agent::<Pinger>(ping);
    assert!(p.acked > 400, "only {} ACKs came back", p.acked);
}
