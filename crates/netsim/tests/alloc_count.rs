//! Pins the arena/slab memory claim: once warm, the simulator's inner
//! event loop runs without touching the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The first
//! test drives a two-node ping-pong (the smallest workload whose event
//! stream has the same shape as the fig6 inner loop: data
//! departure/arrival, ACK departure/arrival, all through one queue
//! discipline) and asserts that after a warm-up window the allocation
//! count stays flat while the event count grows by hundreds of thousands.
//! That loop never puts two events in one 1 ns calendar slot and never
//! carries a burst across a high wheel level's boundary; the second test
//! drives the calendar with the shape of the 100k-flow dumbbell, which
//! does both, and the third moves thousands of in-flight arrivals from
//! one link's lane to the next.
//!
//! This lives in its own integration-test file because the global
//! allocator is process-wide: sharing a binary with unrelated tests would
//! let their allocations bleed into the measurement window. The count is
//! per thread, so the two tests here do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use netsim::event::{EventKind, EventQueue, TimerToken};
use netsim::ids::{AgentId, FlowId, LinkId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::DropTail;
use netsim::sim::{Agent, Ctx, Simulator};
use netsim::time::{SimDuration, SimTime};

/// Counts every allocation the calling thread routes through the global
/// allocator. Only `alloc` is counted (the default
/// `realloc`/`alloc_zeroed` forward to it), which is exactly the "did the
/// inner loop touch the heap" signal.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing measured
        // runs there.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sends one data packet per received ACK (stop-and-wait), so the event
/// stream is a steady four-events-per-exchange loop. Holds no growing
/// state — measurement must not be confused by the agent's own vectors.
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
fn steady_state_event_loop_is_allocation_free() {
    let mut sim = Simulator::new(1);
    let a = sim.add_node();
    let z = sim.add_node();
    // 10 µs one-way delay keeps the exchange rate high: one
    // data/ACK round trip (4 events) every ~22 µs of simulated time.
    sim.add_duplex_link(a, z, 1_000_000_000, SimDuration::from_micros(10), |_| {
        Box::new(DropTail::new(50))
    });
    sim.compute_routes();

    let ping_id = sim.alloc_agent();
    let pong_id = sim.alloc_agent();
    sim.install_agent(
        ping_id,
        a,
        Box::new(Pinger {
            peer_agent: pong_id,
            peer_node: z,
            next_seq: 0,
            acked: 0,
        }),
    );
    sim.install_agent(
        pong_id,
        z,
        Box::new(Ponger {
            peer_agent: ping_id,
            peer_node: a,
        }),
    );
    sim.schedule_agent_timer(SimTime::ZERO, ping_id, TimerToken(0));

    // Warm-up: first packets grow the arena, the calendar slots, and the
    // queue rings to their steady-state capacities.
    sim.run_until(SimTime::from_millis(50));
    let warm_events = sim.events_processed();
    assert!(warm_events > 1_000, "warm-up too quiet: {warm_events}");

    // Measurement window: every in-flight packet now reuses an arena
    // slot, every event reuses calendar capacity, and the dispatch batch
    // buffer is reused across timestamps. The only allowed allocations
    // are the O(1) per-`run_until` setup (the hoisted batch vector and
    // stray calendar-slot growth), so the budget is a small constant
    // that does NOT scale with the event count.
    let allocs_before = allocs();
    sim.run_until(SimTime::from_secs(2));
    let allocs = allocs() - allocs_before;
    let events = sim.events_processed() - warm_events;

    assert!(events > 100_000, "window too quiet: {events} events");
    // The budget is a flat constant (covering the hoisted batch vector and
    // late container growth), four orders of magnitude below the event
    // count: one allocation per event would blow it by ~1000x, which is
    // exactly the regression this pins.
    assert!(
        allocs <= 256,
        "inner loop touched the heap: {allocs} allocations over {events} events"
    );

    // The pinger really did run the loop (the counters above are not
    // measuring an idle simulator).
    let acked = sim.agent::<Pinger>(ping_id).acked;
    assert!(acked > 25_000, "pinger only completed {acked} exchanges");
}

/// The calendar under the 100k-flow dumbbell's load shape: cohorts of 100
/// start timers due at the same nanosecond every simulated millisecond
/// (one level-0 slot holding 100 events), and 10 000 packets in flight
/// with 5–10 ms to go, so that every 2^24 ns boundary finds thousands of
/// them parked in one level-4 slot to cascade. Per-slot deques leaked
/// capacity into every slot such a burst passed through, and sorting a
/// level-0 slot allocated a scratch buffer per pop; the node pool does
/// neither, so after warm-up the loop makes no allocation at all and the
/// calendar's storage stays within Vec doubling of its high-water mark.
#[test]
fn same_instant_cohorts_and_boundary_bursts_are_allocation_free() {
    const COHORT: u64 = 100;
    const IN_FLIGHT: u64 = 10_000;
    const MS: u64 = 1_000_000;
    const TICK: u64 = u64::MAX;
    /// Size of one pooled calendar node (an `Event` packed, plus a link).
    const NODE_BYTES: usize = 48;

    let at = SimTime::from_nanos;
    let timer = |i| EventKind::Timer {
        agent: AgentId(0),
        token: TimerToken(i),
    };
    let mut q = EventQueue::new();
    q.schedule(at(0), EventKind::Control { code: TICK });
    for i in 0..IN_FLIGHT {
        q.schedule(at(i * 1_000), EventKind::Control { code: i });
    }

    // One simulated second spans 59 boundaries of 2^24 ns (16.8 ms).
    let run_until = |q: &mut EventQueue, until: SimTime, high_water: &mut usize| {
        let mut popped = 0u64;
        while let Some(ev) = q.pop_before(until) {
            popped += 1;
            let now = ev.at.as_nanos();
            match ev.kind {
                EventKind::Control { code: TICK } => {
                    for i in 0..COHORT {
                        q.schedule(at(now + MS), timer(i));
                    }
                    q.schedule(at(now + MS), EventKind::Control { code: TICK });
                }
                EventKind::Control { code } => {
                    let delay = 5 * MS + (code * 7_919 + now) % (5 * MS);
                    q.schedule(at(now + delay), EventKind::Control { code });
                }
                _ => {}
            }
            *high_water = (*high_water).max(q.len());
        }
        popped
    };

    let mut high_water = 0;
    run_until(&mut q, SimTime::from_millis(100), &mut high_water);
    let before = allocs();
    let popped = run_until(&mut q, SimTime::from_secs(1), &mut high_water);
    let allocs = allocs() - before;

    assert!(popped > 1_000_000, "window too quiet: {popped} events");
    assert_eq!(allocs, 0, "calendar touched the heap over {popped} events");
    assert!(
        high_water >= (IN_FLIGHT + COHORT) as usize,
        "load never built up: {high_water}"
    );
    assert!(
        q.footprint_bytes() <= 2 * high_water * NODE_BYTES,
        "calendar holds {} bytes for a high-water mark of {high_water} events",
        q.footprint_bytes()
    );
}

/// Arrival lanes share the calendar's node pool. 32 links each keep a FIFO
/// of arrivals 5–10 ms out, across 2^24 ns level-4 boundaries, and the
/// busy link rotates every 20 ms: it serializes back to back with 2 000
/// arrivals in flight while the other 31 trickle. The total in flight
/// repeats from phase to phase, but each lane peaks only in its own busy
/// phase, which for all but the first few comes after the warm-up. Lists
/// through the pool reuse the nodes the previous busy lane freed, so the
/// loop makes no allocation; a container per lane would grow in each
/// lane's first busy phase.
#[test]
fn rotating_arrival_lanes_share_the_node_pool() {
    const LINKS: u64 = 32;
    const MS: u64 = 1_000_000;
    const PHASE: u64 = 20 * MS;
    const BUSY_IN_FLIGHT: u64 = 2_000;
    const IDLE_TX: u64 = 200_000;
    const NODE_BYTES: usize = 48;

    let at = SimTime::from_nanos;
    // Longer for each link in rotation order, so a busy lane draining
    // never overlaps a faster-filling successor: the per-phase peak repeats.
    let delay = |link: u64| 5 * MS + link * 5 * MS / LINKS;
    let mut q = EventQueue::new();
    for link in 0..LINKS {
        q.add_lane();
        q.schedule(at(0), EventKind::Control { code: link });
    }

    let run_until = |q: &mut EventQueue, until: SimTime, high_water: &mut usize| {
        let mut pushed = 0u64;
        while let Some(ev) = q.pop_before(until) {
            let now = ev.at.as_nanos();
            if let EventKind::Control { code: link } = ev.kind {
                let busy = (now / PHASE) % LINKS == link;
                let tx = if busy {
                    delay(link) / BUSY_IN_FLIGHT
                } else {
                    IDLE_TX
                };
                let arrival = EventKind::Timer {
                    agent: AgentId(link as usize),
                    token: TimerToken(pushed),
                };
                q.push_lane(
                    LinkId(link as usize),
                    at(now + delay(link)),
                    ev.at,
                    link + 1,
                    arrival,
                );
                q.schedule(at(now + tx), EventKind::Control { code: link });
                pushed += 1;
            }
            *high_water = (*high_water).max(q.len());
        }
        pushed
    };

    let mut high_water = 0;
    run_until(&mut q, at(4 * PHASE), &mut high_water);
    let before = allocs();
    let pushed = run_until(&mut q, at(LINKS * PHASE - 1), &mut high_water);
    let allocs = allocs() - before;

    assert!(pushed > 200_000, "window too quiet: {pushed} arrivals");
    assert_eq!(allocs, 0, "lanes touched the heap over {pushed} arrivals");
    assert!(
        high_water >= BUSY_IN_FLIGHT as usize,
        "load never built up: {high_water}"
    );
    assert!(
        q.footprint_bytes() <= 2 * high_water * NODE_BYTES,
        "calendar holds {} bytes for a high-water mark of {high_water} events",
        q.footprint_bytes()
    );
}
