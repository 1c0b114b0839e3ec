//! Pins what a connection costs in the default (slab) hosting: one row,
//! no agent, and its cold state only once it starts.
//!
//! A counting `#[global_allocator]` (the same shape as
//! `crates/netsim/tests/alloc_count.rs`) counts the calling thread's
//! allocations while 10 000 connections are declared, then while they
//! start. Declaring a connection costs the caller's source box (none for a
//! zero-sized source) and slab column growth by doubling, which is
//! logarithmic in the connection count: the sender's cold state is not
//! built yet. Starting one builds it into a column reserved once, so a
//! PERT start allocates nothing of its own; CUBIC (and BBR) keep their
//! larger state boxed inside the variant, and a flow recording samples
//! gets its recorder box, one allocation each at the first start. A boxed
//! congestion control, a receiver agent, a telemetry recorder or an audit
//! oracle per connection would each add one more allocation per connection
//! and break the budget. This file is its own test binary so no other
//! test's allocations land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::prelude::*;
use pert_tcp::{connect_with_source, CcKind, ConnectionSpec, Finite, Greedy, Source};

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
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while connecting flows `first..first + n` from `a` to
/// `b` under `cc` (with per-ACK sample recording when `samples`), each fed
/// by the source `source` makes; their start timers fire at `start`.
fn connect_many(
    sim: &mut Simulator,
    (a, b): (NodeId, NodeId),
    (first, n): (usize, usize),
    (cc, samples): (&CcKind, bool),
    source: impl Fn() -> Box<dyn Source>,
    start: SimTime,
) -> u64 {
    let before = allocs();
    for i in first..first + n {
        let mut spec = ConnectionSpec::new(FlowId(i), a, b, cc.clone(), i as u64);
        spec.record_samples = samples;
        let conn = connect_with_source(sim, spec, source());
        sim.schedule_agent_timer(start, conn.sender, conn.start_token);
    }
    allocs() - before
}

/// Allocations made while `sim` runs through the instant `at`.
fn run_through(sim: &mut Simulator, at: SimTime) -> u64 {
    let before = allocs();
    sim.run_until(at);
    allocs() - before
}

#[test]
fn slab_connections_cost_their_source_box_and_no_agent() {
    const N: usize = 10_000;
    const N64: u64 = N as u64;
    /// Doubling growth of the slab's columns, the calendar, the link
    /// queue's drop log and the live column's one reservation, with room
    /// to spare.
    const GROWTH: u64 = 256;
    let pert = CcKind::Pert(Default::default());
    let finite = || Box::new(Finite::new(8)) as Box<dyn Source>;
    let greedy = || Box::new(Greedy) as Box<dyn Source>;
    let later = |ms| SimTime::from_millis(ms);

    // Detached: debug builds default to audited simulators.
    let mut sim = Simulator::with_config(1, SimConfig::default());
    let ends = (sim.add_node(), sim.add_node());
    sim.add_duplex_link(
        ends.0,
        ends.1,
        10_000_000,
        SimDuration::from_millis(10),
        |_| Box::new(DropTail::new(50)),
    );
    sim.compute_routes();
    // The first connection creates the slab itself.
    connect_many(&mut sim, ends, (0, 1), (&pert, false), greedy, later(1));
    let agents = sim.num_agents();

    let boxed = connect_many(&mut sim, ends, (1, N), (&pert, false), finite, later(1));
    assert!(
        (N64..=N64 + GROWTH).contains(&boxed),
        "{boxed} allocations for {N} PERT connections (budget: the source box + {GROWTH})"
    );
    let zero_sized = connect_many(&mut sim, ends, (1 + N, N), (&pert, false), greedy, later(1));
    assert!(
        zero_sized <= GROWTH,
        "{zero_sized} allocations for {N} PERT connections with a zero-sized source \
         (budget {GROWTH})"
    );
    assert_eq!(
        sim.num_agents(),
        agents,
        "connections must not allocate agent slots"
    );
    let cubic = connect_many(
        &mut sim,
        ends,
        (1 + 2 * N, N),
        (&CcKind::Cubic, false),
        greedy,
        later(2),
    );
    let recording = connect_many(
        &mut sim,
        ends,
        (1 + 3 * N, N),
        (&pert, true),
        greedy,
        later(3),
    );
    assert!(
        cubic.max(recording) <= GROWTH,
        "{cubic} and {recording} allocations for {N} CUBIC and {N} recording connections \
         (budget {GROWTH}): their boxes wait for the first start"
    );

    // Starting builds the cold state: nothing of its own for PERT, and the
    // counter sees the boxes CUBIC and sample recording ask for.
    let started = run_through(&mut sim, later(1));
    assert!(
        started <= GROWTH,
        "{started} allocations to start {} PERT connections (budget {GROWTH})",
        2 * N + 1
    );
    let cubic = run_through(&mut sim, later(2));
    assert!(
        (N64..=N64 + GROWTH).contains(&cubic),
        "{cubic} allocations to start {N} CUBIC connections (budget: the CUBIC box + {GROWTH})"
    );
    let recording = run_through(&mut sim, later(3));
    assert!(
        (N64..=N64 + GROWTH).contains(&recording),
        "{recording} allocations to start {N} recording connections \
         (budget: the recorder box + {GROWTH})"
    );
}
