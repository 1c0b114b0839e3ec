//! Pins what building a connection costs in the default (slab) hosting:
//! one row, two heap blocks, no agent.
//!
//! A counting `#[global_allocator]` (the same shape as
//! `crates/netsim/tests/alloc_count.rs`) counts the calling thread's
//! allocations while 10 000 connections are built. A PERT connection may
//! cost the sender's cold box, which holds its congestion control inline,
//! and the caller's source box; the slab's columns grow by doubling, which
//! is logarithmic in the connection count. A boxed congestion control, a
//! receiver agent, a telemetry recorder or an audit oracle per connection
//! would each add one more allocation per connection and break the budget.
//! CUBIC (and BBR) keep their larger state boxed inside the variant, so
//! they cost one more. This file is its own test binary so no other test's
//! allocations land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::prelude::*;
use pert_tcp::{connect_with_source, CcKind, ConnectionSpec, Finite};

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
/// `b` under `cc` (with per-ACK sample recording when `samples`).
fn connect_many(
    sim: &mut Simulator,
    (a, b): (NodeId, NodeId),
    first: usize,
    n: usize,
    cc: &CcKind,
    samples: bool,
) -> u64 {
    let before = allocs();
    for i in first..first + n {
        let mut spec = ConnectionSpec::new(FlowId(i), a, b, cc.clone(), i as u64);
        spec.record_samples = samples;
        connect_with_source(sim, spec, Box::new(Finite::new(8)));
    }
    allocs() - before
}

#[test]
fn slab_connections_cost_two_allocations_and_no_agent() {
    const N: usize = 10_000;
    /// Doubling growth of the slab's eight columns, with room to spare.
    const GROWTH: u64 = 256;
    let pert = CcKind::Pert(Default::default());

    // A detached release build: debug builds default the audit flag on.
    pert_core::audit::set_enabled(false);
    pert_core::telemetry::set_enabled(false);
    let mut sim = Simulator::new(1);
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
    connect_many(&mut sim, ends, 0, 1, &pert, false);
    let agents = sim.num_agents();

    let detached = connect_many(&mut sim, ends, 1, N, &pert, false);
    assert!(
        detached <= 2 * N as u64 + GROWTH,
        "{detached} allocations for {N} PERT connections (budget 2 each + {GROWTH})"
    );
    assert_eq!(
        sim.num_agents(),
        agents,
        "connections must not allocate agent slots"
    );

    let cubic = connect_many(&mut sim, ends, 1 + N, N, &CcKind::Cubic, false);
    assert!(
        cubic <= 3 * N as u64 + GROWTH,
        "{cubic} allocations for {N} CUBIC connections (budget 3 each + {GROWTH})"
    );

    // The counter sees a recorder when one is asked for: recording
    // samples puts a third box on every PERT connection.
    let recording = connect_many(&mut sim, ends, 1 + 2 * N, N, &pert, true);
    assert!(
        recording >= 3 * N as u64,
        "{recording} allocations for {N} recording connections"
    );
}
