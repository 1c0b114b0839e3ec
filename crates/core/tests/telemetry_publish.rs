//! Pins the telemetry publish path: inside a scope, `Tap::record` touches
//! only its thread's sink — no allocation, and the two record registries
//! (`BUFFERS`, `DERIVE`) are locked once per handed-over batch and once
//! when the scope closes, however many threads publish at once.
//!
//! Own integration-test file for the same reason as
//! `netsim/tests/alloc_count.rs`: the counting `#[global_allocator]` and
//! the telemetry registries are process-wide. The allocation count is per
//! thread; the one test here owns the registries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

use pert_core::telemetry::{self, Tap, BATCH, FLIGHT_CAP, HOT_LOCKS};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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

const RECORDS: usize = 100_000;

/// Publish [`FLIGHT_CAP`] warm-up records and then [`RECORDS`] more under
/// `scope`, meeting the caller at `gate` before and after the warm-up.
/// Returns the allocations this thread made for the measured records.
fn publish(scope: &str, gate: &Barrier) -> u64 {
    let _scope = telemetry::scoped(scope);
    let tap = Tap::attach_if(true, "pert/qdelay", 7).expect("attached");
    // Fifty fidelity windows, revisited: once warm, the reducers' maps
    // have every entry the measured records touch.
    let sample = |i: usize| tap.record((i % 50) as f64 * 0.01 + 0.005, 0.002);
    // Whole batches that fill the flight ring, so the measured records
    // start on an empty sink with the batch buffer, the ring and the
    // reducers at full size.
    (0..FLIGHT_CAP).for_each(sample);
    gate.wait();
    gate.wait();
    let before = ALLOCS.with(Cell::get);
    (0..RECORDS).for_each(sample);
    ALLOCS.with(Cell::get) - before
}

/// Run one publisher per scope, all at once. Returns each publisher's
/// allocations and the registry locks that the measured records and the
/// closing of the scopes took together.
fn publish_at_once(scopes: &[&str]) -> (Vec<u64>, u64) {
    let gate = Barrier::new(scopes.len() + 1);
    std::thread::scope(|s| {
        let publishers: Vec<_> = scopes
            .iter()
            .map(|scope| s.spawn(|| publish(scope, &gate)))
            .collect();
        // Every publisher is warm and parked between the two waits.
        gate.wait();
        let before = HOT_LOCKS.load(Ordering::Relaxed);
        gate.wait();
        let allocs = publishers
            .into_iter()
            .map(|p| p.join().expect("publisher panicked"))
            .collect();
        (allocs, HOT_LOCKS.load(Ordering::Relaxed) - before)
    })
}

#[test]
fn scoped_publishing_neither_allocates_nor_contends() {
    // One publisher, then another: a lock per handed-over batch, plus
    // the reducers when the scope closes.
    telemetry::derive_reset();
    let (allocs, one) = publish_at_once(&["pin/a"]);
    assert_eq!(allocs, [0], "Tap::record allocated inside a scope");
    assert!(
        one <= RECORDS.div_ceil(BATCH) as u64 + 2,
        "{one} registry locks for {RECORDS} records"
    );
    publish_at_once(&["pin/b"]);
    let in_turn = telemetry::derive_summary().expect("derivation is running");

    // Both at once: neither pays for the other, and the reducers agree.
    telemetry::derive_reset();
    let (allocs, two) = publish_at_once(&["pin/a", "pin/b"]);
    assert_eq!(allocs, [0, 0], "Tap::record allocated inside a scope");
    assert_eq!(two, 2 * one, "publishers contend on the registries");
    let at_once = telemetry::derive_summary().expect("derivation is running");
    assert_eq!(
        at_once, in_turn,
        "concurrent publishers changed the summary"
    );
    let q = at_once.qdelay.expect("qdelay was published");
    assert_eq!(q.samples, 2 * (FLIGHT_CAP + RECORDS) as u64);
    telemetry::derive_clear();
}
