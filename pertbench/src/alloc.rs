//! A counting `#[global_allocator]`: heap allocations are a cost the
//! bench can count instead of time, and counts repeat where host time
//! does not. Counting is off except inside a counted pass, so timed
//! passes pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter. Install with
/// `#[global_allocator]` in the binary (and in the allocator's test).
pub struct Counting;

#[inline]
fn note() {
    // Relaxed: the counter is a statistic and publishes no other data.
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start or stop counting `alloc`, `alloc_zeroed` and `realloc` calls.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Allocations counted so far in this process.
pub fn count() -> u64 {
    COUNT.load(Ordering::SeqCst)
}
