//! The counting allocator, installed as this test binary's global
//! allocator the way `pert-bench` installs it. One test only: a second
//! test's thread would allocate into the same counter.

use std::hint::black_box;

use pertbench::alloc::{count, set_counting, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counts_a_known_number_of_allocations_and_the_switch_costs_none() {
    // Off (the default): allocations pass through uncounted.
    let before = count();
    black_box((0..10u64).map(Box::new).collect::<Vec<_>>());
    assert_eq!(count(), before);

    set_counting(true);
    let c0 = count();
    for i in 0..10u64 {
        black_box(Box::new(i)); // 10 × alloc
    }
    let mut v: Vec<u64> = Vec::with_capacity(4); // alloc
    v.extend([1, 2, 3, 4]);
    v.reserve_exact(100); // realloc
    black_box(vec![0u8; 64]); // alloc_zeroed
    set_counting(false);
    assert_eq!(count() - c0, 13);
    drop(v); // frees are not allocations

    // Flipping the switch allocates nothing and counts nothing.
    let c1 = count();
    set_counting(true);
    set_counting(false);
    assert_eq!(count(), c1);
    black_box(Box::new(7u64));
    assert_eq!(count(), c1);
}
