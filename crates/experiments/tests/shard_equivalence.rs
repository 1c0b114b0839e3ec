//! The sharding guarantee: space-parallel sharded execution produces
//! output byte-identical to the monolithic run, at any shard count and
//! any worker count. This is the determinism suite's sibling — worker
//! parallelism reorders *jobs*, sharding reorders *events inside one
//! simulation* — and it exercises the whole stack: partitioning, event
//! migration, the `(time, sched, tie, seq)` tiebreak, barrier-epoch packet
//! exchange, and measurement merge.

use experiments::common::Scale;
use experiments::report::{reports_to_csv, reports_to_json};
use experiments::runner::run_jobs;
use experiments::scenario::lookup;

/// Render `target` at Quick scale with a given shard count and worker
/// count: (text, json, csv).
fn render(target: &str, shards: usize, workers: usize) -> (String, String, String) {
    let sc = lookup(target).expect("known target");
    let seed = sc.default_seed();
    let mut jobs = sc.points(Scale::Quick, seed);
    jobs.iter_mut().for_each(|j| j.config.shards = shards);
    let (results, _) = run_jobs(jobs, workers);
    let report = sc.assemble(Scale::Quick, seed, results);
    let csv = reports_to_csv(std::slice::from_ref(&report));
    let json = reports_to_json(std::slice::from_ref(&report));
    (report.render_text(), json, csv)
}

/// All three output surfaces are byte-identical across the shard × worker
/// matrix for `target`.
fn assert_shard_invariant(target: &str) {
    let baseline = render(target, 1, 1);
    for shards in [2, 4] {
        for workers in [1, 4] {
            let got = render(target, shards, workers);
            assert_eq!(
                baseline.0, got.0,
                "{target} text diverged at {shards} shards, {workers} workers"
            );
            assert_eq!(
                baseline.1, got.1,
                "{target} JSON diverged at {shards} shards, {workers} workers"
            );
            assert_eq!(
                baseline.2, got.2,
                "{target} CSV diverged at {shards} shards, {workers} workers"
            );
        }
    }
}

#[test]
fn fig6_quick_is_byte_identical_across_shard_counts() {
    // The saturation scenario: ACK-clocked ties between cut-link
    // arrivals and bottleneck departures happen constantly here, so it
    // is the sharpest test of the (time, sched, seq) tie contract.
    assert_shard_invariant("fig6");
}

#[test]
fn fig12_quick_is_byte_identical_across_shard_counts() {
    assert_shard_invariant("fig12");
}

#[test]
fn reverse_quick_is_byte_identical_across_shard_counts() {
    // Reverse-path traffic crosses the cut in both directions at once,
    // and the warm-up profile moves nodes away from the node-count split.
    assert_shard_invariant("reverse");
}

#[test]
fn robustness_quick_is_byte_identical_across_shard_counts() {
    // Two tables from two result types, random corruption on the cut
    // bottleneck and delayed ACKs routed across shards; the warm-up
    // profile moves nodes here too.
    assert_shard_invariant("robustness");
}

#[test]
fn mix6_quick_is_byte_identical_across_shard_counts() {
    // CUBIC and BBR send across the cut, beside the PERT and SACK flows.
    assert_shard_invariant("mix6");
}

#[test]
fn rem_quick_is_byte_identical_across_shard_counts() {
    // REM's periodic queue tick shares instants with injected arrivals.
    assert_shard_invariant("rem");
}

#[test]
fn fig14_quick_is_byte_identical_across_shard_counts() {
    // So does the PI controller's tick.
    assert_shard_invariant("fig14");
}
