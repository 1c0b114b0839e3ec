//! A sender's cold state is built by its first event, not when it is
//! declared. These tests pin what that must not change: a late start ends
//! with the same statistics, window and samples; taps and shadows follow
//! the config of the simulator that builds them, even with another
//! simulator running differently on another thread; and a connection that
//! never starts reads back, both halves, and flushes into telemetry, as a
//! fresh row.
//!
//! The audit counters are process-wide: the tests that run audited
//! simulators take turns on them.

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use netsim::prelude::*;
use pert_core::{audit, telemetry, Attach};
use pert_tcp::{
    connect, sender_cc, sender_cwnd, sender_samples, sender_stats, sender_stopped, sink_stats,
    Connection, ConnectionSpec, SenderStats, SinkStats,
};

static AUDIT_COUNTERS: Mutex<()> = Mutex::new(());

fn audit_counters() -> MutexGuard<'static, ()> {
    AUDIT_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Monolithic, with the given taps and shadows.
fn config(telemetry: bool, audit: bool) -> SimConfig {
    SimConfig {
        shards: 1,
        attach: Attach { telemetry, audit },
    }
}

/// n0 — 10 Mb/s, 10 ms, DropTail(50) — n1, configured by `config`.
fn two_nodes(seed: u64, config: SimConfig) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::with_config(seed, config);
    let (a, b) = (sim.add_node(), sim.add_node());
    sim.add_duplex_link(a, b, 10_000_000, SimDuration::from_millis(10), |_| {
        Box::new(DropTail::new(50))
    });
    sim.compute_routes();
    (sim, a, b)
}

fn start_at(sim: &mut Simulator, conn: &Connection, secs: f64) {
    sim.schedule_agent_timer(SimTime::from_secs_f64(secs), conn.sender, conn.start_token);
}

/// FNV-1a over the bits of every sample field.
fn samples_digest(sim: &Simulator, conn: &Connection) -> (usize, u64) {
    let samples = sender_samples(sim, conn);
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for s in samples {
        for v in [s.at, s.rtt, s.owd, s.cwnd] {
            h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (samples.len(), h)
}

/// The comparable fields of a sender's statistics.
fn stats_tuple(s: SenderStats) -> [u64; 7] {
    [
        s.acked_segments,
        s.sent_segments,
        s.retransmits.into(),
        s.loss_events.into(),
        s.timeouts.into(),
        s.ecn_reductions.into(),
        s.early_reductions.into(),
    ]
}

/// Records of `scope` in the flight ring, as `(series, key, value)`.
fn records_of(scope: &str) -> Vec<(&'static str, u64, f64)> {
    telemetry::flight_snapshot()
        .into_iter()
        .filter(|r| &*r.scope == scope)
        .map(|r| (r.series, r.key, r.value))
        .collect()
}

/// (a) A PERT and a CUBIC connection sharing the link, started at 0.3 s,
/// end exactly where they ended when their cold state was built at
/// `connect`. The pinned values are that hosting's.
#[test]
fn a_late_start_ends_with_the_values_of_an_early_build() {
    let _counters = audit_counters();
    let (mut sim, a, b) = two_nodes(3, config(false, true));
    let pert = connect(
        &mut sim,
        ConnectionSpec::pert(FlowId(0), a, b, 11).with_samples(),
    );
    let cubic = connect(
        &mut sim,
        ConnectionSpec::cubic(FlowId(1), a, b, 12).with_samples(),
    );
    start_at(&mut sim, &pert, 0.3);
    start_at(&mut sim, &cubic, 0.3);
    sim.run_until(SimTime::from_secs_f64(3.0));
    for (conn, stats, cwnd, samples) in [
        (
            &pert,
            [560, 607, 45, 1, 0, 0, 46],
            2.421257382901183_f64,
            (560, 15_927_962_976_232_309_964),
        ),
        (
            &cubic,
            [2739, 2805, 7, 1, 0, 0, 0],
            59.83025271973819,
            (2739, 9_814_460_036_147_810_174),
        ),
    ] {
        let flow = conn.flow;
        assert_eq!(stats_tuple(sender_stats(&sim, conn)), stats, "{flow} stats");
        assert_eq!(
            sender_cwnd(&sim, conn).to_bits(),
            cwnd.to_bits(),
            "{flow} cwnd"
        );
        assert_eq!(samples_digest(&sim, conn), samples, "{flow} samples");
    }
}

/// Runs one PERT connection from start to 1 s on a simulator built with
/// `config`, publishing under `scope`; meets the other thread at `gate`
/// before building, so the two simulators are built and run at once.
fn instrumented_run(scope: &str, config: SimConfig, gate: &Barrier) {
    let _scope = telemetry::scoped(scope);
    gate.wait();
    let (mut sim, a, b) = two_nodes(5, config);
    let conn = connect(&mut sim, ConnectionSpec::pert(FlowId(4), a, b, 44));
    start_at(&mut sim, &conn, 0.1);
    sim.run_until(SimTime::from_secs_f64(1.0));
    assert!(sender_stats(&sim, &conn).acked_segments > 0);
}

/// The audit checks `f` makes.
fn checks_of(f: impl FnOnce()) -> audit::AuditSnapshot {
    let before = audit::snapshot();
    f();
    audit::snapshot().since(&before)
}

/// (b) Two simulators with different configs, built and run at once on
/// two threads, each attach exactly their own taps and shadows: the
/// attached one publishes its PERT and TCP series and checks nothing; the
/// audited one publishes nothing and makes exactly the checks it makes
/// alone.
#[test]
fn concurrent_simulators_attach_only_their_own_config() {
    let _counters = audit_counters();
    let (attached, audited) = (config(true, false), config(false, true));
    let alone = checks_of(|| instrumented_run("late-start/alone", audited, &Barrier::new(1)));
    assert!(
        alone.oracle_checks > 100 && alone.tcp_checks > 100 && alone.calendar_checks > 100,
        "an audited run checks its controller, scoreboard and calendar: {alone:?}"
    );
    let gate = Barrier::new(2);
    let both = checks_of(|| {
        std::thread::scope(|s| {
            let gate = &gate;
            s.spawn(move || instrumented_run("late-start/attached", attached, gate));
            s.spawn(move || instrumented_run("late-start/audited", audited, gate));
        })
    });
    assert_eq!(both, alone, "the attached simulator ran audit checks");
    let tapped = records_of("late-start/attached")
        .into_iter()
        .filter(|&(series, key, _)| {
            (series == "tcp/cwnd" && key == 4) || (series == "pert/srtt" && key == 44)
        })
        .count();
    assert!(
        tapped > 100,
        "{tapped} tap records from the attached simulator"
    );
    assert_eq!(
        records_of("late-start/audited"),
        [],
        "the detached simulator published"
    );
}

/// (c) A connection that never starts reads back as a fresh row — its
/// statistics, samples, window, stop flag, congestion control and its
/// receiver's statistics — and with telemetry attached still flushes its
/// `tcp/acked_final` record of 0.
#[test]
fn a_never_started_connection_reads_back_as_a_fresh_row() {
    let (mut sim, a, b) = two_nodes(9, config(true, false));
    let scope = "late-start/never-started";
    let guard = telemetry::scoped(scope);
    let pert = connect(
        &mut sim,
        ConnectionSpec::pert(FlowId(6), a, b, 66).with_samples(),
    );
    let cubic = connect(&mut sim, ConnectionSpec::cubic(FlowId(7), a, b, 77));
    sim.run_until(SimTime::from_secs_f64(1.0));
    for (conn, name) in [(&pert, "pert"), (&cubic, "cubic")] {
        assert_eq!(stats_tuple(sender_stats(&sim, conn)), [0; 7]);
        assert!(sender_samples(&sim, conn).is_empty());
        assert_eq!(sender_cwnd(&sim, conn), 2.0);
        assert!(!sender_stopped(&sim, conn));
        assert_eq!(sink_stats(&sim, conn), SinkStats::default());
        let cc = sender_cc(&sim, conn);
        assert_eq!((cc.name(), cc.early_reductions()), (name, 0));
        assert_eq!(cc.pacing_rate(), None);
    }
    drop(sim);
    drop(guard);
    assert_eq!(
        records_of(scope),
        [("tcp/acked_final", 6, 0.0), ("tcp/acked_final", 7, 0.0)],
        "each never-started connection flushes exactly its final count"
    );
}
