//! One copy of each micro-driver: a small loop around one layer's public
//! functions, shaped like the workload it explains, giving nanoseconds
//! per operation — reference-host nanoseconds: every driver runs between
//! two probes of [`crate::refkernel`]. All diagnostic; nothing here is
//! gated.

use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use experiments::runner::run_jobs;
use experiments::scenario::lookup;
use experiments::trace_cli::parse_jsonl;
use experiments::Scale;
use netsim::arena::PacketArena;
use netsim::event::{EventKind, EventQueue};
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload, SackBlock};
use netsim::queue::{
    AvqParams, AvqQueue, DropTail, EnqueueOutcome, PiParams, PiQueue, QueueDiscipline, RedParams,
    RedQueue, RemParams, RemQueue,
};
use netsim::time::SimTime;
use netsim::TimerToken;
use pert_core::pert::{PertController, PertParams};
use pert_core::telemetry;
use pert_tcp::cc::{CcAlgorithm, CcContext, PertCc, Reno, Vegas};
use pert_tcp::{Bbr, Cubic, Scoreboard};
use sim_stats::derive::DeriveSet;

use crate::refkernel::{scale, Pace};
use crate::stats::median;

/// How long one driver keeps taking batches.
const BUDGET: Duration = Duration::from_millis(150);

/// Run `f` between two reference probes on `threads` threads; returns
/// its result and the factor that turns what it measured into
/// reference-host time.
fn with_scale<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let before = Pace::probe(threads);
    let out = f();
    (
        out,
        scale(Pace::between(before, Pace::probe(threads)).pooled),
    )
}

/// Reference-host seconds `f` takes, with its result.
fn ref_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let ((out, s), k) = with_scale(1, || {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    });
    (out, s * k)
}

/// Median reference-host nanoseconds per operation: `setup` builds
/// untimed state, `batch` performs `ops` operations on it with `threads`
/// threads busy. One warm-up batch, then at least five and at most as
/// many as fit in [`BUDGET`].
fn ns_per_op<S>(
    threads: usize,
    ops: u64,
    setup: impl FnMut() -> S,
    batch: impl FnMut(&mut S),
) -> f64 {
    let (ns, k) = with_scale(threads, || batches(ops, setup, batch));
    ns * k
}

fn batches<S>(ops: u64, mut setup: impl FnMut() -> S, mut batch: impl FnMut(&mut S)) -> f64 {
    batch(&mut setup());
    let mut per_op = Vec::new();
    let t0 = Instant::now();
    while per_op.len() < 5 || (t0.elapsed() < BUDGET && per_op.len() < 500) {
        let mut state = setup();
        let t = Instant::now();
        batch(&mut state);
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
        black_box(&mut state);
    }
    median(&per_op)
}

/// Deterministic pseudorandom inter-event gap, 1 ns ..= ~1 ms.
fn gap(i: u64) -> u64 {
    1 + (i.wrapping_mul(2_654_435_761).wrapping_add(0x9e37_79b9)) % 1_000_000
}

fn prefilled(pending: u64) -> EventQueue {
    let mut q = EventQueue::new();
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(gap(i)), EventKind::Control { code: i });
    }
    q
}

/// Steady-state pop-one/schedule-one with `pending` events outstanding:
/// 64 is a sweep simulation's calendar, 100 000 the dumbbell's.
fn churn(pending: u64) -> f64 {
    const STEPS: u64 = 100_000;
    ns_per_op(
        1,
        STEPS,
        || prefilled(pending),
        |q| {
            for i in 0..STEPS {
                let ev = q.pop().expect("queue stays full during churn");
                let next = ev.at.as_nanos() + gap(pending + i);
                q.schedule(SimTime::from_nanos(next), EventKind::Control { code: i });
            }
        },
    )
}

/// Re-arming a retransmission timer with 100 000 events pending: cancel
/// the armed timer, schedule its replacement 200 ms out.
fn cancel() -> f64 {
    const STEPS: u64 = 100_000;
    let timer = |i: u64| EventKind::Timer {
        agent: AgentId(0),
        token: TimerToken(i),
    };
    ns_per_op(
        1,
        STEPS,
        || prefilled(100_000),
        |q| {
            let mut armed = q.schedule(SimTime::from_millis(200), timer(0));
            for i in 1..=STEPS {
                q.cancel(armed);
                armed = q.schedule(SimTime::from_nanos(200_000_000 + gap(i)), timer(i));
            }
        },
    )
}

fn pkt() -> Packet {
    Packet {
        flow: FlowId(0),
        dst_node: NodeId(0),
        dst_agent: AgentId(0),
        size_bytes: 1000,
        ecn: Ecn::Capable,
        sent_at: SimTime::ZERO,
        payload: Payload::Data {
            seq: 0,
            retransmit: false,
        },
    }
}

/// Enqueue, tick, dequeue one packet a microsecond through a 64-packet
/// queue, the way a link drives its discipline.
fn queue_op(mut make: impl FnMut() -> Box<dyn QueueDiscipline>) -> f64 {
    const OPS: u64 = 50_000;
    ns_per_op(
        1,
        OPS,
        || (make(), PacketArena::new()),
        |(q, arena)| {
            for i in 1..=OPS {
                let now = SimTime::from_nanos(i * 1000);
                let r = arena.alloc(pkt());
                if let EnqueueOutcome::Dropped(r, _) = q.enqueue(r, arena, now) {
                    arena.take(r);
                }
                q.on_tick(now);
                black_box(q.dequeue(arena, now).and_then(|r| arena.take(r)));
            }
        },
    )
}

fn arena_alloc_free() -> f64 {
    const OPS: u64 = 100_000;
    ns_per_op(1, OPS, PacketArena::new, |arena| {
        for _ in 0..OPS {
            let r = arena.alloc(pkt());
            black_box(arena.take(r));
        }
    })
}

/// A 1000-segment window: send, lose every 50th, SACK the rest,
/// retransmit, acknowledge. Per segment.
fn scoreboard() -> f64 {
    const SEGS: u64 = 1000;
    ns_per_op(1, SEGS, Scoreboard::new, |sb| {
        for s in 0..SEGS {
            sb.on_send_new(s);
        }
        for s in 0..SEGS {
            if s % 50 != 0 {
                sb.sack(SackBlock {
                    start: s,
                    end: s + 1,
                });
            }
        }
        sb.declare_losses();
        while let Some(seq) = sb.first_lost() {
            sb.on_retransmit(seq);
        }
        black_box(sb.ack_to(SEGS));
    })
}

/// `on_ack` of one congestion-control algorithm, one segment per ACK at
/// 1 ms spacing with the RTT sweeping 60–70 ms; the window is held at or
/// below 512 segments so every batch sees the same regime.
fn cc_on_ack<A: CcAlgorithm>(mut make: impl FnMut() -> A) -> f64 {
    const ACKS: u64 = 10_000;
    ns_per_op(
        1,
        ACKS,
        || (make(), 10.0f64, 64.0f64),
        |(cc, cwnd, ssthresh)| {
            for i in 0..ACKS {
                let rtt = 0.060 + 0.010 * ((i % 100) as f64 / 100.0);
                let mut ctx = CcContext {
                    now: i as f64 * 0.001,
                    rtt,
                    owd: rtt / 2.0,
                    newly_acked: 1,
                    in_flight: *cwnd as u64,
                    cwnd,
                    ssthresh,
                };
                black_box(cc.on_ack(&mut ctx));
                *cwnd = cwnd.min(512.0);
            }
        },
    )
}

fn pert_controller() -> f64 {
    const ACKS: u64 = 10_000;
    ns_per_op(
        1,
        ACKS,
        || PertController::new(PertParams::default(), 3),
        |ctl| {
            for i in 0..ACKS {
                let rtt = 0.060 + 0.010 * ((i % 100) as f64 / 100.0);
                black_box(ctl.on_ack(i as f64 * 0.001, rtt));
            }
        },
    )
}

/// `telemetry::record` with derivation running, from `threads` threads
/// at once; wall time per record as each thread sees it, so lock
/// contention shows as the two-thread figure rising above the
/// one-thread one.
fn record(threads: usize) -> f64 {
    const RECORDS: u64 = 50_000;
    telemetry::set_enabled(true);
    telemetry::derive_reset();
    let ns = ns_per_op(
        threads,
        RECORDS,
        || (),
        |_| {
            let barrier = Barrier::new(threads);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let _scope = telemetry::scoped(if t == 0 { "bench/a" } else { "bench/b" });
                        barrier.wait();
                        for i in 0..RECORDS {
                            telemetry::record("pert/qdelay", i % 32, i as f64 * 1e-4, 0.002);
                        }
                    });
                }
            });
        },
    );
    telemetry::derive_clear();
    telemetry::set_enabled(false);
    ns
}

/// Run fig6 at quick scale with the full trace on, then price what
/// happens to such a stream afterwards: replaying it into a fresh
/// `DeriveSet`, summarising, writing it as JSONL and parsing it back.
fn fig6_stream(out_dir: &Path, seed: u64, l: &mut Vec<(&'static str, f64)>) {
    telemetry::set_enabled(true);
    telemetry::set_full_trace(true);
    let fig6 = lookup("fig6").expect("fig6 is a registered scenario");
    black_box(run_jobs(fig6.points(Scale::Quick, seed), 2));
    telemetry::set_enabled(false);
    telemetry::set_full_trace(false);
    let records = telemetry::trace_snapshot_sorted();
    l.push(("pert_core.telemetry.records", records.len() as f64));

    let mut set = DeriveSet::new();
    let ((), ingest_s) = ref_seconds(|| {
        for r in &records {
            set.ingest(&r.scope, r.series, r.key, r.t, r.value);
        }
    });
    l.push((
        "sim_stats.derive.ingest_ns_op",
        ingest_s * 1e9 / records.len().max(1) as f64,
    ));
    let (summary, summary_s) = ref_seconds(|| set.summary());
    black_box(summary);
    l.push(("sim_stats.derive.summary_s", summary_s));

    std::fs::create_dir_all(out_dir).expect("create the bench's out directory");
    let path = out_dir.join("fig6_quick_trace.jsonl");
    let (written, write_s) = ref_seconds(|| telemetry::write_trace_jsonl(&path));
    written.expect("write the fig6 trace");
    l.push(("pert_core.telemetry.write_trace_s", write_s));
    let text = std::fs::read_to_string(&path).expect("read the fig6 trace back");
    let mib = text.len() as f64 / (1024.0 * 1024.0);
    l.push(("pert_core.telemetry.trace_mib", mib));
    let ((parsed, errors), parse_s) = ref_seconds(|| parse_jsonl(&text));
    assert!(
        errors.is_empty() && parsed.len() == records.len(),
        "trace did not parse back: {} of {} records, {} errors",
        parsed.len(),
        records.len(),
        errors.len()
    );
    l.push(("experiments.trace_cli.parse_mib_s", mib / parse_s));
    // 77 MB that nothing reads again.
    let _ = std::fs::remove_file(&path);
}

/// Every micro-driver, as `(metric name, value)`.
pub fn run_all(out_dir: &Path, seed: u64) -> Vec<(&'static str, f64)> {
    let mut l = vec![
        ("netsim.event.churn64_ns_op", churn(64)),
        ("netsim.event.churn100k_ns_op", churn(100_000)),
        ("netsim.event.cancel_ns_op", cancel()),
        (
            "netsim.queue.droptail_ns_op",
            queue_op(|| Box::new(DropTail::new(64))),
        ),
        (
            "netsim.queue.red_ns_op",
            queue_op(|| Box::new(RedQueue::new(RedParams::recommended(64, 10_000.0, true, 1)))),
        ),
        (
            "netsim.queue.pi_ns_op",
            queue_op(|| Box::new(PiQueue::new(PiParams::hollot_example(64, 20.0, true, 1)))),
        ),
        (
            "netsim.queue.rem_ns_op",
            queue_op(|| {
                Box::new(RemQueue::new(RemParams::recommended(
                    64, 20.0, 10_000.0, true, 1,
                )))
            }),
        ),
        (
            "netsim.queue.avq_ns_op",
            queue_op(|| Box::new(AvqQueue::new(AvqParams::recommended(64, 10_000.0, true)))),
        ),
        ("netsim.arena.alloc_free_ns_op", arena_alloc_free()),
        ("pert_tcp.scoreboard_ns_op", scoreboard()),
        ("pert_tcp.cc.reno_ns_ack", cc_on_ack(Reno::new)),
        ("pert_tcp.cc.vegas_ns_ack", cc_on_ack(Vegas::new)),
        ("pert_tcp.cc.pert_ns_ack", cc_on_ack(|| PertCc::new(3))),
        ("pert_tcp.cc.cubic_ns_ack", cc_on_ack(|| Cubic::new(3))),
        ("pert_tcp.cc.bbr_ns_ack", cc_on_ack(|| Bbr::new(3))),
        ("pert_core.pert.on_ack_ns_op", pert_controller()),
        ("pert_core.telemetry.record_ns_op", record(1)),
        ("pert_core.telemetry.record_2t_ns_op", record(2)),
    ];
    fig6_stream(out_dir, seed, &mut l);
    l
}
