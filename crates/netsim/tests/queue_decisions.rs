//! Decision-stream goldens: every queue discipline driven by one fixed,
//! seeded script, with each step's outcome and the queue's full
//! observable state folded into a hash that is pinned as a literal.
//!
//! The script mixes ECN-capable and non-capable arrivals of varied sizes,
//! dequeues, the discipline's own periodic ticks and one long idle gap,
//! over phases that fill the buffer to overflow, hold a standing queue,
//! drain it and overload it again. Per step the hash takes the outcome
//! and drop reason (or the dequeued packet and its CE bit), `len`,
//! `len_bytes`, every `QueueStats` field and the discipline's internal
//! state through its public accessors (RED's average and `max_p`, PI's
//! probability, REM's price, AVQ's virtual queue and capacity, the loss
//! wrapper's corruption count). AQM oracles are attached, so an update
//! law that drifts from its reference transcription panics here too.
//!
//! No scenario builds AVQ or lets an ECN-capable packet reach RED's
//! forced-drop region, so this is the decision-level check for both.

use netsim::arena::PacketArena;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload};
use netsim::queue::{
    AdaptiveRedParams, AvqParams, AvqQueue, DropReason, DropTail, EnqueueOutcome, PiParams,
    PiQueue, QueueDiscipline, RandomLoss, RedParams, RedQueue, RemParams, RemQueue,
};
use netsim::time::{SimDuration, SimTime};
use pert_core::Attach;

/// FNV-1a over the little-endian bytes of one word.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The script's own generator, so the goldens do not depend on `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Outcome counts over a run, to show the script reaches every branch.
#[derive(Debug, Default)]
struct Seen {
    enqueued: u64,
    marked: u64,
    overflow: u64,
    early: u64,
    ticks: u64,
}

/// Fold the queue's observable state into `h`.
fn fold_state<Q: QueueDiscipline>(h: &mut u64, q: &Q, probe: &impl Fn(&Q) -> Vec<f64>) {
    fnv(h, q.len() as u64);
    fnv(h, q.len_bytes());
    let s = q.stats();
    for w in [s.enqueued, s.dequeued, s.dropped, s.marked] {
        fnv(h, w);
    }
    fnv(h, s.integral_pkt_ns as u64);
    fnv(h, (s.integral_pkt_ns >> 64) as u64);
    fnv(h, s.last_change.as_nanos());
    fnv(h, s.peak_len as u64);
    for v in probe(q) {
        fnv(h, v.to_bits());
    }
}

/// Run the script against `q` (oracles attached) and return its hash.
fn run<Q: QueueDiscipline>(mut q: Q, probe: impl Fn(&Q) -> Vec<f64>) -> (u64, Seen) {
    q.attach(
        Attach {
            telemetry: false,
            audit: true,
        },
        0,
        0,
    );
    let mut arena = PacketArena::new();
    let mut rng = Lcg(0x005e_ed0f_9001);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = Seen::default();
    let interval = q.tick_interval();
    let mut next_tick = interval.map(|i| SimTime::ZERO + i);
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(40);

    let tick_until = |q: &mut Q, h: &mut u64, seen: &mut Seen, next: &mut Option<SimTime>, t| {
        while let Some(at) = *next {
            if at > t {
                break;
            }
            q.on_tick(at);
            seen.ticks += 1;
            fnv(h, 3);
            fold_state(h, q, &probe);
            *next = Some(at + interval.unwrap());
        }
    };

    for i in 0..6_000u64 {
        if i == 3_000 {
            // Drain, then an idle gap long enough for RED's average to
            // decay and for the tick-driven laws to unwind.
            while let Some(r) = q.dequeue(&mut arena, now) {
                let pkt = arena.take(r).expect("a dequeued ref is live");
                fnv(&mut h, 2);
                fnv(&mut h, pkt.data_seq().unwrap_or(u64::MAX));
                fnv(&mut h, u64::from(pkt.ecn.is_marked()));
                fold_state(&mut h, &q, &probe);
            }
            now += SimDuration::from_millis(300);
        }
        now += step;
        tick_until(&mut q, &mut h, &mut seen, &mut next_tick, now);
        // Arrivals per 8 draws: overload, standing, light, overload.
        let arrive_of_8 = match i {
            0..1_500 => 5,
            1_500..3_000 => 4,
            3_000..4_500 => 3,
            _ => 6,
        };
        if rng.next() % 8 < arrive_of_8 {
            let size = 40 + (rng.next() % 1_461) as u32;
            let ecn = if rng.next().is_multiple_of(2) {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            };
            let r = arena.alloc(Packet {
                flow: FlowId(0),
                dst_node: NodeId(0),
                dst_agent: AgentId(0),
                size_bytes: size,
                ecn,
                sent_at: now,
                payload: Payload::Data {
                    seq: i,
                    retransmit: false,
                },
            });
            let code = match q.enqueue(r, &mut arena, now) {
                EnqueueOutcome::Enqueued => {
                    seen.enqueued += 1;
                    0
                }
                EnqueueOutcome::Marked => {
                    seen.marked += 1;
                    1
                }
                EnqueueOutcome::Dropped(r, reason) => {
                    arena.take(r);
                    match reason {
                        DropReason::Overflow => {
                            seen.overflow += 1;
                            2
                        }
                        DropReason::Early => {
                            seen.early += 1;
                            3
                        }
                    }
                }
            };
            fnv(&mut h, 1);
            fnv(&mut h, code);
        } else {
            let out = q
                .dequeue(&mut arena, now)
                .map(|r| arena.take(r).expect("a dequeued ref is live"));
            fnv(&mut h, 2);
            fnv(
                &mut h,
                out.as_ref().map_or(u64::MAX, |p| p.data_seq().unwrap()),
            );
            fnv(&mut h, out.map_or(2, |p| u64::from(p.ecn.is_marked())));
        }
        fold_state(&mut h, &q, &probe);
    }
    // Close the occupancy integral as a monitor would at measurement end.
    let len = q.len();
    q.stats_mut().advance(now, len);
    fold_state(&mut h, &q, &probe);
    (h, seen)
}

fn red_params(gentle: bool) -> RedParams {
    RedParams {
        capacity_pkts: 24,
        min_th: 3.0,
        max_th: 8.0,
        max_p: 0.2,
        w_q: 0.05,
        gentle,
        ecn: true,
        mean_pkt_time: SimDuration::from_micros(100),
        seed: 11,
    }
}

fn red_probe(q: &RedQueue) -> Vec<f64> {
    vec![q.avg_queue(), q.current_max_p()]
}

fn check(name: &str, (h, seen): (u64, Seen), want: u64) {
    assert_eq!(
        h, want,
        "{name}: decision stream changed (got {h:#018x}, outcomes {seen:?})"
    );
}

#[test]
fn droptail_decisions_are_pinned() {
    let got = run(DropTail::new(16), |_| Vec::new());
    assert!(got.1.overflow > 0, "{:?}", got.1);
    check("DropTail", got, 0x35ca_7171_506a_7752);
}

#[test]
fn gentle_red_decisions_are_pinned() {
    let got = run(RedQueue::new(red_params(true)), red_probe);
    assert!(
        got.1.overflow > 0 && got.1.early > 0 && got.1.marked > 0,
        "{:?}",
        got.1
    );
    check("gentle RED", got, 0xcf41_a016_6473_3d0d);
}

#[test]
fn sharp_red_decisions_are_pinned() {
    let got = run(RedQueue::new(red_params(false)), red_probe);
    assert!(got.1.early > 0 && got.1.marked > 0, "{:?}", got.1);
    check("sharp RED", got, 0x0b30_d1fd_62a6_e72b);
}

#[test]
fn adaptive_red_decisions_are_pinned() {
    let adaptive = AdaptiveRedParams {
        interval: SimDuration::from_millis(2),
        ..AdaptiveRedParams::default()
    };
    let got = run(RedQueue::adaptive(red_params(true), adaptive), red_probe);
    assert!(got.1.ticks > 0 && got.1.marked > 0, "{:?}", got.1);
    check("ARED", got, 0x0a8c_d25a_a5f8_33d4);
}

#[test]
fn pi_decisions_are_pinned() {
    let mut p = PiParams::hollot_example(24, 6.0, true, 5);
    p.a = 0.01;
    p.b = 0.005;
    let got = run(PiQueue::new(p), |q| vec![q.probability()]);
    assert!(
        got.1.ticks > 0 && got.1.early > 0 && got.1.marked > 0,
        "{:?}",
        got.1
    );
    check("PI", got, 0x4942_150d_99c3_65e3);
}

#[test]
fn rem_decisions_are_pinned() {
    let p = RemParams {
        capacity_pkts: 24,
        q_ref: 6.0,
        gamma: 0.05,
        alpha_w: 0.1,
        phi: 1.2,
        update_interval: SimDuration::from_millis(1),
        ecn: true,
        seed: 9,
    };
    let got = run(RemQueue::new(p), |q| vec![q.price(), q.probability()]);
    assert!(
        got.1.ticks > 0 && got.1.early > 0 && got.1.marked > 0,
        "{:?}",
        got.1
    );
    check("REM", got, 0x3571_26b3_a981_bbec);
}

#[test]
fn avq_decisions_are_pinned() {
    let p = AvqParams {
        capacity_pkts: 24,
        virtual_capacity_pkts: 8.0,
        link_pps: 8_000.0,
        gamma: 0.98,
        alpha: 0.15,
        ecn: true,
    };
    let got = run(AvqQueue::new(p), |q| {
        vec![q.virtual_queue(), q.virtual_capacity()]
    });
    assert!(got.1.early > 0 && got.1.marked > 0, "{:?}", got.1);
    check("AVQ", got, 0xefc5_f45b_88be_49ad);
}

#[test]
fn random_loss_over_red_decisions_are_pinned() {
    let q = RandomLoss::new(Box::new(RedQueue::new(red_params(true))), 0.1, 13);
    let got = run(q, |q| vec![q.corrupted as f64]);
    assert!(got.1.early > 0 && got.1.marked > 0, "{:?}", got.1);
    check("RandomLoss(RED)", got, 0xc570_7995_f805_e731);
}
