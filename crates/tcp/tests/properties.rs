//! Property-based tests for the SACK scoreboard, sink reassembly, and
//! the congestion-control zoo's window invariants.

use std::collections::BTreeMap;

use netsim::SackBlock;
use pert_core::pert::{PertController, PertParams};
use pert_core::pi::PertPiParams;
use pert_core::rem::PertRemParams;
use pert_tcp::scoreboard::DUP_THRESH;
use pert_tcp::{
    Bbr, CcAction, CcAlgorithm, CcContext, Cubic, PertCc, Reno, Scoreboard, SegState, Vegas,
};
use proptest::prelude::*;

/// A random but causally valid operation sequence on a scoreboard.
#[derive(Clone, Debug)]
enum Op {
    SendNew,
    AckTo(u64),
    Sack { start: u64, len: u64 },
    DeclareLosses,
    RetransmitFirst,
    MarkAllLost,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::SendNew),
        2 => (0u64..100).prop_map(Op::AckTo),
        3 => (0u64..100, 1u64..8).prop_map(|(start, len)| Op::Sack { start, len }),
        2 => Just(Op::DeclareLosses),
        2 => Just(Op::RetransmitFirst),
        1 => Just(Op::MarkAllLost),
    ]
}

proptest! {
    /// Under any valid operation sequence the scoreboard's partition
    /// invariant holds: in_flight + sacked + lost == tracked, and the
    /// cumulative-ACK frontier only moves forward.
    #[test]
    fn scoreboard_partition_invariant(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut sb = Scoreboard::new();
        let mut next_seq = 0u64;
        let mut high_ack = 0u64;
        for op in ops {
            match op {
                Op::SendNew => {
                    // Only send if not already tracked (mirrors the sender).
                    sb.on_send_new(next_seq);
                    next_seq += 1;
                }
                Op::AckTo(raw) => {
                    let cum = (high_ack + raw % 10).min(next_seq);
                    if cum > high_ack {
                        let removed = sb.ack_to(cum);
                        prop_assert!(removed <= cum - high_ack);
                        high_ack = cum;
                    }
                }
                Op::Sack { start, len } => {
                    let s = high_ack + start % 20;
                    let e = (s + len).min(next_seq);
                    if s < e {
                        sb.sack(SackBlock { start: s, end: e });
                    }
                }
                Op::DeclareLosses => {
                    sb.declare_losses();
                }
                Op::RetransmitFirst => {
                    if let Some(seq) = sb.first_lost() {
                        sb.on_retransmit(seq);
                        prop_assert!(seq >= high_ack);
                    }
                }
                Op::MarkAllLost => {
                    sb.mark_all_lost();
                }
            }
            prop_assert_eq!(
                sb.in_flight() + sb.sacked_count() + sb.lost_count(),
                sb.len(),
                "partition violated"
            );
            prop_assert!(sb.len() as u64 <= next_seq - high_ack);
        }
    }

    /// After acking everything ever sent, the scoreboard is empty.
    #[test]
    fn full_ack_empties_scoreboard(
        n in 1u64..200,
        sacks in proptest::collection::vec((0u64..200, 1u64..10), 0..20),
    ) {
        let mut sb = Scoreboard::new();
        for s in 0..n {
            sb.on_send_new(s);
        }
        for (start, len) in sacks {
            let s = start % n;
            let e = (s + len).min(n);
            sb.sack(SackBlock { start: s, end: e });
        }
        sb.declare_losses();
        while let Some(seq) = sb.first_lost() {
            sb.on_retransmit(seq);
        }
        let removed = sb.ack_to(n);
        prop_assert_eq!(removed, n);
        prop_assert!(sb.is_empty());
        prop_assert_eq!(sb.in_flight(), 0);
        prop_assert_eq!(sb.lost_count(), 0);
    }
}

// --- Scoreboard against a map model ------------------------------------

/// The scoreboard as the obvious ordered map from sequence number to
/// state, every summary recomputed by a scan: what the flat ring with its
/// counters and cursors has to agree with.
#[derive(Default)]
struct MapBoard {
    segs: BTreeMap<u64, SegState>,
    highest_sacked: Option<u64>,
    fack_mark: u64,
}

impl MapBoard {
    fn count(&self, pred: impl Fn(SegState) -> bool) -> usize {
        self.segs.values().filter(|&&st| pred(st)).count()
    }

    fn first_lost(&self) -> Option<u64> {
        let lost = |(&seq, &st)| (st == SegState::Lost).then_some(seq);
        self.segs.iter().find_map(lost)
    }

    fn ack_to(&mut self, cum: u64) -> u64 {
        let kept = self.segs.split_off(&cum);
        let removed = std::mem::replace(&mut self.segs, kept).len() as u64;
        self.fack_mark = self.fack_mark.max(cum);
        removed
    }

    fn sack(&mut self, start: u64, end: u64) {
        for (_, st) in self.segs.range_mut(start..end) {
            *st = SegState::Sacked;
        }
        self.highest_sacked = self.highest_sacked.max(Some(end - 1));
    }

    /// Mark the segments of `range` in one of `from` lost; how many.
    fn lose(&mut self, range: std::ops::Range<u64>, from: &[SegState]) -> usize {
        let mut n = 0;
        for (_, st) in self.segs.range_mut(range) {
            if from.contains(st) {
                *st = SegState::Lost;
                n += 1;
            }
        }
        n
    }

    fn declare_losses(&mut self) -> usize {
        match self
            .highest_sacked
            .and_then(|hs| (hs + 1).checked_sub(DUP_THRESH))
        {
            Some(limit) if self.fack_mark < limit => {
                let from = std::mem::replace(&mut self.fack_mark, limit);
                self.lose(from..limit, &[SegState::InFlight])
            }
            _ => 0,
        }
    }
}

/// Protocol-valid traffic: sends extend the window, ACKs and SACK blocks
/// stay inside it. Bursts and wide ACKs push the window across the
/// scoreboard's 16-segment inline ring in both directions (nine streams
/// in ten outgrow it, three in four outgrow the first spill ring too).
#[derive(Clone, Debug)]
enum ModelOp {
    Send(u64),
    AckTo(u64),
    Sack { start: u64, len: u64 },
    DeclareLosses,
    Retransmit(u64),
    MarkAllLost,
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        4 => (1u64..12).prop_map(ModelOp::Send),
        3 => (1u64..40).prop_map(ModelOp::AckTo),
        4 => (0u64..64, 1u64..8).prop_map(|(start, len)| ModelOp::Sack { start, len }),
        2 => Just(ModelOp::DeclareLosses),
        3 => (1u64..6).prop_map(ModelOp::Retransmit),
        1 => Just(ModelOp::MarkAllLost),
    ]
}

proptest! {
    /// Every accessor and every return value equals the map model's after
    /// every operation.
    #[test]
    fn scoreboard_matches_map_model(
        ops in proptest::collection::vec(model_op_strategy(), 1..400),
    ) {
        let mut sb = Scoreboard::new();
        let mut model = MapBoard::default();
        let (mut high_ack, mut next_seq) = (0u64, 0u64);
        for op in ops {
            match op {
                ModelOp::Send(n) => {
                    for _ in 0..n {
                        sb.on_send_new(next_seq);
                        model.segs.insert(next_seq, SegState::InFlight);
                        next_seq += 1;
                    }
                }
                ModelOp::AckTo(n) => {
                    let cum = (high_ack + n).min(next_seq);
                    if cum > high_ack {
                        prop_assert_eq!(sb.ack_to(cum), model.ack_to(cum));
                        high_ack = cum;
                    }
                }
                ModelOp::Sack { start, len } => {
                    let s = high_ack + start;
                    let e = (s + len).min(next_seq);
                    if s < e {
                        sb.sack(SackBlock { start: s, end: e });
                        model.sack(s, e);
                    }
                }
                ModelOp::DeclareLosses => {
                    prop_assert_eq!(sb.declare_losses(), model.declare_losses());
                }
                ModelOp::Retransmit(n) => {
                    for _ in 0..n {
                        let Some(seq) = sb.first_lost() else { break };
                        sb.on_retransmit(seq);
                        model.segs.insert(seq, SegState::Retx);
                    }
                }
                ModelOp::MarkAllLost => {
                    let all = model.lose(0..u64::MAX, &[SegState::InFlight, SegState::Retx]);
                    prop_assert_eq!(sb.mark_all_lost(), all);
                }
            }
            prop_assert_eq!(sb.len(), model.segs.len());
            prop_assert_eq!(sb.is_empty(), model.segs.is_empty());
            prop_assert_eq!(
                sb.in_flight(),
                model.count(|st| matches!(st, SegState::InFlight | SegState::Retx))
            );
            prop_assert_eq!(sb.sacked_count(), model.count(|st| st == SegState::Sacked));
            prop_assert_eq!(sb.lost_count(), model.count(|st| st == SegState::Lost));
            prop_assert_eq!(sb.first_lost(), model.first_lost());
            prop_assert_eq!(sb.highest_sacked(), model.highest_sacked);
        }
        // Drain: a spilled window shrinks back through the inline size.
        if next_seq > high_ack {
            prop_assert_eq!(sb.ack_to(next_seq), model.ack_to(next_seq));
        }
        prop_assert!(sb.is_empty() && sb.first_lost().is_none());
        prop_assert_eq!(sb.in_flight() + sb.sacked_count() + sb.lost_count(), 0);
    }
}

// --- Congestion-control zoo invariants ---------------------------------

/// The sender's configured window ceiling in the harness below.
const MAX_CWND: f64 = 1e6;

/// One event in the sender's congestion-control protocol. The harness
/// below replays these against each algorithm exactly the way
/// `sender.rs` does — same hook order, same clamps — so the property
/// covers the trait contract every hosting relies on.
#[derive(Clone, Debug)]
enum CcOp {
    /// In-sequence ACK of `newly` segments with the given RTT.
    Ack { newly: u64, rtt_us: u64 },
    /// A loss event entering fast recovery.
    Loss,
    /// An ECN mark outside recovery.
    Ecn,
    /// A retransmission timeout.
    Rto,
    /// An ACK that arrives during recovery.
    RecoveryAck { newly: u64, rtt_us: u64 },
    /// The cumulative ACK crossing the recovery point.
    RecoveryExit,
}

fn cc_op_strategy() -> impl Strategy<Value = CcOp> {
    prop_oneof![
        8 => (1u64..5, 100u64..200_000).prop_map(|(newly, rtt_us)| CcOp::Ack { newly, rtt_us }),
        2 => Just(CcOp::Loss),
        1 => Just(CcOp::Ecn),
        1 => Just(CcOp::Rto),
        4 => (1u64..5, 100u64..200_000)
            .prop_map(|(newly, rtt_us)| CcOp::RecoveryAck { newly, rtt_us }),
        2 => Just(CcOp::RecoveryExit),
    ]
}

/// Every algorithm in the zoo, freshly constructed.
fn cc_zoo(seed: u64) -> Vec<(&'static str, Box<dyn CcAlgorithm>)> {
    vec![
        ("reno", Box::new(Reno::new())),
        ("vegas", Box::new(Vegas::new())),
        (
            "pert",
            Box::new(PertCc::around(PertController::new(
                PertParams::default(),
                seed,
            ))),
        ),
        (
            "pert-pi",
            Box::new(PertCc::around(PertController::pi(
                PertPiParams::from_router_pi(1.822e-5, 1.816e-5, 1_000.0, 0.003),
                seed,
            ))),
        ),
        (
            "pert-rem",
            Box::new(PertCc::around(PertController::rem(
                PertRemParams::default(),
                seed,
            ))),
        ),
        ("cubic", Box::new(Cubic::new(seed))),
        ("bbr", Box::new(Bbr::new(seed))),
    ]
}

/// Replay `ops` against one algorithm through the sender's protocol and
/// check the window invariants after every event.
fn drive_cc(name: &str, cc: &mut dyn CcAlgorithm, ops: &[CcOp]) {
    let mut cwnd = 2.0_f64;
    let mut ssthresh = 64.0_f64;
    let mut now = 0.0_f64;
    let mut in_recovery = false;
    for op in ops {
        now += 0.01;
        let in_flight = cwnd.clamp(1.0, MAX_CWND) as u64;
        // Remap protocol-inconsistent draws so recovery hooks are only
        // exercised in the states the sender can reach.
        let op = match op {
            CcOp::Ack { newly, rtt_us } if in_recovery => CcOp::RecoveryAck {
                newly: *newly,
                rtt_us: *rtt_us,
            },
            CcOp::RecoveryAck { newly, rtt_us } if !in_recovery => CcOp::Ack {
                newly: *newly,
                rtt_us: *rtt_us,
            },
            other => other.clone(),
        };
        match op {
            CcOp::Ack { newly, rtt_us } => {
                let rtt = rtt_us as f64 * 1e-6;
                let mut ctx = CcContext {
                    now,
                    rtt,
                    owd: rtt / 2.0,
                    newly_acked: newly,
                    in_flight,
                    cwnd: &mut cwnd,
                    ssthresh: &mut ssthresh,
                };
                match cc.on_ack(&mut ctx) {
                    CcAction::None => {}
                    CcAction::EarlyReduce { factor } => {
                        prop_assert!(
                            (0.0..1.0).contains(&factor),
                            "{name}: early-reduce factor {factor} out of [0, 1)"
                        );
                        let reduced = cwnd * (1.0 - factor);
                        ssthresh = reduced.max(2.0);
                        cwnd = reduced.max(1.0);
                    }
                }
                cwnd = cwnd.clamp(1.0, MAX_CWND);
            }
            CcOp::Loss if !in_recovery => {
                let factor = cc.loss_reduction();
                prop_assert!(
                    (0.0..1.0).contains(&factor),
                    "{name}: loss_reduction {factor} out of [0, 1)"
                );
                let prior = cwnd;
                ssthresh = (cwnd * (1.0 - factor)).max(2.0);
                if !cc.governs_recovery() {
                    cwnd = ssthresh;
                }
                cc.on_congestion_event(now, prior, in_flight);
                cc.on_recovery_start(now, in_flight);
                in_recovery = true;
            }
            CcOp::Ecn if !in_recovery => {
                let factor = cc.loss_reduction();
                let prior = cwnd;
                ssthresh = (cwnd * (1.0 - factor)).max(2.0);
                cwnd = ssthresh;
                cc.on_congestion_event(now, prior, in_flight);
            }
            CcOp::Rto => {
                let prior = cwnd;
                ssthresh = (cwnd / 2.0).max(2.0);
                cwnd = 1.0;
                cc.on_congestion_event(now, prior, in_flight);
                in_recovery = true;
            }
            CcOp::RecoveryAck { newly, rtt_us } => {
                let rtt = rtt_us as f64 * 1e-6;
                let mut ctx = CcContext {
                    now,
                    rtt,
                    owd: rtt / 2.0,
                    newly_acked: newly,
                    in_flight,
                    cwnd: &mut cwnd,
                    ssthresh: &mut ssthresh,
                };
                cc.on_recovery_ack(&mut ctx);
                cc.on_rtt_sample(now, rtt, rtt / 2.0);
                cwnd = cwnd.clamp(1.0, MAX_CWND);
            }
            CcOp::RecoveryExit if in_recovery => {
                let mut ctx = CcContext {
                    now,
                    rtt: 0.05,
                    owd: 0.025,
                    newly_acked: 1,
                    in_flight,
                    cwnd: &mut cwnd,
                    ssthresh: &mut ssthresh,
                };
                cc.on_recovery_exit(&mut ctx);
                in_recovery = false;
                cwnd = cwnd.clamp(1.0, MAX_CWND);
            }
            // Loss/ECN during recovery and exits outside it are gated
            // off by the sender; skip them here too.
            CcOp::Loss | CcOp::Ecn | CcOp::RecoveryExit => {}
        }
        prop_assert!(
            cwnd.is_finite() && ssthresh.is_finite(),
            "{name}: non-finite window state cwnd={cwnd} ssthresh={ssthresh}"
        );
        prop_assert!(
            (1.0..=MAX_CWND).contains(&cwnd),
            "{name}: cwnd {cwnd} escaped [1, {MAX_CWND}]"
        );
        prop_assert!(ssthresh >= 2.0, "{name}: ssthresh {ssthresh} below 2");
        if let Some(rate) = cc.pacing_rate() {
            prop_assert!(
                rate.is_finite() && rate > 0.0,
                "{name}: pacing rate {rate} not a positive finite value"
            );
        }
    }
}

proptest! {
    /// Under any protocol-valid interleaving of ACKs, losses, ECN marks,
    /// timeouts, and recovery episodes, every algorithm in the zoo keeps
    /// `cwnd` within `[1, max_cwnd]`, `ssthresh >= 2`, and never emits a
    /// non-finite window or pacing rate.
    #[test]
    fn cc_zoo_window_invariants(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(cc_op_strategy(), 1..200),
    ) {
        for (name, mut cc) in cc_zoo(seed) {
            drive_cc(name, cc.as_mut(), &ops);
        }
    }
}
