//! The TCP receiver half of a connection.
//!
//! Acknowledges every data segment immediately (per-packet ACKs — the
//! paper's per-ACK RTT sampling assumes this, as Linux does for RTO
//! estimation), carries up to three SACK blocks describing out-of-order
//! data, echoes the segment's timestamp for exact sender-side RTT
//! measurement, and echoes CE marks as ECE (per-packet, i.e. "accurate
//! ECN" style; the sender rate-limits its reaction to once per RTT).
//!
//! Out-of-order data is kept in an interval set (O(log n) per segment),
//! and the SACK blocks reported are, in order: the block containing the
//! segment that triggered this ACK (RFC 2018's "most recent" rule), the
//! highest block (which drives the sender's FACK loss declaration), and
//! the lowest block.
//!
//! The receiver is split the way the sender is: `SinkState` holds one
//! connection's state and all of its logic, and reaches the simulator
//! through `SinkIo`. The [`FlowSlab`](crate::FlowSlab) builds a
//! connection's `SinkState` at its first data segment, into a dense column
//! of the receivers that have seen data; until then the connection's
//! receiver is an 8-byte pending entry.

use netsim::{
    Ctx, Ecn, FlowId, NodeId, Packet, Payload, SackBlock, SimDuration, SimTime, TimerToken,
    MAX_SACK_BLOCKS,
};

use crate::intervals::IntervalSet;

/// Timer-token kind byte of the delayed-ACK timeout. The token carries
/// the receiver's slot in bits 8–39 and its delayed-ACK epoch in bits
/// 40–63 (see [`SinkState::token`]).
pub(crate) const TOKEN_DELACK: u64 = 0xDA;

/// ACK wire size in bytes.
const ACK_SIZE: u32 = 40;

/// Width of the delayed-ACK epoch carried in a timer token. The epoch
/// advances once per ACK sent, so a stale timer could only be mistaken
/// for the armed one if exactly 2^24 ACKs left the receiver within one
/// delayed-ACK timeout (16.7 M ACKs in, by default, 100 ms).
const EPOCH_BITS: u32 = 24;
const EPOCH_MASK: u32 = (1 << EPOCH_BITS) - 1;

/// Receiver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Duplicate segments received.
    pub duplicates: u64,
    /// CE-marked segments received.
    pub marked: u64,
    /// Highest in-order sequence delivered (next expected).
    pub rcv_next: u64,
}

/// How receiver logic reaches the simulator: ACKs leave from `node` and
/// go to `peer_node`, addressed to the agent running the receiver (the
/// slab hosts both halves); the delayed-ACK timer addresses `slot`.
pub(crate) struct SinkIo<'a, 'b> {
    pub ctx: &'a mut Ctx<'b>,
    pub node: NodeId,
    pub peer_node: NodeId,
    pub slot: usize,
}

/// The delayed-ACK timeout a receiver keeps for the setting `delack`:
/// `Some(t)` enables RFC-1122 delayed ACKs (acknowledge every second
/// in-order segment or after `t`, whichever first; out-of-order arrivals
/// and CE marks are acknowledged immediately, RFC 5681 duplicate-ACK and
/// ECN behaviour), and [`SimDuration::ZERO`] stands for `None`, an ACK
/// per segment. Delayed ACKs halve the sender's RTT sampling rate — the
/// `delack` ablation measures what that does to PERT's predictor.
///
/// # Panics
/// On a zero timeout.
pub(crate) fn delack_timeout(delack: Option<SimDuration>) -> SimDuration {
    assert!(
        delack.is_none_or(|t| !t.is_zero()),
        "delayed-ACK timeout must be positive"
    );
    delack.unwrap_or(SimDuration::ZERO)
}

/// One connection's receiver state. `stats.rcv_next` is the cumulative
/// point itself, not a copy of it.
#[derive(Clone, Debug)]
pub(crate) struct SinkState {
    /// The connection's [`FlowId`], narrowed like the slab's slots.
    flow: u32,
    /// Epoch invalidating stale delayed-ACK timers (24 bits, wrapping).
    epoch: u32,
    /// Delayed-ACK timeout; [`SimDuration::ZERO`] = acknowledge every
    /// segment (the paper's per-packet-ACK assumption).
    delack: SimDuration,
    /// Timestamp of the one segment held for a delayed ACK;
    /// [`SimTime::MAX`] while none is held.
    echo_ts: SimTime,
    /// One-way delay of the held segment (meaningful while one is held).
    echo_owd: SimDuration,
    /// Out-of-order segments above `rcv_next`, as merged intervals.
    ooo: IntervalSet,
    pub stats: SinkStats,
}

impl SinkState {
    /// A fresh receiver for `flow` with the timeout [`delack_timeout`]
    /// made of a connection's delayed-ACK setting. `audited` shadows the
    /// out-of-order store.
    pub(crate) fn new(flow: u32, delack: SimDuration, audited: bool) -> Self {
        SinkState {
            flow,
            epoch: 0,
            delack,
            echo_ts: SimTime::MAX,
            echo_owd: SimDuration::ZERO,
            ooo: IntervalSet::new(audited),
            stats: SinkStats::default(),
        }
    }

    /// The delayed-ACK timer token of the receiver in `slot` at `epoch`:
    /// kind byte [`TOKEN_DELACK`], slot in bits 8–39, epoch in bits 40–63.
    pub(crate) fn token(slot: usize, epoch: u32) -> TimerToken {
        debug_assert!(slot >> 32 == 0 && epoch <= EPOCH_MASK);
        TimerToken(TOKEN_DELACK | (slot as u64) << 8 | u64::from(epoch) << 40)
    }

    /// The slot a delayed-ACK token addresses.
    pub(crate) fn token_slot(token: TimerToken) -> usize {
        ((token.0 >> 8) & 0xffff_ffff) as usize
    }

    fn token_epoch(token: TimerToken) -> u32 {
        (token.0 >> 40) as u32
    }

    /// Invalidate any armed delayed-ACK timer (called once per ACK sent).
    fn next_epoch(&mut self) {
        self.epoch = (self.epoch + 1) & EPOCH_MASK;
    }

    /// Accept `seq`; returns the interval it joined if it was out of
    /// order.
    fn accept(&mut self, seq: u64) -> Option<(u64, u64)> {
        let rcv_next = &mut self.stats.rcv_next;
        if seq == *rcv_next {
            *rcv_next += 1;
            // Consume a now-contiguous leading interval, if any.
            if let Some((s, e)) = self.ooo.first() {
                if s == *rcv_next {
                    *rcv_next = e;
                    self.ooo.remove_below(e);
                }
            }
            None
        } else if seq > *rcv_next {
            let (interval, fresh) = self.ooo.insert(seq);
            if !fresh {
                self.stats.duplicates += 1;
            }
            Some(interval)
        } else {
            self.stats.duplicates += 1;
            None
        }
    }

    /// Build up to [`MAX_SACK_BLOCKS`] SACK blocks: the triggering block
    /// first, then the highest, then the lowest (deduplicated).
    fn sack_blocks(&self, triggered: Option<(u64, u64)>) -> [Option<SackBlock>; MAX_SACK_BLOCKS] {
        let mut blocks = [None; MAX_SACK_BLOCKS];
        let mut n = 0;
        let mut push = |iv: Option<(u64, u64)>| {
            if let Some((s, e)) = iv {
                let b = SackBlock { start: s, end: e };
                if n < MAX_SACK_BLOCKS && !blocks[..n].contains(&Some(b)) {
                    blocks[n] = Some(b);
                    n += 1;
                }
            }
        };
        push(triggered);
        push(self.ooo.last());
        push(self.ooo.first());
        blocks
    }

    /// Emit an ACK now, echoing `(ts, owd, ece)`.
    fn send_ack(
        &mut self,
        io: &mut SinkIo<'_, '_>,
        triggered: Option<(u64, u64)>,
        ts_echo: SimTime,
        owd_echo: SimDuration,
        ece: bool,
    ) {
        self.echo_ts = SimTime::MAX;
        self.next_epoch();
        let now = io.ctx.now();
        io.ctx.send_from(
            io.node,
            Packet {
                flow: FlowId(self.flow as usize),
                dst_node: io.peer_node,
                dst_agent: io.ctx.agent,
                size_bytes: ACK_SIZE,
                ecn: Ecn::NotCapable, // ACKs are not ECN-capable (RFC 3168)
                sent_at: now,
                payload: Payload::Ack {
                    cum_ack: self.stats.rcv_next,
                    sack: self.sack_blocks(triggered),
                    ts_echo,
                    owd_echo,
                    ece,
                },
            },
        );
    }

    /// A data segment arrived.
    pub(crate) fn on_data(&mut self, pkt: Packet, io: &mut SinkIo<'_, '_>) {
        let Payload::Data { seq, .. } = pkt.payload else {
            debug_assert!(false, "sink received a non-data packet");
            return;
        };
        self.stats.segments_received += 1;
        let ece = pkt.ecn.is_marked();
        if ece {
            self.stats.marked += 1;
        }

        let triggered = self.accept(seq);
        let ts = pkt.sent_at;
        let owd = io.ctx.now().duration_since(pkt.sent_at);

        if self.delack.is_zero() {
            self.send_ack(io, triggered, ts, owd, ece);
        } else if triggered.is_some() || ece || self.echo_ts != SimTime::MAX {
            // Immediate ACK on out-of-order data, CE marks, or the second
            // in-order segment. Echo the *triggering* (most recent)
            // segment's clock: its RTT is not inflated by the hold time,
            // keeping the sender's delay signal accurate. A held segment
            // never carries CE (a marked one is acknowledged at once), so
            // the trigger's mark is the whole ECE.
            self.send_ack(io, triggered, ts, owd, ece);
        } else {
            // Hold this segment and arm the timer.
            self.echo_ts = ts;
            self.echo_owd = owd;
            io.ctx
                .schedule(self.delack, Self::token(io.slot, self.epoch));
        }
    }

    /// The delayed-ACK timer `token` fired; acts only if it is the one
    /// armed since the last ACK.
    pub(crate) fn on_delack_timer(&mut self, token: TimerToken, io: &mut SinkIo<'_, '_>) {
        if Self::token_epoch(token) == self.epoch && self.echo_ts != SimTime::MAX {
            self.send_ack(io, None, self.echo_ts, self.echo_owd, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> SinkState {
        SinkState::new(0, SimDuration::ZERO, true)
    }

    #[test]
    fn in_order_advances_cumulative() {
        let mut s = sink();
        for seq in 0..5 {
            assert_eq!(s.accept(seq), None);
        }
        assert_eq!(s.stats.rcv_next, 5);
        assert!(s.ooo.is_empty());
    }

    #[test]
    fn out_of_order_fills_hole() {
        let mut s = sink();
        s.accept(0);
        assert_eq!(s.accept(2), Some((2, 3)));
        assert_eq!(s.accept(3), Some((2, 4)));
        assert_eq!(s.stats.rcv_next, 1);
        let blocks = s.sack_blocks(Some((2, 4)));
        assert_eq!(blocks[0], Some(SackBlock { start: 2, end: 4 }));
        // Filling the hole consumes the interval.
        s.accept(1);
        assert_eq!(s.stats.rcv_next, 4);
        assert!(s.ooo.is_empty());
    }

    #[test]
    fn sack_blocks_cover_triggering_highest_lowest() {
        let mut s = sink();
        s.accept(0);
        for &seq in &[2u64, 3, 10, 20, 21] {
            s.accept(seq);
        }
        // A new arrival at 11 triggers; highest run is (20,22), lowest (2,4).
        let t = s.accept(11);
        assert_eq!(t, Some((10, 12)));
        let blocks = s.sack_blocks(t);
        assert_eq!(blocks[0], Some(SackBlock { start: 10, end: 12 }));
        assert_eq!(blocks[1], Some(SackBlock { start: 20, end: 22 }));
        assert_eq!(blocks[2], Some(SackBlock { start: 2, end: 4 }));
    }

    #[test]
    fn sack_blocks_deduplicate() {
        let mut s = sink();
        s.accept(0);
        s.accept(5);
        let t = s.accept(6);
        let blocks = s.sack_blocks(t);
        // Only one distinct interval exists.
        assert_eq!(blocks[0], Some(SackBlock { start: 5, end: 7 }));
        assert_eq!(blocks[1], None);
        assert_eq!(blocks[2], None);
    }

    #[test]
    fn duplicates_are_counted() {
        let mut s = sink();
        s.accept(0);
        s.accept(0); // below rcv_next
        s.accept(5);
        s.accept(5); // duplicate OOO
        assert_eq!(s.stats.duplicates, 2);
    }

    #[test]
    fn empty_ooo_yields_no_blocks() {
        let s = sink();
        assert_eq!(s.sack_blocks(None), [None; MAX_SACK_BLOCKS]);
    }

    #[test]
    fn long_reordering_run_consumed_in_one_step() {
        let mut s = sink();
        s.accept(0);
        for seq in 2..1000u64 {
            s.accept(seq);
        }
        assert_eq!(s.ooo.interval_count(), 1);
        s.accept(1);
        assert_eq!(s.stats.rcv_next, 1000);
        assert!(s.ooo.is_empty());
    }

    /// The delayed-ACK token round-trips slot and epoch at the edges of
    /// both fields, and the epoch wraps inside its 24 bits without ever
    /// spilling into the slot or the kind byte.
    #[test]
    fn delack_token_round_trips_slot_and_epoch() {
        for slot in [0usize, 1, 0xDA, 100_000, (1 << 32) - 1] {
            for epoch in [0u32, 1, 0xff, EPOCH_MASK - 1, EPOCH_MASK] {
                let t = SinkState::token(slot, epoch);
                assert_eq!(t.0 & 0xff, TOKEN_DELACK);
                assert_eq!(SinkState::token_slot(t), slot);
                assert_eq!(SinkState::token_epoch(t), epoch);
            }
        }
        let mut s = sink();
        for _ in 0..EPOCH_MASK {
            s.next_epoch();
        }
        assert_eq!(s.epoch, EPOCH_MASK);
        s.next_epoch();
        assert_eq!(s.epoch, 0, "the epoch wraps to zero after 2^24 ACKs");
        let wrapped = SinkState::token(7, s.epoch);
        assert_eq!(wrapped, SinkState::token(7, 0));
        assert_eq!(SinkState::token_slot(wrapped), 7);
    }

    /// A delayed-ACK receiver on n1 fed by scripted sends from n0: a timer
    /// token `seq << 1 | ce` sends data segment `seq`, CE-marked when `ce`
    /// is set, and every ACK that reaches n0 is logged.
    struct DelackHarness {
        sink: SinkState,
        /// `(emitted at, cum_ack, ts_echo, owd_echo, ece)` per ACK.
        acks: Vec<(SimTime, u64, SimTime, SimDuration, bool)>,
    }

    impl DelackHarness {
        fn io<'a, 'b>(ctx: &'a mut Ctx<'b>) -> SinkIo<'a, 'b> {
            SinkIo {
                ctx,
                node: NodeId(1),
                peer_node: NodeId(0),
                slot: 0,
            }
        }
    }

    impl netsim::Agent for DelackHarness {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            match pkt.payload {
                Payload::Data { .. } => self.sink.on_data(pkt, &mut Self::io(ctx)),
                Payload::Ack {
                    cum_ack,
                    ts_echo,
                    owd_echo,
                    ece,
                    ..
                } => self
                    .acks
                    .push((pkt.sent_at, cum_ack, ts_echo, owd_echo, ece)),
            }
        }

        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
            if token.0 & 0xff == TOKEN_DELACK {
                self.sink.on_delack_timer(token, &mut Self::io(ctx));
                return;
            }
            let pkt = Packet {
                flow: FlowId(0),
                dst_node: NodeId(1),
                dst_agent: ctx.agent,
                size_bytes: 1000,
                ecn: if token.0 & 1 == 1 {
                    Ecn::CongestionExperienced
                } else {
                    Ecn::Capable
                },
                sent_at: ctx.now(),
                payload: Payload::Data {
                    seq: token.0 >> 1,
                    retransmit: false,
                },
            };
            ctx.send_from(NodeId(0), pkt);
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// The delayed-ACK echo rules, over a 10 ms, 1 Gb/s path with a
    /// 50 ms timeout:
    /// * a CE-marked segment is never held: it is acknowledged at once,
    ///   with ECE, on the ACK that also covers the held segment, and that
    ///   ACK echoes the marked (triggering) segment's `(ts, owd)`;
    /// * a timer-fired ACK echoes the held segment's `(ts, owd)`;
    /// * a timer armed before an ACK went out is stale and sends nothing.
    #[test]
    fn delayed_acks_echo_the_right_segment() {
        use netsim::queue::DropTail;
        use netsim::Simulator;
        let ms = SimTime::from_millis;
        let mut sim = Simulator::new(1);
        let (n0, n1) = (sim.add_node(), sim.add_node());
        sim.add_duplex_link(n0, n1, 1_000_000_000, SimDuration::from_millis(10), |_| {
            Box::new(DropTail::new(100))
        });
        sim.compute_routes();
        let id = sim.alloc_agent();
        let delack = SimDuration::from_millis(50);
        sim.install_shared_agent(
            id,
            Box::new(DelackHarness {
                sink: SinkState::new(0, delack, true),
                acks: Vec::new(),
            }),
        );
        // (send time, seq, CE): 0 is held and 1 (marked) releases it; 2 is
        // held until its timer; 3 is held and 4 releases it.
        for (at, seq, ce) in [(0, 0, 0), (1, 1, 1), (100, 2, 0), (200, 3, 0), (201, 4, 0)] {
            sim.schedule_agent_timer(ms(at), id, TimerToken(seq << 1 | ce));
        }
        sim.run_until(ms(1_000));
        // One 1000-B segment serializes in 8 µs.
        let owd = SimDuration::from_micros(10_008);
        let acks = &sim.agent::<DelackHarness>(id).acks;
        assert_eq!(
            *acks,
            vec![
                (ms(1) + owd, 2, ms(1), owd, true),
                (
                    ms(100) + owd + SimDuration::from_millis(50),
                    3,
                    ms(100),
                    owd,
                    false
                ),
                (ms(201) + owd, 5, ms(201), owd, false),
            ],
            "the stale timers armed by segments 0 and 3 must send nothing"
        );
    }
}
