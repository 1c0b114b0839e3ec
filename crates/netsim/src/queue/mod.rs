//! Queue disciplines (buffer management / AQM).
//!
//! Every link owns a [`QueueDiscipline`]. The link hands arriving packets to
//! [`QueueDiscipline::enqueue`], which decides to store, ECN-mark-and-store,
//! or drop them; the link pulls packets for transmission with
//! [`QueueDiscipline::dequeue`].
//!
//! The five router disciplines are each one [`Fifo`], which owns the packet
//! store, the [`QueueStats`], the telemetry tap and the shared arrival tail
//! (overflow drop, then ECN mark or early drop, then push), run by a
//! [`Policy`] that supplies only what differs. The PI and REM policies run
//! `pert_core`'s end-host `PiLaw` and `RemLaw` on queue length, and RED's
//! ramp is its `ResponseCurve`:
//! * [`DropTail`] — plain FIFO with tail drop (the paper's baseline),
//! * [`RedQueue`] — Random Early Detection with optional *gentle* slope and
//!   the Adaptive-RED auto-tuning the paper uses for its RED/ECN routers,
//! * [`PiQueue`] — the Proportional-Integral AQM of Hollot et al., which
//!   PERT/PI emulates from the end host,
//! * [`RemQueue`] — Random Exponential Marking (Athuraliya & Low), the
//!   reference point for the PERT/REM generalization,
//! * [`AvqQueue`] — the Adaptive Virtual Queue of Kunniyur & Srikant.
//!
//! [`RandomLoss`] wraps any discipline with Bernoulli corruption for the
//! robustness experiments (non-congestion loss).

mod avq;
mod droptail;
mod lossy;
mod pi;
mod red;
mod rem;

pub use avq::{Avq, AvqParams, AvqQueue};
pub use droptail::{DropTail, TailDrop};
pub use lossy::RandomLoss;
pub use pi::{Pi, PiParams, PiQueue};
pub use red::{AdaptiveRedParams, Red, RedParams, RedQueue};
pub use rem::{Rem, RemParams, RemQueue};

use std::collections::VecDeque;

use pert_core::Attach;

use crate::arena::{PacketArena, PacketRef};
use crate::telemetry::QueueTap;
use crate::time::{SimDuration, SimTime};

/// Why a queue dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Buffer was full (tail drop / forced drop).
    Overflow,
    /// Early (probabilistic) drop by an AQM on an ECN-incapable packet, or
    /// beyond the AQM's hard-drop region.
    Early,
}

/// Result of offering a packet to a queue.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// Stored unchanged.
    Enqueued,
    /// Stored with the ECN CE codepoint applied by the AQM.
    Marked,
    /// Rejected; the ref is handed back for loss tracing, and the caller
    /// owns freeing it from the arena.
    Dropped(PacketRef, DropReason),
}

/// Time-weighted occupancy and event counters shared by all disciplines.
///
/// `integral_pkt_ns` accumulates `queue length × time`, giving an exact
/// time-weighted mean queue length — the `Q` column of the paper's
/// evaluation figures.
#[derive(Debug, Default, Clone)]
pub struct QueueStats {
    /// Packets accepted (including marked).
    pub enqueued: u64,
    /// Packets handed to the link for transmission.
    pub dequeued: u64,
    /// Packets dropped, by any reason.
    pub dropped: u64,
    /// Packets ECN-marked.
    pub marked: u64,
    /// ∫ q(t) dt in packet·nanoseconds, up to `last_change`.
    pub integral_pkt_ns: u128,
    /// Time of the last occupancy change accounted in the integral.
    pub last_change: SimTime,
    /// Largest instantaneous occupancy seen (packets).
    pub peak_len: usize,
}

impl QueueStats {
    /// Fold the elapsed interval at occupancy `len` into the time integral.
    /// Call *before* every occupancy change and once at measurement end.
    #[inline]
    pub fn advance(&mut self, now: SimTime, len: usize) {
        let dt = now.duration_since(self.last_change).as_nanos();
        self.integral_pkt_ns += dt as u128 * len as u128;
        self.last_change = now;
        if len > self.peak_len {
            self.peak_len = len;
        }
    }

    /// Time-weighted mean occupancy (packets) between `start` and `end`.
    ///
    /// Only meaningful when the caller also restricted the integral to that
    /// window (see [`QueueStats::reset_window`]).
    pub fn mean_len(&self, start: SimTime, end: SimTime) -> f64 {
        let span = end.duration_since(start).as_nanos();
        if span == 0 {
            return 0.0;
        }
        self.integral_pkt_ns as f64 / span as f64
    }

    /// Restart the measurement window at `now` with current occupancy `len`,
    /// zeroing counters and the occupancy integral. Used to discard the
    /// warm-up transient (the paper measures t ∈ [100 s, 300 s]).
    pub fn reset_window(&mut self, now: SimTime, len: usize) {
        *self = QueueStats {
            last_change: now,
            peak_len: len,
            ..QueueStats::default()
        };
    }

    /// Fraction of offered packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        self.share_of_offered(self.dropped)
    }

    /// Fraction of offered packets that were ECN-marked.
    pub fn mark_rate(&self) -> f64 {
        self.share_of_offered(self.marked)
    }

    fn share_of_offered(&self, n: u64) -> f64 {
        let offered = self.enqueued + self.dropped;
        if offered == 0 {
            0.0
        } else {
            n as f64 / offered as f64
        }
    }
}

/// A buffer-management discipline attached to a link.
///
/// Packets live in the simulator's [`PacketArena`]; queues store and move
/// eight-byte [`PacketRef`] handles and read packet fields (size, ECN)
/// through the arena passed into each call.
pub trait QueueDiscipline: Send {
    /// Offer the packet behind `pkt` to the queue at time `now`.
    fn enqueue(&mut self, pkt: PacketRef, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketRef>;

    /// Instantaneous occupancy in packets.
    fn len(&self) -> usize;

    /// True if no packets are buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instantaneous occupancy in bytes.
    fn len_bytes(&self) -> u64;

    /// Configured capacity in packets.
    fn capacity_pkts(&self) -> usize;

    /// Shared counters / occupancy integral.
    fn stats(&self) -> &QueueStats;

    /// Mutable access to the counters (for window resets and final
    /// integral flushes by monitors).
    fn stats_mut(&mut self) -> &mut QueueStats;

    /// Give periodic disciplines (Adaptive RED's `max_p` adaptation, PI's
    /// probability update) a chance to run. The link calls this from a
    /// periodic control event; FIFO disciplines ignore it.
    fn on_tick(&mut self, _now: SimTime) {}

    /// The interval at which [`QueueDiscipline::on_tick`] wants to be
    /// called, or `None` if the discipline is purely event-driven.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// A short human-readable name for reports (e.g. `"RED"`).
    fn name(&self) -> &'static str;

    /// Attach what `attach` asks for: a telemetry tap keyed by the owning
    /// link's index, carrying the link's drain rate so the tap can publish
    /// the ground-truth queueing delay (`truth/qdelay = backlog × 8 /
    /// capacity_bps`), and the discipline's differential oracle. The
    /// simulator calls this from `add_link` with its config's decision;
    /// disciplines that publish series or hold an oracle override it
    /// (wrappers forward to their inner queue). The default ignores it.
    fn attach(&mut self, _attach: Attach, _key: u64, _capacity_bps: u64) {}
}

/// What one AQM adds to the shared [`Fifo`]: its state update per
/// arrival, its signal decision and its periodic work. The FIFO calls the
/// hooks in one fixed order per arrival: `arrive` (and `sampled` if the
/// tap published), then, unless the buffer is full, `signal`, then
/// `leave` after an early drop.
///
/// The per-packet hooks and what they call are `#[inline]`: `Fifo<P>` is
/// compiled in the crate that builds the queue, so without the hint each
/// hook is an out-of-line call across crates on every packet.
pub trait Policy: Send {
    /// Fold an arrival that finds `len` packets buffered (of at most
    /// `capacity`: a full buffer drops it) into the policy's state, and
    /// return the drop/mark
    /// probability on that state: the tap's `truth/prob`, and the `p`
    /// that [`Policy::signal`] is handed.
    fn arrive(&mut self, now: SimTime, len: usize, capacity: usize) -> f64;

    /// Publish the policy's own series at `t` beside a tap sample on the
    /// link `key`.
    fn sampled(&self, _key: u64, _t: f64) {}

    /// Whether to signal congestion (mark, or drop if the packet is not
    /// ECN-capable) to an arrival the buffer has room for; `p` is what
    /// [`Policy::arrive`] returned.
    fn signal(&mut self, now: SimTime, p: f64) -> bool;

    /// A packet left at `now`, by dequeue or early drop, and `len`
    /// packets remain.
    fn leave(&mut self, _now: SimTime, _len: usize) {}

    /// The periodic update at `now` with `len` packets buffered; `tap` is
    /// the link key when telemetry is attached.
    fn tick(&mut self, _now: SimTime, _len: usize, _tap: Option<u64>) {}

    /// See [`QueueDiscipline::tick_interval`].
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// See [`QueueDiscipline::name`].
    fn name(&self) -> &'static str;

    /// Hold the differential oracle when `audit` is on.
    fn attach(&mut self, _audit: bool) {}
}

/// A first-in first-out buffer of at most `capacity` packets run by an
/// AQM [`Policy`]. It alone holds a packet store, the [`QueueStats`] and
/// the telemetry tap.
#[derive(Debug)]
pub struct Fifo<P> {
    buf: VecDeque<PacketRef>,
    bytes: u64,
    capacity: usize,
    /// Mark ECN-capable packets instead of dropping them.
    ecn: bool,
    stats: QueueStats,
    tap: Option<QueueTap>,
    policy: P,
}

impl<P: Policy> Fifo<P> {
    /// A FIFO of `capacity` packets, which must be positive, run by
    /// `policy`.
    pub(crate) fn with_policy(capacity: usize, ecn: bool, policy: P) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Fifo {
            buf: VecDeque::new(),
            bytes: 0,
            capacity,
            ecn,
            stats: QueueStats::default(),
            tap: None,
            policy,
        }
    }

    #[inline]
    fn push(&mut self, pkt: PacketRef, arena: &PacketArena) {
        self.bytes += u64::from(arena.size_bytes(pkt));
        self.buf.push_back(pkt);
        self.stats.enqueued += 1;
    }
}

impl<P: Policy> QueueDiscipline for Fifo<P> {
    fn enqueue(&mut self, pkt: PacketRef, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        let len = self.buf.len();
        self.stats.advance(now, len);
        let p = self.policy.arrive(now, len, self.capacity);
        if let Some(tap) = &mut self.tap {
            if tap.on_enqueue(now, len, self.bytes, p) {
                self.policy.sampled(tap.key(), now.as_secs_f64());
            }
        }
        if len >= self.capacity {
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped(pkt, DropReason::Overflow);
        }
        if !self.policy.signal(now, p) {
            self.push(pkt, arena);
            return EnqueueOutcome::Enqueued;
        }
        if self.ecn && arena[pkt].ecn.is_capable() {
            arena.mark_ce(pkt);
            self.push(pkt, arena);
            self.stats.marked += 1;
            return EnqueueOutcome::Marked;
        }
        self.stats.dropped += 1;
        self.policy.leave(now, len);
        EnqueueOutcome::Dropped(pkt, DropReason::Early)
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketRef> {
        self.stats.advance(now, self.buf.len());
        let pkt = self.buf.pop_front()?;
        self.bytes -= u64::from(arena.size_bytes(pkt));
        self.stats.dequeued += 1;
        self.policy.leave(now, self.buf.len());
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn capacity_pkts(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> &QueueStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        &mut self.stats
    }

    fn on_tick(&mut self, now: SimTime) {
        let key = self.tap.as_ref().map(QueueTap::key);
        self.policy.tick(now, self.buf.len(), key);
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.policy.tick_interval()
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn attach(&mut self, attach: Attach, key: u64, capacity_bps: u64) {
        self.policy.attach(attach.audit);
        self.tap = QueueTap::attach_if(attach.telemetry, key, capacity_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{Ecn, Packet, Payload};

    /// `q` with its differential oracle attached, as an audited
    /// simulator's `add_link` would leave it.
    pub(crate) fn audited<Q: QueueDiscipline>(mut q: Q) -> Q {
        let attach = Attach {
            telemetry: false,
            audit: true,
        };
        q.attach(attach, 0, 0);
        q
    }

    pub(crate) fn test_packet(size: u32, ecn: Ecn) -> Packet {
        Packet {
            flow: FlowId(0),
            dst_node: NodeId(0),
            dst_agent: AgentId(0),
            size_bytes: size,
            ecn,
            sent_at: SimTime::ZERO,
            payload: Payload::Data {
                seq: 0,
                retransmit: false,
            },
        }
    }

    #[test]
    fn stats_time_weighted_mean() {
        let mut s = QueueStats::default();
        // Occupancy 2 for 10ns, then 4 for 30ns: mean = (20+120)/40 = 3.5
        s.advance(SimTime::from_nanos(10), 2);
        s.advance(SimTime::from_nanos(40), 4);
        assert!((s.mean_len(SimTime::ZERO, SimTime::from_nanos(40)) - 3.5).abs() < 1e-12);
        assert_eq!(s.peak_len, 4);
    }

    #[test]
    fn stats_window_reset() {
        let mut s = QueueStats {
            enqueued: 10,
            dropped: 5,
            ..Default::default()
        };
        s.advance(SimTime::from_nanos(100), 7);
        s.reset_window(SimTime::from_nanos(100), 3);
        assert_eq!(s.enqueued, 0);
        assert_eq!(s.integral_pkt_ns, 0);
        assert_eq!(s.last_change, SimTime::from_nanos(100));
        assert_eq!(s.peak_len, 3);
    }

    #[test]
    fn drop_and_mark_rates() {
        let s = QueueStats {
            enqueued: 90,
            dropped: 10,
            marked: 9,
            ..Default::default()
        };
        assert!((s.drop_rate() - 0.1).abs() < 1e-12);
        assert!((s.mark_rate() - 0.09).abs() < 1e-12);
        assert_eq!(QueueStats::default().drop_rate(), 0.0);
    }

    #[test]
    fn fifo_store_tracks_bytes() {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(4);
        let a = arena.alloc(test_packet(100, Ecn::NotCapable));
        let b = arena.alloc(test_packet(250, Ecn::NotCapable));
        q.enqueue(a, &mut arena, SimTime::ZERO);
        q.enqueue(b, &mut arena, SimTime::ZERO);
        assert_eq!((q.len(), q.len_bytes()), (2, 350));
        let first = q.dequeue(&mut arena, SimTime::ZERO).unwrap();
        assert_eq!(arena[first].size_bytes, 100);
        assert_eq!(q.len_bytes(), 250);
    }
}
