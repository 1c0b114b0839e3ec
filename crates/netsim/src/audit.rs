//! The invariant-audit layer: an auditor wired into the simulator loop
//! that re-derives, independently, everything the queues and the event loop
//! claim about themselves — and panics with a reproducer on the first
//! divergence.
//!
//! # What is checked
//!
//! * **Packet conservation** per queue: `enqueued = dequeued + resident`
//!   over the queue's lifetime, after every single operation.
//! * **Byte accounting**: `len_bytes()` equals the sum of resident packet
//!   sizes tracked independently.
//! * **`QueueStats` integral consistency**: the time-weighted occupancy
//!   integral, the event counters, `peak_len` and `last_change` are
//!   mirrored step by step by an independent [`QueueLedger`] and compared
//!   with *exact* (integer) equality.
//! * **Link service**: per link, a [`ServiceLedger`] re-derives from the
//!   same op stream when each serialization ends, and checks that no
//!   serialization starts before the previous one ended and that the link
//!   never idles over a backlog — whatever mechanism (scheduled or lazy
//!   departures) drives the link.
//! * **Time monotonicity**: the event loop never goes backwards.
//! * **TCP sequence-space invariants** at delivery: cumulative ACKs are
//!   monotone per flow, SACK blocks are non-empty and well-ordered, new
//!   (non-retransmitted) data arrives with strictly increasing sequence
//!   numbers on single-path topologies.
//!
//! Differential oracles for the AQM update laws (RED/PI/REM/PERT) live
//! next to their optimized implementations and use the same registry
//! (see `pert_core::reference`).
//!
//! # Cost model
//!
//! A simulator's config is the only switch ([`crate::SimConfig`]): off in
//! release binaries unless `experiments … --audit` is given, on by default
//! under `cargo test` (debug builds). With it off a simulator holds no
//! auditor and each call site costs one `None` test. Auditors batch
//! their check counts locally and flush them to the process-global
//! registry on drop, so the hot path touches no shared state.

use std::collections::BTreeMap;

pub use pert_core::audit::{
    close, close_opt, count_calendar_checks, count_event_checks, count_oracle_checks,
    count_queue_checks, count_tcp_checks, snapshot, violation, AuditSnapshot,
};

use crate::ids::LinkId;
use crate::link::Link;
use crate::packet::{Packet, Payload};
use crate::queue::QueueDiscipline;
use crate::time::{transmission_delay, SimTime};

/// Where an audited operation happened: everything needed to reproduce a
/// violation (re-run the same seed and break at the event index).
#[derive(Clone, Copy, Debug)]
pub struct AuditCtx {
    /// The simulation seed.
    pub seed: u64,
    /// Index of the event being processed (0 before the loop starts).
    pub event_index: u64,
    /// Current simulation time.
    pub now: SimTime,
}

/// How an offered packet left `enqueue`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueKind {
    /// Stored unchanged.
    Stored,
    /// ECN-marked and stored.
    Marked,
    /// Tail-dropped (buffer full).
    DroppedOverflow,
    /// Early-dropped by the AQM.
    DroppedEarly,
}

/// One queue operation, as observed at the simulator's call site.
#[derive(Clone, Copy, Debug)]
pub enum QueueOp {
    /// A packet was offered to the queue.
    Enqueue {
        /// The outcome the queue reported.
        kind: EnqueueKind,
        /// Size of the offered packet.
        size_bytes: u32,
    },
    /// The link pulled a packet (or tried to).
    Dequeue {
        /// Size of the popped packet, if one was there.
        popped: Option<u32>,
    },
}

/// An independent, step-by-step mirror of one queue's accounting.
///
/// The ledger re-derives from the [`QueueOp`] stream everything
/// `QueueStats` maintains — counters, the time-weighted occupancy
/// integral (same integer arithmetic, so comparison is *exact*), the
/// peak, plus lifetime conservation totals the windowed stats cannot
/// express — and [`QueueLedger::verify`] compares the two after every
/// operation.
#[derive(Clone, Debug)]
pub struct QueueLedger {
    // Windowed mirrors of `QueueStats` (reset by `on_window_reset`).
    enqueued: u64,
    dequeued: u64,
    dropped: u64,
    marked: u64,
    integral_pkt_ns: u128,
    last_change: SimTime,
    peak_len: usize,
    // Lifetime state (survives window resets).
    resident: usize,
    resident_bytes: u64,
    total_enqueued: u64,
    total_dequeued: u64,
    total_dropped: u64,
}

impl QueueLedger {
    /// Mirror `queue` from its current state onward. On a fresh queue
    /// everything starts at zero; attaching mid-run adopts the current
    /// counters and audits all further evolution independently.
    pub fn new(queue: &dyn QueueDiscipline) -> Self {
        let s = queue.stats();
        let resident = queue.len();
        QueueLedger {
            enqueued: s.enqueued,
            dequeued: s.dequeued,
            dropped: s.dropped,
            marked: s.marked,
            integral_pkt_ns: s.integral_pkt_ns,
            last_change: s.last_change,
            peak_len: s.peak_len,
            resident,
            resident_bytes: queue.len_bytes(),
            // Relative lifetime accounting: treat the adopted backlog as
            // enqueued so conservation holds inductively from here.
            total_enqueued: resident as u64,
            total_dequeued: 0,
            total_dropped: 0,
        }
    }

    /// Fold the elapsed interval into the integral exactly as
    /// `QueueStats::advance` does (which every discipline calls at the
    /// top of both `enqueue` and `dequeue`, with the pre-op length).
    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_change).as_nanos();
        self.integral_pkt_ns += dt as u128 * self.resident as u128;
        self.last_change = now;
        if self.resident > self.peak_len {
            self.peak_len = self.resident;
        }
    }

    /// Apply one observed operation at time `now`.
    pub fn apply(&mut self, op: &QueueOp, now: SimTime) {
        self.advance(now);
        match *op {
            QueueOp::Enqueue { kind, size_bytes } => match kind {
                EnqueueKind::Stored | EnqueueKind::Marked => {
                    self.enqueued += 1;
                    self.total_enqueued += 1;
                    if kind == EnqueueKind::Marked {
                        self.marked += 1;
                    }
                    self.resident += 1;
                    self.resident_bytes += u64::from(size_bytes);
                }
                EnqueueKind::DroppedOverflow | EnqueueKind::DroppedEarly => {
                    self.dropped += 1;
                    self.total_dropped += 1;
                }
            },
            QueueOp::Dequeue { popped } => {
                if let Some(size_bytes) = popped {
                    self.dequeued += 1;
                    self.total_dequeued += 1;
                    self.resident -= 1;
                    self.resident_bytes -= u64::from(size_bytes);
                }
            }
        }
    }

    /// Mirror `QueueStats::reset_window`: zero the windowed counters and
    /// the integral, restart at `now` with the current occupancy.
    pub fn on_window_reset(&mut self, now: SimTime) {
        self.enqueued = 0;
        self.dequeued = 0;
        self.dropped = 0;
        self.marked = 0;
        self.integral_pkt_ns = 0;
        self.last_change = now;
        self.peak_len = self.resident;
    }

    /// Mirror a monitor's final `advance` (integral flush up to `now`).
    pub fn on_flush(&mut self, now: SimTime) {
        self.advance(now);
    }

    /// Compare the ledger against the queue's own claims; panics with a
    /// reproducer on any mismatch.
    pub fn verify(&self, link: LinkId, queue: &dyn QueueDiscipline, ctx: &AuditCtx) {
        let s = queue.stats();
        let ok = s.enqueued == self.enqueued
            && s.dequeued == self.dequeued
            && s.dropped == self.dropped
            && s.marked == self.marked
            && s.integral_pkt_ns == self.integral_pkt_ns
            && s.last_change == self.last_change
            && s.peak_len == self.peak_len
            && queue.len() == self.resident
            && queue.len_bytes() == self.resident_bytes
            && self.total_enqueued == self.total_dequeued + self.resident as u64
            && self.resident <= queue.capacity_pkts();
        if !ok {
            violation(
                "queue",
                format_args!(
                    "{} on {link} diverged from ledger at event #{} \
                     (seed {}, t={:?}):\n  stats:  enq={} deq={} drop={} mark={} \
                     integral={} last_change={:?} peak={} len={} bytes={}\n  \
                     ledger: enq={} deq={} drop={} mark={} integral={} \
                     last_change={:?} peak={} len={} bytes={} \
                     (lifetime enq={} deq={} drop={}, capacity={})",
                    queue.name(),
                    ctx.event_index,
                    ctx.seed,
                    ctx.now,
                    s.enqueued,
                    s.dequeued,
                    s.dropped,
                    s.marked,
                    s.integral_pkt_ns,
                    s.last_change,
                    s.peak_len,
                    queue.len(),
                    queue.len_bytes(),
                    self.enqueued,
                    self.dequeued,
                    self.dropped,
                    self.marked,
                    self.integral_pkt_ns,
                    self.last_change,
                    self.peak_len,
                    self.resident,
                    self.resident_bytes,
                    self.total_enqueued,
                    self.total_dequeued,
                    self.total_dropped,
                    queue.capacity_pkts(),
                ),
            );
        }
    }
}

/// An independent mirror of one link's service discipline, driven by
/// the same [`QueueOp`] stream as the [`QueueLedger`]: a successful
/// dequeue *is* the start of a serialization, and its end follows from the
/// packet size and the link capacity alone. Two rules, checked at every
/// serialization start and at every flush:
///
/// * **one packet at a time** — a serialization never starts before the
///   previous one ended;
/// * **work conservation** — the link never idles over a backlog: a
///   serialization starts either at the instant the previous one ended, or
///   at the enqueue instant of a packet that found the queue empty, and at
///   a flush no packet waits behind a link that has fallen free.
///
/// The ledger knows nothing about departure events, reserved keys or the
/// pop order, so it holds for any way of driving the link.
#[derive(Clone, Copy, Debug)]
pub struct ServiceLedger {
    /// End of the last serialization seen; `None` on a ledger attached
    /// mid-run until it sees one start.
    free_at: Option<SimTime>,
    /// Packets resident in the queue (the one in service is not).
    backlog: usize,
    /// Instant of the last accepted enqueue, if it found the queue empty.
    filled_at: Option<SimTime>,
}

impl ServiceLedger {
    /// Mirror a link that has never served a packet.
    pub fn fresh() -> Self {
        ServiceLedger {
            free_at: Some(SimTime::ZERO),
            backlog: 0,
            filled_at: None,
        }
    }

    /// Mirror a link from mid-run on: its current service end is unknown.
    pub fn adopt(queue: &dyn QueueDiscipline) -> Self {
        ServiceLedger {
            free_at: None,
            backlog: queue.len(),
            filled_at: None,
        }
    }

    /// Apply one observed operation on `link` and check the two rules.
    pub fn apply(&mut self, link: &Link, op: &QueueOp, ctx: &AuditCtx) {
        match *op {
            QueueOp::Enqueue {
                kind: EnqueueKind::Stored | EnqueueKind::Marked,
                ..
            } => {
                self.filled_at = (self.backlog == 0).then_some(ctx.now);
                self.backlog += 1;
            }
            QueueOp::Dequeue {
                popped: Some(size_bytes),
            } => {
                self.backlog -= 1;
                if let Some(free_at) = self.free_at {
                    if ctx.now < free_at {
                        self.fail(link, ctx, "serialization started before the last one ended");
                    }
                    if ctx.now > free_at && self.filled_at != Some(ctx.now) {
                        self.fail(link, ctx, "link idled over a backlog");
                    }
                }
                let tx = transmission_delay(u64::from(size_bytes) * 8, link.capacity_bps);
                self.free_at = Some(ctx.now + tx);
            }
            _ => {}
        }
    }

    /// At a flush (outside the event loop, every event due by now has
    /// fired): nothing may wait behind a link that has fallen free.
    pub fn on_flush(&self, link: LinkId, ctx: &AuditCtx) {
        if self.backlog > 0 && self.free_at.is_some_and(|free_at| ctx.now >= free_at) {
            violation(
                "link",
                format_args!(
                    "{link} is free with {} packets waiting at flush (seed {}, t={:?}, \
                     free since {:?})",
                    self.backlog, ctx.seed, ctx.now, self.free_at
                ),
            );
        }
    }

    #[cold]
    fn fail(&self, link: &Link, ctx: &AuditCtx, what: &str) -> ! {
        violation(
            "link",
            format_args!(
                "{what} on {} at event #{} (seed {}, t={:?}): free_at={:?} backlog={} \
                 last fill={:?}",
                link.id,
                ctx.event_index,
                ctx.seed,
                ctx.now,
                self.free_at,
                self.backlog,
                self.filled_at
            ),
        )
    }
}

/// Per-flow sequence-space state for the delivery checks.
#[derive(Clone, Copy, Debug, Default)]
struct FlowAudit {
    highest_cum_ack: u64,
    next_new_seq: Option<u64>,
}

/// The auditor the simulator installs when audits are enabled: queue
/// ledgers for every link, time monotonicity, and TCP sequence-space
/// checks at delivery.
#[derive(Default)]
pub struct ConservationAuditor {
    ledgers: BTreeMap<usize, (QueueLedger, ServiceLedger)>,
    /// Keyed by (flow, delivery node): one entry per direction of a
    /// connection, even when one shared agent hosts both of its ends.
    flows: BTreeMap<(u64, usize), FlowAudit>,
    last_event: SimTime,
    // Locally batched check counts, flushed to the global registry on drop.
    queue_checks: u64,
    event_checks: u64,
    tcp_checks: u64,
}

impl ConservationAuditor {
    /// Create an auditor with no per-link state yet; ledgers attach at
    /// each link's first audited operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A link (and its fresh queue) joined the topology: attach its
    /// ledgers before the first packet flows.
    pub fn on_link_added(&mut self, link: LinkId, queue: &dyn QueueDiscipline) {
        self.ledgers.insert(
            link.index(),
            (QueueLedger::new(queue), ServiceLedger::fresh()),
        );
    }

    /// One event is about to be dispatched.
    pub fn on_event(&mut self, ctx: &AuditCtx) {
        self.event_checks += 1;
        if ctx.now < self.last_event {
            violation(
                "time",
                format_args!(
                    "clock went backwards at event #{} (seed {}): {:?} after {:?}",
                    ctx.event_index, ctx.seed, ctx.now, self.last_event
                ),
            );
        }
        self.last_event = ctx.now;
    }

    /// A queue operation on `link` finished; its queue is in the post-op
    /// state.
    pub fn on_queue_op(&mut self, link: &Link, op: &QueueOp, ctx: &AuditCtx) {
        let queue = link.queue.as_ref();
        let Some((ledger, service)) = self.ledgers.get_mut(&link.id.index()) else {
            // No ledger for this link (one this auditor never saw added):
            // the op already mutated the queue, so mirror its post-op
            // state and audit from the next operation on.
            self.ledgers.insert(
                link.id.index(),
                (QueueLedger::new(queue), ServiceLedger::adopt(queue)),
            );
            return;
        };
        ledger.apply(op, ctx.now);
        ledger.verify(link.id, queue, ctx);
        service.apply(link, op, ctx);
        self.queue_checks += 1;
    }

    /// A packet reached its destination agent, which has not seen it yet.
    pub fn on_delivery(&mut self, pkt: &Packet, ctx: &AuditCtx) {
        self.tcp_checks += 1;
        if pkt.sent_at > ctx.now {
            violation(
                "delivery",
                format_args!(
                    "packet delivered before it was sent at event #{} (seed {}): \
                     sent_at={:?} now={:?} flow={}",
                    ctx.event_index, ctx.seed, pkt.sent_at, ctx.now, pkt.flow
                ),
            );
        }
        let key = (pkt.flow.0 as u64, pkt.dst_node.index());
        let audit = self.flows.entry(key).or_default();
        match &pkt.payload {
            Payload::Ack { cum_ack, sack, .. } => {
                if *cum_ack < audit.highest_cum_ack {
                    violation(
                        "tcp-seq",
                        format_args!(
                            "cumulative ACK went backwards at event #{} (seed {}): \
                             {} after {} (flow {}, node {})",
                            ctx.event_index,
                            ctx.seed,
                            cum_ack,
                            audit.highest_cum_ack,
                            pkt.flow,
                            pkt.dst_node
                        ),
                    );
                }
                audit.highest_cum_ack = *cum_ack;
                for block in sack.iter().flatten() {
                    if block.start >= block.end {
                        violation(
                            "tcp-seq",
                            format_args!(
                                "degenerate SACK block [{}, {}) at event #{} (seed {}, flow {})",
                                block.start, block.end, ctx.event_index, ctx.seed, pkt.flow
                            ),
                        );
                    }
                }
            }
            Payload::Data { seq, retransmit } => {
                // On the single-path FIFO topologies this simulator builds,
                // first transmissions arrive in send order; only
                // retransmissions may revisit old sequence space.
                if !*retransmit {
                    if let Some(next) = audit.next_new_seq {
                        if *seq < next {
                            violation(
                                "tcp-seq",
                                format_args!(
                                    "new data sequence regressed at event #{} (seed {}): \
                                     seq {} after {} (flow {}, node {})",
                                    ctx.event_index,
                                    ctx.seed,
                                    seq,
                                    next - 1,
                                    pkt.flow,
                                    pkt.dst_node
                                ),
                            );
                        }
                    }
                    audit.next_new_seq = Some(seq + 1);
                }
            }
        }
    }

    /// The measurement windows restarted
    /// (`Simulator::reset_measurements`).
    pub fn on_window_reset(&mut self, ctx: &AuditCtx) {
        for (ledger, _) in self.ledgers.values_mut() {
            ledger.on_window_reset(ctx.now);
        }
    }

    /// Occupancy integrals were flushed up to now
    /// (`Simulator::flush_measurements`).
    pub fn on_flush(&mut self, ctx: &AuditCtx) {
        for (&link, (ledger, service)) in &mut self.ledgers {
            ledger.on_flush(ctx.now);
            service.on_flush(LinkId(link), ctx);
        }
    }

    /// Split this auditor into `n` per-shard auditors; `shard_of_link[i]`
    /// names the shard owning link `i`. The husk keeps its accumulated
    /// counts and flushes them when it drops, after the shards merged.
    pub fn shard_split(&mut self, shard_of_link: &[usize], n: usize) -> Vec<ConservationAuditor> {
        let mut parts: Vec<ConservationAuditor> =
            (0..n).map(|_| ConservationAuditor::new()).collect();
        // Ledgers MOVE to the owning shard: `on_queue_op` silently adopts
        // an unknown link without counting a check, so a ledger that was
        // copied instead of moved would change the global check totals.
        let ids: Vec<usize> = self.ledgers.keys().copied().collect();
        for id in ids {
            let ledger = self.ledgers.remove(&id).expect("key came from the map");
            parts[shard_of_link[id]].ledgers.insert(id, ledger);
        }
        for p in &mut parts {
            // Flow sequence state is cloned everywhere: each flow's
            // deliveries all land on one shard (the destination node's
            // owner), which evolves its copy; the other copies idle.
            p.flows = self.flows.clone();
            p.last_event = self.last_event;
        }
        parts
    }
}

impl Drop for ConservationAuditor {
    fn drop(&mut self) {
        if self.queue_checks > 0 {
            count_queue_checks(self.queue_checks);
        }
        if self.event_checks > 0 {
            count_event_checks(self.event_checks);
        }
        if self.tcp_checks > 0 {
            count_tcp_checks(self.tcp_checks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{Ecn, Payload};
    use crate::queue::{DropTail, EnqueueOutcome};

    fn pkt(size: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            dst_node: NodeId(0),
            dst_agent: AgentId(0),
            size_bytes: size,
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
            payload: Payload::Data {
                seq: 0,
                retransmit: false,
            },
        }
    }

    fn ctx(now: SimTime) -> AuditCtx {
        AuditCtx {
            seed: 42,
            event_index: 0,
            now,
        }
    }

    #[test]
    fn ledger_mirrors_droptail_exactly() {
        let mut arena = crate::arena::PacketArena::new();
        let mut q = DropTail::new(2);
        let mut ledger = QueueLedger::new(&q);
        let ops: [(bool, u64); 6] = [
            (true, 10),
            (true, 20),
            (true, 30), // overflow
            (false, 40),
            (false, 50),
            (false, 60), // empty pop
        ];
        for (enq, t) in ops {
            let now = SimTime::from_nanos(t);
            let op = if enq {
                let r = arena.alloc(pkt(100));
                let kind = match q.enqueue(r, &mut arena, now) {
                    EnqueueOutcome::Enqueued => EnqueueKind::Stored,
                    EnqueueOutcome::Marked => EnqueueKind::Marked,
                    EnqueueOutcome::Dropped(r, _) => {
                        arena.take(r);
                        EnqueueKind::DroppedOverflow
                    }
                };
                QueueOp::Enqueue {
                    kind,
                    size_bytes: 100,
                }
            } else {
                QueueOp::Dequeue {
                    popped: q
                        .dequeue(&mut arena, now)
                        .map(|r| arena.take(r).unwrap().size_bytes),
                }
            };
            ledger.apply(&op, now);
            ledger.verify(LinkId(0), &q, &ctx(now));
        }
    }

    #[test]
    fn ledger_catches_corrupted_counter() {
        let mut arena = crate::arena::PacketArena::new();
        let mut q = DropTail::new(8);
        let mut ledger = QueueLedger::new(&q);
        let now = SimTime::from_nanos(5);
        let r = arena.alloc(pkt(100));
        let _ = q.enqueue(r, &mut arena, now);
        ledger.apply(
            &QueueOp::Enqueue {
                kind: EnqueueKind::Stored,
                size_bytes: 100,
            },
            now,
        );
        // Sabotage the stats the way a buggy discipline would.
        q.stats_mut().enqueued += 1;
        let err = std::panic::catch_unwind(move || {
            ledger.verify(LinkId(3), &q, &ctx(now));
        })
        .expect_err("verification must fail");
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("audit violation [queue]"), "{msg}");
        assert!(msg.contains("seed 42"), "{msg}");
    }

    #[test]
    fn ledger_mirrors_window_reset_and_flush() {
        let mut arena = crate::arena::PacketArena::new();
        let mut q = DropTail::new(8);
        let mut ledger = QueueLedger::new(&q);
        for i in 1..=4u64 {
            let now = SimTime::from_nanos(i * 100);
            let r = arena.alloc(pkt(100));
            let _ = q.enqueue(r, &mut arena, now);
            ledger.apply(
                &QueueOp::Enqueue {
                    kind: EnqueueKind::Stored,
                    size_bytes: 100,
                },
                now,
            );
        }
        let reset_at = SimTime::from_nanos(1_000);
        let len = q.len();
        q.stats_mut().reset_window(reset_at, len);
        ledger.on_window_reset(reset_at);
        ledger.verify(LinkId(0), &q, &ctx(reset_at));
        // Flush later and re-verify the integral matches exactly.
        let flush_at = SimTime::from_nanos(2_000);
        let len = q.len();
        q.stats_mut().advance(flush_at, len);
        ledger.on_flush(flush_at);
        ledger.verify(LinkId(0), &q, &ctx(flush_at));
        assert_eq!(q.stats().integral_pkt_ns, 1_000 * 4);
    }

    /// 1000-byte packets on 10 Mbps: 800 µs of serialization each.
    const TX_US: u64 = 800;

    fn link_10mbps(cap: usize) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            10_000_000,
            crate::time::SimDuration::from_millis(1),
            Box::new(DropTail::new(cap)),
        )
    }

    /// Feed `(µs, op)` pairs to a fresh service ledger; the panic text of
    /// the violation it reports, if any.
    fn service_violation(ops: &[(u64, QueueOp)], flush_at_us: u64) -> Option<String> {
        let link = link_10mbps(8);
        let run = || {
            let mut ledger = ServiceLedger::fresh();
            for (us, op) in ops {
                ledger.apply(&link, op, &ctx(SimTime::from_micros(*us)));
            }
            ledger.on_flush(link.id, &ctx(SimTime::from_micros(flush_at_us)));
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).err()?;
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("audit violation [link]"), "{msg}");
        Some(msg)
    }

    #[test]
    fn service_ledger_accepts_work_conserving_service_only() {
        let enq = QueueOp::Enqueue {
            kind: EnqueueKind::Stored,
            size_bytes: 1000,
        };
        let drop = QueueOp::Enqueue {
            kind: EnqueueKind::DroppedOverflow,
            size_bytes: 1000,
        };
        let deq = QueueOp::Dequeue { popped: Some(1000) };
        let empty = QueueOp::Dequeue { popped: None };
        // Idle start, a waiter served back to back (also when it arrived
        // exactly as the link fell free), an idle gap, a drop, an empty
        // pop; one packet still in service at the flush.
        let good = [
            (100, enq),
            (100, deq),
            (500, enq),
            (900, deq),
            (1700, enq),
            (1700, drop),
            (1700, deq),
            (2500, empty),
            (4000, enq),
            (4000, deq),
        ];
        assert_eq!(service_violation(&good, 4100), None);

        let overlap = [(0, enq), (0, deq), (100, enq), (100, deq)];
        let msg = service_violation(&overlap, 0).expect("two packets in service at once");
        assert!(msg.contains("before the last one ended"), "{msg}");

        let late = [(0, enq), (0, deq), (100, enq), (TX_US + 100, deq)];
        let msg = service_violation(&late, 0).expect("served 100 µs after the link fell free");
        assert!(msg.contains("idled over a backlog"), "{msg}");

        let stuck = [(0, enq), (0, deq), (100, enq)];
        assert_eq!(service_violation(&stuck, TX_US - 1), None);
        let msg = service_violation(&stuck, TX_US).expect("a waiter nobody will serve");
        assert!(msg.contains("packets waiting at flush"), "{msg}");
    }

    /// Timer-driven sender for the tie tests. `SEND_THEN_ARM` puts one
    /// packet on the idle link and *then* arms the burst timer one
    /// serialization time ahead — the timer's key sorts after the
    /// departure key the transmission reserved; `ARM_THEN_SEND` does it
    /// the other way round, so the timer sorts before. `BURST + n` sends
    /// `n` packets, at the instant the first one's serialization ends.
    struct Script {
        sink: (NodeId, AgentId),
        burst: u64,
        next_seq: u64,
    }
    const SEND_THEN_ARM: u64 = 0;
    const ARM_THEN_SEND: u64 = 1;
    const BURST: u64 = 2;

    impl crate::sim::Agent for Script {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut crate::sim::Ctx<'_>) {}
        fn on_timer(&mut self, t: crate::TimerToken, ctx: &mut crate::sim::Ctx<'_>) {
            let tx = crate::time::SimDuration::from_micros(TX_US);
            let mut send = |ctx: &mut crate::sim::Ctx<'_>| {
                let mut p = pkt(1000);
                (p.dst_node, p.dst_agent) = self.sink;
                p.payload = Payload::Data {
                    seq: self.next_seq,
                    retransmit: false,
                };
                self.next_seq += 1;
                ctx.send(p);
            };
            match t.0 {
                SEND_THEN_ARM => {
                    send(ctx);
                    ctx.schedule(tx, crate::TimerToken(BURST));
                }
                ARM_THEN_SEND => {
                    ctx.schedule(tx, crate::TimerToken(BURST));
                    send(ctx);
                }
                _ => (0..self.burst).for_each(|_| send(ctx)),
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Arrival instants, µs.
    #[derive(Default)]
    struct Sink(Vec<u64>);

    impl crate::sim::Agent for Sink {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut crate::sim::Ctx<'_>) {
            self.0.push(ctx.now().as_nanos() / 1_000);
        }
        fn on_timer(&mut self, _t: crate::TimerToken, _ctx: &mut crate::sim::Ctx<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Run one tie scenario on a 10 Mbps, 1 ms two-node link with a
    /// DropTail of `cap`: (arrival µs at the sink, departures fired,
    /// departures elided, overflow drops).
    fn tie_run(order: u64, burst: u64, cap: usize) -> (Vec<u64>, u64, u64, u64) {
        // The link-service ledger rides along.
        let audited = crate::SimConfig {
            shards: 1,
            attach: pert_core::Attach {
                telemetry: false,
                audit: true,
            },
        };
        let mut sim = crate::sim::Simulator::with_config(3, audited);
        let (a, b) = (sim.add_node(), sim.add_node());
        sim.add_duplex_link(
            a,
            b,
            10_000_000,
            crate::time::SimDuration::from_millis(1),
            |_| Box::new(DropTail::new(cap)),
        );
        sim.compute_routes();
        let sink = sim.add_agent(b, Box::new(Sink::default()));
        let script = Script {
            sink: (b, sink),
            burst,
            next_seq: 0,
        };
        let sender = sim.add_agent(a, Box::new(script));
        sim.schedule_agent_timer(SimTime::ZERO, sender, crate::TimerToken(order));
        sim.run_until(SimTime::from_millis(10));
        sim.flush_measurements();
        let c = sim.counters();
        (
            sim.agent::<Sink>(sink).0.clone(),
            sim.event_class_counts()[1],
            c.departures_elided,
            c.dropped_overflow,
        )
    }

    /// A packet offered at `now == free_at` by an event that sorts *after*
    /// the reserved departure finds the link idle: no departure ever
    /// fires. Offered by one that sorts *before* it, it queues and the
    /// departure is armed at the current instant. Either way it leaves at
    /// 800 µs, exactly as with an always-scheduled departure.
    #[test]
    fn tie_at_free_at_follows_the_reserved_key() {
        let arrivals = vec![TX_US + 1000, 2 * TX_US + 1000];
        assert_eq!(tie_run(SEND_THEN_ARM, 1, 8), (arrivals.clone(), 0, 2, 0));
        assert_eq!(tie_run(ARM_THEN_SEND, 1, 8), (arrivals, 1, 1, 0));
    }

    /// Two packets offered at `now == free_at` must see queue lengths 0
    /// and 1 in that order if the departure has not fired (a DropTail of
    /// one drops the second), and an idle link then length 0 if it has
    /// (both get through) — `now >= free_at` alone cannot tell the two
    /// apart.
    #[test]
    fn same_instant_pair_sees_the_backlog_the_pop_order_implies() {
        let (arrivals, fired, elided, drops) = tie_run(ARM_THEN_SEND, 2, 1);
        assert_eq!(arrivals, [TX_US + 1000, 2 * TX_US + 1000]);
        assert_eq!((fired, elided, drops), (1, 1, 1));

        let (arrivals, fired, elided, drops) = tie_run(SEND_THEN_ARM, 2, 1);
        assert_eq!(arrivals, [TX_US + 1000, 2 * TX_US + 1000, 3 * TX_US + 1000]);
        assert_eq!((fired, elided, drops), (1, 2, 0));
    }

    #[test]
    fn auditor_flags_backwards_clock() {
        let mut a = ConservationAuditor::new();
        a.on_event(&ctx(SimTime::from_nanos(10)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.on_event(&ctx(SimTime::from_nanos(9)));
        }))
        .expect_err("must fire");
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("audit violation [time]"), "{msg}");
    }

    #[test]
    fn auditor_flags_backwards_cum_ack() {
        let mut a = ConservationAuditor::new();
        let now = SimTime::from_nanos(10);
        let ack = |cum_ack| Packet {
            flow: FlowId(7),
            dst_node: NodeId(0),
            dst_agent: AgentId(1),
            size_bytes: 40,
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
            payload: Payload::Ack {
                cum_ack,
                sack: [None; crate::packet::MAX_SACK_BLOCKS],
                ts_echo: SimTime::ZERO,
                owd_echo: crate::time::SimDuration::ZERO,
                ece: false,
            },
        };
        a.on_delivery(&ack(5), &ctx(now));
        a.on_delivery(&ack(5), &ctx(now)); // duplicate ACK: allowed
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.on_delivery(&ack(4), &ctx(now));
        }))
        .expect_err("must fire");
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("audit violation [tcp-seq]"), "{msg}");
    }
}
