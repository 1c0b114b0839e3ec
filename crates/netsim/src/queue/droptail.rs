//! Plain FIFO with tail drop — the default router behaviour in the paper's
//! SACK/DropTail baseline and under the PERT and Vegas experiments (both of
//! which assume unmodified routers).

use super::{DropReason, EnqueueOutcome, FifoStore, QueueDiscipline, QueueStats};
use pert_core::Attach;

use crate::arena::{PacketArena, PacketRef};
use crate::telemetry::QueueTap;
use crate::time::SimTime;

/// First-in first-out queue that drops arrivals when full.
#[derive(Debug)]
pub struct DropTail {
    store: FifoStore,
    capacity_pkts: usize,
    stats: QueueStats,
    tap: Option<QueueTap>,
}

impl DropTail {
    /// Create a tail-drop FIFO holding at most `capacity_pkts` packets.
    ///
    /// # Panics
    /// Panics if `capacity_pkts` is zero.
    pub fn new(capacity_pkts: usize) -> Self {
        assert!(capacity_pkts > 0, "queue capacity must be positive");
        DropTail {
            store: FifoStore::default(),
            capacity_pkts,
            stats: QueueStats::default(),
            tap: None,
        }
    }
}

impl QueueDiscipline for DropTail {
    fn enqueue(&mut self, pkt: PacketRef, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        self.stats.advance(now, self.store.len());
        if let Some(tap) = &mut self.tap {
            let (len, bytes) = (self.store.len(), self.store.bytes());
            // A FIFO's "drop probability" is the overflow indicator: the
            // reference AQM curve for tail drop is a step at capacity.
            let p = if len >= self.capacity_pkts { 1.0 } else { 0.0 };
            tap.on_enqueue(now, len, bytes, p);
        }
        if self.store.len() >= self.capacity_pkts {
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped(pkt, DropReason::Overflow);
        }
        self.store.push(pkt, arena);
        self.stats.enqueued += 1;
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketRef> {
        self.stats.advance(now, self.store.len());
        let pkt = self.store.pop(arena)?;
        self.stats.dequeued += 1;
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn len_bytes(&self) -> u64 {
        self.store.bytes()
    }

    fn capacity_pkts(&self) -> usize {
        self.capacity_pkts
    }

    fn stats(&self) -> &QueueStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        &mut self.stats
    }

    fn name(&self) -> &'static str {
        "DropTail"
    }

    fn attach(&mut self, attach: Attach, key: u64, capacity_bps: u64) {
        self.tap = QueueTap::attach_if(attach.telemetry, key, capacity_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_packet;
    use super::*;
    use crate::packet::Ecn;

    #[test]
    fn accepts_until_full_then_drops() {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(2);
        let t = SimTime::ZERO;
        for _ in 0..2 {
            let p = arena.alloc(test_packet(100, Ecn::NotCapable));
            assert!(matches!(
                q.enqueue(p, &mut arena, t),
                EnqueueOutcome::Enqueued
            ));
        }
        let p = arena.alloc(test_packet(100, Ecn::NotCapable));
        assert!(matches!(
            q.enqueue(p, &mut arena, t),
            EnqueueOutcome::Dropped(_, DropReason::Overflow)
        ));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 2);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(10);
        for seq in 0..5u64 {
            let mut p = test_packet(100, Ecn::NotCapable);
            p.payload = crate::packet::Payload::Data {
                seq,
                retransmit: false,
            };
            let r = arena.alloc(p);
            q.enqueue(r, &mut arena, SimTime::ZERO);
        }
        for seq in 0..5u64 {
            let r = q.dequeue(&mut arena, SimTime::ZERO).unwrap();
            assert_eq!(arena[r].data_seq(), Some(seq));
        }
        assert!(q.dequeue(&mut arena, SimTime::ZERO).is_none());
    }

    #[test]
    fn conservation_enqueued_equals_dequeued_plus_resident() {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(3);
        for _ in 0..10 {
            let p = arena.alloc(test_packet(50, Ecn::NotCapable));
            if let EnqueueOutcome::Dropped(r, _) = q.enqueue(p, &mut arena, SimTime::ZERO) {
                arena.take(r);
            }
        }
        let mut out = 0;
        while q.dequeue(&mut arena, SimTime::ZERO).is_some() {
            out += 1;
        }
        assert_eq!(q.stats().enqueued, out);
        assert_eq!(q.stats().enqueued + q.stats().dropped, 10);
    }

    #[test]
    fn never_marks() {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(1);
        let p = arena.alloc(test_packet(100, Ecn::Capable));
        match q.enqueue(p, &mut arena, SimTime::ZERO) {
            EnqueueOutcome::Enqueued => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(q.stats().marked, 0);
        let out = q.dequeue(&mut arena, SimTime::ZERO).unwrap();
        assert!(!arena[out].ecn.is_marked());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTail::new(0);
    }
}
