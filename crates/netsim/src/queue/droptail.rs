//! Plain FIFO with tail drop — the default router behaviour in the paper's
//! SACK/DropTail baseline and under the PERT and Vegas experiments (both of
//! which assume unmodified routers).

use super::{Fifo, Policy};
use crate::time::SimTime;

/// The tail-drop policy: never signals, so only overflow drops.
#[derive(Debug)]
pub struct TailDrop;

/// First-in first-out queue that drops arrivals when full.
pub type DropTail = Fifo<TailDrop>;

impl DropTail {
    /// Create a tail-drop FIFO holding at most `capacity_pkts` packets.
    ///
    /// # Panics
    /// Panics if `capacity_pkts` is zero.
    pub fn new(capacity_pkts: usize) -> Self {
        Fifo::with_policy(capacity_pkts, false, TailDrop)
    }
}

impl Policy for TailDrop {
    /// A FIFO's "drop probability" is the overflow indicator: the
    /// reference AQM curve for tail drop is a step at capacity.
    #[inline]
    fn arrive(&mut self, _now: SimTime, len: usize, capacity: usize) -> f64 {
        if len >= capacity {
            1.0
        } else {
            0.0
        }
    }

    #[inline]
    fn signal(&mut self, _now: SimTime, _p: f64) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "DropTail"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_packet;
    use super::super::{DropReason, EnqueueOutcome, QueueDiscipline};
    use super::*;
    use crate::arena::PacketArena;
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
