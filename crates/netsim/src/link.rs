//! Unidirectional links.
//!
//! A link connects two nodes with a fixed capacity (bits/second) and a
//! fixed propagation delay, and owns a [`QueueDiscipline`] that buffers
//! packets awaiting transmission. The link transmits one packet at a time:
//! when a packet finishes serializing, the next queued packet begins
//! serialization (the packet itself arrives at the far end `delay` later).
//!
//! # Lazy departures
//!
//! The end of a serialization is a `Departure` event, but most of them
//! would pop, find the queue empty and do nothing. So a transmission only
//! *reserves* its departure's calendar key ([`EventQueue::reserve`]) and
//! notes when the link falls free; the event enters the calendar
//! ([`Link::arm`]) when a packet actually queues up behind the one in
//! service. A packet offered to a link whose departure was never armed
//! decides for itself whether that departure would already have fired
//! ([`Link::idle_for`]) — by the full pop order, not by time alone, so the
//! events that do fire are exactly those of an always-scheduled departure
//! with the no-ops deleted.
//!
//! [`EventQueue::reserve`]: crate::event::EventQueue::reserve

use crate::event::{Reservation, TieKey};
use crate::ids::{LinkId, NodeId};
use crate::queue::QueueDiscipline;
use crate::time::{transmission_delay, SimDuration, SimTime};

/// A unidirectional link with an attached queue.
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Buffer management discipline.
    pub queue: Box<dyn QueueDiscipline>,
    /// When the packet in service finishes serializing (meaningful while
    /// `departure` is `Some`).
    free_at: SimTime,
    /// Key of the departure that ends the current serialization; `None`
    /// once that departure has fired or was seen to be a no-op.
    departure: Option<Reservation>,
    /// The reserved departure is in the calendar.
    armed: bool,
    /// The last serialization's `(bits, capacity_bps, transmission
    /// delay)`: a packet of the same size at the same rate skips the
    /// division.
    tx_memo: (u64, u64, SimDuration),
    /// Bits fully serialized since the last measurement-window reset;
    /// `delivered_bits / (capacity × window)` is the link utilization.
    pub delivered_bits: u64,
    /// Packets fully serialized since the last measurement-window reset.
    pub delivered_pkts: u64,
}

impl Link {
    pub(crate) fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        capacity_bps: u64,
        delay: SimDuration,
        queue: Box<dyn QueueDiscipline>,
    ) -> Self {
        assert!(capacity_bps > 0, "link capacity must be positive");
        Link {
            id,
            from,
            to,
            capacity_bps,
            delay,
            queue,
            free_at: SimTime::ZERO,
            departure: None,
            armed: false,
            tx_memo: (0, capacity_bps, SimDuration::ZERO),
            delivered_bits: 0,
            delivered_pkts: 0,
        }
    }

    /// Would an always-scheduled departure have freed the link for a
    /// packet offered at `now` by the event whose tie key is `cur`
    /// ([`crate::event::TIE_KEY_MAX`] outside the event loop)?
    ///
    /// An armed departure frees the link when it pops, not before. An
    /// unarmed one has "fired" iff its reserved key sorts before the
    /// event being dispatched — at `now == free_at` that is the `(sched,
    /// tie, seq)` comparison, because round serialization times make such
    /// ties routine and `now >= free_at` alone would show the queue a
    /// different backlog than the eager schedule did.
    #[inline]
    pub(crate) fn idle_for(&self, now: SimTime, cur: TieKey) -> bool {
        match self.departure {
            None => true,
            Some(key) => !self.armed && (self.free_at, key.tie_key()) < (now, cur),
        }
    }

    /// A packet entered service until `free_at`; `departure` is the key
    /// its departure event will carry if anyone ever needs it.
    #[inline]
    pub(crate) fn begin_service(&mut self, free_at: SimTime, departure: Reservation) {
        debug_assert!(
            self.departure.is_none(),
            "link {} is already serving",
            self.id
        );
        self.free_at = free_at;
        self.departure = Some(departure);
        self.armed = false;
    }

    /// The current service is over (its departure popped, or
    /// [`Link::idle_for`] said it would have). Returns `true` when that
    /// departure never entered the calendar — an elided event.
    #[inline]
    pub(crate) fn end_service(&mut self) -> bool {
        let elided = self.departure.take().is_some() && !self.armed;
        self.armed = false;
        elided
    }

    /// A packet is waiting behind the one in service: hand out the
    /// reserved departure (firing time and key) for insertion into the
    /// calendar, once.
    #[inline]
    pub(crate) fn arm(&mut self) -> Option<(SimTime, Reservation)> {
        let key = self.departure.filter(|_| !self.armed)?;
        self.armed = true;
        Some((self.free_at, key))
    }

    /// [`transmission_delay`] of `bits` at the current `capacity_bps`.
    #[inline]
    pub(crate) fn serialization(&mut self, bits: u64) -> SimDuration {
        let (memo_bits, memo_bps, tx) = self.tx_memo;
        if (memo_bits, memo_bps) == (bits, self.capacity_bps) {
            return tx;
        }
        let tx = transmission_delay(bits, self.capacity_bps);
        self.tx_memo = (bits, self.capacity_bps, tx);
        tx
    }

    /// Utilization over a window of `span`: delivered bits divided by the
    /// bits the link could have carried. In percent, as the paper reports.
    pub fn utilization_percent(&self, span: SimDuration) -> f64 {
        let possible = self.capacity_bps as f64 * span.as_secs_f64();
        if possible <= 0.0 {
            return 0.0;
        }
        100.0 * self.delivered_bits as f64 / possible
    }

    /// Zero the delivery counters and restart the queue-occupancy window.
    pub fn reset_measurement(&mut self, now: SimTime) {
        self.delivered_bits = 0;
        self.delivered_pkts = 0;
        let len = self.queue.len();
        self.queue.stats_mut().reset_window(now, len);
    }

    /// Flush the queue-occupancy integral up to `now` (call at the end of a
    /// measurement window before reading `mean_len`).
    pub fn flush_stats(&mut self, now: SimTime) {
        let len = self.queue.len();
        self.queue.stats_mut().advance(now, len);
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("capacity_bps", &self.capacity_bps)
            .field("delay", &self.delay)
            .field("queue", &self.queue.name())
            .field("free_at", &self.free_at)
            .field("departure", &self.departure)
            .field("armed", &self.armed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTail;

    #[test]
    fn utilization_math() {
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            10_000_000,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(10)),
        );
        l.delivered_bits = 5_000_000; // half the capacity over 1 s
        assert!((l.utilization_percent(SimDuration::from_secs(1)) - 50.0).abs() < 1e-9);
        l.reset_measurement(SimTime::ZERO);
        assert_eq!(l.delivered_bits, 0);
        assert_eq!(l.utilization_percent(SimDuration::from_secs(1)), 0.0);
    }

    /// The idle/busy decision as a function of `(now, current key)`: time
    /// decides away from `free_at`, the reserved key against the
    /// dispatching event's `(sched, tie, seq)` decides at it, and an armed
    /// departure keeps the link busy until it pops.
    #[test]
    fn idle_decision_follows_the_pop_order() {
        use crate::event::{EventQueue, TIE_KEY_MAX};
        let t = SimTime::from_nanos;
        let mut q = EventQueue::new();
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            10_000_000,
            SimDuration::ZERO,
            Box::new(DropTail::new(10)),
        );
        // Never served: idle for anyone, even the very first key at t = 0.
        assert!(l.idle_for(t(0), (t(0), 0, 0)));
        assert!(!l.end_service(), "nothing to elide on a fresh link");

        q.reserve(); // seq 0: an event scheduled before the transmission
        let key = q.reserve(); // (sched 0, seq 1)
        l.begin_service(t(800), key);
        assert!(!l.idle_for(t(799), TIE_KEY_MAX), "still serializing");
        assert!(l.idle_for(t(801), (t(0), 0, 0)), "long gone");
        // now == free_at: whoever sorts after the reserved (0, 0, 1) finds
        // the departure fired, whoever sorts before it does not.
        assert!(!l.idle_for(t(800), (t(0), 0, 0)), "scheduled earlier");
        assert!(!l.idle_for(t(800), key.tie_key()), "the departure itself");
        assert!(l.idle_for(t(800), (t(0), 0, 2)), "scheduled later");
        assert!(l.idle_for(t(800), (t(0), 7, 0)), "arrival: content tie");
        assert!(l.idle_for(t(800), (t(5), 0, 0)), "later schedule time");
        assert!(l.idle_for(t(800), TIE_KEY_MAX), "outside the event loop");

        // Seen idle without ever being armed: one elided departure.
        assert!(l.end_service());
        assert!(l.idle_for(t(0), (t(0), 0, 0)));

        // Armed: busy until the departure pops, whatever the clock says;
        // the key is handed out once, and popping it elides nothing.
        let key = q.reserve();
        l.begin_service(t(1600), key);
        assert_eq!(l.arm(), Some((t(1600), key)));
        assert_eq!(l.arm(), None);
        assert!(!l.idle_for(t(1600), TIE_KEY_MAX));
        assert!(!l.idle_for(t(9999), TIE_KEY_MAX));
        assert!(!l.end_service());
        assert!(l.idle_for(t(1600), (t(0), 0, 0)));
        assert_eq!(l.arm(), None, "nothing in service, nothing to arm");
    }

    /// The memo is `transmission_delay` of the current size and rate,
    /// whichever of the two changed, repeated or not.
    #[test]
    fn serialization_memo_equals_the_division() {
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            10_000_000,
            SimDuration::ZERO,
            Box::new(DropTail::new(1)),
        );
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Few sizes and rates, so pairs repeat back to back and apart;
            // 2e10 bits overflow `bits × 1e9` in a u64.
            let bits = [0, 320, 8_000, 12_000, 20_000_000_000][(x % 5) as usize];
            if (x >> 8).is_multiple_of(4) {
                l.capacity_bps = [3, 7, 10_000_000, 1_000_000_000_000][(x >> 16) as usize % 4];
            }
            assert_eq!(
                l.serialization(bits),
                transmission_delay(bits, l.capacity_bps),
                "{bits} bits at {} bps",
                l.capacity_bps
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            0,
            SimDuration::ZERO,
            Box::new(DropTail::new(1)),
        );
    }
}
