//! AVQ — the Adaptive Virtual Queue of Kunniyur & Srikant (SIGCOMM 2001;
//! reference [19] of the PERT paper).
//!
//! AVQ keeps a *virtual* queue whose capacity `C̃` is adapted so the real
//! link settles at a target utilization `γ` (< 1): each arrival is offered
//! to the virtual queue first, and arrivals that would overflow it are
//! marked/dropped at the real queue. Between arrivals the virtual queue
//! drains at `C̃`, and the virtual capacity adapts as
//!
//! ```text
//! C̃' = α·(γ·C − λ)        (λ = arrival rate)
//! ```
//!
//! implemented event-driven at each arrival exactly as in the original
//! paper's pseudo-code:
//!
//! ```text
//! VQ  ← max(VQ − C̃·(t − s), 0)            // drain since last arrival
//! C̃   ← clamp(C̃ + α·γ·C·(t − s) − α·b, 0, C)
//! if VQ + b > B̃ : mark/drop  else VQ ← VQ + b
//! ```

use super::{Fifo, Policy};
use crate::telemetry::{self, SeriesId};
use crate::time::SimTime;

/// AVQ configuration.
#[derive(Clone, Debug)]
pub struct AvqParams {
    /// Real buffer limit, packets.
    pub capacity_pkts: usize,
    /// Virtual buffer limit, packets (usually the real buffer size).
    pub virtual_capacity_pkts: f64,
    /// Real link capacity, packets/second.
    pub link_pps: f64,
    /// Desired utilization γ (Kunniyur & Srikant use 0.98).
    pub gamma: f64,
    /// Adaptation gain α (their stability analysis suggests α ≲ 0.15 for
    /// typical configurations).
    pub alpha: f64,
    /// Mark ECN-capable packets instead of dropping.
    pub ecn: bool,
}

impl AvqParams {
    /// The original paper's recommended configuration for a link of
    /// `pps` packets/second with `buffer` packets of real buffering.
    pub fn recommended(buffer: usize, pps: f64, ecn: bool) -> Self {
        AvqParams {
            capacity_pkts: buffer,
            virtual_capacity_pkts: buffer as f64,
            link_pps: pps,
            gamma: 0.98,
            alpha: 0.15,
            ecn,
        }
    }

    fn validate(&self) {
        assert!(self.virtual_capacity_pkts > 0.0);
        assert!(self.link_pps > 0.0);
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must be in (0, 1]"
        );
        assert!(self.alpha > 0.0, "alpha must be positive");
    }
}

/// The AVQ policy.
#[derive(Debug)]
pub struct Avq {
    params: AvqParams,
    /// Virtual queue occupancy, packets (fractional).
    vq: f64,
    /// Virtual capacity C̃, packets/second.
    c_tilde: f64,
    /// Time of the previous arrival the real buffer had room for.
    last_arrival: SimTime,
}

/// An AVQ queue.
pub type AvqQueue = Fifo<Avq>;

impl AvqQueue {
    /// Create an AVQ queue; the virtual capacity starts at the real one.
    pub fn new(params: AvqParams) -> Self {
        params.validate();
        let avq = Avq {
            vq: 0.0,
            c_tilde: params.link_pps,
            last_arrival: SimTime::ZERO,
            params,
        };
        Fifo::with_policy(avq.params.capacity_pkts, avq.params.ecn, avq)
    }

    /// Current virtual capacity C̃, packets/second.
    pub fn virtual_capacity(&self) -> f64 {
        self.policy.c_tilde
    }

    /// Current virtual queue occupancy, packets.
    pub fn virtual_queue(&self) -> f64 {
        self.policy.vq
    }
}

impl Policy for Avq {
    /// AVQ marks deterministically on virtual overflow; its reference
    /// probability is the 0/1 congestion indicator, here on the virtual
    /// queue as the previous update left it: the update itself runs in
    /// [`Policy::signal`], only for arrivals the real buffer has room for.
    #[inline]
    fn arrive(&mut self, _now: SimTime, _len: usize, _capacity: usize) -> f64 {
        if self.vq + 1.0 > self.params.virtual_capacity_pkts {
            1.0
        } else {
            0.0
        }
    }

    fn sampled(&self, key: u64, t: f64) {
        telemetry::record_id(SeriesId::AVQ_VQ, key, t, self.vq);
        telemetry::record_id(SeriesId::AVQ_C_TILDE, key, t, self.c_tilde);
    }

    /// The event-driven AVQ update at this arrival, then the virtual
    /// overflow test: a congested arrival leaves the virtual queue as it
    /// is, any other joins it.
    #[inline]
    fn signal(&mut self, now: SimTime, _p: f64) -> bool {
        let dt = now.duration_since(self.last_arrival).as_secs_f64();
        self.last_arrival = now;
        let b = 1.0; // one packet
        self.vq = (self.vq - self.c_tilde * dt).max(0.0);
        self.c_tilde = (self.c_tilde
            + self.params.alpha * (self.params.gamma * self.params.link_pps * dt - b))
            .clamp(0.0, self.params.link_pps);
        let congested = self.vq + b > self.params.virtual_capacity_pkts;
        if !congested {
            self.vq += b;
        }
        congested
    }

    fn name(&self) -> &'static str {
        "AVQ"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_packet;
    use super::super::{EnqueueOutcome, QueueDiscipline};
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::Ecn;
    use crate::time::SimDuration;

    fn mk() -> AvqQueue {
        // 1000 pkt/s link, 50-packet buffers.
        AvqQueue::new(AvqParams::recommended(50, 1000.0, false))
    }

    fn offer(q: &mut AvqQueue, arena: &mut PacketArena, ecn: Ecn, t: SimTime) -> EnqueueOutcome {
        let r = arena.alloc(test_packet(1000, ecn));
        let out = q.enqueue(r, arena, t);
        if let EnqueueOutcome::Dropped(r, _) = &out {
            arena.take(*r);
        }
        out
    }

    fn drain(q: &mut AvqQueue, arena: &mut PacketArena, t: SimTime) {
        if let Some(r) = q.dequeue(arena, t) {
            arena.take(r);
        }
    }

    #[test]
    fn sparse_arrivals_pass_untouched() {
        let mut arena = PacketArena::new();
        let mut q = mk();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_millis(10); // exactly link rate / 10
            assert!(matches!(
                offer(&mut q, &mut arena, Ecn::NotCapable, t),
                EnqueueOutcome::Enqueued
            ));
            drain(&mut q, &mut arena, t);
        }
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn overload_shrinks_virtual_capacity_and_signals() {
        let mut arena = PacketArena::new();
        let mut q = mk();
        let mut t = SimTime::ZERO;
        let c0 = q.virtual_capacity();
        // Arrivals at 5× the link rate.
        let mut dropped = 0;
        for _ in 0..2000 {
            t += SimDuration::from_micros(200);
            if matches!(
                offer(&mut q, &mut arena, Ecn::NotCapable, t),
                EnqueueOutcome::Dropped(..)
            ) {
                dropped += 1;
            }
            drain(&mut q, &mut arena, t);
        }
        assert!(q.virtual_capacity() < c0, "C~ did not adapt down");
        assert!(dropped > 0, "no early signals under 5x overload");
    }

    #[test]
    fn virtual_capacity_stays_clamped() {
        let mut arena = PacketArena::new();
        let mut q = mk();
        let mut t = SimTime::ZERO;
        for i in 0..5000 {
            // Bursty on/off arrivals.
            let gap = if i % 100 < 50 { 100 } else { 5000 };
            t += SimDuration::from_micros(gap);
            let _ = offer(&mut q, &mut arena, Ecn::NotCapable, t);
            drain(&mut q, &mut arena, t);
            assert!((0.0..=1000.0).contains(&q.virtual_capacity()));
            assert!(q.virtual_queue() >= 0.0);
        }
    }

    #[test]
    fn ecn_marks_when_enabled() {
        let mut arena = PacketArena::new();
        let mut q = AvqQueue::new(AvqParams::recommended(50, 1000.0, true));
        let mut t = SimTime::ZERO;
        let mut marked = 0;
        for _ in 0..2000 {
            t += SimDuration::from_micros(200); // 5x overload
            if matches!(
                offer(&mut q, &mut arena, Ecn::Capable, t),
                EnqueueOutcome::Marked
            ) {
                marked += 1;
            }
            drain(&mut q, &mut arena, t);
        }
        assert!(marked > 0);
        assert_eq!(
            q.stats().dropped,
            0,
            "ECT packets must be marked, not dropped"
        );
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn rejects_bad_gamma() {
        let mut p = AvqParams::recommended(10, 100.0, false);
        p.gamma = 1.5;
        AvqQueue::new(p);
    }
}
