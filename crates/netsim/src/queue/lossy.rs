//! A random-loss wrapper around any queue discipline.
//!
//! Models non-congestion loss (wireless corruption, faulty hardware):
//! every arriving packet is independently dropped with a fixed probability
//! *before* the inner discipline sees it. Used by the robustness
//! experiments to check that PERT's delay-based predictor is not confused
//! by losses that carry no congestion information — a key failure mode of
//! pure loss-based control.

use pert_core::Attach;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{DropReason, EnqueueOutcome, QueueDiscipline, QueueStats};
use crate::arena::{PacketArena, PacketRef};
use crate::time::{SimDuration, SimTime};

/// Wraps an inner discipline with Bernoulli packet corruption.
pub struct RandomLoss {
    inner: Box<dyn QueueDiscipline>,
    loss_prob: f64,
    rng: SmallRng,
    /// Packets destroyed by the loss process (also counted in the shared
    /// `dropped` statistic).
    pub corrupted: u64,
}

impl RandomLoss {
    /// Wrap `inner`, dropping each arrival independently with
    /// `loss_prob`.
    ///
    /// `loss_prob` must be a probability: any value in `[0, 1]`, finite.
    /// `0` is transparent (no coin is even flipped), `1` destroys every
    /// arrival — legal, and occasionally useful as a blackhole in
    /// robustness sweeps.
    ///
    /// # Seed derivation
    /// The wrapper's RNG is seeded with `seed ^ 0x1055_1055`, *not* `seed`
    /// itself. Every stochastic component in the stack whitens the master
    /// seed with its own component-specific constant (TCP senders use
    /// `^ 0x7c95_e4d3`, RED `^ 0x5ca1ab1e`, PI `^ 0x9e3779b9`, REM
    /// `^ 0x4e4d_0a11`) so that components handed the same master seed
    /// still draw independent streams. Callers should pass the scenario's
    /// master seed (plus any per-link salt) unmodified and let the wrapper
    /// whiten it; pre-whitening on the caller side risks colliding with
    /// another component's stream.
    ///
    /// # Panics
    /// Panics unless `loss_prob` is finite and `0 ≤ loss_prob ≤ 1`.
    pub fn new(inner: Box<dyn QueueDiscipline>, loss_prob: f64, seed: u64) -> Self {
        assert!(
            loss_prob.is_finite() && (0.0..=1.0).contains(&loss_prob),
            "loss probability must be in [0, 1], got {loss_prob}"
        );
        RandomLoss {
            inner,
            loss_prob,
            rng: SmallRng::seed_from_u64(seed ^ 0x1055_1055),
            corrupted: 0,
        }
    }
}

impl QueueDiscipline for RandomLoss {
    fn enqueue(&mut self, pkt: PacketRef, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        if self.loss_prob > 0.0 && self.rng.gen::<f64>() < self.loss_prob {
            self.corrupted += 1;
            // Advance the time-weighted accumulators exactly as the inner
            // discipline would have before counting the drop, so the
            // occupancy integral sees this instant too.
            let len = self.inner.len();
            let stats = self.inner.stats_mut();
            stats.advance(now, len);
            stats.dropped += 1;
            return EnqueueOutcome::Dropped(pkt, DropReason::Early);
        }
        self.inner.enqueue(pkt, arena, now)
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketRef> {
        self.inner.dequeue(arena, now)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn capacity_pkts(&self) -> usize {
        self.inner.capacity_pkts()
    }

    fn stats(&self) -> &QueueStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        self.inner.stats_mut()
    }

    fn on_tick(&mut self, now: SimTime) {
        self.inner.on_tick(now);
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn name(&self) -> &'static str {
        "lossy"
    }

    fn attach(&mut self, attach: Attach, key: u64, capacity_bps: u64) {
        self.inner.attach(attach, key, capacity_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_packet;
    use super::super::DropTail;
    use super::*;
    use crate::packet::Ecn;

    fn offer(q: &mut RandomLoss, arena: &mut PacketArena) -> EnqueueOutcome {
        let p = arena.alloc(test_packet(100, Ecn::NotCapable));
        let out = q.enqueue(p, arena, SimTime::ZERO);
        if let EnqueueOutcome::Dropped(r, _) = &out {
            arena.take(*r);
        }
        out
    }

    fn drain(q: &mut RandomLoss, arena: &mut PacketArena) {
        if let Some(r) = q.dequeue(arena, SimTime::ZERO) {
            arena.take(r);
        }
    }

    #[test]
    fn zero_probability_is_transparent() {
        let mut arena = PacketArena::new();
        let mut q = RandomLoss::new(Box::new(DropTail::new(10)), 0.0, 1);
        for _ in 0..10 {
            assert!(matches!(
                offer(&mut q, &mut arena),
                EnqueueOutcome::Enqueued
            ));
        }
        assert_eq!(q.corrupted, 0);
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn loss_rate_matches_configuration() {
        let mut arena = PacketArena::new();
        let mut q = RandomLoss::new(Box::new(DropTail::new(100_000)), 0.1, 2);
        let n = 50_000;
        for _ in 0..n {
            let _ = offer(&mut q, &mut arena);
            drain(&mut q, &mut arena);
        }
        let rate = q.corrupted as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "corruption rate {rate}");
    }

    #[test]
    fn corrupted_packets_count_as_drops() {
        let mut arena = PacketArena::new();
        let mut q = RandomLoss::new(Box::new(DropTail::new(10)), 0.5, 3);
        for _ in 0..100 {
            let _ = offer(&mut q, &mut arena);
            drain(&mut q, &mut arena);
        }
        assert_eq!(q.stats().dropped, q.corrupted);
        assert!(q.corrupted > 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut arena = PacketArena::new();
            let mut q = RandomLoss::new(Box::new(DropTail::new(10)), 0.3, seed);
            (0..100)
                .map(|_| matches!(offer(&mut q, &mut arena), EnqueueOutcome::Dropped(..)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn certain_loss_is_a_blackhole() {
        let mut arena = PacketArena::new();
        let mut q = RandomLoss::new(Box::new(DropTail::new(10)), 1.0, 4);
        for _ in 0..50 {
            assert!(matches!(
                offer(&mut q, &mut arena),
                EnqueueOutcome::Dropped(_, DropReason::Early)
            ));
        }
        assert_eq!(q.corrupted, 50);
        assert_eq!(q.len(), 0);
        assert!(arena.is_empty(), "dropped refs must be freed");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_probability_above_one() {
        let _ = RandomLoss::new(Box::new(DropTail::new(1)), 1.0 + 1e-9, 0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_negative_probability() {
        let _ = RandomLoss::new(Box::new(DropTail::new(1)), -0.1, 0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_nan_probability() {
        let _ = RandomLoss::new(Box::new(DropTail::new(1)), f64::NAN, 0);
    }
}
