//! REM — Random Exponential Marking (Athuraliya, Li, Low & Yin,
//! *IEEE Network* 2001; reference [2] of the PERT paper).
//!
//! REM decouples the congestion *measure* (a "price") from the
//! performance measure (queue length): at a fixed period the price moves
//! by the weighted sum of backlog error and rate mismatch, and arrivals
//! are marked with probability `1 − φ^(−price)`:
//!
//! ```text
//! price ← max(0, price + γ·(α·(q − q*) + q − q_prev))
//! p     = 1 − φ^(−price)
//! ```
//!
//! (`q − q_prev` over one period is the integral of the rate mismatch.)
//! This router is the reference point for the PERT/REM end-host emulation
//! in `pert-core::rem`, and runs that emulation's [`RemLaw`] on queue
//! length instead of queuing delay.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pert_core::reference::RemReference;
use pert_core::{Law, RemLaw};

use super::{Fifo, Policy};
use crate::audit;
use crate::telemetry::{self, SeriesId};
use crate::time::{SimDuration, SimTime};

/// REM configuration.
#[derive(Clone, Debug)]
pub struct RemParams {
    /// Hard buffer limit, packets.
    pub capacity_pkts: usize,
    /// Target backlog `q*`, packets.
    pub q_ref: f64,
    /// Price step γ.
    pub gamma: f64,
    /// Backlog weight α (REM's recommended 0.1).
    pub alpha_w: f64,
    /// Marking base φ (> 1; REM's recommended 1.001).
    pub phi: f64,
    /// Price-update period.
    pub update_interval: SimDuration,
    /// Mark ECN-capable packets instead of dropping.
    pub ecn: bool,
    /// RNG seed for marking coin flips.
    pub seed: u64,
}

impl RemParams {
    /// The REM paper's recommended constants for a link draining `pps`
    /// packets/second: γ = 0.001, α = 0.1, φ = 1.001, price updated at
    /// the packet time scale (every 10 packet-transmission times).
    pub fn recommended(capacity_pkts: usize, q_ref: f64, pps: f64, ecn: bool, seed: u64) -> Self {
        assert!(pps > 0.0);
        RemParams {
            capacity_pkts,
            q_ref,
            gamma: 0.001,
            alpha_w: 0.1,
            phi: 1.001,
            update_interval: SimDuration::from_secs_f64(10.0 / pps),
            ecn,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.q_ref >= 0.0);
        assert!(self.gamma > 0.0 && self.alpha_w > 0.0);
        assert!(self.phi > 1.0, "phi must exceed 1");
        assert!(!self.update_interval.is_zero());
    }
}

/// The REM policy.
#[derive(Debug)]
pub struct Rem {
    params: RemParams,
    rng: SmallRng,
    /// The price update, sampled every tick, and the marking law.
    law: RemLaw,
    /// Differential oracle: straight-line transcription of the REM price
    /// law, compared after every price update.
    oracle: Option<RemReference>,
}

/// A REM queue.
pub type RemQueue = Fifo<Rem>;

impl RemQueue {
    /// Create a REM queue.
    pub fn new(params: RemParams) -> Self {
        params.validate();
        let p = &params;
        let rem = Rem {
            rng: SmallRng::seed_from_u64(p.seed ^ 0x4e4d_0a11),
            law: RemLaw::new(p.gamma, p.alpha_w, p.phi, p.q_ref),
            oracle: None,
            params,
        };
        Fifo::with_policy(rem.params.capacity_pkts, rem.params.ecn, rem)
    }

    /// Current price.
    pub fn price(&self) -> f64 {
        self.policy.law.price()
    }

    /// Current marking probability `1 − φ^(−price)`.
    pub fn probability(&self) -> f64 {
        self.policy.law.probability(self.buf.len() as f64)
    }
}

impl Policy for Rem {
    #[inline]
    fn arrive(&mut self, _now: SimTime, len: usize, _capacity: usize) -> f64 {
        self.law.probability(len as f64)
    }

    #[inline]
    fn signal(&mut self, _now: SimTime, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    #[inline]
    fn tick(&mut self, now: SimTime, len: usize, tap: Option<u64>) {
        let q = len as f64;
        self.law.sample(q);
        let price = self.law.price();
        if let Some(key) = tap {
            let t = now.as_secs_f64();
            telemetry::record_id(SeriesId::REM_PRICE, key, t, price);
            telemetry::record_id(SeriesId::REM_PROB, key, t, self.law.probability(q));
        }
        if let Some(oracle) = &mut self.oracle {
            oracle.tick(q);
            let (ref_price, ref_p) = (oracle.price(), oracle.probability());
            let p = self.law.probability(q);
            audit::count_oracle_checks(1);
            if !audit::close(ref_price, price) || !audit::close(ref_p, p) {
                audit::violation(
                    "rem",
                    format_args!(
                        "REM diverged from the Athuraliya et al. reference at t={now:?} \
                         (seed {}): price={price} ref={ref_price}, p={p} ref={ref_p}, q={q}",
                        self.params.seed,
                    ),
                );
            }
        }
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.params.update_interval)
    }

    fn name(&self) -> &'static str {
        "REM"
    }

    fn attach(&mut self, audit: bool) {
        let p = &self.params;
        self.oracle = audit.then(|| RemReference::new(p.gamma, p.alpha_w, p.phi, p.q_ref));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{audited, test_packet};
    use super::super::{DropReason, EnqueueOutcome, QueueDiscipline};
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::Ecn;

    fn offer(q: &mut RemQueue, arena: &mut PacketArena, ecn: Ecn) -> EnqueueOutcome {
        let r = arena.alloc(test_packet(1000, ecn));
        let out = q.enqueue(r, arena, SimTime::ZERO);
        if let EnqueueOutcome::Dropped(r, _) = &out {
            arena.take(*r);
        }
        out
    }

    fn params() -> RemParams {
        RemParams {
            capacity_pkts: 100,
            q_ref: 10.0,
            gamma: 0.05,
            alpha_w: 0.1,
            phi: 1.2,
            update_interval: SimDuration::from_millis(1),
            ecn: false,
            seed: 2,
        }
    }

    #[test]
    fn price_rises_with_standing_backlog() {
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(params()));
        for _ in 0..50 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        for _ in 0..200 {
            q.on_tick(SimTime::ZERO);
        }
        assert!(q.price() > 0.0);
        assert!(q.probability() > 0.0);
    }

    #[test]
    fn price_unwinds_when_drained() {
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(params()));
        for _ in 0..50 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        for _ in 0..200 {
            q.on_tick(SimTime::ZERO);
        }
        let high = q.price();
        while let Some(r) = q.dequeue(&mut arena, SimTime::ZERO) {
            arena.take(r);
        }
        for _ in 0..2000 {
            q.on_tick(SimTime::ZERO);
        }
        assert!(q.price() < high);
    }

    #[test]
    fn probability_law_and_bounds() {
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(RemParams {
            q_ref: 0.0,
            gamma: 0.5,
            alpha_w: 1.0,
            phi: 2.0,
            ..params()
        }));
        assert_eq!(q.probability(), 0.0);
        offer(&mut q, &mut arena, Ecn::NotCapable);
        q.on_tick(SimTime::ZERO); // price = 0.5·(1·(1 − 0) + (1 − 0)) = 1
        assert_eq!(q.price(), 1.0);
        assert!((q.probability() - 0.5).abs() < 1e-12);
        for _ in 0..1000 {
            q.on_tick(SimTime::ZERO);
            assert!(q.price() >= 0.0);
            assert!((0.0..=1.0).contains(&q.probability()));
        }
    }

    #[test]
    fn marks_ect_instead_of_dropping() {
        let mut p = params();
        p.ecn = true;
        p.q_ref = 0.0;
        p.gamma = 1.0;
        p.alpha_w = 1.0;
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(p));
        for _ in 0..25 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        q.on_tick(SimTime::ZERO); // price = 50: probability ≈ 1
        let mut marked = 0;
        for _ in 0..20 {
            match offer(&mut q, &mut arena, Ecn::Capable) {
                EnqueueOutcome::Marked => marked += 1,
                EnqueueOutcome::Enqueued => {}
                EnqueueOutcome::Dropped(..) => panic!("ECT dropped"),
            }
        }
        assert!(marked > 15);
    }

    #[test]
    fn overflow_always_drops() {
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(RemParams {
            capacity_pkts: 2,
            ..params()
        }));
        offer(&mut q, &mut arena, Ecn::NotCapable);
        offer(&mut q, &mut arena, Ecn::NotCapable);
        assert!(matches!(
            offer(&mut q, &mut arena, Ecn::NotCapable),
            EnqueueOutcome::Dropped(_, DropReason::Overflow)
        ));
    }

    #[test]
    fn recommended_constants() {
        let p = RemParams::recommended(100, 20.0, 1000.0, true, 1);
        assert!((p.gamma - 0.001).abs() < 1e-12);
        assert!((p.phi - 1.001).abs() < 1e-12);
        assert_eq!(p.update_interval, SimDuration::from_millis(10));
    }
}
