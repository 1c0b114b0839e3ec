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
//! in `pert-core::rem`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pert_core::reference::RemReference;
use pert_core::Attach;

use super::{DropReason, EnqueueOutcome, FifoStore, QueueDiscipline, QueueStats};
use crate::arena::{PacketArena, PacketRef};
use crate::audit;
use crate::telemetry::{self, QueueTap, SeriesId};
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
        assert!(self.capacity_pkts > 0, "capacity must be positive");
        assert!(self.q_ref >= 0.0);
        assert!(self.gamma > 0.0 && self.alpha_w > 0.0);
        assert!(self.phi > 1.0, "phi must exceed 1");
        assert!(!self.update_interval.is_zero());
    }
}

/// A REM queue.
#[derive(Debug)]
pub struct RemQueue {
    params: RemParams,
    store: FifoStore,
    stats: QueueStats,
    rng: SmallRng,
    price: f64,
    q_prev: f64,
    /// Differential oracle: straight-line transcription of the REM price
    /// law, compared after every price update.
    oracle: Option<RemReference>,
    tap: Option<QueueTap>,
}

impl RemQueue {
    /// Create a REM queue.
    pub fn new(params: RemParams) -> Self {
        params.validate();
        let seed = params.seed;
        RemQueue {
            params,
            store: FifoStore::default(),
            stats: QueueStats::default(),
            rng: SmallRng::seed_from_u64(seed ^ 0x4e4d_0a11),
            price: 0.0,
            q_prev: 0.0,
            oracle: None,
            tap: None,
        }
    }

    /// Current price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// Current marking probability `1 − φ^(−price)`.
    pub fn probability(&self) -> f64 {
        1.0 - self.params.phi.powf(-self.price)
    }
}

impl QueueDiscipline for RemQueue {
    fn enqueue(&mut self, pkt: PacketRef, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        self.stats.advance(now, self.store.len());
        let truth_p = self.probability();
        if let Some(tap) = &mut self.tap {
            let (len, bytes) = (self.store.len(), self.store.bytes());
            tap.on_enqueue(now, len, bytes, truth_p);
        }
        if self.store.len() >= self.params.capacity_pkts {
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped(pkt, DropReason::Overflow);
        }
        let p = self.probability();
        if p > 0.0 && self.rng.gen::<f64>() < p {
            if self.params.ecn && arena[pkt].ecn.is_capable() {
                arena.mark_ce(pkt);
                self.store.push(pkt, arena);
                self.stats.enqueued += 1;
                self.stats.marked += 1;
                return EnqueueOutcome::Marked;
            }
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped(pkt, DropReason::Early);
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
        self.params.capacity_pkts
    }

    fn stats(&self) -> &QueueStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        &mut self.stats
    }

    fn on_tick(&mut self, _now: SimTime) {
        let q = self.store.len() as f64;
        let backlog = self.params.alpha_w * (q - self.params.q_ref);
        let mismatch = q - self.q_prev;
        self.price = (self.price + self.params.gamma * (backlog + mismatch)).max(0.0);
        self.q_prev = q;
        if let Some(tap) = &self.tap {
            let t = _now.as_secs_f64();
            telemetry::record_id(SeriesId::REM_PRICE, tap.key(), t, self.price);
            telemetry::record_id(SeriesId::REM_PROB, tap.key(), t, self.probability());
        }
        if let Some(oracle) = &mut self.oracle {
            oracle.tick(q);
            let (ref_price, ref_p) = (oracle.price(), oracle.probability());
            let own_p = 1.0 - self.params.phi.powf(-self.price);
            audit::count_oracle_checks(1);
            if !audit::close(ref_price, self.price) || !audit::close(ref_p, own_p) {
                audit::violation(
                    "rem",
                    format_args!(
                        "REM diverged from the Athuraliya et al. reference at t={_now:?} \
                         (seed {}): price={} ref={ref_price}, p={own_p} ref={ref_p}, q={q}",
                        self.params.seed, self.price,
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

    fn attach(&mut self, attach: Attach, key: u64, capacity_bps: u64) {
        let p = &self.params;
        self.oracle = attach
            .audit
            .then(|| RemReference::new(p.gamma, p.alpha_w, p.phi, p.q_ref));
        self.tap = QueueTap::attach_if(attach.telemetry, key, capacity_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{audited, test_packet};
    use super::*;
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
        let mut q = audited(RemQueue::new(RemParams {
            phi: 2.0,
            ..params()
        }));
        q.price = 1.0;
        assert!((q.probability() - 0.5).abs() < 1e-12);
        q.price = 0.0;
        assert_eq!(q.probability(), 0.0);
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
        let mut arena = PacketArena::new();
        let mut q = audited(RemQueue::new(p));
        q.price = 50.0; // probability ≈ 1
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
