//! The Proportional-Integral AQM controller of Hollot, Misra, Towsley &
//! Gong, *"On designing improved controllers for AQM routers supporting TCP
//! flows"* (INFOCOM 2001) — reference [16] of the PERT paper and the router
//! that PERT/PI (paper §6) emulates from the end host.
//!
//! The controller recomputes the mark/drop probability at a fixed sampling
//! rate from the *instantaneous* queue length:
//!
//! ```text
//! p(kT) = p((k−1)T) + a·(q(kT) − q_ref) − b·(q((k−1)T) − q_ref)
//! ```
//!
//! with `a > b > 0` obtained by discretizing `C(s) = K (1 + s/m) / s` with
//! the bilinear transform (`a = K/m + KT/2`, `b = K/m − KT/2`). Note that
//! eq. (19) of the PERT paper swaps the `β`/`γ` symbols relative to its own
//! definitions below eq. (18); we implement the standard (stable) PI form
//! where the larger coefficient multiplies the *current* error.
//!
//! The update is PERT/PI's [`PiLaw`] run on queue length instead of
//! queuing delay.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pert_core::reference::PiReference;
use pert_core::{Law, PiLaw};

use super::{Fifo, Policy};
use crate::audit;
use crate::telemetry::{self, SeriesId};
use crate::time::{SimDuration, SimTime};

/// PI controller configuration.
#[derive(Clone, Debug)]
pub struct PiParams {
    /// Hard buffer limit in packets.
    pub capacity_pkts: usize,
    /// Queue-length setpoint in packets.
    pub q_ref: f64,
    /// Coefficient on the current error sample.
    pub a: f64,
    /// Coefficient on the previous error sample.
    pub b: f64,
    /// Sampling period `T` between probability updates.
    pub sample_interval: SimDuration,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
    /// RNG seed for the marking coin flips.
    pub seed: u64,
}

impl PiParams {
    /// Design the controller from the TCP/PI design rules of Hollot et al.:
    /// given the link capacity `c_pps` (packets/second), a lower bound
    /// `n_min` on the number of flows and an upper bound `r_max` (seconds)
    /// on the RTT, place the zero at `m = 2·n_min / (r_max² · c_pps)` and
    /// take the gain `K = m·sqrt((r_max·m)² + 1)·(2 n_min)² / (r_max·c_pps²)`.
    /// The sampling rate is `sample_hz` (Hollot et al. use 160–170 Hz).
    #[allow(clippy::too_many_arguments)]
    pub fn design(
        capacity_pkts: usize,
        q_ref: f64,
        c_pps: f64,
        n_min: f64,
        r_max: f64,
        sample_hz: f64,
        ecn: bool,
        seed: u64,
    ) -> Self {
        assert!(c_pps > 0.0 && n_min > 0.0 && r_max > 0.0 && sample_hz > 0.0);
        let m = 2.0 * n_min / (r_max * r_max * c_pps);
        let loop_gain = (r_max * c_pps).powi(3) / (2.0 * n_min).powi(2) / (c_pps * r_max * r_max);
        let k = m * ((r_max * m).powi(2) + 1.0).sqrt() / loop_gain;
        let t = 1.0 / sample_hz;
        PiParams {
            capacity_pkts,
            q_ref,
            a: k / m + k * t / 2.0,
            b: k / m - k * t / 2.0,
            sample_interval: SimDuration::from_secs_f64(t),
            ecn,
            seed,
        }
    }

    /// The literal example configuration from Hollot et al. (2001):
    /// `a = 1.822e−5`, `b = 1.816e−5`, 170 Hz sampling — appropriate for a
    /// 15 Mbps / 3750 pps link with up to 60 flows and RTT up to 250 ms.
    /// Useful as a known-good reference point in tests.
    pub fn hollot_example(capacity_pkts: usize, q_ref: f64, ecn: bool, seed: u64) -> Self {
        PiParams {
            capacity_pkts,
            q_ref,
            a: 1.822e-5,
            b: 1.816e-5,
            sample_interval: SimDuration::from_secs_f64(1.0 / 170.0),
            ecn,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.q_ref >= 0.0, "q_ref must be non-negative");
        assert!(
            self.a > 0.0 && self.b > 0.0,
            "PI coefficients must be positive"
        );
        assert!(self.a > self.b, "stability requires a > b");
        assert!(
            !self.sample_interval.is_zero(),
            "sampling interval must be positive"
        );
    }
}

/// The PI policy.
#[derive(Debug)]
pub struct Pi {
    params: PiParams,
    rng: SmallRng,
    /// The probability update, sampled every tick.
    law: PiLaw,
    /// Differential oracle: straight-line transcription of Hollot et al.'s
    /// update equation, compared after every sampling tick.
    oracle: Option<PiReference>,
}

/// A PI-controlled queue.
pub type PiQueue = Fifo<Pi>;

impl PiQueue {
    /// Create a PI queue.
    pub fn new(params: PiParams) -> Self {
        params.validate();
        let pi = Pi {
            rng: SmallRng::seed_from_u64(params.seed ^ 0x9e3779b9),
            law: PiLaw::new(params.a, params.b, params.q_ref),
            oracle: None,
            params,
        };
        Fifo::with_policy(pi.params.capacity_pkts, pi.params.ecn, pi)
    }

    /// Current marking probability.
    pub fn probability(&self) -> f64 {
        self.policy.law.p()
    }
}

impl Policy for Pi {
    #[inline]
    fn arrive(&mut self, _now: SimTime, _len: usize, _capacity: usize) -> f64 {
        self.law.p()
    }

    #[inline]
    fn signal(&mut self, _now: SimTime, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// The fixed-rate probability update.
    #[inline]
    fn tick(&mut self, now: SimTime, len: usize, tap: Option<u64>) {
        let q = len as f64;
        self.law.sample(q);
        let p = self.law.p();
        if let Some(key) = tap {
            telemetry::record_id(SeriesId::PI_P, key, now.as_secs_f64(), p);
        }
        if let Some(oracle) = &mut self.oracle {
            let ref_p = oracle.tick(q);
            audit::count_oracle_checks(1);
            if !audit::close(ref_p, p) {
                audit::violation(
                    "pi",
                    format_args!(
                        "PI diverged from the Hollot et al. reference at t={now:?} \
                         (seed {}): p={p} ref={ref_p}, q={q}",
                        self.params.seed,
                    ),
                );
            }
        }
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.params.sample_interval)
    }

    fn name(&self) -> &'static str {
        "PI"
    }

    fn attach(&mut self, audit: bool) {
        let p = &self.params;
        self.oracle = audit.then(|| PiReference::new(p.a, p.b, p.q_ref));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{audited, test_packet};
    use super::super::{DropReason, EnqueueOutcome, QueueDiscipline};
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::Ecn;

    fn mk(q_ref: f64) -> PiQueue {
        audited(PiQueue::new(PiParams::hollot_example(500, q_ref, false, 3)))
    }

    fn offer(q: &mut PiQueue, arena: &mut PacketArena, ecn: Ecn) -> EnqueueOutcome {
        let r = arena.alloc(test_packet(1000, ecn));
        let out = q.enqueue(r, arena, SimTime::ZERO);
        if let EnqueueOutcome::Dropped(r, _) = &out {
            arena.take(*r);
        }
        out
    }

    #[test]
    fn probability_rises_when_queue_above_setpoint() {
        let mut arena = PacketArena::new();
        let mut q = mk(10.0);
        for _ in 0..50 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        let before = q.probability();
        for _ in 0..100 {
            q.on_tick(SimTime::ZERO);
        }
        assert!(q.probability() > before);
    }

    #[test]
    fn probability_falls_back_when_queue_below_setpoint() {
        let mut arena = PacketArena::new();
        let mut q = mk(10.0);
        // Drive p up with a standing queue…
        for _ in 0..50 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        for _ in 0..200 {
            q.on_tick(SimTime::ZERO);
        }
        let high = q.probability();
        assert!(high > 0.0);
        // …then drain and let the integrator unwind.
        while let Some(r) = q.dequeue(&mut arena, SimTime::ZERO) {
            arena.take(r);
        }
        for _ in 0..400 {
            q.on_tick(SimTime::ZERO);
        }
        assert!(q.probability() < high);
    }

    #[test]
    fn probability_clamped_to_unit_interval() {
        let mut arena = PacketArena::new();
        let mut q = mk(0.0);
        for _ in 0..500 {
            offer(&mut q, &mut arena, Ecn::NotCapable);
        }
        for _ in 0..1_000_000 {
            q.on_tick(SimTime::ZERO);
            assert!((0.0..=1.0).contains(&q.probability()));
            if q.probability() == 1.0 {
                break;
            }
        }
    }

    #[test]
    fn ecn_marks_when_enabled() {
        let mut arena = PacketArena::new();
        let mut params = PiParams::hollot_example(500, 0.0, true, 3);
        params.a = 0.5;
        params.b = 0.25;
        let mut q = audited(PiQueue::new(params));
        for _ in 0..20 {
            offer(&mut q, &mut arena, Ecn::Capable);
        }
        for _ in 0..10 {
            q.on_tick(SimTime::ZERO);
        }
        assert!(q.probability() > 0.5);
        let mut marked = 0;
        for _ in 0..50 {
            if let EnqueueOutcome::Marked = offer(&mut q, &mut arena, Ecn::Capable) {
                marked += 1;
            }
        }
        assert!(marked > 0);
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn design_rule_produces_valid_coefficients() {
        // 10 Mbps, 1000-byte packets → 1250 pps; 5 flows; 200 ms RTT.
        let p = PiParams::design(500, 50.0, 1250.0, 5.0, 0.2, 170.0, true, 1);
        assert!(p.a > p.b && p.b > 0.0);
        // Sanity: controller must converge, not blow up, on the hollot test.
        let mut arena = PacketArena::new();
        let mut q = audited(PiQueue::new(p));
        for _ in 0..100 {
            offer(&mut q, &mut arena, Ecn::Capable);
        }
        for _ in 0..10_000 {
            q.on_tick(SimTime::ZERO);
        }
        assert!((0.0..=1.0).contains(&q.probability()));
    }

    /// The design rule's output, bit for bit.
    #[test]
    fn design_output_is_pinned() {
        let p = PiParams::design(500, 50.0, 1250.0, 5.0, 0.2, 170.0, true, 1);
        assert_eq!(
            (p.a.to_bits(), p.b.to_bits()),
            (4_554_546_777_331_882_550, 4_554_539_827_121_785_334)
        );
        assert_eq!(p.sample_interval, SimDuration::from_secs_f64(1.0 / 170.0));
    }

    #[test]
    fn full_buffer_overflows() {
        let mut arena = PacketArena::new();
        let mut q = audited(PiQueue::new(PiParams::hollot_example(2, 10.0, false, 3)));
        offer(&mut q, &mut arena, Ecn::NotCapable);
        offer(&mut q, &mut arena, Ecn::NotCapable);
        assert!(matches!(
            offer(&mut q, &mut arena, Ecn::NotCapable),
            EnqueueOutcome::Dropped(_, DropReason::Overflow)
        ));
    }

    #[test]
    #[should_panic(expected = "stability requires a > b")]
    fn invalid_coefficients_rejected() {
        let mut p = PiParams::hollot_example(10, 5.0, false, 0);
        p.b = p.a + 1.0;
        audited(PiQueue::new(p));
    }
}
