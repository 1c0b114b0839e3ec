//! PERT/PI: emulating the PI AQM controller at the end host (paper §6).
//!
//! Instead of the gentle-RED response curve, the response probability is
//! produced by a discretized proportional-integral controller acting on the
//! queuing-delay estimate:
//!
//! ```text
//! p(k) = p(k−1) + γ·(T_q(k) − T_q*) − β·(T_q(k−1) − T_q*)
//! γ = K/m + K·δ/2,   β = K/m − K·δ/2
//! ```
//!
//! obtained from `C_PI(s) = K (1 + s/m) / s` by the bilinear transform with
//! sampling interval `δ` (paper eq. 16–19; note eq. 19 in the paper swaps
//! the `β`/`γ` symbols relative to its own definitions — we implement the
//! standard stable form with the larger coefficient on the current error).
//!
//! Theorem 2 gives the design rule for `m` and `K`; because PERT senses
//! queuing *delay* rather than queue *length*, the plant gain carries `C²`
//! rather than RED's `C³` (§6, discussion after Theorem 2).

use crate::pert::{Law, PertController};

/// Configuration of the PERT/PI controller.
#[derive(Clone, Copy, Debug)]
pub struct PertPiParams {
    /// Coefficient on the current delay error (γ).
    pub gamma: f64,
    /// Coefficient on the previous delay error (β).
    pub beta: f64,
    /// Queuing-delay setpoint `T_q*` in seconds (paper §6.1 uses 3 ms).
    pub target_delay: f64,
    /// Smoothed-RTT history weight (the same `srtt_0.99` signal is used
    /// for delay measurement, §6.1).
    pub srtt_weight: f64,
    /// Multiplicative window-decrease factor on early response.
    pub decrease_factor: f64,
}

impl PertPiParams {
    /// Design rule of Theorem 2: given the link capacity `c_pps`
    /// (packets/second), a lower bound `n_min` on the number of flows, an
    /// upper bound `r_max` (seconds) on RTT, a representative stationary
    /// RTT `r_star`, and sampling interval `delta` (seconds — roughly the
    /// inter-ACK time `N/C`):
    ///
    /// ```text
    /// m = 2·n_min / (r_max² · c_pps)
    /// K = m · sqrt((r_star·m)² + 1) / (r_max³·c_pps² / (2·n_min)²)
    /// ```
    pub fn design(
        c_pps: f64,
        n_min: f64,
        r_max: f64,
        r_star: f64,
        delta: f64,
        target_delay: f64,
    ) -> Self {
        assert!(c_pps > 0.0 && n_min > 0.0 && r_max > 0.0 && delta > 0.0);
        let m = 2.0 * n_min / (r_max * r_max * c_pps);
        let plant = r_max.powi(3) * c_pps.powi(2) / (2.0 * n_min).powi(2);
        let k = m * ((r_star * m).powi(2) + 1.0).sqrt() / plant;
        PertPiParams {
            gamma: k / m + k * delta / 2.0,
            beta: k / m - k * delta / 2.0,
            target_delay,
            srtt_weight: 0.99,
            decrease_factor: 0.35,
        }
    }

    /// §6.1's pragmatic parameterization: take a router PI's queue-length
    /// coefficients `(a, b)` (probability per packet of queue error) and
    /// multiply by the link capacity in packets/second to convert them to
    /// per-second-of-delay coefficients.
    pub fn from_router_pi(a: f64, b: f64, c_pps: f64, target_delay: f64) -> Self {
        assert!(a > b && b > 0.0, "need a > b > 0");
        assert!(c_pps > 0.0);
        PertPiParams {
            gamma: a * c_pps,
            beta: b * c_pps,
            target_delay,
            srtt_weight: 0.99,
            decrease_factor: 0.35,
        }
    }

    fn validate(&self) {
        assert!(
            self.gamma > self.beta && self.beta > 0.0,
            "stability requires gamma > beta > 0"
        );
        assert!(self.target_delay >= 0.0);
    }
}

/// The §6 response law: the probability is the state of a discretized PI
/// controller on the queuing-delay error.
#[derive(Clone, Copy, Debug)]
pub struct PiLaw {
    gamma: f64,
    beta: f64,
    target_delay: f64,
    /// Current response probability (the PI state).
    p: f64,
    /// Previous delay error.
    prev_err: f64,
}

impl Law for PiLaw {
    const NAME: &'static str = "pert-pi";
    const SALT: u64 = 0x9121_77e5;
    const PUBLISHES: bool = false;

    fn sample(&mut self, qd: f64) {
        let err = qd - self.target_delay;
        self.p = (self.p + self.gamma * err - self.beta * self.prev_err).clamp(0.0, 1.0);
        self.prev_err = err;
    }

    fn probability(&self, _qd: f64) -> f64 {
        self.p
    }
}

/// The per-flow PERT/PI state machine: the PERT controller with the PI
/// law.
pub type PertPiController = PertController<PiLaw>;

impl PertController<PiLaw> {
    /// Create with `params`; coin flips derive from `seed`.
    pub fn pi(params: PertPiParams, seed: u64) -> Self {
        params.validate();
        let law = PiLaw {
            gamma: params.gamma,
            beta: params.beta,
            target_delay: params.target_delay,
            p: 0.0,
            prev_err: 0.0,
        };
        Self::with_law(law, params.srtt_weight, params.decrease_factor, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PertPiParams {
        // Router-PI style coefficients scaled for a 12500 pps link.
        PertPiParams::from_router_pi(1.822e-5, 1.816e-5, 12_500.0, 0.003)
    }

    #[test]
    fn probability_integrates_up_under_excess_delay() {
        let mut c = PertController::pi(params(), 1);
        c.on_ack(0.0, 0.060);
        for i in 1..5_000 {
            c.on_ack(i as f64 * 0.001, 0.080); // 20 ms queuing delay ≫ 3 ms
        }
        assert!(c.probability() > 0.0, "p = {}", c.probability());
    }

    #[test]
    fn probability_unwinds_below_target() {
        let mut c = PertController::pi(params(), 1);
        c.on_ack(0.0, 0.060);
        for i in 1..5_000 {
            c.on_ack(i as f64 * 0.001, 0.090);
        }
        let high = c.probability();
        // srtt is sticky (0.99); give it time at base RTT to fall below
        // target and the integrator to unwind.
        for i in 5_000..40_000 {
            c.on_ack(i as f64 * 0.001, 0.060);
        }
        assert!(c.probability() < high);
    }

    #[test]
    fn probability_stays_clamped() {
        let mut c = PertController::pi(params(), 1);
        for i in 0..100_000 {
            c.on_ack(i as f64 * 0.0001, if i == 0 { 0.010 } else { 1.0 });
            let p = c.probability();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn once_per_rtt_limit_holds() {
        let mut c = PertController::pi(params(), 5);
        c.on_ack(0.0, 0.050);
        let mut last: Option<f64> = None;
        let mut now = 0.0;
        for _ in 0..200_000 {
            now += 0.0001;
            if c.on_ack(now, 0.500).is_some() {
                if let Some(prev) = last {
                    assert!(now - prev >= 0.05, "two responses within an RTT");
                }
                last = Some(now);
            }
        }
        assert!(c.stats.early_responses > 0);
    }

    #[test]
    fn design_rule_gives_stable_coefficients() {
        // 10 Mbps / 1250-byte packets = 1000 pps, 5 flows, R ≤ 240 ms.
        let p = PertPiParams::design(1000.0, 5.0, 0.24, 0.2, 0.005, 0.003);
        assert!(p.gamma > p.beta && p.beta > 0.0);
    }

    #[test]
    #[should_panic(expected = "need a > b > 0")]
    fn from_router_rejects_bad_coeffs() {
        let _ = PertPiParams::from_router_pi(1.0e-5, 2.0e-5, 1000.0, 0.003);
    }

    /// FNV-1a over the little-endian bytes of one word.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The controller's observable behaviour over a fixed RTT stream
    /// (base, mid-ramp, saturated, drain; `observe` every 17th ACK),
    /// pinned as a literal so that no change to how the PI law or the
    /// shared filters are stored can move a result. Every response's ACK
    /// index and factor, and `probability()` and `queuing_delay()` after
    /// every ACK, enter the hash.
    #[test]
    fn behaviour_fingerprint_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut c = PertController::pi(params(), 2024);
        let mut now = 0.0;
        for i in 0..50_000u64 {
            now += 0.0005;
            let rtt = match i {
                0..2_000 => 0.060 + 0.002 * ((i % 10) as f64 / 10.0),
                2_000..30_000 => 0.064 + 0.004 * ((i % 13) as f64 / 13.0),
                30_000..40_000 => 0.200,
                _ => 0.061,
            };
            if let Some(r) = c.on_ack(now, rtt) {
                fnv(&mut h, i);
                fnv(&mut h, r.factor.to_bits());
            }
            if i % 17 == 0 {
                c.observe(rtt);
            }
            fnv(&mut h, c.probability().to_bits());
            fnv(&mut h, c.queuing_delay().map_or(u64::MAX, f64::to_bits));
        }
        assert_eq!(
            h, 0x5dd7_d522_9ca1_8282,
            "PERT/PI controller behaviour changed"
        );
    }
}
