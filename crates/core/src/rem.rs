//! PERT/REM: emulating the REM AQM (Athuraliya, Li, Low & Yin 2001 —
//! reference \[2\] of the paper) at the end host.
//!
//! The paper's closing claim is that PERT "is flexible in the sense that
//! other AQM schemes can be potentially emulated at the end-host"; this
//! module demonstrates it with REM, whose router form maintains a *price*
//! driven by backlog and rate mismatch and marks with probability
//! `1 − φ^(−price)`:
//!
//! ```text
//! price ← max(0, price + γ·(α·(b − b*) + x − c))
//! ```
//!
//! At the end host the backlog is observed as queuing delay
//! (`b/C = T_q`) and the rate mismatch as the *change* in queuing delay
//! (`(x − c)/C = dT_q/dt`), both derived from the same `srtt_0.99`
//! signal PERT already maintains, giving the per-ACK update
//!
//! ```text
//! price ← max(0, price + γ·(α·(T_q − T_q*) + ΔT_q))
//! p     = 1 − φ^(−price)
//! ```

use crate::pert::{Law, PertController};

/// Configuration of the PERT/REM controller.
#[derive(Clone, Copy, Debug)]
pub struct PertRemParams {
    /// Price step size γ (per second of delay error per ACK).
    pub gamma: f64,
    /// Backlog weight α.
    pub alpha_w: f64,
    /// Marking base φ (> 1; REM's recommended 1.001 scales with the
    /// price units — the default here is calibrated for delay-priced
    /// updates).
    pub phi: f64,
    /// Queuing-delay target `T_q*`, seconds.
    pub target_delay: f64,
    /// Smoothed-delay history weight (the `srtt_0.99` filter).
    pub srtt_weight: f64,
    /// Multiplicative window-decrease factor on early response.
    pub decrease_factor: f64,
}

impl Default for PertRemParams {
    fn default() -> Self {
        PertRemParams {
            gamma: 0.02,
            alpha_w: 0.1,
            phi: 1.005,
            target_delay: 0.005,
            srtt_weight: 0.99,
            decrease_factor: 0.35,
        }
    }
}

impl PertRemParams {
    fn validate(&self) {
        assert!(self.gamma > 0.0, "gamma must be positive");
        assert!(self.alpha_w > 0.0, "alpha must be positive");
        assert!(self.phi > 1.0, "phi must exceed 1");
        assert!(self.target_delay >= 0.0);
    }
}

/// The §8 response law: REM's price, driven by the queuing-delay backlog
/// and its change, marks with probability `1 − φ^(−price)`.
#[derive(Clone, Copy, Debug)]
pub struct RemLaw {
    gamma: f64,
    alpha_w: f64,
    phi: f64,
    target_delay: f64,
    price: f64,
    prev_qd: f64,
}

impl Law for RemLaw {
    const NAME: &'static str = "pert-rem";
    const SALT: u64 = 0x4e4d_7031;
    const PUBLISHES: bool = false;

    fn sample(&mut self, qd: f64) {
        let backlog = qd - self.target_delay;
        let mismatch = qd - self.prev_qd;
        self.price = (self.price + self.gamma * (self.alpha_w * backlog + mismatch)).max(0.0);
        self.prev_qd = qd;
    }

    /// REM's exponential marking law `1 − φ^(−price)`.
    fn probability(&self, _qd: f64) -> f64 {
        1.0 - self.phi.powf(-self.price)
    }
}

/// The per-flow PERT/REM state machine: the PERT controller with the REM
/// law.
pub type PertRemController = PertController<RemLaw>;

impl PertController<RemLaw> {
    /// Create with `params`; coin flips derive from `seed`.
    pub fn rem(params: PertRemParams, seed: u64) -> Self {
        params.validate();
        let law = RemLaw {
            gamma: params.gamma,
            alpha_w: params.alpha_w,
            phi: params.phi,
            target_delay: params.target_delay,
            price: 0.0,
            prev_qd: 0.0,
        };
        Self::with_law(law, params.srtt_weight, params.decrease_factor, seed)
    }

    /// The current price.
    pub fn price(&self) -> f64 {
        self.law.price
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_rises_under_excess_delay_and_decays_below_target() {
        let mut c = PertController::rem(PertRemParams::default(), 1);
        c.on_ack(0.0, 0.060);
        for i in 1..5_000 {
            c.on_ack(i as f64 * 0.001, 0.090); // 30 ms ≫ 5 ms target
        }
        let high = c.price();
        assert!(high > 0.0);
        assert!(c.probability() > 0.0);
        // Long spell at base RTT: srtt sinks below target, price unwinds.
        for i in 5_000..60_000 {
            c.on_ack(i as f64 * 0.001, 0.060);
        }
        assert!(c.price() < high);
    }

    #[test]
    fn probability_is_rem_law() {
        let mut c = PertController::rem(
            PertRemParams {
                phi: 2.0,
                ..Default::default()
            },
            1,
        );
        c.law.price = 1.0;
        assert!((c.probability() - 0.5).abs() < 1e-12);
        c.law.price = 0.0;
        assert_eq!(c.probability(), 0.0);
        c.law.price = 10.0;
        assert!(c.probability() > 0.999);
    }

    #[test]
    fn price_never_negative_probability_in_unit_interval() {
        let mut c = PertController::rem(PertRemParams::default(), 3);
        for i in 0..50_000 {
            let rtt = if i % 100 < 50 { 0.060 } else { 0.030 };
            c.on_ack(i as f64 * 0.001, rtt);
            assert!(c.price() >= 0.0);
            let p = c.probability();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn responds_once_per_rtt_at_most() {
        let mut c = PertController::rem(PertRemParams::default(), 5);
        c.on_ack(0.0, 0.050);
        let mut last: Option<f64> = None;
        let mut now = 0.0;
        for _ in 0..100_000 {
            now += 0.0005;
            if c.on_ack(now, 0.300).is_some() {
                if let Some(prev) = last {
                    assert!(now - prev >= 0.05 - 1e-9);
                }
                last = Some(now);
            }
        }
        assert!(c.stats.early_responses > 0);
    }

    #[test]
    #[should_panic(expected = "phi must exceed 1")]
    fn rejects_bad_phi() {
        let _ = PertController::rem(
            PertRemParams {
                phi: 0.9,
                ..Default::default()
            },
            0,
        );
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
    /// pinned as a literal so that no change to how the REM law or the
    /// shared filters are stored can move a result. Every response's ACK
    /// index and factor, and `probability()`, `queuing_delay()` and
    /// `price()` after every ACK, enter the hash.
    #[test]
    fn behaviour_fingerprint_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut c = PertController::rem(PertRemParams::default(), 2024);
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
            fnv(&mut h, c.price().to_bits());
        }
        assert_eq!(
            h, 0x5383_532e_5a9f_a261,
            "PERT/REM controller behaviour changed"
        );
    }
}
