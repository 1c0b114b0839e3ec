//! PERT's probabilistic response curve (paper §3, Figure 5).
//!
//! The curve maps the smoothed queuing-delay estimate to a per-ACK
//! probability of early window reduction, mirroring "gentle" RED's marking
//! function but expressed over *delay* instead of queue length:
//!
//! ```text
//!          0                                   qd < T_min
//!          p_max·(qd − T_min)/(T_max − T_min)  T_min ≤ qd < T_max
//! p(qd) =  p_max + (1 − p_max)·(qd − T_max)/T_max
//!                                              T_max ≤ qd < 2·T_max
//!          1                                   qd ≥ 2·T_max
//! ```
//!
//! The paper uses fixed thresholds `T_min = 5 ms`, `T_max = 10 ms` above
//! the propagation-delay estimate, and `p_max = 0.05`.

/// The gentle-RED-shaped response curve on queuing delay. The router's
/// RED queue ramps on the same curve over its average queue length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResponseCurve {
    /// Lower queuing-delay threshold in seconds (default 5 ms).
    pub t_min: f64,
    /// Upper queuing-delay threshold in seconds (default 10 ms).
    pub t_max: f64,
    /// Response probability at `t_max` (default 0.05).
    pub p_max: f64,
}

impl ResponseCurve {
    /// The paper's fixed parameters: `(T_min, T_max, p_max) = (5 ms, 10 ms, 0.05)`.
    pub const PAPER_DEFAULT: ResponseCurve = ResponseCurve {
        t_min: 0.005,
        t_max: 0.010,
        p_max: 0.05,
    };

    /// Create a custom curve.
    ///
    /// # Panics
    /// Panics unless `0 < t_min < t_max` and `0 < p_max ≤ 1`.
    pub fn new(t_min: f64, t_max: f64, p_max: f64) -> Self {
        assert!(t_min > 0.0 && t_max > t_min, "need 0 < t_min < t_max");
        assert!(p_max > 0.0 && p_max <= 1.0, "p_max must be in (0,1]");
        ResponseCurve {
            t_min,
            t_max,
            p_max,
        }
    }

    /// The response probability for a queuing-delay estimate `qd` seconds.
    /// Total (piecewise-linear, monotonically non-decreasing, continuous).
    #[inline]
    pub fn probability(&self, qd: f64) -> f64 {
        if !qd.is_finite() || qd < self.t_min {
            0.0
        } else if qd < self.t_max {
            self.p_max * (qd - self.t_min) / (self.t_max - self.t_min)
        } else if qd < 2.0 * self.t_max {
            self.p_max + (1.0 - self.p_max) * (qd - self.t_max) / self.t_max
        } else {
            1.0
        }
    }

    /// The slope `L_PERT = p_max / (T_max − T_min)` of the first segment,
    /// the loss-probability gain used by the stability analysis
    /// (Theorem 1, eq. 10).
    pub fn l_pert(&self) -> f64 {
        self.p_max / (self.t_max - self.t_min)
    }
}

impl Default for ResponseCurve {
    fn default() -> Self {
        Self::PAPER_DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_points_match_figure_5() {
        let c = ResponseCurve::PAPER_DEFAULT;
        assert_eq!(c.probability(0.000), 0.0);
        assert_eq!(c.probability(0.005), 0.0); // at T_min
        assert!((c.probability(0.0075) - 0.025).abs() < 1e-12); // midpoint
        assert!((c.probability(0.010) - 0.05).abs() < 1e-12); // at T_max
        assert!((c.probability(0.015) - 0.525).abs() < 1e-12); // gentle midpoint
        assert_eq!(c.probability(0.020), 1.0); // at 2·T_max
        assert_eq!(c.probability(0.100), 1.0);
    }

    #[test]
    fn continuous_at_segment_boundaries() {
        let c = ResponseCurve::new(0.004, 0.012, 0.07);
        let eps = 1e-9;
        for &x in &[c.t_min, c.t_max, 2.0 * c.t_max] {
            let lo = c.probability(x - eps);
            let hi = c.probability(x + eps);
            assert!((hi - lo).abs() < 1e-6, "discontinuity at {x}");
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        let c = ResponseCurve::PAPER_DEFAULT;
        let mut prev = -1.0;
        for i in 0..2_000 {
            let p = c.probability(i as f64 * 0.000_02);
            assert!(p >= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn negative_or_nan_delay_yields_zero() {
        let c = ResponseCurve::PAPER_DEFAULT;
        assert_eq!(c.probability(-0.5), 0.0);
        assert_eq!(c.probability(f64::NAN), 0.0);
    }

    #[test]
    fn l_pert_gain() {
        let c = ResponseCurve::PAPER_DEFAULT;
        assert!((c.l_pert() - 10.0).abs() < 1e-9); // 0.05 / 0.005
    }

    #[test]
    #[should_panic(expected = "p_max must be in (0,1]")]
    fn rejects_bad_pmax() {
        let _ = ResponseCurve::new(0.005, 0.010, 1.5);
    }
}
