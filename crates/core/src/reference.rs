//! Naive, straight-line transcriptions of the audited papers' update
//! equations, used as differential oracles against the optimized
//! implementations in `netsim::queue` and [`crate::pert`].
//!
//! Each reference is deliberately written in the *textbook* form of its
//! equation — no incremental rewrites, no shared state with the audited
//! code — so that a transcription error in the optimized path cannot be
//! mirrored here. Where the optimized code uses an algebraically equal
//! but differently rounded expression (e.g. RED's `avg += w·(q − avg)`
//! versus the paper's `avg ← (1−w)·avg + w·q`), the oracle comparison
//! uses [`crate::audit::close`]; where the expressions are identical the
//! match is exact.
//!
//! Time enters as raw simulator nanoseconds (`u64`) and is converted to
//! seconds with the same `ns as f64 / 1e9` division the simulator's
//! `SimTime::as_secs_f64` uses, so idle-decay inputs are bit-identical.

/// Straight-line RED (Floyd & Jacobson 1993, with the *gentle* extension
/// and ns-2's idle compensation): average-queue EWMA plus the piecewise
/// marking-probability curve.
#[derive(Clone, Debug)]
pub struct RedReference {
    /// EWMA weight `w_q`.
    pub w_q: f64,
    /// Lower average-queue threshold (packets).
    pub min_th: f64,
    /// Upper average-queue threshold (packets).
    pub max_th: f64,
    /// Gentle slope between `max_th` and `2·max_th`.
    pub gentle: bool,
    /// Mean packet transmission time, seconds (idle compensation unit).
    pub mean_pkt_secs: f64,
    avg: f64,
    idle_since_ns: Option<u64>,
}

impl RedReference {
    /// Start with an empty, idle-since-t=0 queue, mirroring `RedQueue`.
    pub fn new(w_q: f64, min_th: f64, max_th: f64, gentle: bool, mean_pkt_secs: f64) -> Self {
        RedReference {
            w_q,
            min_th,
            max_th,
            gentle,
            mean_pkt_secs,
            avg: 0.0,
            idle_since_ns: Some(0),
        }
    }

    /// Per-arrival average update, RED paper §4 / ns-2 `estimator`:
    ///
    /// ```text
    /// if idle:  avg ← (1 − w_q)^m · avg,   m = idle_time / s   (s = mean pkt time)
    /// avg ← (1 − w_q)·avg + w_q·q
    /// ```
    ///
    /// `q` is the occupancy *before* this packet is stored. Returns the
    /// updated average.
    pub fn on_arrival(&mut self, now_ns: u64, q: usize) -> f64 {
        if let Some(idle_start) = self.idle_since_ns.take() {
            let idle = (now_ns - idle_start) as f64 / 1e9;
            let m = idle / self.mean_pkt_secs.max(1e-12);
            self.avg *= (1.0 - self.w_q).powf(m);
        }
        self.avg = (1.0 - self.w_q) * self.avg + self.w_q * q as f64;
        self.avg
    }

    /// Record the start of an idle period (queue drained to empty, or an
    /// arrival was rejected while the queue was empty).
    pub fn on_idle_start(&mut self, now_ns: u64) {
        self.idle_since_ns = Some(now_ns);
    }

    /// The piecewise initial marking probability `p_b` of the current
    /// average, straight from the papers:
    ///
    /// ```text
    /// avg < min_th                 → 0
    /// min_th ≤ avg < max_th        → max_p·(avg − min_th)/(max_th − min_th)
    /// max_th ≤ avg < 2·max_th      → max_p + (1 − max_p)·(avg − max_th)/max_th   (gentle)
    /// otherwise                    → forced drop (None)
    /// ```
    ///
    /// `max_p` is passed in because Adaptive RED mutates it at runtime.
    pub fn marking_probability(&self, max_p: f64) -> Option<f64> {
        if self.avg < self.min_th {
            Some(0.0)
        } else if self.avg < self.max_th {
            Some(max_p * (self.avg - self.min_th) / (self.max_th - self.min_th))
        } else if self.gentle && self.avg < 2.0 * self.max_th {
            Some(max_p + (1.0 - max_p) * (self.avg - self.max_th) / self.max_th)
        } else {
            None
        }
    }

    /// Current reference average queue length.
    pub fn avg(&self) -> f64 {
        self.avg
    }
}

/// Straight-line PI controller (Hollot et al., INFOCOM 2001, eq. for the
/// discretized controller):
///
/// ```text
/// p(kT) = p((k−1)T) + a·(q(kT) − q_ref) − b·(q((k−1)T) − q_ref)
/// ```
#[derive(Clone, Debug)]
pub struct PiReference {
    /// Coefficient on the current error sample.
    pub a: f64,
    /// Coefficient on the previous error sample.
    pub b: f64,
    /// Queue-length setpoint.
    pub q_ref: f64,
    p: f64,
    q_old: f64,
}

impl PiReference {
    /// Start with `p = 0` and zero error history, mirroring `PiQueue`.
    pub fn new(a: f64, b: f64, q_ref: f64) -> Self {
        PiReference {
            a,
            b,
            q_ref,
            p: 0.0,
            q_old: q_ref,
        }
    }

    /// One sampling-instant update with the instantaneous queue length
    /// `q`; probabilities are clamped to `[0, 1]`. Returns the new `p`.
    pub fn tick(&mut self, q: f64) -> f64 {
        self.p = (self.p + self.a * (q - self.q_ref) - self.b * (self.q_old - self.q_ref))
            .clamp(0.0, 1.0);
        self.q_old = q;
        self.p
    }

    /// Current marking probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

/// Straight-line REM (Athuraliya, Li, Low & Yin, IEEE Network 2001):
///
/// ```text
/// price ← max(0, price + γ·(α·(q − q*) + q − q_prev))
/// p     = 1 − φ^(−price)
/// ```
#[derive(Clone, Debug)]
pub struct RemReference {
    /// Price step γ.
    pub gamma: f64,
    /// Backlog weight α.
    pub alpha_w: f64,
    /// Marking base φ.
    pub phi: f64,
    /// Target backlog `q*`.
    pub q_ref: f64,
    price: f64,
    q_prev: f64,
}

impl RemReference {
    /// Start with zero price and no backlog history, mirroring `RemQueue`.
    pub fn new(gamma: f64, alpha_w: f64, phi: f64, q_ref: f64) -> Self {
        RemReference {
            gamma,
            alpha_w,
            phi,
            q_ref,
            price: 0.0,
            q_prev: 0.0,
        }
    }

    /// One price-update period with the instantaneous queue length `q`.
    /// Returns the new price.
    pub fn tick(&mut self, q: f64) -> f64 {
        self.price = (self.price
            + self.gamma * (self.alpha_w * (q - self.q_ref) + (q - self.q_prev)))
            .max(0.0);
        self.q_prev = q;
        self.price
    }

    /// Current price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// Current marking probability `1 − φ^(−price)`.
    pub fn probability(&self) -> f64 {
        1.0 - self.phi.powf(-self.price)
    }
}

/// Straight-line `srtt_0.99` / propagation-delay tracking from PERT §3:
///
/// ```text
/// srtt ← α·srtt + (1 − α)·rtt      (first sample initializes)
/// prop ← min(prop, rtt)
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PertReference {
    /// History weight α (the paper uses 0.99).
    pub weight: f64,
    srtt: Option<f64>,
    min_rtt: Option<f64>,
}

impl PertReference {
    /// Start with no samples, mirroring `PertController::new`.
    pub fn new(weight: f64) -> Self {
        PertReference {
            weight,
            srtt: None,
            min_rtt: None,
        }
    }

    /// Fold in one RTT sample.
    pub fn on_sample(&mut self, rtt: f64) {
        self.srtt = Some(match self.srtt {
            None => rtt,
            Some(s) => self.weight * s + (1.0 - self.weight) * rtt,
        });
        self.min_rtt = Some(match self.min_rtt {
            None => rtt,
            Some(m) => m.min(rtt),
        });
    }

    /// Reference smoothed RTT.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Reference propagation-delay estimate.
    pub fn min_rtt(&self) -> Option<f64> {
        self.min_rtt
    }
}

/// Straight-line CUBIC window function (RFC 9438 §4.1–4.3):
///
/// ```text
/// K         = cubic_root((W_max − cwnd_epoch) / C)
/// W_cubic(t) = C·(t − K)³ + W_max
/// ```
///
/// with fast convergence (§4.6) on a new congestion event:
///
/// ```text
/// W_max ← cwnd·(1 + β)/2   if cwnd < W_max   (else W_max ← cwnd)
/// ```
///
/// The reference recomputes `K` and the cubic curve fresh from the epoch
/// inputs on every query; the optimized implementation caches `K` at
/// epoch start and is compared against this each ACK under `--audit`.
#[derive(Clone, Copy, Debug)]
pub struct CubicReference {
    /// The cubic scaling constant `C` (RFC 9438 uses 0.4).
    pub c: f64,
    /// The multiplicative-decrease factor `β` (RFC 9438 uses 0.7).
    pub beta: f64,
}

impl CubicReference {
    /// A reference with the given constants.
    pub fn new(c: f64, beta: f64) -> Self {
        CubicReference { c, beta }
    }

    /// The time-to-origin `K` for an epoch that starts at window
    /// `cwnd_epoch` below plateau `w_max`.
    pub fn k(&self, w_max: f64, cwnd_epoch: f64) -> f64 {
        ((w_max - cwnd_epoch).max(0.0) / self.c).cbrt()
    }

    /// The cubic window at `t` seconds into the epoch.
    pub fn w_cubic(&self, t: f64, w_max: f64, cwnd_epoch: f64) -> f64 {
        self.c * (t - self.k(w_max, cwnd_epoch)).powi(3) + w_max
    }

    /// The new plateau after a congestion event at window `cwnd`, with
    /// fast convergence against the previous plateau `w_max_prev`.
    pub fn w_max_after_loss(&self, cwnd: f64, w_max_prev: f64) -> f64 {
        if cwnd < w_max_prev {
            cwnd * (1.0 + self.beta) / 2.0
        } else {
            cwnd
        }
    }

    /// The AIMD-friendly additive-increase factor `α` (RFC 9438 §4.3).
    pub fn aimd_alpha(&self) -> f64 {
        3.0 * (1.0 - self.beta) / (1.0 + self.beta)
    }
}

/// Straight-line BBR model arithmetic (Cardwell et al., "BBR:
/// Congestion-Based Congestion Control", ACM Queue 2016): the bottleneck
/// bandwidth is the *maximum* delivery-rate sample over a sliding window
/// of packet-timed rounds, and the congestion window is a gain on the
/// bandwidth-delay product:
///
/// ```text
/// btlbw      = max{ rate(r) : r > round − W }
/// cwnd(gain) = max(gain · btlbw · min_rtt, 4)
/// ```
///
/// The reference keeps every in-window sample and rescans for the max;
/// the optimized implementation uses a monotonic deque and is compared
/// against this each round under `--audit`.
#[derive(Clone, Debug, Default)]
pub struct BbrReference {
    /// Filter window, rounds (BBR uses 10).
    pub window_rounds: u64,
    samples: Vec<(u64, f64)>,
}

impl BbrReference {
    /// An empty filter over `window_rounds` rounds.
    pub fn new(window_rounds: u64) -> Self {
        BbrReference {
            window_rounds,
            samples: Vec::new(),
        }
    }

    /// Record one per-round delivery-rate sample and return the reference
    /// windowed maximum.
    pub fn on_rate_sample(&mut self, round: u64, rate: f64) -> f64 {
        self.samples.push((round, rate));
        self.samples
            .retain(|&(r, _)| r + self.window_rounds > round);
        self.max_rate()
    }

    /// The reference windowed maximum (0 when empty).
    pub fn max_rate(&self) -> f64 {
        self.samples.iter().fold(0.0, |m, &(_, v)| m.max(v))
    }

    /// The reference congestion window for a bandwidth-delay product.
    pub fn cwnd_for(gain: f64, btlbw: f64, min_rtt: f64) -> f64 {
        (gain * btlbw * min_rtt).max(4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_ewma_converges_to_constant_queue() {
        let mut r = RedReference::new(0.1, 5.0, 15.0, true, 1e-4);
        for _ in 0..500 {
            r.on_arrival(0, 10);
        }
        assert!((r.avg() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn red_idle_decay_shrinks_avg() {
        let mut r = RedReference::new(0.002, 5.0, 15.0, true, 1e-4);
        for _ in 0..5_000 {
            r.on_arrival(0, 20);
        }
        let before = r.avg();
        r.on_idle_start(0);
        // One second idle at a 100 µs mean packet time = 10 000 drain slots.
        r.on_arrival(1_000_000_000, 0);
        assert!(r.avg() < before * 0.5, "{} !< {}", r.avg(), before);
    }

    #[test]
    fn red_probability_piecewise() {
        let mut r = RedReference::new(1.0, 5.0, 15.0, true, 1e-4);
        // w_q = 1 → avg equals the offered occupancy exactly.
        r.on_arrival(0, 4);
        assert_eq!(r.marking_probability(0.1), Some(0.0));
        r.on_arrival(0, 10);
        assert!((r.marking_probability(0.1).unwrap() - 0.05).abs() < 1e-12);
        r.on_arrival(0, 15);
        assert!((r.marking_probability(0.1).unwrap() - 0.1).abs() < 1e-12);
        // Gentle midpoint 22.5: 0.1 + 0.9·0.5 = 0.55.
        r.on_arrival(0, 22);
        let p = r.marking_probability(0.1).unwrap();
        assert!((p - (0.1 + 0.9 * 7.0 / 15.0)).abs() < 1e-12);
        r.on_arrival(0, 31);
        assert_eq!(r.marking_probability(0.1), None);
        // Sharp mode forces at max_th already.
        let mut sharp = RedReference::new(1.0, 5.0, 15.0, false, 1e-4);
        sharp.on_arrival(0, 16);
        assert_eq!(sharp.marking_probability(0.1), None);
    }

    #[test]
    fn pi_integrates_standing_error() {
        let mut p = PiReference::new(1.822e-5, 1.816e-5, 50.0);
        for _ in 0..1_000 {
            p.tick(150.0);
        }
        // Standing +100-packet error integrates at (a−b)·err per tick…
        assert!(p.probability() > 0.0);
        // …and unwinds again below the setpoint.
        let high = p.probability();
        for _ in 0..10_000 {
            p.tick(0.0);
        }
        assert!(p.probability() < high);
        assert!((0.0..=1.0).contains(&p.probability()));
    }

    #[test]
    fn rem_price_law() {
        let mut r = RemReference::new(0.05, 0.1, 2.0, 10.0);
        assert_eq!(r.probability(), 0.0);
        r.tick(30.0); // price = 0.05·(0.1·20 + 30) = 1.6
        assert!((r.price() - 1.6).abs() < 1e-12);
        // φ = 2, price = 1 → p = 1/2.
        let mut unit = RemReference::new(1.0, 1.0, 2.0, 0.0);
        unit.tick(0.5); // price = 0.5 + 0.5 = 1.0
        assert!((unit.probability() - 0.5).abs() < 1e-12);
        // Price never goes negative.
        let mut neg = RemReference::new(1.0, 1.0, 2.0, 100.0);
        neg.tick(0.0);
        assert_eq!(neg.price(), 0.0);
    }

    #[test]
    fn cubic_curve_textbook_points() {
        let r = CubicReference::new(0.4, 0.7);
        // Epoch from cwnd = β·W_max: K = cbrt(W_max·(1−β)/C).
        let w_max = 100.0;
        let cwnd = 70.0;
        let k = r.k(w_max, cwnd);
        assert!((k - (100.0 * 0.3 / 0.4f64).cbrt()).abs() < 1e-12);
        // At t = K the curve is back at the plateau.
        assert!((r.w_cubic(k, w_max, cwnd) - w_max).abs() < 1e-9);
        // At t = 0 it starts at the reduced window.
        assert!((r.w_cubic(0.0, w_max, cwnd) - cwnd).abs() < 1e-9);
        // Fast convergence shrinks the plateau when losing below it.
        assert!((r.w_max_after_loss(50.0, 100.0) - 42.5).abs() < 1e-12);
        assert_eq!(r.w_max_after_loss(120.0, 100.0), 120.0);
        // RFC 9438 α for β = 0.7 is 9/17.
        assert!((r.aimd_alpha() - 3.0 * 0.3 / 1.7).abs() < 1e-12);
    }

    #[test]
    fn bbr_windowed_max_expires_old_rounds() {
        let mut f = BbrReference::new(3);
        assert_eq!(f.on_rate_sample(0, 10.0), 10.0);
        assert_eq!(f.on_rate_sample(1, 5.0), 10.0);
        assert_eq!(f.on_rate_sample(2, 7.0), 10.0);
        // Round 3 expires the round-0 peak: max of {5, 7, 6}.
        assert_eq!(f.on_rate_sample(3, 6.0), 7.0);
        assert_eq!(BbrReference::cwnd_for(2.0, 100.0, 0.05), 10.0);
        // The floor of 4 segments engages at tiny BDPs.
        assert_eq!(BbrReference::cwnd_for(2.0, 10.0, 0.001), 4.0);
    }

    #[test]
    fn pert_srtt_and_min_track_paper_form() {
        let mut p = PertReference::new(0.99);
        assert_eq!(p.srtt(), None);
        p.on_sample(0.060);
        assert_eq!(p.srtt(), Some(0.060));
        assert_eq!(p.min_rtt(), Some(0.060));
        p.on_sample(0.100);
        assert!((p.srtt().unwrap() - (0.99 * 0.060 + 0.01 * 0.100)).abs() < 1e-15);
        assert_eq!(p.min_rtt(), Some(0.060));
    }
}
