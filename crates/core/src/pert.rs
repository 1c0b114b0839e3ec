//! The PERT controller (paper §3): `srtt_0.99` congestion prediction plus
//! probabilistic early response, packaged as a transport-independent state
//! machine a TCP sender drives once per ACK.
//!
//! One controller emulates every AQM the paper puts at the end host. It
//! owns the filters, the holds, the coin and the audit shadow; a [`Law`]
//! turns its queuing-delay estimate into the response probability:
//! [`ResponseCurve`] (gentle RED, §3), [`crate::pi::PiLaw`] (§6) and
//! [`crate::rem::RemLaw`] (§8).
//!
//! ```
//! use pert_core::pert::{PertController, PertParams, EarlyResponse};
//!
//! let mut pert = PertController::new(PertParams::default(), 42);
//! // On every ACK: feed the new RTT sample; maybe get a decrease decision.
//! match pert.on_ack(/*now=*/1.0, /*rtt=*/0.068) {
//!     Some(EarlyResponse { factor }) => assert!(factor > 0.0 && factor < 1.0),
//!     None => {}
//! }
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::audit;
use crate::reference::PertReference;
use crate::response::ResponseCurve;
use crate::telemetry::{self, SeriesId};
use crate::Attach;

/// How an emulated AQM turns the queuing-delay estimate into a response
/// probability. Everything else, from the filters to the coin, belongs to
/// [`PertController`].
pub trait Law {
    /// Scheme name the congestion-control adapter reports.
    const NAME: &'static str;
    /// XOR-ed into the construction seed of the coin-flip RNG.
    const SALT: u64;
    /// Whether the controller publishes the `pert/*` telemetry series.
    const PUBLISHES: bool;

    /// Fold the queuing-delay estimate of a new RTT sample into the law's
    /// state; runs on every sample, `observe`-only ones included.
    fn sample(&mut self, _qd: f64) {}

    /// The response probability at queuing delay `qd`, seconds.
    fn probability(&self, qd: f64) -> f64;
}

impl Law for ResponseCurve {
    const NAME: &'static str = "pert";
    const SALT: u64 = 0x0007_0e57_ca75;
    const PUBLISHES: bool = true;

    fn probability(&self, qd: f64) -> f64 {
        ResponseCurve::probability(self, qd)
    }
}

/// Configuration of the PERT controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PertParams {
    /// History weight of the smoothed-RTT filter (paper: 0.99).
    pub srtt_weight: f64,
    /// The probabilistic response curve on queuing delay.
    pub curve: ResponseCurve,
    /// Multiplicative window-decrease factor applied on an early response
    /// (paper: 0.35, i.e. `cwnd ← 0.65·cwnd`), chosen from the
    /// buffer-sizing relation `B > f/(1−f)·BDP` so that early responses
    /// keep the queue below half of a one-BDP buffer.
    pub decrease_factor: f64,
}

impl Default for PertParams {
    fn default() -> Self {
        PertParams {
            srtt_weight: 0.99,
            curve: ResponseCurve::PAPER_DEFAULT,
            decrease_factor: 0.35,
        }
    }
}
/// Regime code: the sender is in congestion avoidance.
pub const REGIME_CONG_AVOID: u8 = 0;
/// Regime code: the sender is in slow start (`cwnd < ssthresh`).
pub const REGIME_SLOW_START: u8 = 1;

/// Pack a regime code and a response probability into one telemetry value:
/// `regime·100_000 + round(p·10_000)`. The probability lands in basis
/// points (0..=10_000), so the two fields never collide and both survive
/// the f64 round-trip exactly. Decode with [`decode_response`].
pub fn encode_response(regime: u8, p: f64) -> f64 {
    let bp = (p.clamp(0.0, 1.0) * 10_000.0).round();
    f64::from(regime) * 100_000.0 + bp
}

/// Split a `pert/response` value back into `(regime, probability_bp)`.
/// Legacy records (plain `1.0`) decode as `(REGIME_CONG_AVOID, 1)`.
pub fn decode_response(value: f64) -> (u8, u32) {
    let v = value.max(0.0).round() as u64;
    ((v / 100_000) as u8, (v % 100_000) as u32)
}

/// A decision to reduce the congestion window early.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyResponse {
    /// Multiplicative decrease factor: the sender should set
    /// `cwnd ← (1 − factor)·cwnd`.
    pub factor: f64,
}

/// Running statistics a PERT controller keeps about its own activity.
///
/// Every PERT connection carries one, so the two counts of responses are
/// `u32`: no flow comes near 2^32 of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct PertStats {
    /// ACKs processed.
    pub acks: u64,
    /// Early responses taken.
    pub early_responses: u32,
    /// ACKs whose response coin-flip came up "respond" but were suppressed
    /// by the once-per-RTT rule.
    pub suppressed: u32,
}

/// The per-flow PERT state machine, generic over the emulated AQM's
/// response [`Law`].
///
/// One is carried by every PERT connection, so the "no value yet" states
/// are sentinels rather than `Option`s: RTT samples are positive and
/// finite, which leaves 0, +∞ and −∞ free.
#[derive(Clone, Debug)]
pub struct PertController<L: Law = ResponseCurve> {
    pub(crate) law: L,
    /// History weight of the `srtt_0.99` filter.
    srtt_weight: f64,
    /// Multiplicative decrease factor of an early response.
    decrease_factor: f64,
    /// `srtt_0.99`, seconds; 0 before the first sample.
    srtt: f64,
    /// Lifetime minimum RTT, seconds; +∞ before the first sample.
    min_rtt: f64,
    /// Time before which early responses are suppressed (one RTT after the
    /// previous response — the paper limits early response to once per RTT
    /// because its effect is not visible sooner).
    hold_until: f64,
    /// Time of a loss response that arrived before the first RTT sample:
    /// its hold window cannot be sized yet, so it is deferred until the
    /// first sample defines what "one RTT" means. −∞ when none is pending.
    pending_loss: f64,
    rng: SmallRng,
    /// Regime code the hosting sender last reported (`REGIME_*`); tags
    /// `pert/response` records so traces can attribute each early response
    /// to slow start vs congestion avoidance.
    regime: u8,
    /// Activity counters.
    pub stats: PertStats,
    /// Differential oracle: straight-line §3 srtt/prop transcription,
    /// boxed so a controller built unaudited carries one
    /// pointer for it.
    shadow: Option<Box<PertReference>>,
    /// Telemetry key: the construction seed.
    tap_key: u64,
    /// Telemetry was on at construction and the law publishes: the
    /// controller publishes `pert/srtt`, `pert/qdelay` and `pert/prob` on
    /// every decision. `false` ⇒ zero-cost.
    tapped: bool,
}

impl PertController {
    /// Create a controller with `params`, drawing response coin flips from
    /// a deterministic RNG seeded with `seed`.
    pub fn new(params: PertParams, seed: u64) -> Self {
        Self::new_attached(params, seed, Attach::current())
    }

    /// [`PertController::new`], instrumented as `attach` says rather than
    /// as [`Attach::current`] says.
    pub fn new_attached(params: PertParams, seed: u64, attach: Attach) -> Self {
        Self::with_law(
            params.curve,
            params.srtt_weight,
            params.decrease_factor,
            seed,
            attach,
        )
    }
}

impl<L: Law> PertController<L> {
    /// A controller responding by `law`, with the shared filter weight and
    /// decrease factor, its shadow and taps attached as `attach` says.
    pub(crate) fn with_law(
        law: L,
        srtt_weight: f64,
        decrease_factor: f64,
        seed: u64,
        attach: Attach,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&srtt_weight),
            "srtt_weight must be in [0,1)"
        );
        assert!(
            decrease_factor > 0.0 && decrease_factor < 1.0,
            "decrease_factor must be in (0,1)"
        );
        PertController {
            law,
            srtt_weight,
            decrease_factor,
            srtt: 0.0,
            min_rtt: f64::INFINITY,
            hold_until: 0.0,
            pending_loss: f64::NEG_INFINITY,
            rng: SmallRng::seed_from_u64(seed ^ L::SALT),
            regime: REGIME_CONG_AVOID,
            stats: PertStats::default(),
            shadow: attach
                .audit
                .then(|| Box::new(PertReference::new(srtt_weight))),
            tap_key: seed,
            tapped: L::PUBLISHES && attach.telemetry,
        }
    }

    /// Update the RTT filters and the law without making a response
    /// decision. Use this for samples that arrive while the sender is
    /// already reacting to congestion (e.g. during loss recovery), so the
    /// `srtt_0.99` signal never goes stale.
    pub fn observe(&mut self, rtt: f64) {
        self.filter(rtt);
    }

    /// [`PertController::observe`], returning the new queuing-delay
    /// estimate `srtt − min_rtt`.
    fn filter(&mut self, rtt: f64) -> f64 {
        assert!(rtt > 0.0 && rtt.is_finite(), "invalid RTT sample {rtt}");
        self.stats.acks += 1;
        let w = self.srtt_weight;
        let srtt = match self.srtt() {
            None => rtt,
            Some(s) => w * s + (1.0 - w) * rtt,
        };
        self.srtt = srtt;
        self.min_rtt = self.min_rtt.min(rtt);
        if self.pending_loss > f64::NEG_INFINITY {
            // First sample after an unsampled loss: size its hold window now.
            self.hold_until = self.hold_until.max(self.pending_loss + srtt);
            self.pending_loss = f64::NEG_INFINITY;
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.on_sample(rtt);
            audit::count_oracle_checks(1);
            let (srtt, min_rtt) = (Some(srtt), Some(self.min_rtt));
            if !audit::close_opt(shadow.srtt(), srtt)
                || !audit::close_opt(shadow.min_rtt(), min_rtt)
            {
                audit::violation(
                    "pert-srtt",
                    format_args!(
                        "srtt diverged from §3 reference after ack #{}: \
                         srtt={:?} ref={:?}, min_rtt={:?} ref={:?}, sample={rtt}",
                        self.stats.acks,
                        srtt,
                        shadow.srtt(),
                        min_rtt,
                        shadow.min_rtt(),
                    ),
                );
            }
        }
        let qd = (srtt - self.min_rtt).max(0.0);
        self.law.sample(qd);
        qd
    }

    /// Feed the RTT sample from an arriving ACK at time `now` (seconds).
    /// Returns a decrease decision, at most once per RTT.
    pub fn on_ack(&mut self, now: f64, rtt: f64) -> Option<EarlyResponse> {
        let qd = self.filter(rtt);
        self.decide(now, qd, self.srtt)
    }

    /// Like [`PertController::on_ack`] but with an explicit hold window:
    /// after a response, further responses are suppressed for `hold`
    /// seconds. Used when the congestion signal is a one-way delay (§7) —
    /// the signal is roughly half an RTT, but responses must still be
    /// limited to once per *round trip*.
    pub fn on_ack_with_hold(
        &mut self,
        now: f64,
        delay_signal: f64,
        hold: f64,
    ) -> Option<EarlyResponse> {
        let qd = self.filter(delay_signal);
        self.decide(now, qd, hold)
    }

    /// The response decision at queuing delay `qd`; `filter` has just run.
    fn decide(&mut self, now: f64, qd: f64, hold: f64) -> Option<EarlyResponse> {
        let p = self.law.probability(qd);
        if self.tapped {
            let key = self.tap_key;
            telemetry::record_id(SeriesId::PERT_SRTT, key, now, self.srtt);
            telemetry::record_id(SeriesId::PERT_QDELAY, key, now, qd);
            telemetry::record_id(SeriesId::PERT_PROB, key, now, p);
        }
        if p <= 0.0 {
            return None;
        }
        if self.rng.gen::<f64>() >= p {
            return None;
        }
        if now < self.hold_until {
            self.stats.suppressed += 1;
            return None;
        }
        self.hold_until = now + hold;
        self.stats.early_responses += 1;
        if self.tapped {
            telemetry::record_id(
                SeriesId::PERT_RESPONSE,
                self.tap_key,
                now,
                encode_response(self.regime, p),
            );
        }
        Some(EarlyResponse {
            factor: self.decrease_factor,
        })
    }

    /// Tell the controller which regime the hosting sender is in
    /// (`REGIME_CONG_AVOID` / `REGIME_SLOW_START`), so the next early
    /// response record carries it. Cheap enough to call on every ACK.
    pub fn set_regime(&mut self, code: u8) {
        self.regime = code;
    }

    /// Tell the controller a loss-triggered (non-early) response happened,
    /// so that early responses are also suppressed for one RTT.
    ///
    /// A loss that arrives before the first RTT sample cannot size the
    /// window yet; it is remembered and applied when the first sample
    /// arrives (`hold_until = loss_time + first_srtt`), so the
    /// once-per-RTT rule holds from the very first loss instead of
    /// collapsing to a zero-length window.
    pub fn on_loss_response(&mut self, now: f64) {
        match self.srtt() {
            Some(rtt) => self.hold_until = self.hold_until.max(now + rtt),
            None => self.pending_loss = self.pending_loss.max(now),
        }
    }

    /// Current smoothed RTT (`srtt_0.99`), seconds.
    pub fn srtt(&self) -> Option<f64> {
        (self.srtt > 0.0).then_some(self.srtt)
    }

    /// Current propagation-delay estimate (minimum RTT), seconds.
    pub fn min_rtt(&self) -> Option<f64> {
        self.min_rtt.is_finite().then_some(self.min_rtt)
    }

    /// Current queuing-delay estimate `srtt − min_rtt`, seconds.
    pub fn queuing_delay(&self) -> Option<f64> {
        Some((self.srtt()? - self.min_rtt()?).max(0.0))
    }

    /// The law's current response probability, at zero queuing delay
    /// before the first sample.
    pub fn probability(&self) -> f64 {
        self.law.probability(self.queuing_delay().unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_response_at_base_rtt() {
        let mut c = PertController::new(PertParams::default(), 1);
        for i in 0..10_000 {
            assert_eq!(c.on_ack(i as f64 * 0.01, 0.060), None);
        }
        assert_eq!(c.stats.early_responses, 0);
    }

    #[test]
    fn responds_under_sustained_queuing_delay() {
        let mut c = PertController::new(PertParams::default(), 1);
        // Establish the propagation estimate.
        c.on_ack(0.0, 0.060);
        // Sustained 30 ms of queuing delay → srtt converges above T_max,
        // responses must start.
        let mut responses = 0;
        for i in 1..20_000 {
            if c.on_ack(i as f64 * 0.001, 0.090).is_some() {
                responses += 1;
            }
        }
        assert!(responses > 0, "no early response under heavy queuing");
        assert_eq!(c.stats.early_responses, responses);
    }

    #[test]
    fn at_most_one_response_per_rtt() {
        let mut c = PertController::new(PertParams::default(), 1);
        c.on_ack(0.0, 0.060);
        // Saturate the curve (qd far beyond 2·T_max → p = 1 eventually).
        let mut times = Vec::new();
        let mut now = 0.0;
        for _ in 0..50_000 {
            now += 0.0002; // 5000 ACKs per second
            if c.on_ack(now, 0.200).is_some() {
                times.push((now, c.srtt().unwrap()));
            }
        }
        assert!(times.len() > 1);
        for w in times.windows(2) {
            let (t0, srtt0) = w[0];
            let (t1, _) = w[1];
            assert!(
                t1 - t0 >= srtt0 - 1e-9,
                "responses {t0} and {t1} closer than one RTT ({srtt0})"
            );
        }
        assert!(c.stats.suppressed > 0);
    }

    #[test]
    fn decrease_factor_propagates() {
        let params = PertParams {
            decrease_factor: 0.5,
            ..Default::default()
        };
        let mut c = PertController::new(params, 3);
        c.on_ack(0.0, 0.060);
        let mut got = None;
        for i in 1..100_000 {
            if let Some(r) = c.on_ack(i as f64 * 0.001, 0.300) {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some(EarlyResponse { factor: 0.5 }));
    }

    #[test]
    fn loss_response_suppresses_early_response() {
        let mut c = PertController::new(PertParams::default(), 1);
        c.on_ack(0.0, 0.060);
        // Drive srtt high.
        let mut now = 0.0;
        for _ in 0..5_000 {
            now += 0.001;
            c.on_ack(now, 0.300);
        }
        c.on_loss_response(now);
        let hold = now + c.srtt().unwrap();
        // No early response until one RTT has passed.
        while now < hold - 0.002 {
            now += 0.001;
            assert_eq!(c.on_ack(now, 0.300), None);
        }
    }

    #[test]
    fn loss_before_first_sample_still_suppresses_for_one_rtt() {
        let mut c = PertController::new(PertParams::default(), 1);
        // A loss response arrives before any RTT sample exists (e.g. a SYN
        // or first-window segment is lost)…
        c.on_loss_response(0.0);
        // …then the first sample (500 ms) arrives and defines "one RTT":
        // the hold window must end at 0.0 + 0.5, not collapse to zero.
        assert_eq!(c.on_ack(0.001, 0.500), None); // qd = 0 at the first sample
                                                  // A low propagation floor appears while srtt stays high, so
                                                  // srtt − min_rtt saturates the response curve immediately — only
                                                  // the hold window can now stand between the controller and an
                                                  // early response.
        let mut now = 0.002;
        assert_eq!(c.on_ack(now, 0.050), None);
        let mut first = None;
        while now < 1.0 {
            now += 0.001;
            if c.on_ack(now, 0.300).is_some() {
                first = Some(now);
                break;
            }
        }
        let first = first.expect("saturated curve must respond once the hold expires");
        assert!(
            first >= 0.5 - 1e-9,
            "early response at {first}, inside the first-RTT hold window"
        );
        assert!(
            c.stats.suppressed > 0,
            "hold window never suppressed anything"
        );
    }

    #[test]
    fn queuing_delay_estimate() {
        let mut c = PertController::new(PertParams::default(), 1);
        assert_eq!(c.queuing_delay(), None);
        c.on_ack(0.0, 0.060);
        assert!(c.queuing_delay().unwrap() < 1e-12);
        for i in 1..50_000 {
            c.on_ack(i as f64 * 0.001, 0.080);
        }
        let qd = c.queuing_delay().unwrap();
        assert!((qd - 0.020).abs() < 0.001, "qd = {qd}");
    }

    #[test]
    fn response_rate_tracks_curve_probability() {
        // With qd pinned mid-ramp and the once-per-RTT rule relaxed by
        // spacing ACKs a full RTT apart, the empirical response rate should
        // approximate the curve's probability.
        let params = PertParams::default();
        let mut c = PertController::new(params, 7);
        c.on_ack(0.0, 0.060);
        // Converge srtt to 60 ms + 7.5 ms queuing delay → p = 0.025.
        let mut now = 0.0;
        for _ in 0..200_000 {
            now += 0.001;
            c.on_ack(now, 0.0675);
        }
        let expect = params.curve.probability(c.queuing_delay().unwrap());
        let mut hits = 0;
        let trials = 20_000;
        for _ in 0..trials {
            now += 1.0; // far beyond the hold window
            if c.on_ack(now, 0.0675).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate} vs curve {expect}"
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut c = PertController::new(PertParams::default(), 99);
            let mut out = Vec::new();
            for i in 0..5_000 {
                out.push(c.on_ack(i as f64 * 0.001, 0.100).is_some());
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid RTT")]
    fn rejects_nonpositive_rtt() {
        let mut c = PertController::new(PertParams::default(), 1);
        c.on_ack(0.0, 0.0);
    }

    #[test]
    fn response_encoding_round_trips() {
        for regime in [REGIME_CONG_AVOID, REGIME_SLOW_START] {
            for p in [0.0, 0.0001, 0.025, 0.5, 0.99995, 1.0] {
                let (r, bp) = decode_response(encode_response(regime, p));
                assert_eq!(r, regime);
                assert_eq!(bp, (p * 10_000.0).round() as u32, "p={p}");
            }
        }
        // Legacy plain-1.0 records stay decodable.
        assert_eq!(decode_response(1.0), (REGIME_CONG_AVOID, 1));
        // Out-of-range probabilities clamp instead of bleeding into the
        // regime field.
        assert_eq!(decode_response(encode_response(1, 7.5)), (1, 10_000));
    }

    /// FNV-1a over the little-endian bytes of one word.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The controller's observable behaviour over a fixed stream, pinned
    /// as a literal so that no change to how its state is stored can move
    /// a result: two losses before the first sample (the deferred hold
    /// keeps the later), a base-RTT phase, a sustained mid-ramp queue, a
    /// saturated queue, a drain, periodic loss holds and recovery-time
    /// `observe` calls, for an RTT-driven controller and for a one-way-
    /// delay one driven through `on_ack_with_hold`. Every response's ACK
    /// index and factor, `srtt()` and `min_rtt()` after every ACK, and the
    /// final `stats` enter the hash.
    #[test]
    fn behaviour_fingerprint_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        for owd in [false, true] {
            let mut c = PertController::new(PertParams::default(), 2024);
            c.on_loss_response(0.0005);
            c.on_loss_response(0.0002);
            let mut now = 0.0;
            for i in 0..50_000u64 {
                now += 0.0005;
                let rtt = match i {
                    0..2_000 => 0.060 + 0.002 * ((i % 10) as f64 / 10.0),
                    2_000..30_000 => 0.072 + 0.004 * ((i % 13) as f64 / 13.0),
                    30_000..40_000 => 0.200,
                    _ => 0.065,
                };
                let resp = if owd {
                    c.on_ack_with_hold(now, rtt / 2.0, rtt)
                } else {
                    c.on_ack(now, rtt)
                };
                if let Some(r) = resp {
                    fnv(&mut h, i);
                    fnv(&mut h, r.factor.to_bits());
                }
                if i % 3_000 == 2_999 {
                    c.on_loss_response(now);
                }
                if i % 17 == 0 {
                    c.observe(if owd { rtt / 2.0 } else { rtt });
                }
                fnv(&mut h, opt(c.srtt()));
                fnv(&mut h, opt(c.min_rtt()));
            }
            // 212 responses and 21 437 suppressed on RTT, 164 and 10 486
            // on one-way delay.
            fnv(&mut h, c.stats.acks);
            fnv(&mut h, c.stats.early_responses.into());
            fnv(&mut h, c.stats.suppressed.into());
        }
        assert_eq!(
            h, 0x5334_ea1e_af0d_8c09,
            "PERT controller behaviour changed"
        );
    }
}
