//! Congestion-control algorithms pluggable into the TCP sender
//! ([`crate::sender`]).
//!
//! The sender owns the mechanical parts of TCP (SACK scoreboard, loss
//! recovery, RTO); a [`CcAlgorithm`] decides how the window grows on ACKs
//! and whether to take *early* (delay-triggered) reductions:
//!
//! * [`Reno`] — AIMD with slow start; the window-growth core of the
//!   paper's SACK baseline,
//! * [`Vegas`] — Brakmo & Peterson's delay-based additive adjustment,
//! * [`PertCc`] — Reno growth plus the probabilistic early response of
//!   [`pert_core::PertController`], under any of its response laws:
//!   gentle RED (PERT, on the RTT or, for `pert-owd`, the one-way delay),
//!   PI (PERT/PI, §6) or REM (PERT/REM, the paper's §8 "other AQM
//!   schemes" generalization).
//!
//! A connection holds its algorithm in the closed enum `Cc`, inline in the
//! flow's cold state; [`crate::Cubic`] and [`crate::Bbr`] complete the zoo.

use std::ops::{Deref, DerefMut};

use pert_core::pert::{Law, PertController, PertParams};
use pert_core::pi::PiLaw;
use pert_core::rem::RemLaw;
use pert_core::ResponseCurve;

use crate::bbr::Bbr;
use crate::cubic::Cubic;

/// Per-ACK information handed to the congestion-control algorithm.
#[derive(Debug)]
pub struct CcContext<'a> {
    /// Current time, seconds.
    pub now: f64,
    /// RTT sample from this ACK, seconds.
    pub rtt: f64,
    /// Forward one-way delay sample echoed by the receiver, seconds.
    pub owd: f64,
    /// Segments newly acknowledged by this ACK (0 on a pure duplicate).
    pub newly_acked: u64,
    /// Segments currently in flight (RFC 6675 pipe: sent, not yet
    /// cumulatively acked, SACKed, or declared lost), *after* this ACK's
    /// scoreboard bookkeeping.
    pub in_flight: u64,
    /// Congestion window, segments (mutable — algorithms grow it here).
    pub cwnd: &'a mut f64,
    /// Slow-start threshold, segments.
    pub ssthresh: &'a mut f64,
}

impl CcContext<'_> {
    /// Standard Reno growth: slow start below `ssthresh`, else 1/cwnd per
    /// acked segment.
    ///
    /// RFC 5681 §3.1: a stretch ACK that carries `cwnd` across `ssthresh`
    /// is split at the crossover — only the segments below the threshold
    /// get exponential credit; the remainder grows linearly. (The old
    /// code applied full slow-start growth to the entire ACK, letting one
    /// cumulative ACK overshoot `ssthresh` by up to `newly_acked − 1`
    /// segments.)
    pub fn reno_increase(&mut self) {
        let mut remaining = self.newly_acked as f64;
        if *self.cwnd < *self.ssthresh {
            let room = *self.ssthresh - *self.cwnd;
            let exp = remaining.min(room);
            *self.cwnd += exp;
            remaining -= exp;
        }
        if remaining > 0.0 && *self.cwnd > 0.0 {
            *self.cwnd += remaining / *self.cwnd;
        }
    }
}

/// What the algorithm wants beyond its own `cwnd` edits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CcAction {
    /// Nothing extra.
    None,
    /// Take an early (delay-triggered) multiplicative decrease:
    /// `cwnd ← (1 − factor)·cwnd`, without entering loss recovery.
    EarlyReduce {
        /// The decrease factor in (0, 1).
        factor: f64,
    },
}

/// A congestion-control algorithm.
pub trait CcAlgorithm: Send {
    /// Short name for reports ("sack", "vegas", "pert", "pert-pi").
    fn name(&self) -> &'static str;

    /// Process an ACK (called outside loss recovery only).
    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction;

    /// The sender performed a loss/ECN-triggered reduction at `now`
    /// (lets delay-based schemes suppress early responses for an RTT).
    fn on_congestion(&mut self, _now: f64) {}

    /// Richer congestion notification: the window at the moment of the
    /// event and the current pipe. Schemes that track `w_max`
    /// (CUBIC) or run their own recovery arithmetic override this; the
    /// default forwards to [`CcAlgorithm::on_congestion`] so legacy
    /// schemes are unaffected.
    fn on_congestion_event(&mut self, now: f64, _cwnd_at_event: f64, _in_flight: u64) {
        self.on_congestion(now);
    }

    /// When true, the sender leaves `cwnd` alone on recovery entry and
    /// lets the algorithm drive the in-recovery window through
    /// [`CcAlgorithm::on_recovery_start`] / [`CcAlgorithm::on_recovery_ack`]
    /// (e.g. CUBIC's proportional-rate reduction, BBR's inflight cap).
    /// `ssthresh` is still set to `(1 − loss_reduction)·cwnd` by the
    /// sender before these hooks run.
    fn governs_recovery(&self) -> bool {
        false
    }

    /// The sender just entered loss recovery (fast retransmit, not RTO).
    /// `in_flight` is the pipe after the triggering ACK's scoreboard
    /// bookkeeping.
    fn on_recovery_start(&mut self, _now: f64, _in_flight: u64) {}

    /// An ACK arrived while the sender is in loss recovery. The default
    /// reproduces the sender's historical hardwired rule: keep slow-start
    /// growth if still below `ssthresh`, otherwise hold the window.
    fn on_recovery_ack(&mut self, ctx: &mut CcContext<'_>) {
        if *ctx.cwnd < *ctx.ssthresh {
            *ctx.cwnd += ctx.newly_acked as f64;
        }
    }

    /// The cumulative ACK crossed the recovery point: recovery is over.
    fn on_recovery_exit(&mut self, _ctx: &mut CcContext<'_>) {}

    /// Pacing rate in segments/second, if this scheme paces (BBR). `None`
    /// (the default) keeps the sender's pure window-driven send loop.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    /// An RTT (and one-way-delay) sample observed while the sender is in
    /// loss recovery (when [`CcAlgorithm::on_ack`] is not called).
    /// Delay-based schemes keep their filters fresh here; loss-based
    /// schemes ignore it.
    fn on_rtt_sample(&mut self, _now: f64, _rtt: f64, _owd: f64) {}

    /// Multiplicative decrease factor for loss/ECN events (default: halve).
    fn loss_reduction(&self) -> f64 {
        0.5
    }

    /// Early (delay-triggered) reductions taken so far.
    fn early_reductions(&self) -> u64 {
        0
    }
}

/// Plain Reno/SACK growth: the loss-based baseline.
#[derive(Debug, Default)]
pub struct Reno;

impl Reno {
    /// Create a Reno algorithm.
    pub fn new() -> Self {
        Reno
    }
}

impl CcAlgorithm for Reno {
    fn name(&self) -> &'static str {
        "sack"
    }
    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction {
        ctx.reno_increase();
        CcAction::None
    }
}

/// TCP Vegas (Brakmo & Peterson 1994; ns-2's `TCP/Vegas`): once per RTT,
/// estimate the backlog `diff = cwnd·(rtt − base)/rtt` and additively
/// adjust so that `alpha ≤ diff ≤ beta`. Slow start doubles every *other*
/// RTT and ends when `diff > gamma`.
#[derive(Debug)]
pub struct Vegas {
    /// Lower backlog target (segments), default 1.
    pub alpha: f64,
    /// Upper backlog target (segments), default 3.
    pub beta: f64,
    /// Slow-start exit threshold (segments), default 1.
    pub gamma: f64,
    base_rtt: Option<f64>,
    epoch_end: f64,
    grow_this_epoch: bool,
}

impl Vegas {
    /// Vegas with the canonical (α, β, γ) = (1, 3, 1).
    pub fn new() -> Self {
        Vegas {
            alpha: 1.0,
            beta: 3.0,
            gamma: 1.0,
            base_rtt: None,
            epoch_end: 0.0,
            grow_this_epoch: true,
        }
    }

    /// Backlog estimate for the given window and RTTs.
    fn diff(cwnd: f64, rtt: f64, base: f64) -> f64 {
        cwnd * (rtt - base) / rtt.max(1e-9)
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CcAlgorithm for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction {
        let base = match self.base_rtt {
            None => {
                self.base_rtt = Some(ctx.rtt);
                ctx.rtt
            }
            Some(b) => {
                let b = b.min(ctx.rtt);
                self.base_rtt = Some(b);
                b
            }
        };

        let in_slow_start = *ctx.cwnd < *ctx.ssthresh;
        if in_slow_start {
            // Grow by one segment per acked segment, every other RTT.
            if self.grow_this_epoch {
                *ctx.cwnd += ctx.newly_acked as f64;
            }
        }

        if ctx.now >= self.epoch_end {
            self.epoch_end = ctx.now + ctx.rtt;
            let diff = Self::diff(*ctx.cwnd, ctx.rtt, base);
            if in_slow_start {
                self.grow_this_epoch = !self.grow_this_epoch;
                if diff > self.gamma {
                    // Exit slow start: fall back by 1/8 as Vegas does.
                    //
                    // ns-2's `TCP/Vegas` sets `ssthresh_ = 2` here (not
                    // `ssthresh = cwnd`, which our old code did): pinning
                    // ssthresh low keeps the flow in congestion avoidance
                    // even after a later `diff > beta` decrement, instead
                    // of re-entering the doubling-every-other-RTT slow
                    // start. Also re-arm `grow_this_epoch` so a future
                    // legitimate slow start (post-RTO) begins on a growth
                    // epoch.
                    *ctx.cwnd = (*ctx.cwnd * 7.0 / 8.0).max(2.0);
                    *ctx.ssthresh = 2.0;
                    self.grow_this_epoch = true;
                }
            } else if diff < self.alpha {
                *ctx.cwnd += 1.0;
            } else if diff > self.beta {
                *ctx.cwnd = (*ctx.cwnd - 1.0).max(2.0);
            }
        }
        CcAction::None
    }
}

/// Which delay signal drives PERT's congestion prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelaySignal {
    /// Round-trip time (the paper's main design; reacts to congestion in
    /// either direction).
    Rtt,
    /// Forward one-way delay (the §7 variant; blind to reverse-path
    /// congestion). Response suppression still spans one full RTT.
    OneWayDelay,
}

/// PERT: Reno growth plus the early response of a [`PertController`], for
/// any of its response laws: gentle RED (`PertCc`, the paper's PERT),
/// PI (`PertCc<PiLaw>`, PERT/PI) or REM (`PertCc<RemLaw>`, PERT/REM).
#[derive(Debug)]
pub struct PertCc<L: Law = ResponseCurve> {
    ctl: PertController<L>,
    signal: DelaySignal,
}

impl PertCc {
    /// PERT with the paper's default parameters (RTT signal).
    pub fn new(seed: u64) -> Self {
        Self::around(PertController::new(PertParams::default(), seed))
    }

    /// PERT driven by `signal`: the forward one-way delay is §7's
    /// reverse-traffic remedy.
    pub fn with_signal(params: PertParams, signal: DelaySignal, seed: u64) -> Self {
        PertCc {
            ctl: PertController::new(params, seed),
            signal,
        }
    }
}

impl<L: Law> PertCc<L> {
    /// Reno growth around `ctl`, driven by the RTT.
    pub fn around(ctl: PertController<L>) -> Self {
        PertCc {
            ctl,
            signal: DelaySignal::Rtt,
        }
    }

    /// The configured signal.
    pub fn signal(&self) -> DelaySignal {
        self.signal
    }
}

impl<L: Law + Send> CcAlgorithm for PertCc<L> {
    fn name(&self) -> &'static str {
        match self.signal {
            DelaySignal::Rtt => L::NAME,
            DelaySignal::OneWayDelay => "pert-owd",
        }
    }

    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction {
        ctx.reno_increase();
        // Tag any response this ACK triggers with the sender's growth
        // regime (`pert/response` telemetry carries it).
        self.ctl.set_regime(if *ctx.cwnd < *ctx.ssthresh {
            pert_core::pert::REGIME_SLOW_START
        } else {
            pert_core::pert::REGIME_CONG_AVOID
        });
        let resp = match self.signal {
            DelaySignal::Rtt => self.ctl.on_ack(ctx.now, ctx.rtt),
            DelaySignal::OneWayDelay => self.ctl.on_ack_with_hold(ctx.now, ctx.owd, ctx.rtt),
        };
        match resp {
            Some(resp) => CcAction::EarlyReduce {
                factor: resp.factor,
            },
            None => CcAction::None,
        }
    }

    fn on_congestion(&mut self, now: f64) {
        self.ctl.on_loss_response(now);
    }

    fn on_rtt_sample(&mut self, _now: f64, rtt: f64, owd: f64) {
        match self.signal {
            DelaySignal::Rtt => self.ctl.observe(rtt),
            DelaySignal::OneWayDelay => self.ctl.observe(owd),
        }
    }

    fn early_reductions(&self) -> u64 {
        self.ctl.stats.early_responses.into()
    }
}

/// A connection's congestion control, one variant per scheme of the zoo.
/// Every connection carries one inline, so a variant is never larger than
/// the PERT controller it sits beside: the PI and REM laws, CUBIC and BBR
/// are larger and stay boxed, and a PERT row does not pay for them. The
/// sender reaches the algorithm through [`CcAlgorithm`] by dereference.
pub(crate) enum Cc {
    Reno(Reno),
    Vegas(Vegas),
    Pert(PertCc),
    PertPi(Box<PertCc<PiLaw>>),
    PertRem(Box<PertCc<RemLaw>>),
    Cubic(Box<Cubic>),
    Bbr(Box<Bbr>),
}

impl Deref for Cc {
    type Target = dyn CcAlgorithm;

    fn deref(&self) -> &Self::Target {
        match self {
            Cc::Reno(a) => a,
            Cc::Vegas(a) => a,
            Cc::Pert(a) => a,
            Cc::PertPi(a) => a.as_ref(),
            Cc::PertRem(a) => a.as_ref(),
            Cc::Cubic(a) => a.as_ref(),
            Cc::Bbr(a) => a.as_ref(),
        }
    }
}

impl DerefMut for Cc {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Cc::Reno(a) => a,
            Cc::Vegas(a) => a,
            Cc::Pert(a) => a,
            Cc::PertPi(a) => a.as_mut(),
            Cc::PertRem(a) => a.as_mut(),
            Cc::Cubic(a) => a.as_mut(),
            Cc::Bbr(a) => a.as_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new();
        let mut cwnd = 2.0;
        let mut ssthresh = 64.0;
        // One RTT worth of ACKs: 2 ACKs each acking 1 segment.
        for _ in 0..2 {
            let mut ctx = CcContext {
                now: 0.0,
                rtt: 0.1,
                owd: 0.05,
                newly_acked: 1,
                in_flight: 0,
                cwnd: &mut cwnd,
                ssthresh: &mut ssthresh,
            };
            cc.on_ack(&mut ctx);
        }
        assert_eq!(cwnd, 4.0);
    }

    #[test]
    fn reno_congestion_avoidance_grows_one_per_rtt() {
        let mut cc = Reno::new();
        let mut cwnd = 10.0;
        let mut ssthresh = 5.0;
        for _ in 0..10 {
            let mut ctx = CcContext {
                now: 0.0,
                rtt: 0.1,
                owd: 0.05,
                newly_acked: 1,
                in_flight: 0,
                cwnd: &mut cwnd,
                ssthresh: &mut ssthresh,
            };
            cc.on_ack(&mut ctx);
        }
        // 10 acks at cwnd≈10: ~+1 segment.
        assert!((cwnd - 11.0).abs() < 0.05, "cwnd = {cwnd}");
    }

    #[test]
    fn vegas_increases_when_below_alpha() {
        let mut cc = Vegas::new();
        let mut cwnd = 10.0;
        let mut ssthresh = 5.0; // already in CA
                                // First ack sets base = 0.1.
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        // Next epoch with rtt == base → diff 0 < alpha → +1.
        let before = cwnd;
        let mut ctx = CcContext {
            now: 0.2,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        assert_eq!(cwnd, before + 1.0);
    }

    #[test]
    fn vegas_decreases_when_above_beta() {
        let mut cc = Vegas::new();
        let mut cwnd = 10.0;
        let mut ssthresh = 5.0;
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        // rtt 0.2 with base 0.1: diff = 10·0.5 = 5 > beta → −1.
        let before = cwnd;
        let mut ctx = CcContext {
            now: 0.2,
            rtt: 0.2,
            owd: 0.1,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        assert_eq!(cwnd, before - 1.0);
    }

    #[test]
    fn vegas_holds_inside_band() {
        let mut cc = Vegas::new();
        let mut cwnd = 10.0;
        let mut ssthresh = 5.0;
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx); // first epoch: diff 0 < α → cwnd = 11
                             // diff = 11·(0.12−0.1)/0.12 ≈ 1.83 ∈ (1, 3) → hold.
        let before = cwnd;
        let mut ctx = CcContext {
            now: 0.2,
            rtt: 0.12,
            owd: 0.06,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        assert_eq!(cwnd, before);
    }

    #[test]
    fn pert_grows_like_reno_and_reduces_early() {
        let mut cc = PertCc::new(11);
        let mut cwnd = 10.0;
        let mut ssthresh = 5.0;
        // Base RTT.
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.06,
            owd: 0.03,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        assert_eq!(cc.on_ack(&mut ctx), CcAction::None);
        // Sustained large queuing delay: eventually EarlyReduce appears.
        let mut saw_reduce = false;
        let mut now = 0.0;
        for _ in 0..100_000 {
            now += 0.001;
            let mut ctx = CcContext {
                now,
                rtt: 0.2,
                owd: 0.1,
                newly_acked: 1,
                in_flight: 0,
                cwnd: &mut cwnd,
                ssthresh: &mut ssthresh,
            };
            if let CcAction::EarlyReduce { factor } = cc.on_ack(&mut ctx) {
                assert!((factor - 0.35).abs() < 1e-12);
                saw_reduce = true;
                break;
            }
        }
        assert!(saw_reduce);
        assert_eq!(cc.early_reductions(), 1);
    }

    #[test]
    fn stretch_ack_splits_growth_at_ssthresh_crossover() {
        // RFC 5681 §3.1: a stretch ACK for 8 segments with cwnd = 6 and
        // ssthresh = 10 gets 4 segments of exponential credit (up to the
        // threshold) and the remaining 4 as linear growth from the
        // threshold: cwnd = 10 + 4/10, not 14.
        let mut cwnd = 6.0;
        let mut ssthresh = 10.0;
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 8,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        ctx.reno_increase();
        assert!((cwnd - 10.4).abs() < 1e-12, "cwnd = {cwnd}");

        // Entirely below the threshold: pure slow start, unchanged.
        let mut cwnd = 2.0;
        let mut ssthresh = 64.0;
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 3,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        ctx.reno_increase();
        assert_eq!(cwnd, 5.0);
    }

    #[test]
    fn vegas_slow_start_exit_pins_ssthresh_and_stays_in_ca() {
        let mut cc = Vegas::new();
        let mut cwnd = 32.0;
        let mut ssthresh = 64.0; // slow start
        let mut ctx = CcContext {
            now: 0.0,
            rtt: 0.1,
            owd: 0.05,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx); // base = 0.1, epoch armed
                             // Next epoch: rtt 0.2 → diff = cwnd·0.5 ≫ γ → exit.
        let mut ctx = CcContext {
            now: 0.2,
            rtt: 0.2,
            owd: 0.1,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        // ns-2 semantics: cwnd falls back by 1/8, ssthresh pins at 2.
        assert!(cwnd < 32.0, "cwnd should fall back, got {cwnd}");
        assert_eq!(ssthresh, 2.0);
        // Later epochs must behave as congestion avoidance (±1/RTT), never
        // the every-other-RTT doubling the old ssthresh=cwnd code allowed
        // after a beta decrement dropped cwnd back under ssthresh.
        let before = cwnd;
        let mut ctx = CcContext {
            now: 0.5,
            rtt: 0.2,
            owd: 0.1,
            newly_acked: 4,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_ack(&mut ctx);
        assert!(
            cwnd >= before - 1.0 - 1e-9 && cwnd <= before + 1.0 + 1e-9,
            "CA adjustment expected, got {before} -> {cwnd}"
        );
        assert_eq!(ssthresh, 2.0);
    }

    /// PERT/PI and PERT/REM around a law that saturates under a 240 ms
    /// queuing delay.
    fn pi_and_rem() -> [Box<dyn CcAlgorithm>; 2] {
        use pert_core::pi::PertPiParams;
        use pert_core::rem::PertRemParams;
        let pi = PertPiParams::from_router_pi(1.822e-5, 1.816e-5, 12_500.0, 0.003);
        let rem = PertRemParams {
            phi: 2.0,
            ..Default::default()
        };
        [
            Box::new(PertCc::around(PertController::pi(pi, 5))),
            Box::new(PertCc::around(PertController::rem(rem, 5))),
        ]
    }

    /// One ACK of one segment; true if it triggers an early reduction.
    fn reduces(cc: &mut dyn CcAlgorithm, now: f64, rtt: f64) -> bool {
        let (mut cwnd, mut ssthresh) = (100.0, 50.0);
        let mut ctx = CcContext {
            now,
            rtt,
            owd: rtt / 2.0,
            newly_acked: 1,
            in_flight: 0,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        matches!(cc.on_ack(&mut ctx), CcAction::EarlyReduce { .. })
    }

    #[test]
    fn pi_and_rem_hold_early_responses_for_one_rtt_after_a_loss() {
        for mut cc in pi_and_rem() {
            let cc = cc.as_mut();
            let mut now = 0.0;
            reduces(cc, now, 0.060);
            for _ in 0..20_000 {
                now += 0.001;
                reduces(cc, now, 0.300);
            }
            // srtt has converged to 300 ms. A loss half-way through the
            // hold of an early response pushes the next one a full RTT
            // past the loss.
            while !reduces(cc, now, 0.300) {
                now += 0.001;
            }
            let loss = now + 0.150;
            while now < loss {
                now += 0.001;
                assert!(
                    !reduces(cc, now, 0.300),
                    "{}: response in its own hold",
                    cc.name()
                );
            }
            cc.on_congestion(loss);
            while !reduces(cc, now, 0.300) {
                now += 0.001;
            }
            assert!(
                now >= loss + 0.299,
                "{}: early response {} s after a loss",
                cc.name(),
                now - loss
            );
            assert!(
                now < loss + 0.31,
                "{}: saturated law never responded",
                cc.name()
            );
        }
    }

    #[test]
    fn pi_and_rem_hold_a_loss_before_the_first_sample_for_one_rtt() {
        for mut cc in pi_and_rem() {
            let cc = cc.as_mut();
            cc.on_congestion(0.0);
            // The first sample (500 ms) sizes the hold; then a 50 ms floor
            // puts the queuing-delay estimate far above either target.
            assert!(!reduces(cc, 0.001, 0.500));
            assert!(!reduces(cc, 0.002, 0.050));
            let mut now = 0.002;
            let first = loop {
                now += 0.001;
                if reduces(cc, now, 0.300) {
                    break now;
                }
                assert!(now < 1.0, "{}: never responded", cc.name());
            };
            assert!(
                first >= 0.5 - 1e-9,
                "{}: early response at {first}, inside the first-RTT hold",
                cc.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        use pert_core::pi::PertPiParams;
        use pert_core::rem::PertRemParams;
        use std::collections::HashSet;
        let pi = PertPiParams::from_router_pi(1.822e-5, 1.816e-5, 1000.0, 0.003);
        let names: HashSet<&str> = [
            Reno::new().name(),
            Vegas::new().name(),
            PertCc::new(0).name(),
            PertCc::with_signal(PertParams::default(), DelaySignal::OneWayDelay, 0).name(),
            PertCc::around(PertController::pi(pi, 0)).name(),
            PertCc::around(PertController::rem(PertRemParams::default(), 0)).name(),
            Cubic::new(0).name(),
            Bbr::new(0).name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 8);
    }
}
