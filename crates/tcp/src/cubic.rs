//! CUBIC congestion control (RFC 9438) with HyStart++-style hybrid slow
//! start (RFC 9406) and proportional-rate reduction (RFC 6937) during
//! fast recovery — the modern loss-based baseline PERT competes against.
//!
//! Structure follows quiche's `recovery/congestion` split: the cubic
//! window function itself, a hybrid-slow-start probe that watches for
//! delay increases and compressed ACK trains, and PRR to pace the window
//! down during recovery instead of halving instantly. The window
//! arithmetic is cross-checked each ACK against the straight-line
//! [`CubicReference`] transcription under `--audit`.

use pert_core::audit;
use pert_core::reference::CubicReference;
use pert_core::telemetry;
use pert_core::Attach;

use crate::cc::{CcAction, CcAlgorithm, CcContext};

/// RFC 9438 cubic scaling constant `C`.
const CUBIC_C: f64 = 0.4;
/// RFC 9438 multiplicative-decrease factor `β`.
const CUBIC_BETA: f64 = 0.7;

/// HyStart++ needs this many RTT samples in a round before the delay
/// test may fire (RFC 9406 `N_RTT_SAMPLE`).
const HYSTART_MIN_SAMPLES: u32 = 8;
/// Delay-increase exit threshold `η = clamp(last_min/8, 4 ms, 16 ms)`.
const HYSTART_ETA_MIN: f64 = 0.004;
const HYSTART_ETA_MAX: f64 = 0.016;
/// ACKs closer together than this extend the current ACK train.
const HYSTART_ACK_SPACING: f64 = 0.002;

/// Hybrid-slow-start probe: time-based rounds of one smoothed RTT each;
/// exit slow start when either the per-round minimum RTT rises by `η`
/// over the previous round, or a compressed ACK train spans half the
/// previous round's minimum RTT (the original HyStart train heuristic).
#[derive(Clone, Copy, Debug)]
struct Hystart {
    /// Armed while the flow has not yet exited via HyStart (re-armed on
    /// congestion so a post-RTO slow start gets a fresh probe).
    armed: bool,
    round_end: f64,
    last_round_min: Option<f64>,
    cur_round_min: f64,
    cur_samples: u32,
    last_ack_at: f64,
    train_len: f64,
}

impl Hystart {
    fn new() -> Self {
        Hystart {
            armed: true,
            round_end: 0.0,
            last_round_min: None,
            cur_round_min: f64::INFINITY,
            cur_samples: 0,
            last_ack_at: f64::NEG_INFINITY,
            train_len: 0.0,
        }
    }

    fn rearm(&mut self) {
        *self = Hystart::new();
    }

    /// Fold in one slow-start ACK; returns true when slow start should
    /// end now.
    fn on_ack(&mut self, now: f64, rtt: f64) -> bool {
        if !self.armed {
            return false;
        }
        if now >= self.round_end {
            if self.cur_samples > 0 {
                self.last_round_min = Some(self.cur_round_min);
            }
            self.cur_round_min = f64::INFINITY;
            self.cur_samples = 0;
            self.train_len = 0.0;
            self.round_end = now + rtt;
        }
        self.cur_round_min = self.cur_round_min.min(rtt);
        self.cur_samples += 1;
        let gap = now - self.last_ack_at;
        if gap < HYSTART_ACK_SPACING {
            self.train_len += gap;
        } else {
            self.train_len = 0.0;
        }
        self.last_ack_at = now;

        let Some(last_min) = self.last_round_min else {
            return false;
        };
        let eta = (last_min / 8.0).clamp(HYSTART_ETA_MIN, HYSTART_ETA_MAX);
        let delay_exit =
            self.cur_samples >= HYSTART_MIN_SAMPLES && self.cur_round_min >= last_min + eta;
        let train_exit = self.train_len >= last_min / 2.0;
        if delay_exit || train_exit {
            self.armed = false;
            return true;
        }
        false
    }
}

/// Proportional-rate reduction bookkeeping (RFC 6937). Activated on fast
/// recovery entry, never after an RTO (post-RTO recovery is plain slow
/// start from one segment).
#[derive(Clone, Copy, Debug, Default)]
struct Prr {
    active: bool,
    /// Segments delivered to the receiver since recovery began.
    delivered: u64,
    /// Segments our arithmetic has authorized for transmission.
    out: u64,
    /// Pipe size when recovery began (`RecoverFS`).
    recover_fs: f64,
}

/// CUBIC with hybrid slow start and PRR.
pub struct Cubic {
    /// Window plateau `W_max` (0 until the first congestion event caps
    /// it; a first epoch entered by HyStart uses the current window).
    w_max: f64,
    /// Congestion-avoidance epoch: `Some(start_time)` once entered.
    epoch_start: Option<f64>,
    /// Cached time-to-origin for the current epoch.
    k: f64,
    /// Window at epoch start (the curve's `t = 0` value).
    cwnd_epoch: f64,
    /// Reno-friendly estimate `W_est` for the AIMD region.
    w_est: f64,
    hystart: Hystart,
    prr: Prr,
    hystart_exits: u64,
    /// Straight-line oracle, attached when auditing.
    shadow: Option<CubicReference>,
    tap_w_max: Option<telemetry::Tap>,
    tap_hystart: Option<telemetry::Tap>,
}

impl Cubic {
    /// A fresh CUBIC flow. `seed` keys this flow's telemetry series.
    pub fn new(seed: u64) -> Self {
        Self::attached(seed, Attach::current())
    }

    /// [`Cubic::new`], instrumented as `attach` says.
    pub(crate) fn attached(seed: u64, attach: Attach) -> Self {
        Cubic {
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            cwnd_epoch: 0.0,
            w_est: 0.0,
            hystart: Hystart::new(),
            prr: Prr::default(),
            hystart_exits: 0,
            shadow: attach
                .audit
                .then(|| CubicReference::new(CUBIC_C, CUBIC_BETA)),
            tap_w_max: telemetry::Tap::attach_if(attach.telemetry, "cubic/w_max", seed),
            tap_hystart: telemetry::Tap::attach_if(attach.telemetry, "cubic/hystart_exit", seed),
        }
    }

    /// Times HyStart ended slow start (for tests/experiments).
    pub fn hystart_exits(&self) -> u64 {
        self.hystart_exits
    }

    /// Current plateau (for tests).
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// RFC 9438 §4.3 AIMD-friendly additive factor.
    fn aimd_alpha() -> f64 {
        3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
    }

    fn begin_epoch(&mut self, now: f64, cwnd: f64) {
        if self.w_max < cwnd {
            // Entering avoidance above any recorded plateau (first epoch,
            // or growth beyond the last loss point): the curve restarts
            // flat at the current window.
            self.w_max = cwnd;
        }
        self.k = ((self.w_max - cwnd).max(0.0) / CUBIC_C).cbrt();
        self.epoch_start = Some(now);
        self.cwnd_epoch = cwnd;
        self.w_est = cwnd;
    }

    /// The cubic window at `t` seconds into the current epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        CUBIC_C * (t - self.k) * (t - self.k) * (t - self.k) + self.w_max
    }

    fn audit_epoch(&self, t: f64) {
        if let Some(shadow) = &self.shadow {
            audit::count_oracle_checks(2);
            let k_ref = shadow.k(self.w_max, self.cwnd_epoch);
            if !audit::close(self.k, k_ref) {
                audit::violation(
                    "cubic",
                    format_args!("cached K {} != reference K {}", self.k, k_ref),
                );
            }
            let w_ref = shadow.w_cubic(t, self.w_max, self.cwnd_epoch);
            if !audit::close(self.w_cubic(t), w_ref) {
                audit::violation(
                    "cubic",
                    format_args!("W_cubic({t}) {} != reference {}", self.w_cubic(t), w_ref),
                );
            }
        }
    }
}

impl CcAlgorithm for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction {
        if *ctx.cwnd < *ctx.ssthresh {
            // Hybrid slow start: exponential growth, watched by HyStart.
            if self.hystart.on_ack(ctx.now, ctx.rtt) {
                self.hystart_exits += 1;
                if let Some(tap) = &self.tap_hystart {
                    tap.record(ctx.now, *ctx.cwnd);
                }
                *ctx.ssthresh = (*ctx.cwnd).max(2.0);
                self.begin_epoch(ctx.now, *ctx.cwnd);
                return CcAction::None;
            }
            ctx.reno_increase();
            if *ctx.cwnd >= *ctx.ssthresh {
                // The crossover-split growth just reached the threshold.
                self.begin_epoch(ctx.now, *ctx.cwnd);
            }
            return CcAction::None;
        }

        // Congestion avoidance on the cubic curve.
        if self.epoch_start.is_none() {
            self.begin_epoch(ctx.now, *ctx.cwnd);
        }
        let start = self.epoch_start.expect("epoch begun above");
        let t = ctx.now - start;
        self.audit_epoch(t);
        let cwnd = *ctx.cwnd;
        // RFC 9438 §4.2: aim one RTT ahead on the curve, clamped so the
        // window never shrinks here and never grows more than 50%/RTT.
        let target = self.w_cubic(t + ctx.rtt).clamp(cwnd, 1.5 * cwnd);
        if cwnd > 0.0 {
            *ctx.cwnd += ctx.newly_acked as f64 * (target - cwnd) / cwnd;
            // §4.3 AIMD-friendly region: never slower than a Reno flow
            // with CUBIC's β would be.
            self.w_est += Self::aimd_alpha() * ctx.newly_acked as f64 / cwnd;
            if self.w_est > *ctx.cwnd {
                *ctx.cwnd = self.w_est;
            }
        }
        CcAction::None
    }

    fn on_congestion_event(&mut self, now: f64, cwnd_at_event: f64, _in_flight: u64) {
        // RFC 9438 §4.6 fast convergence: release bandwidth early when
        // losing below the previous plateau.
        let new_w_max = if cwnd_at_event < self.w_max {
            cwnd_at_event * (1.0 + CUBIC_BETA) / 2.0
        } else {
            cwnd_at_event
        };
        if let Some(shadow) = &self.shadow {
            audit::count_oracle_checks(1);
            let w_ref = shadow.w_max_after_loss(cwnd_at_event, self.w_max);
            if !audit::close(new_w_max, w_ref) {
                audit::violation(
                    "cubic",
                    format_args!("W_max after loss {new_w_max} != reference {w_ref}"),
                );
            }
        }
        self.w_max = new_w_max;
        self.epoch_start = None;
        self.prr.active = false;
        // A post-RTO slow start deserves a fresh HyStart probe.
        self.hystart.rearm();
        if let Some(tap) = &self.tap_w_max {
            tap.record(now, self.w_max);
        }
    }

    fn governs_recovery(&self) -> bool {
        true
    }

    fn on_recovery_start(&mut self, _now: f64, in_flight: u64) {
        self.prr = Prr {
            active: true,
            delivered: 0,
            out: 0,
            recover_fs: (in_flight.max(1)) as f64,
        };
    }

    fn on_recovery_ack(&mut self, ctx: &mut CcContext<'_>) {
        if !self.prr.active {
            // Post-RTO recovery: plain slow start from one segment.
            if *ctx.cwnd < *ctx.ssthresh {
                *ctx.cwnd += ctx.newly_acked as f64;
            }
            return;
        }
        // RFC 6937: reduce at the rate data leaves the network, not in
        // one step. The sender transmits everything the window permits
        // immediately after this hook, so segments authorized here are
        // counted as out.
        self.prr.delivered += ctx.newly_acked;
        let pipe = ctx.in_flight as f64;
        let ssthresh = *ctx.ssthresh;
        let sndcnt = if pipe > ssthresh {
            ((self.prr.delivered as f64 * ssthresh / self.prr.recover_fs).ceil()
                - self.prr.out as f64)
                .max(0.0)
        } else {
            // PRR-SSRB: slow-start back toward ssthresh once the pipe has
            // drained below it.
            let limit =
                (self.prr.delivered as f64 - self.prr.out as f64).max(ctx.newly_acked as f64) + 1.0;
            (ssthresh - pipe).min(limit).max(0.0)
        };
        self.prr.out += sndcnt as u64;
        *ctx.cwnd = (pipe + sndcnt).max(1.0);
    }

    fn on_recovery_exit(&mut self, ctx: &mut CcContext<'_>) {
        if self.prr.active {
            // RFC 6937: on exit the window lands exactly at ssthresh.
            *ctx.cwnd = *ctx.ssthresh;
            self.prr.active = false;
        }
    }

    /// `β = 0.7`: ssthresh falls to 70% on loss, not 50%.
    fn loss_reduction(&self) -> f64 {
        1.0 - CUBIC_BETA
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(cc: &mut Cubic, now: f64, rtt: f64, newly: u64, cwnd: &mut f64, ssthresh: &mut f64) {
        let mut ctx = CcContext {
            now,
            rtt,
            owd: rtt / 2.0,
            newly_acked: newly,
            in_flight: 0,
            cwnd,
            ssthresh,
        };
        cc.on_ack(&mut ctx);
    }

    #[test]
    fn cubic_grows_toward_w_max_plateau() {
        let mut cc = Cubic::new(1);
        let mut cwnd = 50.0;
        let mut ssthresh = 10.0; // congestion avoidance
        cc.on_congestion_event(0.0, 100.0, 0); // plateau at 100
        assert_eq!(cc.w_max(), 100.0);
        let mut now = 0.0;
        for _ in 0..4000 {
            now += 0.01;
            ack(&mut cc, now, 0.05, 1, &mut cwnd, &mut ssthresh);
        }
        // The curve approaches (and may slightly probe past) the plateau.
        assert!(cwnd > 90.0, "cwnd = {cwnd}");
    }

    #[test]
    fn fast_convergence_lowers_plateau() {
        let mut cc = Cubic::new(2);
        cc.on_congestion_event(0.0, 100.0, 0);
        // Losing again below the plateau shrinks it below the event window.
        cc.on_congestion_event(1.0, 80.0, 0);
        assert!((cc.w_max() - 80.0 * 0.85).abs() < 1e-12);
        // Losing above it plateaus at the event window.
        cc.on_congestion_event(2.0, 200.0, 0);
        assert_eq!(cc.w_max(), 200.0);
    }

    #[test]
    fn hystart_delay_increase_ends_slow_start() {
        let mut cc = Cubic::new(3);
        let mut cwnd = 2.0;
        let mut ssthresh = f64::MAX;
        let mut now = 0.0;
        // Round 1: flat 50 ms RTTs establish the baseline.
        for _ in 0..20 {
            now += 0.01;
            ack(&mut cc, now, 0.05, 1, &mut cwnd, &mut ssthresh);
        }
        // Subsequent rounds: RTT inflated well past η — HyStart must cap
        // ssthresh at the current window and hand over to avoidance.
        for _ in 0..200 {
            now += 0.01;
            ack(&mut cc, now, 0.12, 1, &mut cwnd, &mut ssthresh);
            if cc.hystart_exits() > 0 {
                break;
            }
        }
        assert_eq!(cc.hystart_exits(), 1);
        assert!(ssthresh.is_finite());
        assert!((ssthresh - cwnd).abs() < 1e-9 || cwnd >= ssthresh);
    }

    #[test]
    fn prr_reduces_proportionally_not_instantly() {
        let mut cc = Cubic::new(4);
        let mut cwnd = 100.0;
        let mut ssthresh = 70.0; // β·100 after the sender's cut
        cc.on_congestion_event(0.0, 100.0, 90);
        cc.on_recovery_start(0.0, 90);
        // First recovery ACK: pipe 89 > ssthresh 70 → sndcnt =
        // ceil(1·70/90) − 0 = 1; window becomes pipe + 1 = 90, far above
        // an instant cut to 70.
        let mut ctx = CcContext {
            now: 0.01,
            rtt: 0.05,
            owd: 0.025,
            newly_acked: 1,
            in_flight: 89,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_recovery_ack(&mut ctx);
        assert_eq!(cwnd, 90.0);
        // Drained pipe below ssthresh → SSRB builds back toward ssthresh.
        let mut ctx = CcContext {
            now: 0.02,
            rtt: 0.05,
            owd: 0.025,
            newly_acked: 30,
            in_flight: 40,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_recovery_ack(&mut ctx);
        assert!(cwnd > 40.0 && cwnd <= 71.0, "cwnd = {cwnd}");
        // Exit pins the window at ssthresh exactly.
        let mut ctx = CcContext {
            now: 0.03,
            rtt: 0.05,
            owd: 0.025,
            newly_acked: 1,
            in_flight: 60,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_recovery_exit(&mut ctx);
        assert_eq!(cwnd, 70.0);
    }
}
