//! A BBRv1-style model-based sender (Cardwell et al., ACM Queue 2016):
//! instead of a loss-driven AIMD window, the flow continuously estimates
//! the path's bottleneck bandwidth (windowed-max of per-round delivery
//! rates) and propagation delay (min RTT with periodic re-probing), and
//! operates at their product.
//!
//! * **Startup** — gain 2/ln 2 doubles the delivery rate each round until
//!   the bandwidth filter stops growing (+25% for three rounds).
//! * **Drain** — inverse gain empties the queue Startup built, until the
//!   pipe is down to one BDP.
//! * **ProbeBW** — the steady state: an eight-phase gain cycle
//!   `[1.25, 0.75, 1, 1, 1, 1, 1, 1]` alternately probes for more
//!   bandwidth and drains the probe, one phase per min-RTT.
//! * **ProbeRTT** — when the min-RTT sample ages out (10 s), the window
//!   drops to 4 segments for max(200 ms, one RTT) to re-measure the
//!   floor.
//!
//! Pacing is expressed as send-quantum scheduling on the integer-time
//! calendar (see `sender.rs` `send_paced`), so paced schedules stay
//! byte-identical across worker and shard counts. The windowed-max
//! bandwidth filter (monotonic deque) is cross-checked each round against
//! the straight-line rescan in [`BbrReference`] under `--audit`.

use std::collections::VecDeque;

use pert_core::audit;
use pert_core::reference::BbrReference;
use pert_core::telemetry;
use pert_core::Attach;

use crate::cc::{CcAction, CcAlgorithm, CcContext};

/// Bandwidth filter window, packet-timed rounds.
const BW_WINDOW_ROUNDS: u64 = 10;
/// Min-RTT filter window, seconds.
const MIN_RTT_WINDOW: f64 = 10.0;
/// ProbeRTT dwell floor, seconds.
const PROBE_RTT_DURATION: f64 = 0.2;
/// ProbeRTT window cap, segments.
const PROBE_RTT_CWND: f64 = 4.0;
/// Startup/Drain gains: 2/ln 2 doubles the sending rate per round.
const STARTUP_GAIN: f64 = 2.885_390_081_777_926_8;
/// Full-pipe test: bandwidth must grow ≥25%/round to keep Startup alive.
const FULL_BW_GROWTH: f64 = 1.25;
const FULL_BW_ROUNDS: u32 = 3;
/// ProbeBW's eight-phase pacing-gain cycle.
const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Steady-state window gain (2×BDP absorbs delayed/aggregated ACKs).
const CWND_GAIN: f64 = 2.0;

/// Exact sliding-window maximum over rounds: a monotonic deque (back is
/// popped while dominated, front while expired). O(1) amortized; the
/// audit oracle recomputes the same max by rescanning every in-window
/// sample.
#[derive(Clone, Debug, Default)]
struct WindowedMax {
    window: u64,
    deque: VecDeque<(u64, f64)>,
}

impl WindowedMax {
    fn new(window: u64) -> Self {
        WindowedMax {
            window,
            deque: VecDeque::new(),
        }
    }

    fn push(&mut self, round: u64, value: f64) {
        while self.deque.back().is_some_and(|&(_, v)| v <= value) {
            self.deque.pop_back();
        }
        self.deque.push_back((round, value));
        while self
            .deque
            .front()
            .is_some_and(|&(r, _)| r + self.window <= round)
        {
            self.deque.pop_front();
        }
    }

    fn max(&self) -> f64 {
        self.deque.front().map_or(0.0, |&(_, v)| v)
    }
}

/// The BBR state machine's current mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

impl State {
    /// Stable index for the `bbr/state` telemetry series.
    fn index(self) -> f64 {
        match self {
            State::Startup => 0.0,
            State::Drain => 1.0,
            State::ProbeBw => 2.0,
            State::ProbeRtt => 3.0,
        }
    }
}

/// BBRv1-style congestion control.
pub struct Bbr {
    state: State,
    // --- bandwidth model ------------------------------------------------
    /// Cumulative segments delivered (sum of `newly_acked`).
    delivered: u64,
    round: u64,
    round_start_time: f64,
    round_start_delivered: u64,
    /// End of the current packet-timed round (approximated on the ACK
    /// clock: one round per RTT of wall time).
    round_end: f64,
    btlbw: WindowedMax,
    // --- propagation model ----------------------------------------------
    min_rtt: f64,
    min_rtt_stamp: f64,
    // --- state-machine bookkeeping ---------------------------------------
    filled_pipe: bool,
    full_bw: f64,
    full_bw_rounds: u32,
    pacing_gain: f64,
    cwnd_gain: f64,
    /// ProbeBW phase index and entry time.
    phase: usize,
    phase_start: f64,
    /// ProbeRTT dwell deadline once the pipe has drained to the cap.
    probe_rtt_done: Option<f64>,
    /// Window at the last congestion event, restored on recovery exit.
    prior_cwnd: f64,
    in_recovery: bool,
    /// Straight-line filter oracle, attached when auditing.
    shadow: Option<BbrReference>,
    tap_btlbw: Option<telemetry::Tap>,
    tap_min_rtt: Option<telemetry::Tap>,
    tap_state: Option<telemetry::Tap>,
}

impl Bbr {
    /// A fresh BBR flow. `seed` keys this flow's telemetry series and
    /// staggers the initial ProbeBW phase so a fleet of flows does not
    /// probe in lockstep (BBR's randomized cycle start, made
    /// deterministic per flow).
    pub fn new(seed: u64) -> Self {
        Self::attached(seed, Attach::current())
    }

    /// [`Bbr::new`], instrumented as `attach` says.
    pub(crate) fn attached(seed: u64, attach: Attach) -> Self {
        // Any phase but the draining one (index 1), as BBR specifies.
        let mut phase = (seed % 7) as usize;
        if phase >= 1 {
            phase += 1;
        }
        Bbr {
            state: State::Startup,
            delivered: 0,
            round: 0,
            round_start_time: 0.0,
            round_start_delivered: 0,
            round_end: 0.0,
            btlbw: WindowedMax::new(BW_WINDOW_ROUNDS),
            min_rtt: f64::INFINITY,
            min_rtt_stamp: 0.0,
            filled_pipe: false,
            full_bw: 0.0,
            full_bw_rounds: 0,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            phase,
            phase_start: 0.0,
            probe_rtt_done: None,
            prior_cwnd: 0.0,
            in_recovery: false,
            shadow: attach.audit.then(|| BbrReference::new(BW_WINDOW_ROUNDS)),
            tap_btlbw: telemetry::Tap::attach_if(attach.telemetry, "bbr/btlbw", seed),
            tap_min_rtt: telemetry::Tap::attach_if(attach.telemetry, "bbr/min_rtt", seed),
            tap_state: telemetry::Tap::attach_if(attach.telemetry, "bbr/state", seed),
        }
    }

    /// Current bottleneck-bandwidth estimate, segments/second.
    pub fn btlbw(&self) -> f64 {
        self.btlbw.max()
    }

    /// Current min-RTT estimate, seconds (infinite before any sample).
    pub fn min_rtt(&self) -> f64 {
        self.min_rtt
    }

    /// True once Startup declared the pipe full.
    pub fn filled_pipe(&self) -> bool {
        self.filled_pipe
    }

    fn set_state(&mut self, state: State, now: f64) {
        if self.state != state {
            self.state = state;
            if let Some(tap) = &self.tap_state {
                tap.record(now, state.index());
            }
        }
    }

    /// The model window `gain · BtlBw · RTprop`, floored at 4 segments;
    /// infinite until both filters have a sample (window-driven startup).
    fn target_cwnd(&self, gain: f64) -> f64 {
        let btlbw = self.btlbw.max();
        if btlbw <= 0.0 || !self.min_rtt.is_finite() {
            return f64::MAX;
        }
        let target = (gain * btlbw * self.min_rtt).max(PROBE_RTT_CWND);
        if self.shadow.is_some() {
            audit::count_oracle_checks(1);
            let t_ref = BbrReference::cwnd_for(gain, btlbw, self.min_rtt);
            if !audit::close(target, t_ref) {
                audit::violation(
                    "bbr",
                    format_args!("target cwnd {target} != reference {t_ref}"),
                );
            }
        }
        target
    }

    /// Shared per-ACK model update: delivery accounting, round turnover,
    /// bandwidth/min-RTT filters, and the state machine.
    fn update_model(&mut self, now: f64, rtt: f64, newly_acked: u64, in_flight: u64) {
        self.delivered += newly_acked;

        // Round turnover on the ACK clock.
        if now >= self.round_end {
            let dt = now - self.round_start_time;
            let dd = self.delivered - self.round_start_delivered;
            if dt > 0.0 && dd > 0 {
                let rate = dd as f64 / dt;
                self.round += 1;
                self.btlbw.push(self.round, rate);
                if let Some(shadow) = &mut self.shadow {
                    audit::count_oracle_checks(1);
                    let max_ref = shadow.on_rate_sample(self.round, rate);
                    if !audit::close(self.btlbw.max(), max_ref) {
                        audit::violation(
                            "bbr",
                            format_args!(
                                "deque max {} != rescan max {max_ref} at round {}",
                                self.btlbw.max(),
                                self.round
                            ),
                        );
                    }
                }
                if let Some(tap) = &self.tap_btlbw {
                    tap.record(now, self.btlbw.max());
                }
                self.on_round_advance(now);
            }
            self.round_start_time = now;
            self.round_start_delivered = self.delivered;
            self.round_end = now + rtt;
        }

        // Min-RTT filter: the expiry test precedes the update so an aged
        // filter accepts the current sample even if it is larger.
        let expired = now > self.min_rtt_stamp + MIN_RTT_WINDOW;
        if rtt < self.min_rtt || expired {
            self.min_rtt = rtt;
            self.min_rtt_stamp = now;
            if let Some(tap) = &self.tap_min_rtt {
                tap.record(now, self.min_rtt);
            }
        }
        if expired && self.state != State::ProbeRtt && self.filled_pipe {
            self.probe_rtt_done = None;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.set_state(State::ProbeRtt, now);
        }

        self.advance_state(now, in_flight);
    }

    /// Per-round Startup full-pipe test (BBR: bandwidth must keep growing
    /// 25%/round, else three flat rounds mean the pipe is full).
    fn on_round_advance(&mut self, _now: f64) {
        if self.filled_pipe || self.state != State::Startup {
            return;
        }
        let bw = self.btlbw.max();
        if bw >= self.full_bw * FULL_BW_GROWTH {
            self.full_bw = bw;
            self.full_bw_rounds = 0;
        } else {
            self.full_bw_rounds += 1;
            if self.full_bw_rounds >= FULL_BW_ROUNDS {
                self.filled_pipe = true;
            }
        }
    }

    fn advance_state(&mut self, now: f64, in_flight: u64) {
        match self.state {
            State::Startup => {
                if self.filled_pipe {
                    self.pacing_gain = 1.0 / STARTUP_GAIN;
                    self.cwnd_gain = STARTUP_GAIN;
                    self.set_state(State::Drain, now);
                }
            }
            State::Drain => {
                // Drain until the pipe holds one BDP, then cruise.
                if (in_flight as f64) <= self.target_cwnd(1.0) {
                    self.enter_probe_bw(now);
                }
            }
            State::ProbeBw => {
                if self.min_rtt.is_finite() && now - self.phase_start > self.min_rtt {
                    self.phase = (self.phase + 1) % PROBE_BW_GAINS.len();
                    self.phase_start = now;
                    self.pacing_gain = PROBE_BW_GAINS[self.phase];
                }
            }
            State::ProbeRtt => {
                match self.probe_rtt_done {
                    None => {
                        // Wait for the pipe to drain to the cap, then dwell.
                        if (in_flight as f64) <= PROBE_RTT_CWND {
                            let dwell = PROBE_RTT_DURATION.max(self.min_rtt);
                            self.probe_rtt_done = Some(now + dwell);
                        }
                    }
                    Some(done) => {
                        if now >= done {
                            self.min_rtt_stamp = now;
                            self.probe_rtt_done = None;
                            if self.filled_pipe {
                                self.enter_probe_bw(now);
                            } else {
                                self.pacing_gain = STARTUP_GAIN;
                                self.cwnd_gain = STARTUP_GAIN;
                                self.set_state(State::Startup, now);
                            }
                        }
                    }
                }
            }
        }
    }

    fn enter_probe_bw(&mut self, now: f64) {
        self.pacing_gain = PROBE_BW_GAINS[self.phase];
        self.cwnd_gain = CWND_GAIN;
        self.phase_start = now;
        self.set_state(State::ProbeBw, now);
    }

    /// Move the window toward the model target: fill gradually (ACK
    /// clocked) while below, snap down when above, and honor the ProbeRTT
    /// cap.
    fn apply_cwnd(&self, ctx: &mut CcContext<'_>) {
        let target = self.target_cwnd(self.cwnd_gain);
        if target == f64::MAX {
            // No model yet: grow like slow start until the filters fill.
            *ctx.cwnd += ctx.newly_acked as f64;
        } else if *ctx.cwnd < target {
            *ctx.cwnd = (*ctx.cwnd + ctx.newly_acked as f64).min(target);
        } else {
            *ctx.cwnd = target;
        }
        if self.state == State::ProbeRtt {
            *ctx.cwnd = (*ctx.cwnd).min(PROBE_RTT_CWND);
        }
        *ctx.cwnd = (*ctx.cwnd).max(1.0);
    }
}

impl CcAlgorithm for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn on_ack(&mut self, ctx: &mut CcContext<'_>) -> CcAction {
        self.update_model(ctx.now, ctx.rtt, ctx.newly_acked, ctx.in_flight);
        self.apply_cwnd(ctx);
        CcAction::None
    }

    fn on_congestion_event(&mut self, _now: f64, cwnd_at_event: f64, _in_flight: u64) {
        // BBR does not reduce on loss; remember the window so recovery
        // exit can restore it after the conservative in-recovery cap.
        self.prior_cwnd = cwnd_at_event;
    }

    fn governs_recovery(&self) -> bool {
        true
    }

    fn on_recovery_start(&mut self, _now: f64, _in_flight: u64) {
        self.in_recovery = true;
    }

    fn on_recovery_ack(&mut self, ctx: &mut CcContext<'_>) {
        // Keep the model fresh through recovery, but hold the window at
        // packet conservation (one new segment per delivered segment).
        self.update_model(ctx.now, ctx.rtt, ctx.newly_acked, ctx.in_flight);
        if self.in_recovery {
            *ctx.cwnd = (ctx.in_flight as f64 + ctx.newly_acked as f64).max(PROBE_RTT_CWND);
        } else {
            // Post-RTO: rebuild toward the model window.
            self.apply_cwnd(ctx);
        }
    }

    fn on_recovery_exit(&mut self, ctx: &mut CcContext<'_>) {
        if self.in_recovery {
            self.in_recovery = false;
            *ctx.cwnd = (*ctx.cwnd).max(self.prior_cwnd);
        }
    }

    /// Loss is not a model signal: ssthresh keeps the pre-event window.
    fn loss_reduction(&self) -> f64 {
        0.0
    }

    fn pacing_rate(&self) -> Option<f64> {
        let btlbw = self.btlbw.max();
        if btlbw > 0.0 {
            Some(self.pacing_gain * btlbw)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(
        cc: &mut Bbr,
        now: f64,
        rtt: f64,
        newly: u64,
        in_flight: u64,
        cwnd: &mut f64,
        ssthresh: &mut f64,
    ) {
        let mut ctx = CcContext {
            now,
            rtt,
            owd: rtt / 2.0,
            newly_acked: newly,
            in_flight,
            cwnd,
            ssthresh,
        };
        cc.on_ack(&mut ctx);
    }

    #[test]
    fn windowed_max_matches_naive_rescan() {
        let mut fast = WindowedMax::new(5);
        let mut naive = BbrReference::new(5);
        let values = [
            3.0, 9.0, 2.0, 7.0, 7.5, 1.0, 0.5, 12.0, 4.0, 3.0, 2.0, 1.0, 0.9, 0.8, 6.0,
        ];
        for (i, &v) in values.iter().enumerate() {
            fast.push(i as u64, v);
            let want = naive.on_rate_sample(i as u64, v);
            assert_eq!(fast.max(), want, "diverged at sample {i}");
        }
    }

    #[test]
    fn startup_fills_then_drains_then_cruises() {
        let mut cc = Bbr::new(7);
        let mut cwnd = 4.0;
        let mut ssthresh = f64::MAX;
        let rtt = 0.05;
        let mut now = 0.0;
        // Bottleneck of 1000 seg/s: delivery per round plateaus at 50
        // segments/RTT no matter how the window grows.
        for _ in 0..400 {
            now += rtt;
            let in_flight = (cwnd as u64).min(45);
            ack(&mut cc, now, rtt, 50, in_flight, &mut cwnd, &mut ssthresh);
        }
        assert!(cc.filled_pipe(), "flat delivery must end Startup");
        assert_eq!(cc.state, State::ProbeBw);
        // The model bandwidth is the plateau rate.
        assert!(
            (cc.btlbw() - 1000.0).abs() / 1000.0 < 0.05,
            "btlbw = {}",
            cc.btlbw()
        );
        // And the window sits near cwnd_gain·BDP = 2·50 = 100.
        assert!(cwnd <= 110.0, "cwnd = {cwnd}");
        assert!(cc.pacing_rate().is_some());
    }

    #[test]
    fn min_rtt_expiry_triggers_probe_rtt_and_recovers() {
        let mut cc = Bbr::new(8);
        let mut cwnd = 4.0;
        let mut ssthresh = f64::MAX;
        let rtt = 0.05;
        let mut now = 0.0;
        for _ in 0..400 {
            now += rtt;
            let in_flight = (cwnd as u64).min(45);
            ack(&mut cc, now, rtt, 50, in_flight, &mut cwnd, &mut ssthresh);
        }
        assert!(cc.filled_pipe());
        // Age the min-RTT filter past its window without lower samples.
        let mut saw_probe_rtt = false;
        for _ in 0..400 {
            now += rtt;
            let in_flight = (cwnd as u64).clamp(1, 45);
            ack(&mut cc, now, rtt, 50, in_flight, &mut cwnd, &mut ssthresh);
            if cc.state == State::ProbeRtt {
                saw_probe_rtt = true;
                assert!(cwnd <= PROBE_RTT_CWND);
                // Pipe drained to the cap: dwell then return to cruising.
                for _ in 0..20 {
                    now += rtt;
                    ack(&mut cc, now, rtt, 4, 4, &mut cwnd, &mut ssthresh);
                }
                break;
            }
        }
        assert!(saw_probe_rtt, "min-RTT expiry must enter ProbeRTT");
        assert_eq!(cc.state, State::ProbeBw);
        assert!(cwnd > PROBE_RTT_CWND);
    }

    #[test]
    fn recovery_holds_conservation_then_restores() {
        let mut cc = Bbr::new(9);
        let mut cwnd = 80.0;
        let mut ssthresh = 80.0;
        cc.on_congestion_event(1.0, 80.0, 60);
        cc.on_recovery_start(1.0, 60);
        let mut ctx = CcContext {
            now: 1.01,
            rtt: 0.05,
            owd: 0.025,
            newly_acked: 2,
            in_flight: 58,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_recovery_ack(&mut ctx);
        assert_eq!(cwnd, 60.0); // in_flight + newly
        let mut ctx = CcContext {
            now: 1.1,
            rtt: 0.05,
            owd: 0.025,
            newly_acked: 1,
            in_flight: 59,
            cwnd: &mut cwnd,
            ssthresh: &mut ssthresh,
        };
        cc.on_recovery_exit(&mut ctx);
        assert_eq!(cwnd, 80.0); // prior window restored
    }
}
