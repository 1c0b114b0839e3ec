//! Random Early Detection (Floyd & Jacobson 1993) with the *gentle*
//! extension and the Adaptive-RED auto-tuning of Floyd, Gummadi & Shenker
//! (2001). This is the router the paper's `SACK/RED-ECN` baseline uses
//! ("we have used the adaptive RED version for the routers", §4.2) and the
//! algorithm whose probabilistic response PERT emulates at the end host.
//!
//! Algorithm summary (per arriving packet):
//! 1. update the EWMA average queue `avg` (with idle-time compensation),
//! 2. if `avg < min_th`: enqueue;
//!    if `min_th ≤ avg < max_th`: mark/drop with probability
//!    `p_b = max_p (avg − min_th)/(max_th − min_th)`, spread by the
//!    `count` mechanism: `p_a = p_b / (1 − count · p_b)`;
//!    if gentle and `max_th ≤ avg < 2·max_th`:
//!    `p_b = max_p + (1 − max_p)(avg − max_th)/max_th`;
//!    beyond the region (`avg ≥ 2·max_th`, or `≥ max_th` when not gentle):
//!    force a drop,
//! 3. ECN-capable packets are marked instead of dropped, in the forced
//!    region as well as in the probabilistic one (ns-2 drops every forced
//!    packet; this code marks an ECN-capable one).
//!
//! The ramp of step 2 is PERT's [`ResponseCurve`] over `avg` instead of
//! queuing delay; RED adds only the forced region beyond it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pert_core::reference::RedReference;
use pert_core::ResponseCurve;

use super::{Fifo, Policy};
use crate::audit;
use crate::telemetry::{self, SeriesId};
use crate::time::{SimDuration, SimTime};

/// Static RED configuration.
#[derive(Clone, Debug)]
pub struct RedParams {
    /// Hard buffer limit in packets.
    pub capacity_pkts: usize,
    /// Lower average-queue threshold (packets).
    pub min_th: f64,
    /// Upper average-queue threshold (packets).
    pub max_th: f64,
    /// Marking probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue (`avg += w_q (q − avg)`).
    pub w_q: f64,
    /// Use the gentle slope between `max_th` and `2·max_th`.
    pub gentle: bool,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
    /// Mean packet transmission time, used to decay `avg` across idle
    /// periods (ns-2's `ptc` idle compensation).
    pub mean_pkt_time: SimDuration,
    /// RNG seed for the marking coin flips.
    pub seed: u64,
}

impl RedParams {
    /// The classic rule-of-thumb configuration for a link buffered with
    /// `capacity_pkts` packets draining at `capacity_pps` packets/second:
    /// `min_th = max(5, capacity/12)`, `max_th = 3·min_th`,
    /// `w_q = 1 − exp(−1/C)` (Adaptive RED's automatic setting),
    /// gentle mode on, `max_p = 0.1`.
    pub fn recommended(capacity_pkts: usize, capacity_pps: f64, ecn: bool, seed: u64) -> Self {
        let min_th = (capacity_pkts as f64 / 12.0).max(5.0);
        let max_th = 3.0 * min_th;
        let w_q = 1.0 - (-1.0 / capacity_pps.max(1.0)).exp();
        RedParams {
            capacity_pkts,
            min_th,
            max_th,
            max_p: 0.1,
            w_q,
            gentle: true,
            ecn,
            mean_pkt_time: SimDuration::from_secs_f64(1.0 / capacity_pps.max(1.0)),
            seed,
        }
    }

    fn validate(&self) {
        assert!(
            self.min_th > 0.0 && self.max_th > self.min_th,
            "need 0 < min_th < max_th"
        );
        assert!(
            self.max_p > 0.0 && self.max_p <= 1.0,
            "max_p must be in (0, 1]"
        );
        assert!(self.w_q > 0.0 && self.w_q <= 1.0, "w_q must be in (0, 1]");
    }
}

/// Adaptive-RED add-on: periodically nudges `max_p` so the average queue
/// settles inside the target band `[min_th + 0.4·Δ, min_th + 0.6·Δ]`
/// where `Δ = max_th − min_th` (Floyd et al. 2001, AIMD variant).
#[derive(Clone, Debug)]
pub struct AdaptiveRedParams {
    /// Adaptation period (0.5 s in the paper).
    pub interval: SimDuration,
    /// Additive increment applied to `max_p` when above the band
    /// (capped at `max_p/4` as recommended).
    pub alpha: f64,
    /// Multiplicative decrease factor applied when below the band.
    pub beta: f64,
    /// Bounds on `max_p`.
    pub max_p_bounds: (f64, f64),
}

impl Default for AdaptiveRedParams {
    fn default() -> Self {
        AdaptiveRedParams {
            interval: SimDuration::from_millis(500),
            alpha: 0.01,
            beta: 0.9,
            max_p_bounds: (0.01, 0.5),
        }
    }
}

/// The RED (optionally Adaptive-RED) policy.
#[derive(Debug)]
pub struct Red {
    params: RedParams,
    adaptive: Option<AdaptiveRedParams>,
    rng: SmallRng,
    /// EWMA of the queue length in packets.
    avg: f64,
    /// Packets enqueued since the last mark/drop (the uniformization
    /// counter of the original paper). −1 right after a mark.
    count: i64,
    /// Start of the current idle period, if the queue is empty.
    idle_since: Option<SimTime>,
    /// The ramp over `avg`; its `p_max` is the current `max_p`, which the
    /// adaptive add-on moves.
    curve: ResponseCurve,
    /// `p_b` at the current arrival: `None` in the forced region.
    p_b: Option<f64>,
    /// Differential oracle: straight-line transcription of the paper's
    /// average and probability equations, compared after every arrival.
    oracle: Option<RedReference>,
}

/// A RED (optionally Adaptive-RED) queue.
pub type RedQueue = Fifo<Red>;

impl RedQueue {
    /// Create a RED queue with fixed parameters.
    pub fn new(params: RedParams) -> Self {
        params.validate();
        let red = Red {
            adaptive: None,
            rng: SmallRng::seed_from_u64(params.seed ^ 0x5ca1ab1e),
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
            curve: ResponseCurve {
                t_min: params.min_th,
                t_max: params.max_th,
                p_max: params.max_p,
            },
            p_b: None,
            oracle: None,
            params,
        };
        Fifo::with_policy(red.params.capacity_pkts, red.params.ecn, red)
    }

    /// Create an Adaptive-RED queue (what the paper runs at RED routers).
    pub fn adaptive(params: RedParams, adaptive: AdaptiveRedParams) -> Self {
        let mut q = RedQueue::new(params);
        q.policy.adaptive = Some(adaptive);
        q
    }

    /// Current EWMA average queue length in packets.
    pub fn avg_queue(&self) -> f64 {
        self.policy.avg
    }

    /// Current `max_p` (differs from the configured value once the
    /// adaptive machinery has run).
    pub fn current_max_p(&self) -> f64 {
        self.policy.curve.p_max
    }
}

impl Red {
    /// Update the EWMA at an arrival that finds `len` packets. If the
    /// queue has been idle, decay the average as if `m` small packets had
    /// drained during the idle time (ns-2 idle compensation), where
    /// `m = idle_time / mean_pkt_time`.
    #[inline]
    fn update_avg(&mut self, now: SimTime, len: usize) {
        if let Some(idle_start) = self.idle_since.take() {
            let idle = now.duration_since(idle_start).as_secs_f64();
            let mean = self.params.mean_pkt_time.as_secs_f64().max(1e-12);
            let m = idle / mean;
            self.avg *= (1.0 - self.params.w_q).powf(m);
        }
        self.avg += self.params.w_q * (len as f64 - self.avg);
    }

    /// The base marking probability `p_b` for the current average: the
    /// ramp, or `None` beyond it (`avg ≥ 2·max_th` gentle, `≥ max_th`
    /// sharp), where the drop is forced.
    #[inline]
    fn base_probability(&self) -> Option<f64> {
        let c = &self.curve;
        let limit = c.t_max * if self.params.gentle { 2.0 } else { 1.0 };
        (self.avg < limit).then(|| c.probability(self.avg))
    }

    /// Compare the just-updated average and `p_b` against the
    /// straight-line paper transcription.
    #[inline]
    fn check_oracle(&mut self, now: SimTime, len: usize) {
        let Some(oracle) = &mut self.oracle else {
            return;
        };
        let ref_avg = oracle.on_arrival(now.as_nanos(), len);
        let ref_p = oracle.marking_probability(self.curve.p_max);
        audit::count_oracle_checks(1);
        if !audit::close(ref_avg, self.avg) || !audit::close_opt(ref_p, self.p_b) {
            audit::violation(
                "red",
                format_args!(
                    "RED diverged from the Floyd–Jacobson reference at t={now:?} \
                     (seed {}): avg={} ref={ref_avg}, p_b={:?} ref={ref_p:?}, q={len}, \
                     count={}, max_p={}",
                    self.params.seed, self.avg, self.p_b, self.count, self.curve.p_max,
                ),
            );
        }
    }

    fn adapt(&mut self) {
        let Some(a) = &self.adaptive else { return };
        let delta = self.params.max_th - self.params.min_th;
        let target_lo = self.params.min_th + 0.4 * delta;
        let target_hi = self.params.min_th + 0.6 * delta;
        let max_p = &mut self.curve.p_max;
        if self.avg > target_hi && *max_p < a.max_p_bounds.1 {
            let inc = a.alpha.min(*max_p / 4.0);
            *max_p = (*max_p + inc).min(a.max_p_bounds.1);
        } else if self.avg < target_lo && *max_p > a.max_p_bounds.0 {
            *max_p = (*max_p * a.beta).max(a.max_p_bounds.0);
        }
    }
}

impl Policy for Red {
    /// Update `avg` and run the oracle, also for an arrival the full
    /// buffer drops, which restarts the count. The forced region
    /// saturates the reference curve at probability 1.
    #[inline]
    fn arrive(&mut self, now: SimTime, len: usize, capacity: usize) -> f64 {
        if len >= capacity {
            self.count = 0;
        }
        self.update_avg(now, len);
        self.p_b = self.base_probability();
        self.check_oracle(now, len);
        self.p_b.unwrap_or(1.0)
    }

    fn sampled(&self, key: u64, t: f64) {
        telemetry::record_id(SeriesId::RED_AVG, key, t, self.avg);
    }

    #[inline]
    fn signal(&mut self, _now: SimTime, _p: f64) -> bool {
        match self.p_b {
            None => true, // beyond 2·max_th (or max_th, sharp)
            Some(p_b) if p_b > 0.0 => {
                self.count += 1;
                // Uniformize inter-mark gaps: p_a = p_b / (1 − count·p_b).
                let denom = 1.0 - self.count as f64 * p_b;
                let p_a = if denom <= 0.0 {
                    1.0
                } else {
                    (p_b / denom).min(1.0)
                };
                let hit = self.rng.gen::<f64>() < p_a;
                if hit {
                    self.count = 0;
                }
                hit
            }
            _ => {
                self.count = -1;
                false
            }
        }
    }

    /// An empty queue starts an idle period, also after an early drop:
    /// the arrival consumed `idle_since` in `update_avg`, but a dropped
    /// packet never occupies the queue. Without the restore the next
    /// `update_avg` skips the idle decay entirely and the stale average
    /// keeps dropping packets at an empty queue.
    #[inline]
    fn leave(&mut self, now: SimTime, len: usize) {
        if len == 0 {
            self.idle_since = Some(now);
            if let Some(oracle) = &mut self.oracle {
                oracle.on_idle_start(now.as_nanos());
            }
        }
    }

    fn tick(&mut self, now: SimTime, _len: usize, tap: Option<u64>) {
        self.adapt();
        if let Some(key) = tap {
            let t = now.as_secs_f64();
            telemetry::record_id(SeriesId::RED_MAX_P, key, t, self.curve.p_max);
        }
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.adaptive.as_ref().map(|a| a.interval)
    }

    fn name(&self) -> &'static str {
        if self.adaptive.is_some() {
            "ARED"
        } else {
            "RED"
        }
    }

    fn attach(&mut self, audit: bool) {
        let p = &self.params;
        self.oracle = audit.then(|| {
            let mean_pkt_time = p.mean_pkt_time.as_secs_f64();
            RedReference::new(p.w_q, p.min_th, p.max_th, p.gentle, mean_pkt_time)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{audited, test_packet};
    use super::super::{DropReason, EnqueueOutcome, QueueDiscipline};
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::{Ecn, Packet};

    /// Intern `pkt`, offer it, and free the ref again on a drop so the
    /// test arena only retains resident packets.
    fn offer(q: &mut RedQueue, arena: &mut PacketArena, pkt: Packet, t: SimTime) -> EnqueueOutcome {
        let r = arena.alloc(pkt);
        let out = q.enqueue(r, arena, t);
        if let EnqueueOutcome::Dropped(r, _) = &out {
            arena.take(*r);
        }
        out
    }

    fn params(capacity: usize) -> RedParams {
        RedParams {
            capacity_pkts: capacity,
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 0.002,
            gentle: true,
            ecn: false,
            mean_pkt_time: SimDuration::from_micros(100),
            seed: 7,
        }
    }

    #[test]
    fn below_min_th_never_drops() {
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(params(100)));
        for _ in 0..4 {
            match offer(
                &mut q,
                &mut arena,
                test_packet(1000, Ecn::NotCapable),
                SimTime::ZERO,
            ) {
                EnqueueOutcome::Enqueued => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn full_buffer_tail_drops() {
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(params(3)));
        for _ in 0..3 {
            offer(
                &mut q,
                &mut arena,
                test_packet(1000, Ecn::NotCapable),
                SimTime::ZERO,
            );
        }
        match offer(
            &mut q,
            &mut arena,
            test_packet(1000, Ecn::NotCapable),
            SimTime::ZERO,
        ) {
            EnqueueOutcome::Dropped(_, DropReason::Overflow) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn probability_curve_shape() {
        let mut q = audited(RedQueue::new(params(1000)));
        // Below min_th.
        q.policy.avg = 4.0;
        assert_eq!(q.policy.base_probability(), Some(0.0));
        // Midpoint of [min, max]: p = max_p/2.
        q.policy.avg = 10.0;
        let p = q.policy.base_probability().unwrap();
        assert!((p - 0.05).abs() < 1e-12, "{p}");
        // At max_th the gentle region starts at exactly max_p.
        q.policy.avg = 15.0;
        let p = q.policy.base_probability().unwrap();
        assert!((p - 0.1).abs() < 1e-12, "{p}");
        // Midpoint of gentle region [max_th, 2max_th]: max_p + (1-max_p)/2.
        q.policy.avg = 22.5;
        let p = q.policy.base_probability().unwrap();
        assert!((p - 0.55).abs() < 1e-12, "{p}");
        // Beyond 2·max_th: forced.
        q.policy.avg = 30.0;
        assert_eq!(q.policy.base_probability(), None);
    }

    #[test]
    fn sharp_mode_forces_at_max_th() {
        let mut p = params(1000);
        p.gentle = false;
        let mut q = audited(RedQueue::new(p));
        q.policy.avg = 16.0;
        assert_eq!(q.policy.base_probability(), None);
    }

    #[test]
    fn ecn_marks_instead_of_dropping() {
        let mut p = params(1000);
        p.ecn = true;
        p.max_p = 1.0;
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(p));
        q.policy.oracle = None; // the test pokes `avg` directly below
        q.policy.avg = 14.9; // deep in the probabilistic region
                             // Force avg to stay high by enqueueing many: with max_p=1 and
                             // avg>min_th, marks should occur and never early-drops for ECT.
        let mut marked = 0;
        for _ in 0..50 {
            q.policy.avg = 14.9;
            match offer(
                &mut q,
                &mut arena,
                test_packet(1000, Ecn::Capable),
                SimTime::ZERO,
            ) {
                EnqueueOutcome::Marked => marked += 1,
                EnqueueOutcome::Enqueued => {}
                EnqueueOutcome::Dropped(_, r) => panic!("ECT dropped early: {r:?}"),
            }
        }
        assert!(marked > 0);
        assert_eq!(q.stats().marked, marked);
    }

    /// Pins what the code does, which is not what ns-2 does: beyond the
    /// ramp (`avg ≥ 2·max_th` gentle, `≥ max_th` sharp) an ECN-capable
    /// arrival is marked, like one in the probabilistic region; only an
    /// ECN-incapable one is dropped. ns-2 drops both.
    #[test]
    fn forced_region_marks_ecn_capable_packets() {
        for gentle in [true, false] {
            let mut p = params(1000);
            p.ecn = true;
            p.gentle = gentle;
            let mut arena = PacketArena::new();
            let mut q = audited(RedQueue::new(p));
            q.policy.oracle = None; // the test pokes `avg` directly below
            q.policy.avg = 100.0;
            let t = SimTime::ZERO;
            let out = offer(&mut q, &mut arena, test_packet(1000, Ecn::Capable), t);
            assert!(matches!(out, EnqueueOutcome::Marked), "{out:?}");
            q.policy.avg = 100.0;
            let out = offer(&mut q, &mut arena, test_packet(1000, Ecn::NotCapable), t);
            assert!(
                matches!(out, EnqueueOutcome::Dropped(_, DropReason::Early)),
                "{out:?}"
            );
            assert_eq!((q.stats().marked, q.stats().dropped), (1, 1));
        }
    }

    #[test]
    fn non_ect_dropped_in_probabilistic_region() {
        let mut p = params(1000);
        p.ecn = true;
        p.max_p = 1.0;
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(p));
        q.policy.oracle = None; // the test pokes `avg` directly below
        let mut dropped = 0;
        for _ in 0..50 {
            q.policy.avg = 14.9;
            if let EnqueueOutcome::Dropped(_, DropReason::Early) = offer(
                &mut q,
                &mut arena,
                test_packet(1000, Ecn::NotCapable),
                SimTime::ZERO,
            ) {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(q.stats().marked, 0);
    }

    #[test]
    fn idle_time_decays_average() {
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(params(100)));
        // Build up some average.
        for _ in 0..50 {
            offer(
                &mut q,
                &mut arena,
                test_packet(1000, Ecn::NotCapable),
                SimTime::ZERO,
            );
        }
        while let Some(r) = q.dequeue(&mut arena, SimTime::ZERO) {
            arena.take(r);
        }
        let avg_before = q.avg_queue();
        assert!(avg_before > 0.0);
        // Arrive after a long idle period: the average must have decayed.
        offer(
            &mut q,
            &mut arena,
            test_packet(1000, Ecn::NotCapable),
            SimTime::from_secs_f64(1.0),
        );
        assert!(q.avg_queue() < avg_before * 0.5);
    }

    #[test]
    fn drop_while_empty_preserves_idle_decay() {
        // Regression: an early drop at an empty queue used to consume
        // `idle_since` (taken by `update_avg`) without restoring it, so the
        // idle period silently ended and the average never decayed.
        let mut arena = PacketArena::new();
        let mut q = audited(RedQueue::new(params(100)));
        q.policy.oracle = None; // the test pokes `avg` directly below
        q.policy.avg = 100.0; // way beyond 2*max_th: forced drop, queue stays empty
        match offer(
            &mut q,
            &mut arena,
            test_packet(1000, Ecn::NotCapable),
            SimTime::from_nanos(1_000_000),
        ) {
            EnqueueOutcome::Dropped(_, DropReason::Early) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(q.avg_queue() > 15.0, "avg barely moved: {}", q.avg_queue());
        // A full second of idle time (10_000 mean packet times at w_q=0.002)
        // must collapse the average back below min_th, so the next arrival
        // is accepted rather than dropped by the stale average.
        match offer(
            &mut q,
            &mut arena,
            test_packet(1000, Ecn::NotCapable),
            SimTime::from_secs_f64(1.0),
        ) {
            EnqueueOutcome::Enqueued => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(q.avg_queue() < 5.0, "idle decay skipped: {}", q.avg_queue());
    }

    #[test]
    fn adaptive_red_raises_max_p_when_above_band() {
        let mut q = audited(RedQueue::adaptive(
            params(1000),
            AdaptiveRedParams::default(),
        ));
        q.policy.avg = 14.0; // above min_th + 0.6 * 10 = 11
        let before = q.current_max_p();
        q.on_tick(SimTime::ZERO);
        assert!(q.current_max_p() > before);
    }

    #[test]
    fn adaptive_red_lowers_max_p_when_below_band() {
        let mut q = audited(RedQueue::adaptive(
            params(1000),
            AdaptiveRedParams::default(),
        ));
        q.policy.avg = 6.0; // below min_th + 0.4 * 10 = 9
        q.policy.curve.p_max = 0.2;
        q.on_tick(SimTime::ZERO);
        assert!((q.current_max_p() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn adaptive_red_respects_bounds() {
        let mut q = audited(RedQueue::adaptive(
            params(1000),
            AdaptiveRedParams::default(),
        ));
        q.policy.avg = 14.0;
        q.policy.curve.p_max = 0.5;
        q.on_tick(SimTime::ZERO);
        assert!(q.current_max_p() <= 0.5);
        q.policy.avg = 6.0;
        q.policy.curve.p_max = 0.01;
        q.on_tick(SimTime::ZERO);
        assert!(q.current_max_p() >= 0.01);
    }

    #[test]
    fn tick_interval_only_when_adaptive() {
        let q = audited(RedQueue::new(params(10)));
        assert!(q.tick_interval().is_none());
        let q = audited(RedQueue::adaptive(params(10), AdaptiveRedParams::default()));
        assert_eq!(q.tick_interval(), Some(SimDuration::from_millis(500)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut arena = PacketArena::new();
            let mut q = audited(RedQueue::new(params(50)));
            q.policy.oracle = None; // the test pokes `avg` directly below
            let mut outcomes = Vec::new();
            for i in 0..200 {
                q.policy.avg = 10.0; // stay in probabilistic region
                let t = SimTime::from_nanos(i);
                outcomes.push(matches!(
                    offer(&mut q, &mut arena, test_packet(1000, Ecn::NotCapable), t),
                    EnqueueOutcome::Dropped(..)
                ));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }
}
