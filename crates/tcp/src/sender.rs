//! The TCP sender: hot/cold split flow state.
//!
//! A SACK-capable sender in the spirit of ns-2's `TCP/Sack1`, hosting any
//! [`CcAlgorithm`](crate::CcAlgorithm): slow start / congestion
//! avoidance, FACK-style loss detection with fast retransmit and
//! SACK-based recovery, retransmission timeouts with exponential backoff,
//! ECN (ECE-triggered reductions, one per RTT), per-ACK RTT sampling
//! through exact packet timestamps, and an application [`Source`] that
//! supplies successive transfers (greedy FTP flows or think-time-separated
//! web objects).
//!
//! Flow state is split by access pattern so the struct-of-arrays
//! [`FlowSlab`](crate::FlowSlab) can keep the hot part in columns:
//!
//! * `PendingRow` — what a declared sender needs before its first event
//!   (its boxed source, seed, config and interned congestion-control
//!   kind), 40 bytes a connection. It is all a sender holds until then.
//! * `Hot` — `Wnd`, `RttState`, `AppState`: small `Copy` structs touched
//!   on every ACK, built fresh at the sender's first event into a dense
//!   column of started senders, so a scan over many flows stays in cache.
//! * `FlowCold` — everything else (config, the congestion control held
//!   inline as a `Cc` variant, boxed source, scoreboard, RNG, stats),
//!   built from the pending row at the same first event, into a column
//!   parallel to the hot one. Samples and telemetry hang off it in one
//!   more box (`FlowRecorders`) that only exists while something reads
//!   them.
//!
//! All protocol logic lives on `FlowView` (a bundle of `&mut` borrows of
//! the four parts) and performs I/O through `FlowIo`, which maps
//! `send`/`schedule` onto the slab's identity and the flow's slot.

use netsim::{Ctx, Ecn, FlowId, NodeId, Packet, Payload, SimDuration, SimTime, TimerToken};
use pert_core::predictors::AckSample;
use pert_core::telemetry::{self, BucketHistogram};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cc::{Cc, CcAction, CcContext};
use crate::scoreboard::Scoreboard;
use crate::source::Source;

/// Timer token kinds (low 8 bits of the token; bits 8.. address the flow's
/// slot in its [`FlowSlab`](crate::FlowSlab)).
pub(crate) const TOKEN_START: u64 = 0;
pub(crate) const TOKEN_STOP: u64 = 1;
pub(crate) const TOKEN_NEW_TRANSFER: u64 = 2;
pub(crate) const TOKEN_RTO: u64 = 3;
pub(crate) const TOKEN_PACE: u64 = 4;

/// RFC 6298 §2.4 clock-granularity term `G`: the variance contribution to
/// the RTO never drops below this, so microsecond-RTT links cannot collapse
/// `srtt + 4·rttvar` toward zero and trip spurious timeouts from the
/// slightest jitter.
pub(crate) const RTO_GRANULARITY_SECS: f64 = 0.001;

/// Congestion window of a new flow, and of each new transfer, segments.
const INITIAL_CWND: f64 = 2.0;
/// Slow-start threshold of a new flow: none until the first reduction.
const INITIAL_SSTHRESH: f64 = f64::MAX;
/// Receiver-window clamp on the congestion window: none.
const MAX_CWND: f64 = f64::MAX;
/// Minimum retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Maximum retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// What a connection chooses about its sender. Every other sender
/// parameter is one of the constants above, the peer is the slab row's
/// sink node, and the RNG seed is spent at construction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TcpConfig {
    /// Flow id for tracing and accounting (a [`FlowId`], narrowed like
    /// the slab's slots).
    pub flow: u32,
    /// Data segment wire size in bytes.
    pub seg_size: u32,
    /// Send ECN-capable (ECT) segments.
    pub ecn: bool,
    /// Record one [`AckSample`] per ACK (time, RTT, cwnd) — used by the
    /// paper's predictor studies; off by default to bound memory.
    pub record_samples: bool,
}

/// Aggregate sender statistics (cumulative since flow start).
///
/// Every connection carries one, so the event counts are `u32`: no flow
/// comes near 2^32 retransmissions or window reductions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderStats {
    /// Segments cumulatively acknowledged (goodput measure).
    pub acked_segments: u64,
    /// Segments transmitted (including retransmissions).
    pub sent_segments: u64,
    /// Retransmitted segments.
    pub retransmits: u32,
    /// Fast-recovery episodes entered.
    pub loss_events: u32,
    /// Retransmission timeouts fired.
    pub timeouts: u32,
    /// ECE-triggered window reductions.
    pub ecn_reductions: u32,
    /// Early (delay-triggered) window reductions.
    pub early_reductions: u32,
}

// ---------------------------------------------------------------------
// Hot state: per-ACK fields, `Copy`, one `Hot` row per started sender in
// the flow slab.
// ---------------------------------------------------------------------

/// Congestion-window and sequence state (hot).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Wnd {
    pub cwnd: f64,
    pub ssthresh: f64,
    /// All sequence numbers below this are cumulatively acknowledged.
    pub high_ack: u64,
    /// Next new sequence number to transmit.
    pub next_seq: u64,
    /// Transmit sequence numbers strictly below this (current transfer end).
    pub limit_seq: u64,
    /// While not [`NOT_IN_RECOVERY`], the sender is in loss recovery
    /// until `high_ack` reaches it; window reductions are suppressed
    /// meanwhile.
    pub recovery_point: u64,
}

/// [`Wnd::recovery_point`] outside loss recovery. Recovery points are
/// `next_seq` values, which stay below the transfer's end.
pub(crate) const NOT_IN_RECOVERY: u64 = u64::MAX;

impl Wnd {
    /// True while the sender is in loss recovery.
    #[inline]
    pub fn in_recovery(&self) -> bool {
        self.recovery_point != NOT_IN_RECOVERY
    }
}

/// RTT estimation and RTO ladder (hot).
///
/// The srtt/rttvar estimators stay f64 (they feed the CC algorithms'
/// float math), but everything the calendar sees — the RTO, its backoff
/// ladder, and the deadline — is exact integer nanoseconds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RttState {
    /// Smoothed RTT, seconds; 0.0 until the first sample (samples are
    /// positive). Read it through [`RttState::srtt`].
    pub srtt: f64,
    pub rttvar: f64,
    pub rto: SimDuration,
    pub backoff: u32,
    /// Absolute time the retransmission timer should fire
    /// ([`SimTime::MAX`] when idle).
    pub rto_deadline: SimTime,
    /// True while a timer event is pending in the calendar.
    pub rto_timer_pending: bool,
}

impl RttState {
    /// The smoothed RTT, seconds, once a sample has been taken.
    #[inline]
    pub fn srtt(&self) -> Option<f64> {
        (self.srtt > 0.0).then_some(self.srtt)
    }
}

/// Application/ECN lifecycle flags (hot).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AppState {
    pub ecn_hold_until: f64,
    pub started: bool,
    pub stopped: bool,
    pub awaiting_transfer: bool,
    /// Earliest time the next pacing quantum may leave (paced schemes
    /// only; [`SimTime::ZERO`] means "now").
    pub pace_next: SimTime,
    /// True while a `TOKEN_PACE` timer is pending in the calendar.
    pub pace_pending: bool,
}

/// A declared sender that has not run yet: what building its [`FlowCold`]
/// takes beyond the hot parts. Construction is a pure function of these
/// fields (every RNG is seeded from `seed`), so building it at the first
/// event yields the bytes building it at declaration would have.
pub(crate) struct PendingRow {
    pub source: Box<dyn Source>,
    pub seed: u64,
    pub cfg: TcpConfig,
    /// The connection's congestion control, as an index into its slab's
    /// interned kinds.
    pub kind: u16,
}

impl PendingRow {
    /// Publish what dropping an untouched attached [`FlowCold`] built from
    /// this row publishes: zero totals, of which only the
    /// `tcp/acked_final` record shows.
    pub(crate) fn flush_telemetry(&self) {
        flush_totals(self.cfg.flow, &SenderStats::default(), None);
    }
}

/// Cold per-flow state: touched off the per-ACK fast path or behind a
/// pointer anyway. The slab holds one per started sender.
pub(crate) struct FlowCold {
    pub cfg: TcpConfig,
    pub cc: Cc,
    pub source: Box<dyn Source>,
    pub rng: SmallRng,
    pub scoreboard: Scoreboard,
    /// Segment count of the transfer announced by the pending
    /// `TOKEN_NEW_TRANSFER` timer (the token itself carries only the flow
    /// slot, so the size rides here); 0 when none is pending.
    pub pending_transfer: u64,
    /// Cumulative statistics.
    pub stats: SenderStats,
    /// Telemetry and sample recorders; `None` (one pointer, one branch
    /// per ACK) unless telemetry was on at construction or the flow
    /// records samples.
    pub rec: Option<Box<FlowRecorders>>,
}

impl FlowCold {
    /// The cold state `row` declares, around `cc` (its kind built from its
    /// seed), with telemetry recorders when `tel`.
    pub(crate) fn build(row: PendingRow, cc: Cc, tel: bool) -> FlowCold {
        FlowCold {
            cfg: row.cfg,
            cc,
            source: row.source,
            rng: SmallRng::seed_from_u64(row.seed ^ 0x7c95_e4d3),
            scoreboard: Scoreboard::new(),
            pending_transfer: 0,
            stats: SenderStats::default(),
            rec: FlowRecorders::attach(&row.cfg, tel),
        }
    }

    /// Per-ACK samples (empty unless `record_samples`).
    pub(crate) fn samples(&self) -> &[AckSample] {
        self.rec.as_ref().map_or(&[], |r| &r.samples)
    }

    /// Flush cumulative statistics into the global telemetry registry when
    /// recorders were attached. The slab calls it exactly once per flow,
    /// when the part hosting the flow drops (a shard split moves the
    /// state, never copies it).
    pub(crate) fn flush_telemetry(&self) {
        let Some(rec) = &self.rec else { return };
        if rec.tap.is_some() || rec.rtt_hist.is_some() {
            flush_totals(self.cfg.flow, &self.stats, rec.rtt_hist.as_ref());
        }
    }
}

/// What a flow records about itself for readers outside the simulation:
/// the telemetry tap and RTT histogram (attached at construction when the
/// simulator attaches telemetry) and the per-ACK sample log (`record_samples`).
pub(crate) struct FlowRecorders {
    /// Publishes `tcp/cwnd` (key = flow id) on every ACK.
    tap: Option<telemetry::Tap>,
    /// Per-flow RTT histogram, merged into the global `tcp/rtt_ns` metric
    /// when the flow drops.
    rtt_hist: Option<BucketHistogram>,
    /// Per-ACK samples (`record_samples`).
    samples: Vec<AckSample>,
}

impl FlowRecorders {
    /// The recorders `cfg` and the telemetry decision `tel` ask for, or
    /// `None` when nothing would read them.
    fn attach(cfg: &TcpConfig, tel: bool) -> Option<Box<FlowRecorders>> {
        (tel || cfg.record_samples).then(|| {
            Box::new(FlowRecorders {
                tap: telemetry::Tap::attach_if(tel, "tcp/cwnd", cfg.flow.into()),
                rtt_hist: tel.then(|| BucketHistogram::new(&telemetry::RTT_EDGES_NS)),
                samples: Vec::new(),
            })
        })
    }

    /// Record one ACK's outcome (`rtt` = 0 when the ACK carried no
    /// sample).
    fn on_ack(&mut self, now: f64, rtt: f64, owd: f64, cwnd: f64, record_samples: bool) {
        if let Some(tap) = &self.tap {
            tap.record(now, cwnd);
        }
        if rtt > 0.0 {
            if let Some(h) = &mut self.rtt_hist {
                h.observe((rtt * 1e9) as u64);
            }
        }
        if record_samples && rtt > 0.0 {
            self.samples.push(AckSample {
                at: now,
                rtt,
                owd,
                cwnd,
            });
        }
    }
}

/// A sender's hot parts, one dense row per started sender.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hot {
    pub wnd: Wnd,
    pub rtt: RttState,
    pub app: AppState,
}

/// The hot parts of a fresh flow: what a sender's first event starts
/// from, and what a sender that never ran reads back.
pub(crate) fn fresh_hot() -> Hot {
    let wnd = Wnd {
        cwnd: INITIAL_CWND,
        ssthresh: INITIAL_SSTHRESH,
        high_ack: 0,
        next_seq: 0,
        limit_seq: 0,
        recovery_point: NOT_IN_RECOVERY,
    };
    let rtt = RttState {
        srtt: 0.0,
        rttvar: 0.0,
        rto: SimDuration::from_secs(1),
        backoff: 0,
        rto_deadline: SimTime::MAX,
        rto_timer_pending: false,
    };
    let app = AppState {
        ecn_hold_until: 0.0,
        started: false,
        stopped: false,
        awaiting_transfer: false,
        pace_next: SimTime::ZERO,
        pace_pending: false,
    };
    Hot { wnd, rtt, app }
}

/// How flow logic reaches the simulator: packets leave from `node` (a
/// slab hosts endpoints on many nodes, so the agent's own node is not
/// enough) for the receiver half on `peer_node`, which the same agent
/// hosts; timer tokens carry `token_bits` (the flow slot shifted past the
/// kind byte) so the hosting agent can demultiplex.
pub(crate) struct FlowIo<'a, 'b> {
    pub ctx: &'a mut Ctx<'b>,
    pub node: NodeId,
    pub peer_node: NodeId,
    pub token_bits: u64,
}

impl FlowIo<'_, '_> {
    #[inline]
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    #[inline]
    fn send(&mut self, pkt: Packet) {
        self.ctx.send_from(self.node, pkt);
    }

    #[inline]
    fn schedule(&mut self, delay: SimDuration, kind: u64) {
        self.ctx.schedule(delay, TimerToken(kind | self.token_bits));
    }
}

/// Mutable borrows of one flow's four state parts; all protocol logic
/// lives here.
pub(crate) struct FlowView<'a> {
    pub wnd: &'a mut Wnd,
    pub rtt: &'a mut RttState,
    pub app: &'a mut AppState,
    pub cold: &'a mut FlowCold,
}

impl FlowView<'_> {
    fn effective_window(&self) -> u64 {
        self.wnd.cwnd.clamp(1.0, MAX_CWND).floor() as u64
    }

    fn send_segment(&mut self, io: &mut FlowIo<'_, '_>, seq: u64, retransmit: bool) {
        io.send(Packet {
            flow: FlowId(self.cold.cfg.flow as usize),
            dst_node: io.peer_node,
            dst_agent: io.ctx.agent,
            size_bytes: self.cold.cfg.seg_size,
            ecn: if self.cold.cfg.ecn {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            },
            sent_at: io.now(), // overwritten by the send path, kept for clarity
            payload: Payload::Data { seq, retransmit },
        });
        self.cold.stats.sent_segments += 1;
        if retransmit {
            self.cold.stats.retransmits += 1;
        }
    }

    /// Transmit one eligible segment (retransmissions first, then new
    /// data). Returns false when nothing was eligible.
    fn try_send_one(&mut self, io: &mut FlowIo<'_, '_>) -> bool {
        if let Some(seq) = self.cold.scoreboard.first_lost() {
            self.cold.scoreboard.on_retransmit(seq);
            self.send_segment(io, seq, true);
            true
        } else if self.wnd.next_seq < self.wnd.limit_seq {
            let seq = self.wnd.next_seq;
            self.wnd.next_seq += 1;
            self.cold.scoreboard.on_send_new(seq);
            self.send_segment(io, seq, false);
            true
        } else {
            false
        }
    }

    fn has_data_to_send(&self) -> bool {
        self.cold.scoreboard.first_lost().is_some() || self.wnd.next_seq < self.wnd.limit_seq
    }

    /// Transmit as much as the window allows: retransmissions first, then
    /// new data. Paced schemes (BBR) instead release quanta on the
    /// calendar via [`TOKEN_PACE`].
    fn send_available(&mut self, io: &mut FlowIo<'_, '_>) {
        if self.app.stopped || !self.app.started {
            return;
        }
        match self.cold.cc.pacing_rate() {
            Some(rate) if rate > 0.0 => self.send_paced(io, rate),
            _ => {
                let wnd = self.effective_window();
                while (self.cold.scoreboard.in_flight() as u64) < wnd {
                    if !self.try_send_one(io) {
                        break;
                    }
                }
            }
        }
        self.ensure_timer(io);
    }

    /// Arm a `TOKEN_PACE` timer for `pace_next` (coalesced: at most one
    /// pending at a time).
    fn schedule_pace(&mut self, io: &mut FlowIo<'_, '_>) {
        if self.app.pace_pending {
            return;
        }
        let now = io.now();
        let delay = if self.app.pace_next > now {
            self.app.pace_next.duration_since(now)
        } else {
            SimDuration::ZERO
        };
        io.schedule(delay, TOKEN_PACE);
        self.app.pace_pending = true;
    }

    /// Paced transmission: release up to one quantum (~1 ms of data at
    /// `rate` segments/s, clamped to [1, 64] segments) if the pacing clock
    /// allows, then book the next release on the calendar. All arithmetic
    /// is on exact integer time, so paced schedules stay byte-identical
    /// across worker and shard counts.
    fn send_paced(&mut self, io: &mut FlowIo<'_, '_>, rate: f64) {
        let now = io.now();
        if now < self.app.pace_next {
            self.schedule_pace(io);
            return;
        }
        let wnd = self.effective_window();
        let quantum = ((rate * 0.001).ceil() as u64).clamp(1, 64);
        let mut sent = 0u64;
        while sent < quantum && (self.cold.scoreboard.in_flight() as u64) < wnd {
            if !self.try_send_one(io) {
                break;
            }
            sent += 1;
        }
        if sent > 0 {
            self.app.pace_next = now + SimDuration::from_secs_f64(sent as f64 / rate);
        }
        if (self.cold.scoreboard.in_flight() as u64) < wnd && self.has_data_to_send() {
            self.schedule_pace(io);
        }
    }

    // --- RTO management -------------------------------------------------

    fn current_rto(&self) -> SimDuration {
        clamp_rto(self.rtt.rto, self.rtt.backoff, MIN_RTO, MAX_RTO)
    }

    fn restart_rto(&mut self, now: SimTime) {
        self.rtt.rto_deadline = now + self.current_rto();
    }

    fn ensure_timer(&mut self, io: &mut FlowIo<'_, '_>) {
        if self.cold.scoreboard.in_flight() == 0 && self.cold.scoreboard.lost_count() == 0 {
            self.rtt.rto_deadline = SimTime::MAX;
            return;
        }
        if self.rtt.rto_deadline == SimTime::MAX {
            self.restart_rto(io.now());
        }
        if !self.rtt.rto_timer_pending {
            let now = io.now();
            let delay = if self.rtt.rto_deadline > now {
                self.rtt.rto_deadline.duration_since(now)
            } else {
                SimDuration::ZERO
            };
            io.schedule(delay, TOKEN_RTO);
            self.rtt.rto_timer_pending = true;
        }
    }

    fn on_rto_timer(&mut self, io: &mut FlowIo<'_, '_>) {
        self.rtt.rto_timer_pending = false;
        if self.app.stopped || self.rtt.rto_deadline == SimTime::MAX {
            return;
        }
        let now = io.now();
        if now < self.rtt.rto_deadline {
            // Deadline was pushed forward by ACK progress; re-arm lazily.
            // Deadlines are exact nanoseconds, so this comparison needs no
            // epsilon — a timer that fires at its deadline is at it.
            self.ensure_timer(io);
            return;
        }
        // Genuine timeout.
        self.cold.stats.timeouts += 1;
        let prior_cwnd = self.wnd.cwnd;
        self.wnd.ssthresh = (self.wnd.cwnd / 2.0).max(2.0);
        self.wnd.cwnd = 1.0;
        self.rtt.backoff = (self.rtt.backoff + 1).min(16);
        self.cold.scoreboard.mark_all_lost();
        // A timeout ends any fast-recovery episode and starts a fresh one
        // so subsequent SACK losses don't re-cut the window immediately.
        // No `on_recovery_start`: post-RTO recovery is plain slow start
        // from cwnd = 1, not a PRR/inflight-governed episode.
        self.wnd.recovery_point = self.wnd.next_seq;
        self.cold.cc.on_congestion_event(
            now.as_secs_f64(),
            prior_cwnd,
            self.cold.scoreboard.in_flight() as u64,
        );
        self.restart_rto(now);
        self.send_available(io);
    }

    // --- ACK processing --------------------------------------------------

    fn update_rtt(&mut self, sample: f64) {
        match self.rtt.srtt() {
            None => {
                self.rtt.srtt = sample;
                self.rtt.rttvar = sample / 2.0;
            }
            Some(s) => {
                self.rtt.rttvar = 0.75 * self.rtt.rttvar + 0.25 * (s - sample).abs();
                self.rtt.srtt = 0.875 * s + 0.125 * sample;
            }
        }
        let srtt = self.rtt.srtt;
        self.rtt.rto = clamp_rto(rto_estimate(srtt, self.rtt.rttvar), 0, MIN_RTO, MAX_RTO);
    }

    /// A loss/ECN-triggered multiplicative decrease (at most one per
    /// recovery episode / per RTT for ECN). When the algorithm governs its
    /// own recovery (CUBIC's PRR, BBR) and this reduction *enters* fast
    /// recovery, only `ssthresh` is cut here — the in-recovery window is
    /// then driven by the algorithm's recovery hooks.
    fn congestion_reduce(&mut self, now: f64, entering_recovery: bool) {
        let factor = self.cold.cc.loss_reduction();
        let prior_cwnd = self.wnd.cwnd;
        self.wnd.ssthresh = (self.wnd.cwnd * (1.0 - factor)).max(2.0);
        if !(entering_recovery && self.cold.cc.governs_recovery()) {
            self.wnd.cwnd = self.wnd.ssthresh;
        }
        self.cold
            .cc
            .on_congestion_event(now, prior_cwnd, self.cold.scoreboard.in_flight() as u64);
    }

    fn on_ack_packet(
        &mut self,
        io: &mut FlowIo<'_, '_>,
        cum_ack: u64,
        sack: [Option<netsim::SackBlock>; netsim::MAX_SACK_BLOCKS],
        ts_echo: netsim::SimTime,
        owd: f64,
        ece: bool,
    ) {
        let now = io.now().as_secs_f64();
        let rtt = io.now().duration_since(ts_echo).as_secs_f64();
        if rtt > 0.0 {
            self.update_rtt(rtt);
        }

        // 1. Cumulative progress.
        let newly = if cum_ack > self.wnd.high_ack {
            let n = self.cold.scoreboard.ack_to(cum_ack);
            self.wnd.high_ack = cum_ack;
            self.cold.stats.acked_segments += n;
            self.rtt.backoff = 0;
            self.restart_rto(io.now());
            n
        } else {
            0
        };

        // 2. Recovery exit.
        if self.wnd.in_recovery() && self.wnd.high_ack >= self.wnd.recovery_point {
            self.wnd.recovery_point = NOT_IN_RECOVERY;
            let mut ctx_cc = CcContext {
                now,
                rtt,
                owd,
                newly_acked: newly,
                in_flight: self.cold.scoreboard.in_flight() as u64,
                cwnd: &mut self.wnd.cwnd,
                ssthresh: &mut self.wnd.ssthresh,
            };
            self.cold.cc.on_recovery_exit(&mut ctx_cc);
        }

        // 3. SACK bookkeeping and loss declaration.
        for block in sack.into_iter().flatten() {
            self.cold.scoreboard.sack(block);
        }
        let new_losses = self.cold.scoreboard.declare_losses();
        if new_losses > 0 && !self.wnd.in_recovery() {
            // Enter fast recovery: one multiplicative decrease per episode.
            self.wnd.recovery_point = self.wnd.next_seq;
            self.cold.stats.loss_events += 1;
            self.congestion_reduce(now, true);
            self.cold
                .cc
                .on_recovery_start(now, self.cold.scoreboard.in_flight() as u64);
        }

        // 4. ECN response (once per RTT, not during loss recovery).
        if ece && now >= self.app.ecn_hold_until && !self.wnd.in_recovery() {
            self.cold.stats.ecn_reductions += 1;
            self.congestion_reduce(now, false);
            let hold = self
                .rtt
                .srtt()
                .unwrap_or_else(|| self.rtt.rto.as_secs_f64());
            self.app.ecn_hold_until = now + hold;
        }

        // 5. Congestion-control growth / early response.
        if rtt > 0.0 {
            let mut ctx_cc = CcContext {
                now,
                rtt,
                owd,
                newly_acked: newly,
                in_flight: self.cold.scoreboard.in_flight() as u64,
                cwnd: &mut self.wnd.cwnd,
                ssthresh: &mut self.wnd.ssthresh,
            };
            if self.wnd.recovery_point == NOT_IN_RECOVERY {
                match self.cold.cc.on_ack(&mut ctx_cc) {
                    CcAction::None => {}
                    CcAction::EarlyReduce { factor } => {
                        self.cold.stats.early_reductions += 1;
                        // ssthresh keeps the RFC 5681 floor of 2; the
                        // window itself may shrink to one segment so a
                        // heavily multiplexed link stays schedulable.
                        let reduced = self.wnd.cwnd * (1.0 - factor);
                        self.wnd.ssthresh = reduced.max(2.0);
                        self.wnd.cwnd = reduced.max(1.0);
                    }
                }
            } else {
                // In recovery the window is governed by the algorithm's
                // recovery hook. The default reproduces the historical
                // rule — hold the window, except post-RTO slow start:
                // after a timeout cwnd was reset to 1 with recovery_point
                // = next_seq, and without growth the sender would crawl at
                // one segment per RTT until the entire pre-timeout window
                // was re-covered. CUBIC overrides this with PRR, BBR with
                // its inflight cap.
                self.cold.cc.on_recovery_ack(&mut ctx_cc);
                self.cold.cc.on_rtt_sample(now, rtt, owd);
            }
        }
        self.wnd.cwnd = self.wnd.cwnd.clamp(1.0, MAX_CWND);

        if let Some(rec) = &mut self.cold.rec {
            rec.on_ack(now, rtt, owd, self.wnd.cwnd, self.cold.cfg.record_samples);
        }

        // 6. Transfer completion → ask the source for the next one.
        if !self.app.awaiting_transfer
            && !self.app.stopped
            && self.app.started
            && self.wnd.next_seq >= self.wnd.limit_seq
            && self.cold.scoreboard.is_empty()
        {
            self.begin_next_transfer(io);
        }

        // 7. Keep the pipe full.
        self.send_available(io);
    }

    fn begin_next_transfer(&mut self, io: &mut FlowIo<'_, '_>) {
        match self.cold.source.next_transfer(&mut self.cold.rng) {
            None => {
                self.app.stopped = true;
                self.rtt.rto_deadline = SimTime::MAX;
            }
            Some(t) => {
                self.app.awaiting_transfer = true;
                // Stash the size here; think time via timer. (The token's
                // high bits address the flow, so they can't carry it.)
                self.cold.pending_transfer = t.segments;
                io.schedule(SimDuration::from_secs_f64(t.think_secs), TOKEN_NEW_TRANSFER);
            }
        }
    }

    fn on_new_transfer(&mut self, io: &mut FlowIo<'_, '_>) {
        let segments = std::mem::take(&mut self.cold.pending_transfer);
        self.app.awaiting_transfer = false;
        if self.app.stopped {
            return;
        }
        self.wnd.limit_seq = self.wnd.limit_seq.saturating_add(segments);
        // Each transfer restarts from a fresh (small) window, modelling a
        // new connection of the same session over the same path.
        self.wnd.cwnd = INITIAL_CWND;
        self.send_available(io);
    }

    /// Dispatch a packet delivered to this flow.
    pub(crate) fn handle_packet(&mut self, pkt: Packet, io: &mut FlowIo<'_, '_>) {
        if let Payload::Ack {
            cum_ack,
            sack,
            ts_echo,
            owd_echo,
            ece,
        } = pkt.payload
        {
            self.on_ack_packet(io, cum_ack, sack, ts_echo, owd_echo.as_secs_f64(), ece);
        }
        // Data packets addressed to a sender are a wiring bug; ignore in
        // release, catch in debug.
        debug_assert!(pkt.is_ack(), "sender received a data packet");
    }

    /// Dispatch a timer by its kind byte (token low 8 bits).
    pub(crate) fn handle_timer(&mut self, kind: u64, io: &mut FlowIo<'_, '_>) {
        match kind {
            TOKEN_START => {
                if !self.app.started {
                    self.app.started = true;
                    self.begin_next_transfer(io);
                }
            }
            TOKEN_STOP => {
                self.app.stopped = true;
                self.rtt.rto_deadline = SimTime::MAX;
            }
            TOKEN_NEW_TRANSFER => self.on_new_transfer(io),
            TOKEN_RTO => self.on_rto_timer(io),
            TOKEN_PACE => {
                self.app.pace_pending = false;
                self.send_available(io);
            }
            other => unreachable!("unknown sender timer token {other}"),
        }
    }
}

/// The RTO estimate of RFC 6298 §2.3/§2.4 before its bounds apply:
/// `srtt + max(4·rttvar, G)`. The variance term is floored at the clock
/// granularity `G` so a microsecond-RTT path (srtt and rttvar both ~µs)
/// still yields an RTO safely above the measurement noise. This is the one
/// float→integer conversion per RTT sample; from here on all RTO
/// arithmetic (backoff, deadline) is exact.
fn rto_estimate(srtt: f64, rttvar: f64) -> SimDuration {
    SimDuration::from_secs_f64(srtt + (4.0 * rttvar).max(RTO_GRANULARITY_SECS))
}

/// The armed RTO: `rto` doubled per backoff step (capped at 2^16),
/// clamped to `[min, max]` — all in exact integer nanoseconds, so a deep
/// backoff ladder lands on a deterministic nanosecond instead of
/// accumulating float rounding.
fn clamp_rto(rto: SimDuration, backoff: u32, min: SimDuration, max: SimDuration) -> SimDuration {
    (rto * (1u64 << backoff.min(16))).clamp(min, max)
}

/// Publish a flow's cumulative statistics: counters, its RTT histogram,
/// and one `tcp/acked_final` record with its final delivered-segment
/// count — the per-flow throughput sample Jain's fairness index is derived
/// from (key = flow id, summed per (scope, key)).
fn flush_totals(flow: u32, s: &SenderStats, rtt_hist: Option<&BucketHistogram>) {
    telemetry::counter_add("tcp/acked_segments", s.acked_segments);
    telemetry::counter_add("tcp/sent_segments", s.sent_segments);
    telemetry::counter_add("tcp/retransmits", s.retransmits.into());
    telemetry::counter_add("tcp/loss_events", s.loss_events.into());
    telemetry::counter_add("tcp/timeouts", s.timeouts.into());
    telemetry::counter_add("tcp/ecn_reductions", s.ecn_reductions.into());
    telemetry::counter_add("tcp/early_reductions", s.early_reductions.into());
    if let Some(h) = rtt_hist {
        telemetry::histogram_merge("tcp/rtt_ns", h);
    }
    telemetry::record_id(
        telemetry::SeriesId::TCP_ACKED_FINAL,
        flow.into(),
        0.0,
        s.acked_segments as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use crate::source::Greedy;

    /// One flow's four parts, held together as a slab row holds them.
    struct Flow {
        wnd: Wnd,
        rtt: RttState,
        app: AppState,
        cold: FlowCold,
    }

    impl Flow {
        fn view(&mut self) -> FlowView<'_> {
            FlowView {
                wnd: &mut self.wnd,
                rtt: &mut self.rtt,
                app: &mut self.app,
                cold: &mut self.cold,
            }
        }
    }

    fn sender() -> Flow {
        let cfg = TcpConfig {
            flow: 0,
            seg_size: 1000,
            ecn: false,
            record_samples: false,
        };
        let Hot { wnd, rtt, app } = fresh_hot();
        let row = PendingRow {
            source: Box::new(Greedy),
            seed: 0,
            cfg,
            kind: 0,
        };
        let cold = FlowCold::build(row, Cc::Reno(Reno::new()), false);
        Flow {
            wnd,
            rtt,
            app,
            cold,
        }
    }

    /// The RTO ladder exactly as the sender computed it before the
    /// integer-time migration: f64 seconds throughout, converted to
    /// nanoseconds only at the scheduling boundary.
    struct OldFloatRto {
        srtt: Option<f64>,
        rttvar: f64,
        rto: f64,
        min_rto: f64,
        max_rto: f64,
    }

    impl OldFloatRto {
        fn new() -> Self {
            OldFloatRto {
                srtt: None,
                rttvar: 0.0,
                rto: 1.0,
                min_rto: 0.2,
                max_rto: 60.0,
            }
        }

        fn update_rtt(&mut self, sample: f64) {
            match self.srtt {
                None => {
                    self.srtt = Some(sample);
                    self.rttvar = sample / 2.0;
                }
                Some(s) => {
                    self.rttvar = 0.75 * self.rttvar + 0.25 * (s - sample).abs();
                    self.srtt = Some(0.875 * s + 0.125 * sample);
                }
            }
            self.rto = (self.srtt.unwrap() + 4.0 * self.rttvar).clamp(self.min_rto, self.max_rto);
        }

        fn current_rto_ns(&self, backoff: u32) -> u64 {
            let secs =
                (self.rto * f64::from(1u32 << backoff.min(16))).clamp(self.min_rto, self.max_rto);
            // The old scheduling boundary: SimDuration::from_secs_f64.
            (secs * 1e9).round() as u64
        }
    }

    /// Regression for the float→integer RTO migration: for RTT samples as
    /// the simulator actually produces them (integer nanoseconds read
    /// back through `as_secs_f64`), every rung of the backoff ladder —
    /// through the 2^16 doubling cap and both RTO clamps — lands on the
    /// same nanosecond under the old float path and the new integer path.
    /// What the integer path *removes* is the old deadline arithmetic
    /// (`now + rto - now` in f64), which drifted once `now` grew large.
    #[test]
    fn backoff_ladder_matches_old_float_path() {
        // (description, RTT samples in ns)
        let cases: [(&str, &[u64]); 5] = [
            ("one 21.04 ms sample (the two_node_sim RTT)", &[21_040_000]),
            ("one 3 ns sample (min_rto clamp floor)", &[3]),
            ("one 150 ms sample (max_rto cap mid-ladder)", &[150_000_000]),
            (
                "EWMA over a jittery handful",
                &[21_040_000, 24_113_527, 19_998_001, 22_000_003, 21_500_750],
            ),
            (
                "one 2.5 s sample (cap reached by backoff 5)",
                &[2_500_000_000],
            ),
        ];
        for (what, samples) in cases {
            let mut new_path = sender();
            let mut old_path = OldFloatRto::new();
            for &ns in samples {
                let secs = SimDuration::from_nanos(ns).as_secs_f64();
                new_path.view().update_rtt(secs);
                old_path.update_rtt(secs);
            }
            for backoff in 0..=20u32 {
                new_path.rtt.backoff = backoff;
                let new_ns = new_path.view().current_rto().as_nanos();
                let old_ns = old_path.current_rto_ns(backoff);
                assert_eq!(
                    new_ns, old_ns,
                    "{what}: ladder diverged at backoff {backoff}: \
                     integer {new_ns} ns vs float {old_ns} ns"
                );
            }
            // The cap must engage: a deep ladder is exactly max_rto.
            new_path.rtt.backoff = 20;
            assert!(new_path.view().current_rto() <= SimDuration::from_secs(60));
        }
    }

    /// RFC 6298 granularity clamp: on a microsecond-RTT link with an
    /// aggressive minimum RTO, repeated near-identical samples drive
    /// `4·rttvar` toward zero — the RTO must still hold at least the
    /// clock granularity above `srtt`, not collapse to the raw
    /// `srtt + 4·rttvar` (which here would be ~50 µs and fire on any
    /// scheduling jitter).
    #[test]
    fn sub_millisecond_rtt_keeps_granularity_floor() {
        let mut s = sender();
        // 50 µs RTT samples, essentially noiseless.
        for _ in 0..200 {
            s.view().update_rtt(50e-6);
        }
        let srtt = s.rtt.srtt().unwrap();
        assert!(srtt < 60e-6, "srtt should track the ~50 µs path");
        assert!(
            4.0 * s.rtt.rttvar < RTO_GRANULARITY_SECS,
            "test premise: variance term must have decayed below G"
        );
        // The sender's own floor is MIN_RTO; clamp at 1 µs instead.
        assert_eq!(s.rtt.rto, MIN_RTO);
        let rto = clamp_rto(
            rto_estimate(srtt, s.rtt.rttvar),
            0,
            SimDuration::from_micros(1),
            MAX_RTO,
        );
        assert!(
            rto >= SimDuration::from_secs_f64(RTO_GRANULARITY_SECS),
            "RTO {rto:?} fell below the granularity floor"
        );
        assert!(
            rto <= SimDuration::from_secs_f64(srtt + RTO_GRANULARITY_SECS)
                + SimDuration::from_nanos(1),
            "RTO {rto:?} should be srtt + G when variance has decayed"
        );
    }

    /// The doubling cap itself: backoff beyond 16 must not widen the RTO
    /// further (and must not overflow the integer multiply).
    #[test]
    fn backoff_caps_at_sixteen_doublings() {
        let rto = SimDuration::from_micros(300); // below MIN_RTO × 2^-16
        let ladder =
            |backoff| clamp_rto(rto, backoff, SimDuration::from_nanos(1), SimDuration::MAX);
        let at_cap = ladder(16);
        assert_eq!(at_cap, rto * 65_536);
        assert_eq!(ladder(17), at_cap);
        assert_eq!(ladder(u32::MAX), at_cap);
    }
}
