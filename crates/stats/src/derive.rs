//! Online derived metrics: streaming reducers over telemetry records.
//!
//! The telemetry layer (PR 3) emits raw `(scope, series, key, t, value)`
//! records; this module turns them into the quantities the paper argues
//! about — queueing-delay distributions, link utilization, drop/mark
//! rates, Jain's fairness index, and PERT response frequency — *while
//! the run is still going*, with no post-processing pass over a trace
//! file.
//!
//! ## Determinism contract
//!
//! A [`DeriveSet`] obeys the same contract as [`MetricsSet`]: every
//! reduction is integer-only and commutative (bucket-wise histogram
//! addition, `u64` summation, keyed maxima, `BTreeMap` accumulation),
//! so feeding the same multiset of records in *any* order — including
//! the nondeterministic interleaving of a parallel runner — produces a
//! bit-identical [`DerivedSummary`]. Floating-point record values are
//! quantized to integers (microseconds, basis points) at ingest, never
//! accumulated as floats.
//!
//! [`MetricsSet`]: crate::metrics::MetricsSet

use crate::metrics::BucketHistogram;
use crate::series::SeriesId;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Queueing-delay bucket edges, microseconds: a 1–2–5 ladder from
/// 100 µs to 5 s. A percentile read from the histogram is exact to
/// within one bucket width (see [`BucketHistogram::percentile_upper`]).
pub const QDELAY_EDGES_US: [u64; 15] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

/// Link-utilization bucket edges, basis points (0.5 % granularity up
/// to the 100 % bucket at 10 000 bp).
pub const UTIL_EDGES_BP: [u64; 20] = [
    500, 1_000, 1_500, 2_000, 2_500, 3_000, 3_500, 4_000, 4_500, 5_000, 5_500, 6_000, 6_500, 7_000,
    7_500, 8_000, 8_500, 9_000, 9_500, 10_000,
];

/// Fidelity pairing window, microseconds. Truth samples (router taps)
/// and estimate samples (PERT controllers) arrive at different instants;
/// both are averaged per 10 ms window and compared window against
/// window. Ten milliseconds is well under the `srtt_0.99` filter's time
/// constant, so the binning does not blur the signal being measured.
pub const FIDELITY_WINDOW_US: u64 = 10_000;

/// Lag-correlation offsets, in fidelity windows (0/10/20/50/100 ms):
/// how far the end-host estimate trails the router truth.
pub const FIDELITY_LAG_WINDOWS: [u64; 5] = [0, 1, 2, 5, 10];

/// (key, fidelity window) → (Σ quantized value, samples).
type FidMap = HashMap<(u64, u64), (u64, u64)>;

/// Fold one sample at time `t` into its fidelity window.
fn fid_add(map: &mut FidMap, key: u64, t: f64, amount: u64) {
    let win = quantize_us(t) / FIDELITY_WINDOW_US;
    let e = map.entry((key, win)).or_insert((0, 0));
    e.0 = e.0.saturating_add(amount);
    e.1 += 1;
}

/// Fidelity accumulators of one scope: windowed sums of the router-truth
/// series (`truth/qdelay`, `truth/prob`, keyed by link) and of the
/// end-host estimate series (`pert/qdelay`, `pert/prob`, keyed by
/// flow). Everything is integer sums; accumulation is commutative and
/// merge is plain addition, so the maps can be hash maps — the ingest
/// side runs per ACK, and every reader either adds commutatively or
/// sorts into `BTreeMap`s first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct FidScope {
    truth_qd: FidMap,
    truth_p: FidMap,
    est_qd: FidMap,
    est_p: FidMap,
}

impl FidScope {
    fn absorb(&mut self, other: FidScope) {
        // Commutative sums: HashMap iteration order cannot matter.
        for (dst, src) in [
            (&mut self.truth_qd, other.truth_qd),
            (&mut self.truth_p, other.truth_p),
            (&mut self.est_qd, other.est_qd),
            (&mut self.est_p, other.est_p),
        ] {
            if dst.is_empty() {
                *dst = src;
                continue;
            }
            for (k, (sum, n)) in src {
                let e = dst.entry(k).or_insert((0, 0));
                e.0 = e.0.saturating_add(sum);
                e.1 += n;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.truth_qd.is_empty()
            && self.truth_p.is_empty()
            && self.est_qd.is_empty()
            && self.est_p.is_empty()
    }
}

/// The streaming reducers of one scope (one job). A telemetry sink owns
/// one for its thread's scope, feeds it with [`ingest_id`](Self::ingest_id)
/// — an integer `match`, no name compare, no map probe for the scope —
/// and hands it to [`DeriveSet::absorb_scope`].
#[derive(Clone, Debug, PartialEq)]
pub struct DeriveScope {
    /// Queueing delay samples, quantized to microseconds.
    qdelay_us: BucketHistogram,
    /// Windowed link utilization, quantized to basis points.
    util_bp: BucketHistogram,
    /// Packets offered to bottleneck queues (final per-link counts).
    offered: u64,
    /// Packets dropped (overflow + early drops).
    dropped: u64,
    /// Packets ECN-marked.
    marked: u64,
    /// Per-flow delivered segment counts for Jain's index.
    acked: BTreeMap<u64, u64>,
    /// PERT early responses (window reductions triggered by the
    /// delay-based controller).
    responses: u64,
    /// Last-activity time, quantized to microseconds (`None` until a
    /// PERT record arrives); the sum over scopes approximates total
    /// active simulated time.
    active_us: Option<u64>,
    /// Per-shard processed-event counts (`shard/events`, keyed by shard
    /// id). Exact: the shard runner emits them every epoch.
    shard_events: BTreeMap<u64, u64>,
    /// Per-shard compute wall time, nanoseconds, summed over *sampled*
    /// epochs only (`shard/epoch_compute_ns`; 1-in-16 sampling).
    shard_compute_ns: BTreeMap<u64, u64>,
    /// Per-shard barrier-wait wall time over the same sampled epochs
    /// (`shard/barrier_wait_ns`).
    shard_wait_ns: BTreeMap<u64, u64>,
    /// Number of sampled-epoch wall records ingested (compute spans).
    shard_samples: u64,
    /// CUBIC HyStart exits (`cubic/hystart_exit` records).
    cc_hystart_exits: u64,
    /// CUBIC congestion epochs (`cubic/w_max` records, one per loss).
    cc_cubic_epochs: u64,
    /// Largest CUBIC plateau seen, milli-segments.
    cc_wmax_max_milli: u64,
    /// BBR bandwidth-filter updates (`bbr/btlbw` records, one per round).
    cc_bbr_rounds: u64,
    /// Peak BtlBw estimate, milli-segments/second.
    cc_btlbw_max_milli: u64,
    /// Lowest BBR min-RTT estimate, microseconds (`u64::MAX` = none).
    cc_min_rtt_us: u64,
    /// BBR state transitions (`bbr/state` records).
    cc_bbr_transitions: u64,
    /// Transitions into ProbeRTT (state index 3).
    cc_probe_rtt_entries: u64,
    /// Fidelity accumulators (router truth vs PERT estimate).
    fid: FidScope,
}

impl Default for DeriveScope {
    fn default() -> Self {
        DeriveScope {
            qdelay_us: BucketHistogram::new(&QDELAY_EDGES_US),
            util_bp: BucketHistogram::new(&UTIL_EDGES_BP),
            offered: 0,
            dropped: 0,
            marked: 0,
            acked: BTreeMap::new(),
            responses: 0,
            active_us: None,
            shard_events: BTreeMap::new(),
            shard_compute_ns: BTreeMap::new(),
            shard_wait_ns: BTreeMap::new(),
            shard_samples: 0,
            cc_hystart_exits: 0,
            cc_cubic_epochs: 0,
            cc_wmax_max_milli: 0,
            cc_bbr_rounds: 0,
            cc_btlbw_max_milli: 0,
            cc_min_rtt_us: u64::MAX,
            cc_bbr_transitions: 0,
            cc_probe_rtt_entries: 0,
            fid: FidScope::default(),
        }
    }
}

impl DeriveScope {
    /// Consume one record of this scope. Series no reducer reads are
    /// ignored, so this can sit on the full record stream.
    pub fn ingest_id(&mut self, series: SeriesId, key: u64, t: f64, value: f64) {
        match series {
            SeriesId::PERT_QDELAY => {
                // Seconds → µs. The quantization is a pure function of
                // the record value, so ingestion order cannot matter.
                let us = quantize_us(value);
                self.qdelay_us.observe(us);
                fid_add(&mut self.fid.est_qd, key, t, us);
            }
            SeriesId::LINK_UTIL_BP => self.util_bp.observe(value as u64),
            SeriesId::LINK_IDLE_WINS => self.util_bp.observe_n(0, value as u64),
            SeriesId::QUEUE_FINAL_OFFERED => self.offered += value as u64,
            SeriesId::QUEUE_FINAL_DROPPED => self.dropped += value as u64,
            SeriesId::QUEUE_FINAL_MARKED => self.marked += value as u64,
            SeriesId::TCP_ACKED_FINAL => *self.acked.entry(key).or_insert(0) += value as u64,
            SeriesId::PERT_RESPONSE => {
                // One record per early response. The value carries the
                // encoded (regime, probability) tag, so it no longer
                // counts as the response weight itself.
                self.responses += 1;
                self.touch(t);
            }
            SeriesId::PERT_PROB => {
                fid_add(&mut self.fid.est_p, key, t, prob_bp(value));
                self.touch(t);
            }
            SeriesId::PERT_SRTT => self.touch(t),
            SeriesId::TRUTH_QDELAY => fid_add(&mut self.fid.truth_qd, key, t, quantize_us(value)),
            SeriesId::TRUTH_PROB => fid_add(&mut self.fid.truth_p, key, t, prob_bp(value)),
            SeriesId::SHARD_EVENTS => {
                *self.shard_events.entry(key).or_insert(0) += value as u64;
            }
            SeriesId::SHARD_EPOCH_COMPUTE_NS => {
                *self.shard_compute_ns.entry(key).or_insert(0) += value as u64;
                self.shard_samples += 1;
            }
            SeriesId::SHARD_BARRIER_WAIT_NS => {
                *self.shard_wait_ns.entry(key).or_insert(0) += value as u64;
            }
            // Congestion-control zoo series. Counts and maxima/minima
            // only — all commutative, floats quantized at ingest.
            SeriesId::CUBIC_HYSTART_EXIT => self.cc_hystart_exits += 1,
            SeriesId::CUBIC_W_MAX => {
                self.cc_cubic_epochs += 1;
                self.cc_wmax_max_milli = self.cc_wmax_max_milli.max(quantize_milli(value));
            }
            SeriesId::BBR_BTLBW => {
                self.cc_bbr_rounds += 1;
                self.cc_btlbw_max_milli = self.cc_btlbw_max_milli.max(quantize_milli(value));
            }
            SeriesId::BBR_MIN_RTT => {
                self.cc_min_rtt_us = self.cc_min_rtt_us.min(quantize_us(value));
            }
            SeriesId::BBR_STATE => {
                self.cc_bbr_transitions += 1;
                if value as u64 == 3 {
                    self.cc_probe_rtt_entries += 1;
                }
            }
            _ => {}
        }
    }

    fn touch(&mut self, t: f64) {
        self.active_us = self.active_us.max(Some(quantize_us(t)));
    }

    /// Add `other`'s cross-scope reducers (everything but the per-flow
    /// `acked`, `active_us` and `fid`) into this one (commutative).
    fn add_totals(&mut self, other: &DeriveScope) {
        self.qdelay_us.merge(&other.qdelay_us);
        self.util_bp.merge(&other.util_bp);
        self.offered += other.offered;
        self.dropped += other.dropped;
        self.marked += other.marked;
        self.responses += other.responses;
        for (mine, theirs) in [
            (&mut self.shard_events, &other.shard_events),
            (&mut self.shard_compute_ns, &other.shard_compute_ns),
            (&mut self.shard_wait_ns, &other.shard_wait_ns),
        ] {
            for (shard, n) in theirs {
                *mine.entry(*shard).or_insert(0) += n;
            }
        }
        self.shard_samples += other.shard_samples;
        self.cc_hystart_exits += other.cc_hystart_exits;
        self.cc_cubic_epochs += other.cc_cubic_epochs;
        self.cc_wmax_max_milli = self.cc_wmax_max_milli.max(other.cc_wmax_max_milli);
        self.cc_bbr_rounds += other.cc_bbr_rounds;
        self.cc_btlbw_max_milli = self.cc_btlbw_max_milli.max(other.cc_btlbw_max_milli);
        self.cc_min_rtt_us = self.cc_min_rtt_us.min(other.cc_min_rtt_us);
        self.cc_bbr_transitions += other.cc_bbr_transitions;
        self.cc_probe_rtt_entries += other.cc_probe_rtt_entries;
    }

    /// Merge another part of the same scope into this one (commutative).
    /// Consuming: maps this side has nothing in yet are moved, not copied.
    fn absorb(&mut self, other: DeriveScope) {
        self.add_totals(&other);
        if self.acked.is_empty() {
            self.acked = other.acked;
        } else {
            for (flow, n) in other.acked {
                *self.acked.entry(flow).or_insert(0) += n;
            }
        }
        self.active_us = self.active_us.max(other.active_us);
        self.fid.absorb(other.fid);
    }

    /// True when no record has contributed anything.
    fn is_empty(&self) -> bool {
        self.qdelay_us.total == 0
            && self.util_bp.total == 0
            && self.offered == 0
            && self.dropped == 0
            && self.marked == 0
            && self.acked.is_empty()
            && self.responses == 0
            && self.active_us.is_none()
            && self.shard_events.is_empty()
            && self.shard_compute_ns.is_empty()
            && self.shard_wait_ns.is_empty()
            && self.shard_samples == 0
            && !self.cc_active()
            && self.fid.is_empty()
    }

    /// True when any congestion-control-zoo record has arrived.
    fn cc_active(&self) -> bool {
        self.cc_hystart_exits > 0
            || self.cc_cubic_epochs > 0
            || self.cc_bbr_rounds > 0
            || self.cc_min_rtt_us != u64::MAX
            || self.cc_bbr_transitions > 0
    }
}

/// Streaming reducers over the telemetry record stream, one
/// [`DeriveScope`] per scope.
///
/// Feed records through [`ingest`](Self::ingest), or per-thread parts
/// through [`absorb_scope`](Self::absorb_scope) (the telemetry layer, when
/// a sink is handed over), then call [`summary`](Self::summary).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeriveSet {
    scopes: BTreeMap<String, DeriveScope>,
}

impl DeriveSet {
    /// An empty reducer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one telemetry record by name. Unrecognized series are
    /// ignored, so the reducer set can sit on the full record stream.
    pub fn ingest(&mut self, scope: &str, series: &str, key: u64, t: f64, value: f64) {
        let Some(id) = SeriesId::builtin(series).filter(|id| id.is_reduced()) else {
            return;
        };
        // Probe by `&str`: a `String` is made on first sight of a scope only.
        if let Some(s) = self.scopes.get_mut(scope) {
            return s.ingest_id(id, key, t, value);
        }
        let mut s = DeriveScope::default();
        s.ingest_id(id, key, t, value);
        self.scopes.insert(scope.to_owned(), s);
    }

    /// Merge one scope's reducers into this set (commutative); a scope
    /// seen for the first time is moved in whole.
    pub fn absorb_scope(&mut self, scope: &str, part: DeriveScope) {
        match self.scopes.get_mut(scope) {
            Some(mine) => mine.absorb(part),
            None => {
                self.scopes.insert(scope.to_owned(), part);
            }
        }
    }

    /// Merge another reducer set into this one (commutative).
    pub fn absorb(&mut self, other: DeriveSet) {
        for (scope, part) in other.scopes {
            self.absorb_scope(&scope, part);
        }
    }

    /// True when no record has contributed anything.
    pub fn is_empty(&self) -> bool {
        self.scopes.values().all(DeriveScope::is_empty)
    }

    /// Reduce to the reported summary. Pure integer arithmetic over
    /// state that is itself order-independent, so the summary is
    /// byte-identical at any worker count.
    pub fn summary(&self) -> DerivedSummary {
        let mut all = DeriveScope::default();
        for s in self.scopes.values() {
            all.add_totals(s);
        }

        let qdelay = (all.qdelay_us.total > 0).then(|| QdelaySummary {
            samples: all.qdelay_us.total,
            mean_us: (all.qdelay_us.sum / u128::from(all.qdelay_us.total)) as u64,
            p50_us: all.qdelay_us.percentile_upper(50).unwrap(),
            p95_us: all.qdelay_us.percentile_upper(95).unwrap(),
            p99_us: all.qdelay_us.percentile_upper(99).unwrap(),
        });

        let util = (all.util_bp.total > 0).then(|| UtilSummary {
            windows: all.util_bp.total,
            mean_bp: (all.util_bp.sum / u128::from(all.util_bp.total)) as u64,
            p50_bp: all.util_bp.percentile_upper(50).unwrap(),
        });

        let loss = (all.offered > 0).then(|| LossSummary {
            offered: all.offered,
            dropped: all.dropped,
            marked: all.marked,
            drop_bp: rate_bp(all.dropped, all.offered),
            mark_bp: rate_bp(all.marked, all.offered),
        });

        let fairness = self.fairness_summary();

        let mut active = self.scopes.values().filter_map(|s| s.active_us).peekable();
        let pert = (all.responses > 0 || active.peek().is_some()).then(|| {
            let active_us: u64 = active.sum();
            PertSummary {
                responses: all.responses,
                active_us,
                // Responses per second of active simulated time, in
                // milli-hertz (u128 intermediate: no overflow below
                // ~1.8e13 responses).
                freq_mhz: if active_us == 0 {
                    0
                } else {
                    (u128::from(all.responses) * 1_000_000_000 / u128::from(active_us)) as u64
                },
            }
        });

        let cc = all.cc_active().then_some(CcSummary {
            hystart_exits: all.cc_hystart_exits,
            cubic_epochs: all.cc_cubic_epochs,
            cubic_wmax_max_milli: all.cc_wmax_max_milli,
            bbr_rounds: all.cc_bbr_rounds,
            bbr_btlbw_max_milli: all.cc_btlbw_max_milli,
            bbr_min_rtt_us: if all.cc_min_rtt_us == u64::MAX {
                0
            } else {
                all.cc_min_rtt_us
            },
            bbr_transitions: all.cc_bbr_transitions,
            bbr_probe_rtt_entries: all.cc_probe_rtt_entries,
        });

        DerivedSummary {
            qdelay,
            util,
            loss,
            fairness,
            pert,
            shards: all.shard_summary(),
            cc,
            fidelity: self.fidelity_summary(),
        }
    }

    /// Pair windowed estimates with windowed truth and reduce to the
    /// fidelity block. All arithmetic is integer over `BTreeMap`s built
    /// by commutative accumulation, so the result is order-independent.
    fn fidelity_summary(&self) -> Option<FidelitySummary> {
        struct FlowAcc {
            windows: u64,
            err_sum: i128,
            abs: BucketHistogram,
        }
        struct GroupAcc {
            flows: std::collections::BTreeSet<u64>,
            windows: u64,
            err_sum: i128,
            abs: BucketHistogram,
            paired_prob: u64,
            agree: u64,
        }

        let mut abs = BucketHistogram::new(&QDELAY_EDGES_US);
        let mut pos = BucketHistogram::new(&QDELAY_EDGES_US);
        let mut neg = BucketHistogram::new(&QDELAY_EDGES_US);
        let mut err_sum: i128 = 0;
        let mut windows: u64 = 0;
        let mut paired_prob: u64 = 0;
        let mut agree: u64 = 0;
        let mut all_flows = std::collections::BTreeSet::new();
        let mut flow_acc: BTreeMap<u64, FlowAcc> = BTreeMap::new();
        let mut group_acc: BTreeMap<&str, GroupAcc> = BTreeMap::new();
        let mut lag_acc: BTreeMap<u64, (i128, u64)> = BTreeMap::new();
        let mut scopes_used: u64 = 0;

        for (scope, fs) in self.scopes.iter().map(|(name, s)| (name, &s.fid)) {
            // The scope's bottleneck is the truth link with the most
            // qdelay samples (ties break to the lowest link id) — the
            // link PERT's estimator is actually tracking.
            let mut per_key: BTreeMap<u64, u64> = BTreeMap::new();
            for ((k, _), (_, n)) in &fs.truth_qd {
                *per_key.entry(*k).or_insert(0) += n;
            }
            let Some(bkey) = per_key
                .iter()
                .max_by_key(|(k, n)| (**n, std::cmp::Reverse(**k)))
                .map(|(k, _)| *k)
            else {
                continue;
            };
            // window → truth mean (µs / bp) on the bottleneck link.
            let win_mean = |m: &FidMap| -> BTreeMap<u64, u64> {
                m.iter()
                    .filter(|((k, _), _)| *k == bkey)
                    .map(|((_, w), (sum, n))| (*w, sum / n))
                    .collect()
            };
            let tq = win_mean(&fs.truth_qd);
            let tp = win_mean(&fs.truth_p);
            let group = scope.rsplit('/').next().unwrap_or(scope.as_str());
            let mut contributed = false;

            // Signed qdelay error, flow by flow, window by window.
            let mut pooled: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for ((flow, win), (sum, n)) in &fs.est_qd {
                let e = pooled.entry(*win).or_insert((0, 0));
                e.0 += sum;
                e.1 += n;
                let Some(&t) = tq.get(win) else { continue };
                let est = sum / n;
                let err = est as i128 - i128::from(t);
                let mag = err.unsigned_abs() as u64;
                abs.observe(mag);
                if err >= 0 {
                    pos.observe(mag);
                } else {
                    neg.observe(mag);
                }
                err_sum += err;
                windows += 1;
                contributed = true;
                all_flows.insert(*flow);
                let fa = flow_acc.entry(*flow).or_insert_with(|| FlowAcc {
                    windows: 0,
                    err_sum: 0,
                    abs: BucketHistogram::new(&QDELAY_EDGES_US),
                });
                fa.windows += 1;
                fa.err_sum += err;
                fa.abs.observe(mag);
                let ga = group_acc.entry(group).or_insert_with(|| GroupAcc {
                    flows: std::collections::BTreeSet::new(),
                    windows: 0,
                    err_sum: 0,
                    abs: BucketHistogram::new(&QDELAY_EDGES_US),
                    paired_prob: 0,
                    agree: 0,
                });
                ga.flows.insert(*flow);
                ga.windows += 1;
                ga.err_sum += err;
                ga.abs.observe(mag);
            }

            // Emulation agreement on the probability pair.
            for ((flow, win), (sum, n)) in &fs.est_p {
                let Some(&t) = tp.get(win) else { continue };
                let ok = agreement_ok(sum / n, t);
                paired_prob += 1;
                agree += u64::from(ok);
                contributed = true;
                all_flows.insert(*flow);
                let ga = group_acc.entry(group).or_insert_with(|| GroupAcc {
                    flows: std::collections::BTreeSet::new(),
                    windows: 0,
                    err_sum: 0,
                    abs: BucketHistogram::new(&QDELAY_EDGES_US),
                    paired_prob: 0,
                    agree: 0,
                });
                ga.flows.insert(*flow);
                ga.paired_prob += 1;
                ga.agree += u64::from(ok);
            }

            // Lag correlation: truth at window w against the pooled
            // estimate at w + offset (the estimator trails the router).
            for off in FIDELITY_LAG_WINDOWS {
                let pairs: Vec<(i128, i128)> = tq
                    .iter()
                    .filter_map(|(w, t)| {
                        let (sum, n) = pooled.get(&(w + off))?;
                        Some((i128::from(*t), (sum / n) as i128))
                    })
                    .collect();
                if let Some(r) = pearson_milli(&pairs) {
                    let e = lag_acc
                        .entry(off * (FIDELITY_WINDOW_US / 1_000))
                        .or_insert((0, 0));
                    e.0 += i128::from(r);
                    e.1 += 1;
                }
            }
            scopes_used += u64::from(contributed);
        }

        if windows == 0 && paired_prob == 0 {
            return None;
        }

        let mean_err = |sum: i128, n: u64| -> i64 {
            if n == 0 {
                0
            } else {
                (sum / i128::from(n)) as i64
            }
        };
        let mut worst_flows: Vec<FlowFidelity> = flow_acc
            .iter()
            .map(|(flow, fa)| FlowFidelity {
                key: *flow,
                windows: fa.windows,
                bias_us: mean_err(fa.err_sum, fa.windows),
                abs_p95_us: fa.abs.percentile_upper(95).unwrap_or(0),
            })
            .collect();
        // Worst first: largest |bias|, ties to the lower flow key.
        worst_flows.sort_by_key(|f| (std::cmp::Reverse(f.bias_us.unsigned_abs()), f.key));
        worst_flows.truncate(8);

        let groups = group_acc
            .iter()
            .map(|(name, ga)| GroupFidelity {
                name: (*name).to_owned(),
                flows: ga.flows.len() as u64,
                windows: ga.windows,
                bias_us: mean_err(ga.err_sum, ga.windows),
                abs_p95_us: ga.abs.percentile_upper(95).unwrap_or(0),
                paired_prob: ga.paired_prob,
                agree: ga.agree,
                agree_bp: rate_bp(ga.agree, ga.paired_prob),
            })
            .collect();

        let lag = lag_acc
            .iter()
            .map(|(off_ms, (sum, n))| LagPoint {
                offset_ms: *off_ms,
                r_milli: mean_err(*sum, *n),
                scopes: *n,
            })
            .collect();

        Some(FidelitySummary {
            scopes: scopes_used,
            flows: all_flows.len() as u64,
            windows,
            bias_us: mean_err(err_sum, windows),
            abs_p50_us: abs.percentile_upper(50).unwrap_or(0),
            abs_p95_us: abs.percentile_upper(95).unwrap_or(0),
            abs_p99_us: abs.percentile_upper(99).unwrap_or(0),
            over_n: pos.total,
            over_p95_us: pos.percentile_upper(95).unwrap_or(0),
            under_n: neg.total,
            under_p95_us: neg.percentile_upper(95).unwrap_or(0),
            paired_prob,
            agree,
            agree_bp: rate_bp(agree, paired_prob),
            lag,
            worst_flows,
            groups,
        })
    }

    fn fairness_summary(&self) -> Option<FairnessSummary> {
        let mut indices = Vec::new();
        let mut flows = 0u64;
        for per_flow in self.scopes.values().map(|s| &s.acked) {
            let n = per_flow.len() as u128;
            if n == 0 {
                continue;
            }
            flows += per_flow.len() as u64;
            let sum: u128 = per_flow.values().map(|&x| u128::from(x)).sum();
            let sum_sq: u128 = per_flow
                .values()
                .map(|&x| u128::from(x) * u128::from(x))
                .sum();
            // Jain's index in milli-units: (Σx)² · 1000 / (n · Σx²).
            // Zero throughput everywhere degenerates to a perfectly
            // fair 1.000 by convention.
            let jain_milli = if sum_sq == 0 {
                1_000
            } else {
                (sum * sum * 1_000 / (n * sum_sq)) as u64
            };
            indices.push(jain_milli);
        }
        if indices.is_empty() {
            return None;
        }
        let total: u128 = indices.iter().map(|&x| u128::from(x)).sum();
        Some(FairnessSummary {
            scopes: indices.len() as u64,
            flows,
            jain_min_milli: *indices.iter().min().unwrap(),
            jain_mean_milli: (total / indices.len() as u128) as u64,
            jain_max_milli: *indices.iter().max().unwrap(),
        })
    }
}

impl DeriveScope {
    fn shard_summary(&self) -> Option<ShardSummary> {
        if self.shard_events.is_empty() {
            return None;
        }
        let n = self.shard_events.len() as u128;
        let total: u128 = self.shard_events.values().map(|&x| u128::from(x)).sum();
        let max: u128 = u128::from(*self.shard_events.values().max().unwrap());
        let sum_sq: u128 = self
            .shard_events
            .values()
            .map(|&x| u128::from(x) * u128::from(x))
            .sum();
        // Jain's index over per-shard event counts, milli-units; all
        // shards idle degenerates to perfectly balanced by convention.
        let jain_milli = if sum_sq == 0 {
            1_000
        } else {
            (total * total * 1_000 / (n * sum_sq)) as u64
        };
        // Rounded basis-point ratio; zero denominator renders as 0.
        let ratio_bp = |num: u128, den: u128| -> u64 {
            (num * 10_000 + den / 2).checked_div(den).unwrap_or(0) as u64
        };
        let max_share_bp = ratio_bp(max, total);
        // Wall-clock ratios come from the *sampled* epochs only; both
        // numerator and denominator use the same sample set so the
        // ratios are unbiased even though the sums are partial. These
        // are profiling-domain numbers — nondeterministic run to run.
        let compute: u128 = self.shard_compute_ns.values().map(|&x| u128::from(x)).sum();
        let critpath: u128 = self
            .shard_compute_ns
            .values()
            .map(|&x| u128::from(x))
            .max()
            .unwrap_or(0);
        let wait: u128 = self.shard_wait_ns.values().map(|&x| u128::from(x)).sum();
        let critpath_bp = ratio_bp(critpath, compute);
        let stall_bp = ratio_bp(wait, compute + wait);
        Some(ShardSummary {
            shards: self.shard_events.len() as u64,
            events: total as u64,
            max_share_bp,
            jain_milli,
            sampled_epochs: self.shard_samples,
            critpath_bp,
            stall_bp,
        })
    }
}

/// Units → whole milli-units, round-to-nearest, clamped at zero.
fn quantize_milli(value: f64) -> u64 {
    if value <= 0.0 {
        0
    } else {
        (value * 1e3).round() as u64
    }
}

/// Seconds → whole microseconds, round-half-up, clamped at zero.
/// Public so offline tools (the trace CLI) bin by the same rule the
/// online reducers use.
pub fn quantize_us(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        0
    } else {
        (seconds * 1e6).round() as u64
    }
}

/// Probability in `[0, 1]` → whole basis points, round-to-nearest.
/// Public for the trace CLI (same quantization as the online path).
pub fn prob_bp(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else {
        (p.min(1.0) * 10_000.0).round() as u64
    }
}

/// Floor integer square root (deterministic; avoids float sqrt).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    // Newton's method from a power-of-two overestimate; converges in a
    // handful of iterations for u128.
    let mut x = 1u128 << (v.ilog2() / 2 + 1);
    loop {
        let next = (x + v / x) / 2;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// Pearson correlation over integer pairs, in milli-units (±1000).
/// `None` when fewer than two pairs or either series is constant.
fn pearson_milli(pairs: &[(i128, i128)]) -> Option<i64> {
    let n = pairs.len() as i128;
    if n < 2 {
        return None;
    }
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0i128, 0i128, 0i128, 0i128, 0i128);
    for &(x, y) in pairs {
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    let num = n * sxy - sx * sy;
    let vx = n * sxx - sx * sx;
    let vy = n * syy - sy * sy;
    if vx <= 0 || vy <= 0 {
        return None;
    }
    // Root each variance separately: the product of the variances can
    // overflow i128 for long window series, their roots cannot.
    let den = isqrt_u128(vx as u128) * isqrt_u128(vy as u128);
    if den == 0 {
        return None;
    }
    Some(((num * 1_000) / den as i128) as i64)
}

/// Emulation-agreement tolerance: the estimate agrees with the router
/// truth when the probabilities are within `max(100 bp, truth/4)` of
/// each other — an absolute floor of one percentage point, widening to
/// ±25 % relative once the truth probability is substantial. Public so
/// the trace CLI applies the identical rule offline.
pub fn agreement_ok(est_bp: u64, truth_bp: u64) -> bool {
    est_bp.abs_diff(truth_bp) <= (truth_bp / 4).max(100)
}

/// `part / whole` in basis points, round-to-nearest.
fn rate_bp(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        ((u128::from(part) * 10_000 + u128::from(whole) / 2) / u128::from(whole)) as u64
    }
}

/// Queueing-delay distribution (bucket-quantized percentiles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QdelaySummary {
    /// Number of delay samples.
    pub samples: u64,
    /// Mean delay, microseconds (exact integer mean).
    pub mean_us: u64,
    /// Median upper bucket edge, microseconds.
    pub p50_us: u64,
    /// 95th-percentile upper bucket edge, microseconds.
    pub p95_us: u64,
    /// 99th-percentile upper bucket edge, microseconds.
    pub p99_us: u64,
}

/// Windowed link-utilization distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UtilSummary {
    /// Number of utilization windows observed.
    pub windows: u64,
    /// Mean utilization, basis points.
    pub mean_bp: u64,
    /// Median utilization upper bucket edge, basis points.
    pub p50_bp: u64,
}

/// Drop and ECN-mark rates at the bottleneck queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossSummary {
    /// Packets offered to the queues.
    pub offered: u64,
    /// Packets dropped (overflow + early).
    pub dropped: u64,
    /// Packets ECN-marked.
    pub marked: u64,
    /// Drop rate, basis points of offered.
    pub drop_bp: u64,
    /// Mark rate, basis points of offered.
    pub mark_bp: u64,
}

/// Jain's fairness index over per-flow delivered throughput, one index
/// per scope (job), reduced to min/mean/max across scopes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairnessSummary {
    /// Number of scopes (jobs) that reported flow throughput.
    pub scopes: u64,
    /// Total flows across those scopes.
    pub flows: u64,
    /// Minimum per-scope Jain index, milli-units (1000 = perfectly fair).
    pub jain_min_milli: u64,
    /// Mean per-scope Jain index, milli-units.
    pub jain_mean_milli: u64,
    /// Maximum per-scope Jain index, milli-units.
    pub jain_max_milli: u64,
}

/// PERT early-response frequency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PertSummary {
    /// Total early responses across all scopes.
    pub responses: u64,
    /// Total active simulated time (sum of per-scope maxima), µs.
    pub active_us: u64,
    /// Responses per active second, milli-hertz.
    pub freq_mhz: u64,
}

/// Shard-imbalance view of a space-parallel run: how evenly the
/// partition spread the event load, and what the imbalance cost in
/// wall time.
///
/// Event counts are exact (emitted every barrier epoch); the wall
/// ratios are computed over 1-in-16 sampled epochs and belong to the
/// profiling domain — they vary run to run even when the report body
/// is byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Number of shards that reported events.
    pub shards: u64,
    /// Total events processed across all shards.
    pub events: u64,
    /// Largest single shard's share of the events, basis points.
    pub max_share_bp: u64,
    /// Jain's fairness index over per-shard event counts, milli-units
    /// (1000 = perfectly balanced).
    pub jain_milli: u64,
    /// Number of sampled-epoch wall records behind the ratios below
    /// (0 when wall sampling never fired — the ratios are then 0 too).
    pub sampled_epochs: u64,
    /// Critical path vs aggregate compute: max per-shard compute wall
    /// time over the sum across shards, basis points. 10 000/shards is
    /// a perfect split; 10 000 means one shard did all the work.
    pub critpath_bp: u64,
    /// Barrier-stall fraction: wait / (compute + wait) across all
    /// shards, basis points.
    pub stall_bp: u64,
}

/// Congestion-control-zoo activity: CUBIC plateau/HyStart behaviour and
/// BBR model-filter state, reduced to counts and extrema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcSummary {
    /// HyStart slow-start exits across all CUBIC flows.
    pub hystart_exits: u64,
    /// CUBIC congestion epochs (one `cubic/w_max` record per loss event).
    pub cubic_epochs: u64,
    /// Largest CUBIC plateau (`w_max`) observed, milli-segments.
    pub cubic_wmax_max_milli: u64,
    /// BBR bandwidth-filter updates (one per delivery round).
    pub bbr_rounds: u64,
    /// Peak bottleneck-bandwidth estimate, milli-segments/second.
    pub bbr_btlbw_max_milli: u64,
    /// Lowest min-RTT estimate, microseconds (0 when no sample arrived).
    pub bbr_min_rtt_us: u64,
    /// BBR state-machine transitions.
    pub bbr_transitions: u64,
    /// Transitions into ProbeRTT.
    pub bbr_probe_rtt_entries: u64,
}

/// One flow's estimator-error fidelity (worst offenders are reported).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowFidelity {
    /// Flow telemetry key (the controller's construction seed).
    pub key: u64,
    /// Paired 10 ms windows behind the numbers.
    pub windows: u64,
    /// Mean signed estimate−truth queueing-delay error, µs (positive =
    /// the end host overestimates the router's queue).
    pub bias_us: i64,
    /// 95th-percentile |error| upper bucket edge, µs.
    pub abs_p95_us: u64,
}

/// Fidelity rolled up per job group (the scope label's last `/`
/// segment — the congestion-control scheme in fig6/mix6/mix12 runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupFidelity {
    /// Group name (e.g. `PERT`, `pert+cubic`).
    pub name: String,
    /// Distinct flows paired in this group.
    pub flows: u64,
    /// Paired qdelay windows.
    pub windows: u64,
    /// Mean signed qdelay error, µs.
    pub bias_us: i64,
    /// 95th-percentile |error| upper bucket edge, µs.
    pub abs_p95_us: u64,
    /// Paired probability windows.
    pub paired_prob: u64,
    /// Paired windows within the agreement tolerance.
    pub agree: u64,
    /// Agreement rate, basis points of paired windows.
    pub agree_bp: u64,
}

/// Truth↔estimate cross-correlation at one lag offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LagPoint {
    /// Estimate lag behind truth, milliseconds.
    pub offset_ms: u64,
    /// Mean Pearson correlation across scopes, milli-units (±1000).
    pub r_milli: i64,
    /// Scopes contributing a defined correlation at this offset.
    pub scopes: u64,
}

/// How faithfully the end-host PERT estimator tracked the real router:
/// signed error distribution, per-flow bias, lag correlation, and the
/// emulation agreement rate. See `DESIGN.md` §12 for the pairing rule
/// and tolerance definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FidelitySummary {
    /// Scopes (jobs) that produced at least one truth↔estimate pair.
    pub scopes: u64,
    /// Distinct flows paired across all scopes.
    pub flows: u64,
    /// Paired qdelay windows (flow × window).
    pub windows: u64,
    /// Mean signed estimate−truth qdelay error, µs.
    pub bias_us: i64,
    /// Median |error| upper bucket edge, µs.
    pub abs_p50_us: u64,
    /// 95th-percentile |error| upper bucket edge, µs.
    pub abs_p95_us: u64,
    /// 99th-percentile |error| upper bucket edge, µs.
    pub abs_p99_us: u64,
    /// Windows where the estimate ≥ truth (overestimation side).
    pub over_n: u64,
    /// 95th-percentile overestimation error, µs.
    pub over_p95_us: u64,
    /// Windows where the estimate < truth (underestimation side).
    pub under_n: u64,
    /// 95th-percentile underestimation magnitude, µs.
    pub under_p95_us: u64,
    /// Paired probability windows.
    pub paired_prob: u64,
    /// Paired windows where PERT's probability was within tolerance of
    /// the router-truth AQM probability.
    pub agree: u64,
    /// Emulation agreement rate, basis points of paired windows.
    pub agree_bp: u64,
    /// Lag correlation, one point per offset (ascending).
    pub lag: Vec<LagPoint>,
    /// Worst flows by |bias| (at most 8, ties to the lower key).
    pub worst_flows: Vec<FlowFidelity>,
    /// Per-group (cc-scheme) breakdown, sorted by name.
    pub groups: Vec<GroupFidelity>,
}

/// The derived-metrics block of a report: everything integer, so text
/// and JSON renderings are byte-stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DerivedSummary {
    /// Queueing-delay distribution, if any samples arrived.
    pub qdelay: Option<QdelaySummary>,
    /// Link-utilization distribution, if any windows closed.
    pub util: Option<UtilSummary>,
    /// Drop/mark rates, if any packets were offered.
    pub loss: Option<LossSummary>,
    /// Fairness, if any flow throughput was reported.
    pub fairness: Option<FairnessSummary>,
    /// PERT response frequency, if the controller was active.
    pub pert: Option<PertSummary>,
    /// Shard load balance, if the run was space-parallel with
    /// telemetry attached.
    pub shards: Option<ShardSummary>,
    /// Congestion-control-zoo activity, if any CUBIC/BBR flow ran.
    pub cc: Option<CcSummary>,
    /// Emulation fidelity (router truth vs PERT estimate), if both
    /// sides of a pair were observed.
    pub fidelity: Option<FidelitySummary>,
}

impl DerivedSummary {
    /// True when every section is absent.
    pub fn is_empty(&self) -> bool {
        self.qdelay.is_none()
            && self.util.is_none()
            && self.loss.is_none()
            && self.fairness.is_none()
            && self.pert.is_none()
            && self.shards.is_none()
            && self.cc.is_none()
            && self.fidelity.is_none()
    }

    /// Append the text rendering (the `derived metrics:` report block).
    pub fn render_text_into(&self, out: &mut String) {
        if self.is_empty() {
            return;
        }
        out.push_str("\nderived metrics:\n");
        if let Some(q) = &self.qdelay {
            out.push_str(&format!(
                "  qdelay: n={} mean={}us p50<={}us p95<={}us p99<={}us\n",
                q.samples, q.mean_us, q.p50_us, q.p95_us, q.p99_us
            ));
        }
        if let Some(u) = &self.util {
            out.push_str(&format!(
                "  util: windows={} mean={}bp p50<={}bp\n",
                u.windows, u.mean_bp, u.p50_bp
            ));
        }
        if let Some(l) = &self.loss {
            out.push_str(&format!(
                "  loss: offered={} dropped={} marked={} drop={}bp mark={}bp\n",
                l.offered, l.dropped, l.marked, l.drop_bp, l.mark_bp
            ));
        }
        if let Some(f) = &self.fairness {
            out.push_str(&format!(
                "  fairness: scopes={} flows={} jain_milli min={} mean={} max={}\n",
                f.scopes, f.flows, f.jain_min_milli, f.jain_mean_milli, f.jain_max_milli
            ));
        }
        if let Some(p) = &self.pert {
            out.push_str(&format!(
                "  pert: responses={} active={}us freq={}mHz\n",
                p.responses, p.active_us, p.freq_mhz
            ));
        }
        if let Some(s) = &self.shards {
            out.push_str(&format!(
                "  shards: n={} events={} max_share={}bp jain_milli={}\n",
                s.shards, s.events, s.max_share_bp, s.jain_milli
            ));
            if s.sampled_epochs > 0 {
                out.push_str(&format!(
                    "  shard wall: sampled_epochs={} critpath={}bp stall={}bp\n",
                    s.sampled_epochs, s.critpath_bp, s.stall_bp
                ));
            }
        }
        if let Some(c) = &self.cc {
            out.push_str(&format!(
                "  cc: hystart_exits={} cubic_epochs={} wmax_max={}milli \
                 bbr_rounds={} btlbw_max={}milli min_rtt={}us probe_rtt={}\n",
                c.hystart_exits,
                c.cubic_epochs,
                c.cubic_wmax_max_milli,
                c.bbr_rounds,
                c.bbr_btlbw_max_milli,
                c.bbr_min_rtt_us,
                c.bbr_probe_rtt_entries
            ));
        }
        if let Some(f) = &self.fidelity {
            out.push_str("\nfidelity:\n");
            out.push_str(&format!(
                "  pairs: scopes={} flows={} windows={}\n",
                f.scopes, f.flows, f.windows
            ));
            if f.windows > 0 {
                out.push_str(&format!(
                    "  err: bias={}us abs_p50<={}us abs_p95<={}us abs_p99<={}us\n",
                    f.bias_us, f.abs_p50_us, f.abs_p95_us, f.abs_p99_us
                ));
                out.push_str(&format!(
                    "  err split: over n={} p95<={}us | under n={} p95<={}us\n",
                    f.over_n, f.over_p95_us, f.under_n, f.under_p95_us
                ));
            }
            if f.paired_prob > 0 {
                out.push_str(&format!(
                    "  agree: {}/{} ({}bp, tol max(100bp, truth/4))\n",
                    f.agree, f.paired_prob, f.agree_bp
                ));
            }
            if !f.lag.is_empty() {
                out.push_str("  lag:");
                for p in &f.lag {
                    out.push_str(&format!(" r@{}ms={}", p.offset_ms, p.r_milli));
                }
                out.push_str(" milli\n");
            }
            for w in &f.worst_flows {
                out.push_str(&format!(
                    "  flow {}: windows={} bias={}us p95<={}us\n",
                    w.key, w.windows, w.bias_us, w.abs_p95_us
                ));
            }
            for g in &f.groups {
                out.push_str(&format!(
                    "  group {}: flows={} windows={} bias={}us p95<={}us agree={}bp\n",
                    g.name, g.flows, g.windows, g.bias_us, g.abs_p95_us, g.agree_bp
                ));
            }
        }
    }

    /// The JSON object body for the report's `"derived"` key.
    pub fn render_json(&self) -> String {
        let mut parts = Vec::new();
        if let Some(q) = &self.qdelay {
            parts.push(format!(
                "\"qdelay\":{{\"samples\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\
                 \"p99_us\":{}}}",
                q.samples, q.mean_us, q.p50_us, q.p95_us, q.p99_us
            ));
        }
        if let Some(u) = &self.util {
            parts.push(format!(
                "\"util\":{{\"windows\":{},\"mean_bp\":{},\"p50_bp\":{}}}",
                u.windows, u.mean_bp, u.p50_bp
            ));
        }
        if let Some(l) = &self.loss {
            parts.push(format!(
                "\"loss\":{{\"offered\":{},\"dropped\":{},\"marked\":{},\"drop_bp\":{},\
                 \"mark_bp\":{}}}",
                l.offered, l.dropped, l.marked, l.drop_bp, l.mark_bp
            ));
        }
        if let Some(f) = &self.fairness {
            parts.push(format!(
                "\"fairness\":{{\"scopes\":{},\"flows\":{},\"jain_min_milli\":{},\
                 \"jain_mean_milli\":{},\"jain_max_milli\":{}}}",
                f.scopes, f.flows, f.jain_min_milli, f.jain_mean_milli, f.jain_max_milli
            ));
        }
        if let Some(p) = &self.pert {
            parts.push(format!(
                "\"pert\":{{\"responses\":{},\"active_us\":{},\"freq_mhz\":{}}}",
                p.responses, p.active_us, p.freq_mhz
            ));
        }
        if let Some(s) = &self.shards {
            parts.push(format!(
                "\"shards\":{{\"shards\":{},\"events\":{},\"max_share_bp\":{},\
                 \"jain_milli\":{},\"sampled_epochs\":{},\"critpath_bp\":{},\
                 \"stall_bp\":{}}}",
                s.shards,
                s.events,
                s.max_share_bp,
                s.jain_milli,
                s.sampled_epochs,
                s.critpath_bp,
                s.stall_bp
            ));
        }
        if let Some(c) = &self.cc {
            parts.push(format!(
                "\"cc\":{{\"hystart_exits\":{},\"cubic_epochs\":{},\
                 \"cubic_wmax_max_milli\":{},\"bbr_rounds\":{},\
                 \"bbr_btlbw_max_milli\":{},\"bbr_min_rtt_us\":{},\
                 \"bbr_transitions\":{},\"bbr_probe_rtt_entries\":{}}}",
                c.hystart_exits,
                c.cubic_epochs,
                c.cubic_wmax_max_milli,
                c.bbr_rounds,
                c.bbr_btlbw_max_milli,
                c.bbr_min_rtt_us,
                c.bbr_transitions,
                c.bbr_probe_rtt_entries
            ));
        }
        if let Some(f) = &self.fidelity {
            let lag = f
                .lag
                .iter()
                .map(|p| {
                    format!(
                        "{{\"offset_ms\":{},\"r_milli\":{},\"scopes\":{}}}",
                        p.offset_ms, p.r_milli, p.scopes
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let worst = f
                .worst_flows
                .iter()
                .map(|w| {
                    format!(
                        "{{\"key\":{},\"windows\":{},\"bias_us\":{},\"abs_p95_us\":{}}}",
                        w.key, w.windows, w.bias_us, w.abs_p95_us
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let groups = f
                .groups
                .iter()
                .map(|g| {
                    format!(
                        "{{\"name\":\"{}\",\"flows\":{},\"windows\":{},\"bias_us\":{},\
                         \"abs_p95_us\":{},\"paired_prob\":{},\"agree\":{},\"agree_bp\":{}}}",
                        json_escape(&g.name),
                        g.flows,
                        g.windows,
                        g.bias_us,
                        g.abs_p95_us,
                        g.paired_prob,
                        g.agree,
                        g.agree_bp
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            parts.push(format!(
                "\"fidelity\":{{\"scopes\":{},\"flows\":{},\"windows\":{},\"bias_us\":{},\
                 \"abs_p50_us\":{},\"abs_p95_us\":{},\"abs_p99_us\":{},\"over_n\":{},\
                 \"over_p95_us\":{},\"under_n\":{},\"under_p95_us\":{},\"paired_prob\":{},\
                 \"agree\":{},\"agree_bp\":{},\"lag\":[{}],\"worst_flows\":[{}],\
                 \"groups\":[{}]}}",
                f.scopes,
                f.flows,
                f.windows,
                f.bias_us,
                f.abs_p50_us,
                f.abs_p95_us,
                f.abs_p99_us,
                f.over_n,
                f.over_p95_us,
                f.under_n,
                f.under_p95_us,
                f.paired_prob,
                f.agree,
                f.agree_bp,
                lag,
                worst,
                groups
            ));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// Minimal JSON string escaping for scope-derived names (quotes,
/// backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_order_does_not_matter() {
        let records: Vec<(&str, &str, u64, f64, f64)> = vec![
            ("job/a", "pert/qdelay", 1, 0.5, 0.010),
            ("job/b", "pert/qdelay", 2, 1.0, 0.020),
            ("job/a", "link/util_bp", 0, 1.0, 9_500.0),
            ("job/b", "link/idle_wins", 0, 1.0, 3.0),
            ("job/a", "queue/final_offered", 0, 0.0, 100.0),
            ("job/b", "queue/final_offered", 0, 0.0, 200.0),
            ("job/a", "queue/final_dropped", 0, 0.0, 3.0),
            ("job/a", "tcp/acked_final", 7, 0.0, 40.0),
            ("job/a", "tcp/acked_final", 8, 0.0, 60.0),
            ("job/b", "pert/response", 3, 2.5, 1.0),
            ("job/b", "pert/prob", 3, 9.0, 0.25),
            ("job/a", "truth/qdelay", 0, 0.5, 0.012),
            ("job/a", "truth/prob", 0, 0.5, 0.3),
            ("job/b", "truth/qdelay", 1, 9.0, 0.001),
        ];
        let mut fwd = DeriveSet::new();
        for r in &records {
            fwd.ingest(r.0, r.1, r.2, r.3, r.4);
        }
        let mut rev = DeriveSet::new();
        for r in records.iter().rev() {
            rev.ingest(r.0, r.1, r.2, r.3, r.4);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.summary(), rev.summary());
    }

    #[test]
    fn by_name_ingest_skips_exactly_what_no_reducer_reads() {
        for (i, name) in crate::series::BUILTIN_SERIES.iter().enumerate() {
            let id = SeriesId(i as u16);
            let mut by_id = DeriveScope::default();
            by_id.ingest_id(id, 1, 1.0, 1.0);
            assert_eq!(by_id.is_empty(), !id.is_reduced(), "{name}");
            let mut by_name = DeriveSet::new();
            by_name.ingest("j", name, 1, 1.0, 1.0);
            assert_eq!(by_name.scopes.get("j"), id.is_reduced().then_some(&by_id));
        }
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = DeriveSet::new();
        a.ingest("job/a", "pert/qdelay", 1, 0.5, 0.010);
        a.ingest("job/a", "tcp/acked_final", 7, 0.0, 10.0);
        let mut b = DeriveSet::new();
        b.ingest("job/b", "pert/qdelay", 2, 1.5, 0.030);
        b.ingest("job/a", "tcp/acked_final", 7, 0.0, 5.0);

        let mut merged = a;
        merged.absorb(b);

        let mut single = DeriveSet::new();
        single.ingest("job/a", "pert/qdelay", 1, 0.5, 0.010);
        single.ingest("job/a", "tcp/acked_final", 7, 0.0, 10.0);
        single.ingest("job/b", "pert/qdelay", 2, 1.5, 0.030);
        single.ingest("job/a", "tcp/acked_final", 7, 0.0, 5.0);
        assert_eq!(merged, single);
    }

    #[test]
    fn summary_numbers_are_exact() {
        let mut d = DeriveSet::new();
        // 10 ms and 20 ms delays: mean 15 000 µs, p50 in the 10 000 µs
        // bucket, p99 in the 20 000 µs bucket.
        d.ingest("j", "pert/qdelay", 0, 0.1, 0.010);
        d.ingest("j", "pert/qdelay", 0, 0.2, 0.020);
        d.ingest("j", "queue/final_offered", 0, 0.0, 1_000.0);
        d.ingest("j", "queue/final_dropped", 0, 0.0, 25.0);
        d.ingest("j", "queue/final_marked", 0, 0.0, 50.0);
        let s = d.summary();
        let q = s.qdelay.unwrap();
        assert_eq!(q.mean_us, 15_000);
        assert_eq!(q.p50_us, 10_000);
        assert_eq!(q.p99_us, 20_000);
        let l = s.loss.unwrap();
        assert_eq!(l.drop_bp, 250);
        assert_eq!(l.mark_bp, 500);
    }

    #[test]
    fn jain_index_milli_units() {
        let mut d = DeriveSet::new();
        // Perfectly fair: two flows, equal shares → 1000 milli.
        d.ingest("fair", "tcp/acked_final", 1, 0.0, 50.0);
        d.ingest("fair", "tcp/acked_final", 2, 0.0, 50.0);
        // Maximally unfair two flows: one gets everything → 500 milli.
        d.ingest("unfair", "tcp/acked_final", 1, 0.0, 100.0);
        d.ingest("unfair", "tcp/acked_final", 2, 0.0, 0.0);
        let f = d.summary().fairness.unwrap();
        assert_eq!(f.scopes, 2);
        assert_eq!(f.flows, 4);
        assert_eq!(f.jain_max_milli, 1_000);
        assert_eq!(f.jain_min_milli, 500);
        assert_eq!(f.jain_mean_milli, 750);
    }

    #[test]
    fn pert_frequency_milli_hz() {
        let mut d = DeriveSet::new();
        d.ingest("j", "pert/response", 0, 1.0, 1.0);
        d.ingest("j", "pert/response", 0, 2.0, 1.0);
        d.ingest("j", "pert/prob", 0, 10.0, 0.1);
        let p = d.summary().pert.unwrap();
        assert_eq!(p.responses, 2);
        assert_eq!(p.active_us, 10_000_000);
        // 2 responses over 10 s = 0.2 Hz = 200 mHz.
        assert_eq!(p.freq_mhz, 200);
    }

    #[test]
    fn shard_summary_numbers_are_exact() {
        let mut d = DeriveSet::new();
        // Four shards, event split 50/20/20/10.
        for (shard, n) in [(0u64, 50.0), (1, 20.0), (2, 20.0), (3, 10.0)] {
            d.ingest("shard", "shard/events", shard, 1.0, n);
        }
        // One sampled epoch per shard: compute 8000/1000/500/500 ns,
        // waits summing to 2500 ns against 10 000 ns of compute.
        for (shard, c, w) in [
            (0u64, 8_000.0, 0.0),
            (1, 1_000.0, 1_500.0),
            (2, 500.0, 500.0),
            (3, 500.0, 500.0),
        ] {
            d.ingest("shard", "shard/epoch_compute_ns", shard, 1.0, c);
            d.ingest("shard", "shard/barrier_wait_ns", shard, 1.0, w);
        }
        let s = d.summary().shards.unwrap();
        assert_eq!(s.shards, 4);
        assert_eq!(s.events, 100);
        assert_eq!(s.max_share_bp, 5_000);
        // Jain: 100²·1000 / (4 · (2500 + 400 + 400 + 100)) = 735.
        assert_eq!(s.jain_milli, 735);
        assert_eq!(s.sampled_epochs, 4);
        // Critical path 8000 ns of 10 000 ns aggregate compute.
        assert_eq!(s.critpath_bp, 8_000);
        // Stall: 2500 / 12 500 = 2000 bp.
        assert_eq!(s.stall_bp, 2_000);

        // Events alone (detached wall clocks) still summarize; the
        // wall line is gated on sampled_epochs.
        let mut e = DeriveSet::new();
        e.ingest("shard", "shard/events", 0, 1.0, 10.0);
        e.ingest("shard", "shard/events", 1, 1.0, 10.0);
        let s = e.summary().shards.unwrap();
        assert_eq!((s.max_share_bp, s.jain_milli), (5_000, 1_000));
        assert_eq!((s.sampled_epochs, s.critpath_bp, s.stall_bp), (0, 0, 0));
        let mut text = String::new();
        e.summary().render_text_into(&mut text);
        assert!(text.contains("shards: n=2"));
        assert!(!text.contains("shard wall:"));

        // Merge matches a single stream.
        let mut a = DeriveSet::new();
        a.ingest("shard", "shard/events", 0, 1.0, 10.0);
        let mut b = DeriveSet::new();
        b.ingest("shard", "shard/events", 0, 2.0, 5.0);
        b.ingest("shard", "shard/events", 1, 2.0, 15.0);
        let mut merged = a;
        merged.absorb(b);
        let mut single = DeriveSet::new();
        single.ingest("shard", "shard/events", 0, 1.0, 10.0);
        single.ingest("shard", "shard/events", 0, 2.0, 5.0);
        single.ingest("shard", "shard/events", 1, 2.0, 15.0);
        assert_eq!(merged, single);
    }

    #[test]
    fn cc_summary_counts_and_extrema() {
        let mut d = DeriveSet::new();
        assert!(d.summary().cc.is_none());
        // Two CUBIC flows: one HyStart exit, two loss epochs.
        d.ingest("j", "cubic/hystart_exit", 10, 1.0, 64.0);
        d.ingest("j", "cubic/w_max", 10, 2.0, 44.8);
        d.ingest("j", "cubic/w_max", 11, 3.0, 120.25);
        // One BBR flow: two rounds, improving bandwidth, min RTT 40 ms,
        // a transition into ProbeRTT among others.
        d.ingest("j", "bbr/btlbw", 20, 1.0, 900.5);
        d.ingest("j", "bbr/btlbw", 20, 2.0, 1_000.0);
        d.ingest("j", "bbr/min_rtt", 20, 1.0, 0.050);
        d.ingest("j", "bbr/min_rtt", 20, 2.0, 0.040);
        d.ingest("j", "bbr/state", 20, 1.0, 1.0);
        d.ingest("j", "bbr/state", 20, 2.0, 3.0);
        let c = d.summary().cc.unwrap();
        assert_eq!(c.hystart_exits, 1);
        assert_eq!(c.cubic_epochs, 2);
        assert_eq!(c.cubic_wmax_max_milli, 120_250);
        assert_eq!(c.bbr_rounds, 2);
        assert_eq!(c.bbr_btlbw_max_milli, 1_000_000);
        assert_eq!(c.bbr_min_rtt_us, 40_000);
        assert_eq!(c.bbr_transitions, 2);
        assert_eq!(c.bbr_probe_rtt_entries, 1);

        // Merge matches a single stream and min/max stay commutative.
        let mut a = DeriveSet::new();
        a.ingest("j", "bbr/min_rtt", 20, 1.0, 0.050);
        a.ingest("j", "cubic/w_max", 10, 1.0, 30.0);
        let mut b = DeriveSet::new();
        b.ingest("j", "bbr/min_rtt", 20, 2.0, 0.040);
        b.ingest("j", "cubic/w_max", 10, 2.0, 80.0);
        let mut merged = a;
        merged.absorb(b);
        let mut single = DeriveSet::new();
        single.ingest("j", "bbr/min_rtt", 20, 1.0, 0.050);
        single.ingest("j", "cubic/w_max", 10, 1.0, 30.0);
        single.ingest("j", "bbr/min_rtt", 20, 2.0, 0.040);
        single.ingest("j", "cubic/w_max", 10, 2.0, 80.0);
        assert_eq!(merged, single);
        assert_eq!(merged.summary().cc.unwrap().bbr_min_rtt_us, 40_000);

        let mut text = String::new();
        d.summary().render_text_into(&mut text);
        assert!(text.contains("cc: hystart_exits=1"));
        assert!(d
            .summary()
            .render_json()
            .contains("\"cc\":{\"hystart_exits\":1,"));
    }

    #[test]
    fn fidelity_pairs_truth_and_estimate() {
        let ingest_all = |d: &mut DeriveSet, rev: bool| {
            let scope = "mix/5Mbps/PERT";
            let mut records: Vec<(&str, u64, f64, f64)> = vec![
                // Truth on link 0: 10 ms in window 0, 20 ms in window 1.
                ("truth/qdelay", 0, 0.005, 0.010),
                ("truth/qdelay", 0, 0.015, 0.020),
                // Estimate on flow 42: +2 ms off in window 0, −5 ms in
                // window 1.
                ("pert/qdelay", 42, 0.006, 0.012),
                ("pert/qdelay", 42, 0.016, 0.015),
                // Probabilities: within tolerance in window 0 (4500 vs
                // 5000 bp, tol 1250), far off in window 1 (5000 vs 100).
                ("truth/prob", 0, 0.005, 0.50),
                ("pert/prob", 42, 0.006, 0.45),
                ("truth/prob", 0, 0.015, 0.01),
                ("pert/prob", 42, 0.016, 0.50),
            ];
            if rev {
                records.reverse();
            }
            for (series, key, t, v) in records {
                d.ingest(scope, series, key, t, v);
            }
        };
        let mut d = DeriveSet::new();
        ingest_all(&mut d, false);
        let f = d.summary().fidelity.unwrap();
        assert_eq!((f.scopes, f.flows, f.windows), (1, 1, 2));
        assert_eq!(f.bias_us, -1_500);
        assert_eq!((f.abs_p50_us, f.abs_p95_us), (2_000, 5_000));
        assert_eq!((f.over_n, f.over_p95_us), (1, 2_000));
        assert_eq!((f.under_n, f.under_p95_us), (1, 5_000));
        assert_eq!((f.paired_prob, f.agree, f.agree_bp), (2, 1, 5_000));
        assert_eq!(f.groups.len(), 1);
        let g = &f.groups[0];
        assert_eq!(g.name, "PERT");
        assert_eq!((g.flows, g.windows, g.agree_bp), (1, 2, 5_000));
        assert_eq!(f.worst_flows.len(), 1);
        assert_eq!(
            (f.worst_flows[0].key, f.worst_flows[0].bias_us),
            (42, -1_500)
        );

        // Ingestion order does not matter, and split+merge matches a
        // single stream (the sharded-runner path).
        let mut rev = DeriveSet::new();
        ingest_all(&mut rev, true);
        assert_eq!(d, rev);
        assert_eq!(d.summary(), rev.summary());

        // Truth without estimates (or vice versa) yields no block.
        let mut t_only = DeriveSet::new();
        t_only.ingest("j", "truth/qdelay", 0, 0.005, 0.010);
        assert!(t_only.summary().fidelity.is_none());
        assert!(!t_only.is_empty());
        let mut e_only = DeriveSet::new();
        e_only.ingest("j", "pert/qdelay", 1, 0.005, 0.010);
        assert!(e_only.summary().fidelity.is_none());
    }

    #[test]
    fn fidelity_lag_correlation_finds_the_shift() {
        let mut d = DeriveSet::new();
        // Zig-zag truth over windows 0..9; the estimate reproduces it
        // exactly one window (10 ms) late.
        let truth: [f64; 10] = [
            0.001, 0.009, 0.002, 0.008, 0.003, 0.007, 0.001, 0.009, 0.002, 0.008,
        ];
        for (w, v) in truth.iter().enumerate() {
            let t = w as f64 * 0.01 + 0.005;
            d.ingest("j", "truth/qdelay", 0, t, *v);
            d.ingest("j", "pert/qdelay", 7, t + 0.01, *v);
        }
        let f = d.summary().fidelity.unwrap();
        let at = |ms: u64| f.lag.iter().find(|p| p.offset_ms == ms).unwrap().r_milli;
        assert_eq!(at(10), 1_000, "exact one-window shift must correlate fully");
        assert!(at(0) < 1_000, "unshifted correlation must be weaker");
    }

    #[test]
    fn fidelity_bottleneck_is_the_busiest_truth_link() {
        let mut d = DeriveSet::new();
        // Link 5 has more truth samples than link 9; pairing must use
        // link 5's means, so the window-0 error is 0, not 9 ms.
        d.ingest("j", "truth/qdelay", 9, 0.005, 0.001);
        d.ingest("j", "truth/qdelay", 5, 0.004, 0.010);
        d.ingest("j", "truth/qdelay", 5, 0.006, 0.010);
        d.ingest("j", "pert/qdelay", 1, 0.005, 0.010);
        let f = d.summary().fidelity.unwrap();
        assert_eq!((f.windows, f.bias_us), (1, 0));
    }

    #[test]
    fn render_is_stable_and_gated() {
        let empty = DerivedSummary::default();
        let mut text = String::new();
        empty.render_text_into(&mut text);
        assert!(text.is_empty());
        assert_eq!(empty.render_json(), "{}");

        let mut d = DeriveSet::new();
        d.ingest("j", "pert/qdelay", 0, 0.1, 0.010);
        let s = d.summary();
        let mut t1 = String::new();
        let mut t2 = String::new();
        s.render_text_into(&mut t1);
        s.render_text_into(&mut t2);
        assert_eq!(t1, t2);
        assert!(t1.contains("derived metrics:"));
        assert!(s.render_json().starts_with("{\"qdelay\":{\"samples\":1,"));
    }
}
