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

use crate::json;
use crate::metrics::BucketHistogram;
use crate::series::SeriesId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

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
type FidMap = HashMap<(u64, u64), (u64, u64), BuildHasherDefault<FidHasher>>;

/// The fidelity maps' hasher: one multiply-add per `u64` of the key,
/// then a rotation that brings the well-mixed high bits down to the
/// bucket index. Keys are small trusted integers (flow or link id, window
/// number), so SipHash's flooding resistance buys nothing on this
/// per-record path, and the seedless hash keeps every run's table layout
/// the same. Iteration order still never reaches an output: every reader
/// adds commutatively or sorts first.
#[derive(Clone, Copy, Default)]
struct FidHasher(u64);

impl Hasher for FidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

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

    /// The pairing decision, made in this one place: the bottleneck is
    /// the truth link with the most `truth/qdelay` samples (ties to the
    /// lowest id) — the link PERT's estimator is actually tracking —
    /// every side is reduced to per-window integer means, and a
    /// probability pair agrees by [`agreement_ok`]. `None` without truth.
    fn pairs(&self) -> Option<FidelityPairs> {
        let mut per_link: BTreeMap<u64, u64> = BTreeMap::new();
        for ((link, _), (_, n)) in &self.truth_qd {
            *per_link.entry(*link).or_insert(0) += n;
        }
        let (&link, _) = per_link.iter().max_by_key(|(k, n)| (**n, Reverse(**k)))?;
        // Sorted vectors, not maps: one allocation per series.
        let on_link = |m: &FidMap| {
            let mut v = Vec::with_capacity(m.len());
            let m = m.iter().filter(|((k, _), _)| *k == link);
            v.extend(m.map(|((_, w), (sum, n))| (*w, sum / n)));
            v.sort_unstable();
            v
        };
        let (truth_us, truth_bp) = (on_link(&self.truth_qd), on_link(&self.truth_p));
        let est = self.est_qd.iter();
        let mut est_us: Vec<_> = est.map(|((f, w), (sum, n))| (*f, *w, sum / n)).collect();
        est_us.sort_unstable();
        let pooled = self.est_qd.iter().map(|((_, w), (sum, n))| (*w, *sum, *n));
        let mut pooled: Vec<_> = pooled.collect();
        pooled.sort_unstable();
        pooled.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                (kept.1, kept.2) = (kept.1 + next.1, kept.2 + next.2);
            }
            same
        });
        let mut agree: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for ((flow, w), (sum, n)) in &self.est_p {
            if let Some(t) = window_mean(&truth_bp, *w) {
                let e = agree.entry(*flow).or_insert((0, 0));
                e.0 += u64::from(agreement_ok(sum / n, t));
                e.1 += 1;
            }
        }
        let pooled_us = pooled.iter().map(|(w, sum, n)| (*w, sum / n)).collect();
        Some(FidelityPairs {
            link,
            truth_us,
            est_us,
            pooled_us,
            agree,
        })
    }
}

/// One scope's truth↔estimate pairing (see [`DeriveSet::fidelity_pairs`]).
/// Windows are [`FIDELITY_WINDOW_US`] wide; every mean is an integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FidelityPairs {
    /// The bottleneck truth link.
    pub link: u64,
    /// Router-truth queueing delay on `link`: `(window, mean µs)`,
    /// ascending.
    pub truth_us: Vec<(u64, u64)>,
    /// PERT's estimate: `(flow, window, mean µs)`, ascending — every
    /// window a flow published in, paired with truth or not.
    pub est_us: Vec<(u64, u64, u64)>,
    /// Every flow's estimate samples pooled: `(window, mean µs)`,
    /// ascending.
    pub pooled_us: Vec<(u64, u64)>,
    /// Probability windows paired with `link`'s truth, flow → (windows
    /// in agreement, paired windows); flows with no pair are absent.
    pub agree: BTreeMap<u64, (u64, u64)>,
}

/// The mean at window `w` of a window-sorted `(window, mean)` series.
fn window_mean(series: &[(u64, u64)], w: u64) -> Option<u64> {
    let i = series.binary_search_by_key(&w, |e| e.0).ok()?;
    Some(series[i].1)
}

/// Signed estimate−truth error over paired windows.
struct ErrAcc {
    windows: u64,
    err_sum: i128,
    abs: BucketHistogram,
}

impl Default for ErrAcc {
    fn default() -> Self {
        ErrAcc {
            windows: 0,
            err_sum: 0,
            abs: qdelay_hist(),
        }
    }
}

impl ErrAcc {
    fn add(&mut self, err: i128) {
        self.windows += 1;
        self.err_sum += err;
        self.abs.observe(err.unsigned_abs() as u64);
    }

    fn bias(&self) -> i64 {
        mean_i64(self.err_sum, self.windows)
    }

    fn p95(&self) -> u64 {
        self.abs.percentile_upper(95).unwrap_or(0)
    }
}

fn qdelay_hist() -> BucketHistogram {
    BucketHistogram::new(&QDELAY_EDGES_US)
}

/// `sum / n`, zero when `n` is.
fn mean_i64(sum: i128, n: u64) -> i64 {
    sum.checked_div(i128::from(n)).unwrap_or(0) as i64
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
            qdelay_us: qdelay_hist(),
            util_bp: BucketHistogram::new(&UTIL_EDGES_BP),
            offered: 0,
            dropped: 0,
            marked: 0,
            acked: BTreeMap::new(),
            responses: 0,
            active_us: None,
            shard_events: BTreeMap::new(),
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
        for (shard, n) in &other.shard_events {
            *self.shard_events.entry(*shard).or_insert(0) += n;
        }
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
                freq_mhz: (u128::from(all.responses) * 1_000_000_000)
                    .checked_div(u128::from(active_us))
                    .unwrap_or(0) as u64,
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

    /// Each scope's truth↔estimate pairing, in scope order; scopes with
    /// no truth link are skipped. Both fidelity views are built on this:
    /// the online `fidelity:` block ([`summary`](Self::summary)) and the
    /// offline `trace fidelity` timelines, which replay a trace into a
    /// fresh set.
    pub fn fidelity_pairs(&self) -> impl Iterator<Item = (&str, FidelityPairs)> + '_ {
        let scopes = self.scopes.iter();
        scopes.filter_map(|(name, s)| Some((name.as_str(), s.fid.pairs()?)))
    }

    /// Reduce the scopes' pairings to the fidelity block. All arithmetic
    /// is integer over maps built by commutative accumulation, so the
    /// result is order-independent.
    fn fidelity_summary(&self) -> Option<FidelitySummary> {
        #[derive(Default)]
        struct GroupAcc {
            err: ErrAcc,
            flows: BTreeSet<u64>,
            paired_prob: u64,
            agree: u64,
        }

        let (mut all, mut pos, mut neg) = (ErrAcc::default(), qdelay_hist(), qdelay_hist());
        let (mut paired_prob, mut agree) = (0u64, 0u64);
        let mut all_flows = BTreeSet::new();
        let mut flow_acc: BTreeMap<u64, ErrAcc> = BTreeMap::new();
        let mut group_acc: BTreeMap<&str, GroupAcc> = BTreeMap::new();
        let mut lag_acc: BTreeMap<u64, (i128, u64)> = BTreeMap::new();
        let mut scopes_used: u64 = 0;

        for (scope, p) in self.fidelity_pairs() {
            let ga = group_acc
                .entry(scope.rsplit('/').next().unwrap_or(scope))
                .or_default();
            let mut contributed = false;

            // Signed qdelay error, flow by flow, window by window.
            for &(flow, w, e) in &p.est_us {
                let Some(t) = window_mean(&p.truth_us, w) else {
                    continue;
                };
                let err = i128::from(e) - i128::from(t);
                let side = if err >= 0 { &mut pos } else { &mut neg };
                side.observe(err.unsigned_abs() as u64);
                all.add(err);
                flow_acc.entry(flow).or_default().add(err);
                ga.err.add(err);
                ga.flows.insert(flow);
                all_flows.insert(flow);
                contributed = true;
            }

            // Emulation agreement on the probability pair.
            for (flow, &(ok, n)) in &p.agree {
                paired_prob += n;
                agree += ok;
                ga.paired_prob += n;
                ga.agree += ok;
                ga.flows.insert(*flow);
                all_flows.insert(*flow);
                contributed = true;
            }

            // Lag correlation: truth at window w against the pooled
            // estimate at w + offset (the estimator trails the router).
            for off in FIDELITY_LAG_WINDOWS {
                let mut pairs = Vec::with_capacity(p.truth_us.len());
                pairs.extend(p.truth_us.iter().filter_map(|&(w, t)| {
                    Some((
                        i128::from(t),
                        i128::from(window_mean(&p.pooled_us, w + off)?),
                    ))
                }));
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
        // A group whose scopes paired nothing is not reported.
        group_acc.retain(|_, ga| ga.err.windows > 0 || ga.paired_prob > 0);

        if all.windows == 0 && paired_prob == 0 {
            return None;
        }

        let mut worst_flows: Vec<FlowFidelity> = flow_acc
            .iter()
            .map(|(flow, fa)| FlowFidelity {
                key: *flow,
                windows: fa.windows,
                bias_us: fa.bias(),
                abs_p95_us: fa.p95(),
            })
            .collect();
        // Worst first: largest |bias|, ties to the lower flow key.
        worst_flows.sort_by_key(|f| (Reverse(f.bias_us.unsigned_abs()), f.key));
        worst_flows.truncate(8);

        let groups = group_acc
            .iter()
            .map(|(name, ga)| GroupFidelity {
                name: (*name).to_owned(),
                flows: ga.flows.len() as u64,
                windows: ga.err.windows,
                bias_us: ga.err.bias(),
                abs_p95_us: ga.err.p95(),
                paired_prob: ga.paired_prob,
                agree: ga.agree,
                agree_bp: rate_bp(ga.agree, ga.paired_prob),
            })
            .collect();

        let lag = lag_acc
            .iter()
            .map(|(off_ms, (sum, n))| LagPoint {
                offset_ms: *off_ms,
                r_milli: mean_i64(*sum, *n),
                scopes: *n,
            })
            .collect();

        Some(FidelitySummary {
            scopes: scopes_used,
            flows: all_flows.len() as u64,
            windows: all.windows,
            bias_us: all.bias(),
            abs_p50_us: all.abs.percentile_upper(50).unwrap_or(0),
            abs_p95_us: all.p95(),
            abs_p99_us: all.abs.percentile_upper(99).unwrap_or(0),
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
            if per_flow.is_empty() {
                continue;
            }
            flows += per_flow.len() as u64;
            indices.push(jain_milli(per_flow));
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
        let total: u128 = self.shard_events.values().map(|&x| u128::from(x)).sum();
        let max = *self.shard_events.values().max().unwrap();
        let events = u64::try_from(total).unwrap_or(u64::MAX);
        Some(ShardSummary {
            shards: self.shard_events.len() as u64,
            events,
            // All shards idle renders as 0.
            max_share_bp: rate_bp(max, events),
            jain_milli: jain_milli(&self.shard_events),
        })
    }
}

/// Jain's fairness index over the values of `xs` in milli-units,
/// `(Σx)² · 1000 / (n · Σx²)`: 1000 when all are equal, and by convention
/// when all are zero.
fn jain_milli(xs: &BTreeMap<u64, u64>) -> u64 {
    let n = xs.len() as u128;
    let sum: u128 = xs.values().map(|&x| u128::from(x)).sum();
    let sum_sq: u128 = xs.values().map(|&x| u128::from(x) * u128::from(x)).sum();
    if sum_sq == 0 {
        1_000
    } else {
        (sum * sum * 1_000 / (n * sum_sq)) as u64
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
fn prob_bp(p: f64) -> u64 {
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
/// ±25 % relative once the truth probability is substantial.
fn agreement_ok(est_bp: u64, truth_bp: u64) -> bool {
    est_bp.abs_diff(truth_bp) <= (truth_bp / 4).max(100)
}

/// `part / whole` in basis points, round-to-nearest; 0 when `whole` is 0.
pub fn rate_bp(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        ((u128::from(part) * 10_000 + u128::from(whole) / 2) / u128::from(whole)) as u64
    }
}

/// A flat derived-section field: JSON key, text label (empty: JSON
/// only), text unit, value.
type Field = (&'static str, &'static str, &'static str, u64);

/// A flat section of the derived block: its name and fields.
trait FlatSection {
    fn fields(&self) -> (&'static str, Vec<Field>);
}

/// Declare the flat sections of the derived block: per section a `Copy`
/// struct of `u64` fields, each field given once — its name is the JSON
/// key, then its text label and unit (an empty label keeps it out of the
/// text line) — and a `fields` walk both renderers read.
macro_rules! flat_sections {
    ($($(#[$doc:meta])* $name:ident $key:literal {
        $($(#[$fdoc:meta])* $field:ident $label:literal $unit:literal,)*
    })*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: u64,)*
        }

        impl FlatSection for $name {
            fn fields(&self) -> (&'static str, Vec<Field>) {
                ($key, vec![$((stringify!($field), $label, $unit, self.$field)),*])
            }
        }
    )*};
}

flat_sections! {
    /// Queueing-delay distribution (bucket-quantized percentiles).
    QdelaySummary "qdelay" {
        /// Number of delay samples.
        samples "n=" "",
        /// Mean delay, microseconds (exact integer mean).
        mean_us "mean=" "us",
        /// Median upper bucket edge, microseconds.
        p50_us "p50<=" "us",
        /// 95th-percentile upper bucket edge, microseconds.
        p95_us "p95<=" "us",
        /// 99th-percentile upper bucket edge, microseconds.
        p99_us "p99<=" "us",
    }

    /// Windowed link-utilization distribution.
    UtilSummary "util" {
        /// Number of utilization windows observed.
        windows "windows=" "",
        /// Mean utilization, basis points.
        mean_bp "mean=" "bp",
        /// Median utilization upper bucket edge, basis points.
        p50_bp "p50<=" "bp",
    }

    /// Drop and ECN-mark rates at the bottleneck queues.
    LossSummary "loss" {
        /// Packets offered to the queues.
        offered "offered=" "",
        /// Packets dropped (overflow + early).
        dropped "dropped=" "",
        /// Packets ECN-marked.
        marked "marked=" "",
        /// Drop rate, basis points of offered.
        drop_bp "drop=" "bp",
        /// Mark rate, basis points of offered.
        mark_bp "mark=" "bp",
    }

    /// Jain's fairness index over per-flow delivered throughput, one index
    /// per scope (job), reduced to min/mean/max across scopes.
    FairnessSummary "fairness" {
        /// Number of scopes (jobs) that reported flow throughput.
        scopes "scopes=" "",
        /// Total flows across those scopes.
        flows "flows=" "",
        /// Minimum per-scope Jain index, milli-units (1000 = perfectly fair).
        jain_min_milli "jain_milli min=" "",
        /// Mean per-scope Jain index, milli-units.
        jain_mean_milli "mean=" "",
        /// Maximum per-scope Jain index, milli-units.
        jain_max_milli "max=" "",
    }

    /// PERT early-response frequency.
    PertSummary "pert" {
        /// Total early responses across all scopes.
        responses "responses=" "",
        /// Total active simulated time (sum of per-scope maxima), µs.
        active_us "active=" "us",
        /// Responses per active second, milli-hertz.
        freq_mhz "freq=" "mHz",
    }

    /// Shard-imbalance view of a space-parallel run: how evenly the
    /// partition spread the event load. Exact, from the per-epoch
    /// `shard/events` counts, so it is the same every run.
    ShardSummary "shards" {
        /// Number of shards that reported events.
        shards "n=" "",
        /// Total events processed across all shards.
        events "events=" "",
        /// Largest single shard's share of the events, basis points.
        max_share_bp "max_share=" "bp",
        /// Jain's fairness index over per-shard event counts, milli-units
        /// (1000 = perfectly balanced).
        jain_milli "jain_milli=" "",
    }

    /// Congestion-control-zoo activity: CUBIC plateau/HyStart behaviour and
    /// BBR model-filter state, reduced to counts and extrema.
    CcSummary "cc" {
        /// HyStart slow-start exits across all CUBIC flows.
        hystart_exits "hystart_exits=" "",
        /// CUBIC congestion epochs (one `cubic/w_max` record per loss event).
        cubic_epochs "cubic_epochs=" "",
        /// Largest CUBIC plateau (`w_max`) observed, milli-segments.
        cubic_wmax_max_milli "wmax_max=" "milli",
        /// BBR bandwidth-filter updates (one per delivery round).
        bbr_rounds "bbr_rounds=" "",
        /// Peak bottleneck-bandwidth estimate, milli-segments/second.
        bbr_btlbw_max_milli "btlbw_max=" "milli",
        /// Lowest min-RTT estimate, microseconds (0 when no sample arrived).
        bbr_min_rtt_us "min_rtt=" "us",
        /// BBR state-machine transitions.
        bbr_transitions "" "",
        /// Transitions into ProbeRTT.
        bbr_probe_rtt_entries "probe_rtt=" "",
    }
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
        self.flat_sections().iter().all(Option::is_none) && self.fidelity.is_none()
    }

    /// The seven flat sections, in report order; absent ones are `None`.
    fn flat_sections(&self) -> [Option<&dyn FlatSection>; 7] {
        [
            self.qdelay.as_ref().map(|s| s as _),
            self.util.as_ref().map(|s| s as _),
            self.loss.as_ref().map(|s| s as _),
            self.fairness.as_ref().map(|s| s as _),
            self.pert.as_ref().map(|s| s as _),
            self.shards.as_ref().map(|s| s as _),
            self.cc.as_ref().map(|s| s as _),
        ]
    }

    /// Append the text rendering (the `derived metrics:` report block).
    pub fn render_text_into(&self, out: &mut String) {
        if self.is_empty() {
            return;
        }
        out.push_str("\nderived metrics:\n");
        for section in self.flat_sections().into_iter().flatten() {
            let (name, fields) = section.fields();
            let _ = write!(out, "  {name}:");
            for (_, label, unit, v) in fields.iter().filter(|f| !f.1.is_empty()) {
                let _ = write!(out, " {label}{v}{unit}");
            }
            out.push('\n');
        }
        let Some(f) = &self.fidelity else { return };
        out.push_str("\nfidelity:\n");
        let _ = writeln!(
            out,
            "  pairs: scopes={} flows={} windows={}",
            f.scopes, f.flows, f.windows
        );
        if f.windows > 0 {
            let _ = writeln!(
                out,
                "  err: bias={}us abs_p50<={}us abs_p95<={}us abs_p99<={}us\n  \
                 err split: over n={} p95<={}us | under n={} p95<={}us",
                f.bias_us,
                f.abs_p50_us,
                f.abs_p95_us,
                f.abs_p99_us,
                f.over_n,
                f.over_p95_us,
                f.under_n,
                f.under_p95_us
            );
        }
        if f.paired_prob > 0 {
            let (a, n, bp) = (f.agree, f.paired_prob, f.agree_bp);
            let _ = writeln!(out, "  agree: {a}/{n} ({bp}bp, tol max(100bp, truth/4))");
        }
        if !f.lag.is_empty() {
            out.push_str("  lag:");
            for p in &f.lag {
                let _ = write!(out, " r@{}ms={}", p.offset_ms, p.r_milli);
            }
            out.push_str(" milli\n");
        }
        for w in &f.worst_flows {
            let _ = writeln!(
                out,
                "  flow {}: windows={} bias={}us p95<={}us",
                w.key, w.windows, w.bias_us, w.abs_p95_us
            );
        }
        for g in &f.groups {
            let _ = writeln!(
                out,
                "  group {}: flows={} windows={} bias={}us p95<={}us agree={}bp",
                g.name, g.flows, g.windows, g.bias_us, g.abs_p95_us, g.agree_bp
            );
        }
    }

    /// The JSON object body for the report's `"derived"` key.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for section in self.flat_sections().into_iter().flatten() {
            let (name, fields) = section.fields();
            let _ = write!(out, "\"{name}\":{{");
            for (key, _, _, v) in fields {
                let _ = write!(out, "\"{key}\":{v},");
            }
            close(&mut out, "},");
        }
        if let Some(f) = &self.fidelity {
            out.push_str("\"fidelity\":{");
            push_fields(
                &mut out,
                &[
                    ("scopes", f.scopes.into()),
                    ("flows", f.flows.into()),
                    ("windows", f.windows.into()),
                    ("bias_us", f.bias_us.into()),
                    ("abs_p50_us", f.abs_p50_us.into()),
                    ("abs_p95_us", f.abs_p95_us.into()),
                    ("abs_p99_us", f.abs_p99_us.into()),
                    ("over_n", f.over_n.into()),
                    ("over_p95_us", f.over_p95_us.into()),
                    ("under_n", f.under_n.into()),
                    ("under_p95_us", f.under_p95_us.into()),
                    ("paired_prob", f.paired_prob.into()),
                    ("agree", f.agree.into()),
                    ("agree_bp", f.agree_bp.into()),
                ],
            );
            out.push_str("\"lag\":[");
            for p in &f.lag {
                out.push('{');
                let (off, r) = (p.offset_ms.into(), p.r_milli.into());
                push_fields(
                    &mut out,
                    &[
                        ("offset_ms", off),
                        ("r_milli", r),
                        ("scopes", p.scopes.into()),
                    ],
                );
                close(&mut out, "},");
            }
            close(&mut out, "],\"worst_flows\":[");
            for w in &f.worst_flows {
                out.push('{');
                let (key, windows, bias) = (w.key.into(), w.windows.into(), w.bias_us.into());
                let p95 = w.abs_p95_us.into();
                push_fields(
                    &mut out,
                    &[
                        ("key", key),
                        ("windows", windows),
                        ("bias_us", bias),
                        ("abs_p95_us", p95),
                    ],
                );
                close(&mut out, "},");
            }
            close(&mut out, "],\"groups\":[");
            for g in &f.groups {
                out.push_str("{\"name\":");
                json::push_str(&mut out, &g.name);
                out.push(',');
                push_fields(
                    &mut out,
                    &[
                        ("flows", g.flows.into()),
                        ("windows", g.windows.into()),
                        ("bias_us", g.bias_us.into()),
                        ("abs_p95_us", g.abs_p95_us.into()),
                        ("paired_prob", g.paired_prob.into()),
                        ("agree", g.agree.into()),
                        ("agree_bp", g.agree_bp.into()),
                    ],
                );
                close(&mut out, "},");
            }
            close(&mut out, "]}");
        }
        close(&mut out, "}");
        out
    }
}

/// Append `"key":value,` per field.
fn push_fields(out: &mut String, fields: &[(&str, i128)]) {
    for (key, v) in fields {
        let _ = write!(out, "\"{key}\":{v},");
    }
}

/// Drop the comma the last list element left, then append `tail`.
fn close(out: &mut String, tail: &str) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str(tail);
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
        let s = d.summary().shards.unwrap();
        assert_eq!(s.shards, 4);
        assert_eq!(s.events, 100);
        assert_eq!(s.max_share_bp, 5_000);
        // Jain: 100²·1000 / (4 · (2500 + 400 + 400 + 100)) = 735.
        assert_eq!(s.jain_milli, 735);

        let mut e = DeriveSet::new();
        e.ingest("shard", "shard/events", 0, 1.0, 10.0);
        e.ingest("shard", "shard/events", 1, 1.0, 10.0);
        let s = e.summary().shards.unwrap();
        assert_eq!((s.max_share_bp, s.jain_milli), (5_000, 1_000));
        let mut text = String::new();
        e.summary().render_text_into(&mut text);
        assert_eq!(
            text.lines().find(|l| l.contains("shards:")),
            Some("  shards: n=2 events=20 max_share=5000bp jain_milli=1000")
        );

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
