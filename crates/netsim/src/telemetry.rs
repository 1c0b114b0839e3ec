//! Simulator-side telemetry helpers over the process-wide registry in
//! [`pert_core::telemetry`] (re-exported here in full).
//!
//! The simulator publishes:
//!
//! * per-queue signal series via [`QueueTap`] — instantaneous length
//!   (`queue/len`), an EWMA length (`queue/ewma_len`), the router-truth
//!   fidelity pair (`truth/qdelay`, `truth/prob`), and each AQM's
//!   internal state (`red/avg`, `pi/p`, `rem/price`, `avq/vq`, …),
//!   keyed by link index;
//! * per-simulation counters (events, events by class, timers,
//!   enqueues, drops by reason, marks, queue ops by discipline) batched
//!   in [`crate::sim::SimCounters`] and flushed into the metrics
//!   registry when the simulator drops;
//! * per-shard epoch counts (`shard/events`, `shard/mailbox_*`) from
//!   [`crate::shard`].
//!
//! Every one of them is an exact count or a simulated-time quantity;
//! nothing here reads a wall clock, so attached output is as
//! deterministic as the report.
//!
//! One gate, like the audit layer's: taps attach only when the simulator
//! that builds them says so ([`pert_core::Attach::telemetry`]).

pub use pert_core::telemetry::*;

use crate::time::SimTime;

/// Per-enqueue queue-length series are decimated to one sample every
/// this many enqueues, keeping trace volume proportional to (not equal
/// to) the packet count. Controller-internal series (`pi/p`, `red/avg`
/// on adaptation, `rem/price`) follow their own tick cadence instead.
pub const QUEUE_SAMPLE_EVERY: u32 = 64;

/// EWMA weight for the smoothed queue-length series — RED's recommended
/// `w_q`, so `queue/ewma_len` is directly comparable to `red/avg`.
const EWMA_WEIGHT: f64 = 0.002;

/// A queue discipline's attached tap: publishes decimated length and
/// ground-truth fidelity series and carries the link key for
/// discipline-specific signals.
///
/// The *truth* pair is the fidelity observatory's reference signal
/// (DESIGN.md §12): at every sampled enqueue the tap publishes
///
/// * `truth/qdelay` — the bottleneck's instantaneous queueing delay,
///   `backlog_bytes × 8 / capacity_bps` seconds (the drain time of the
///   bytes already buffered — exactly what an arriving packet will
///   wait, and what PERT's `srtt − min_rtt` estimate is trying to
///   track), and
/// * `truth/prob` — the discipline's own drop/mark probability on its
///   *true* internal state at that instant (RED's `p_b(avg)`, PI's
///   `p`, REM's `1 − φ^(−price)`, DropTail/AVQ's overflow indicator).
///   Each discipline's probability law is audited against the
///   straight-line `pert_core::reference` transcriptions, so these are
///   reference values in the differential-oracle sense.
#[derive(Clone, Debug)]
pub struct QueueTap {
    key: u64,
    capacity_bps: u64,
    enqueues: u32,
    ewma_len: f64,
}

impl QueueTap {
    /// A tap keyed by link index with the link's drain rate when `on`,
    /// else `None` (the zero-cost path: disciplines hold
    /// `Option<QueueTap>`).
    pub fn attach_if(on: bool, key: u64, capacity_bps: u64) -> Option<QueueTap> {
        on.then_some(QueueTap {
            key,
            capacity_bps,
            enqueues: 0,
            ewma_len: 0.0,
        })
    }

    /// The link key this tap was attached with.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Fold one enqueue at occupancy `len` (`len_bytes` bytes backlogged)
    /// into the EWMA and, on every [`QUEUE_SAMPLE_EVERY`]-th call (and
    /// the first), publish `queue/len`, `queue/ewma_len`, and the
    /// ground-truth fidelity pair `truth/qdelay` / `truth/prob` (with
    /// `truth_prob` the discipline's drop/mark probability on its true
    /// state). Returns `true` when this call published, so disciplines
    /// can piggyback their own series at the same cadence.
    pub fn on_enqueue(
        &mut self,
        now: SimTime,
        len: usize,
        len_bytes: u64,
        truth_prob: f64,
    ) -> bool {
        self.ewma_len += EWMA_WEIGHT * (len as f64 - self.ewma_len);
        let sample = self.enqueues.is_multiple_of(QUEUE_SAMPLE_EVERY);
        self.enqueues = self.enqueues.wrapping_add(1);
        if sample {
            let t = now.as_secs_f64();
            record_id(SeriesId::QUEUE_LEN, self.key, t, len as f64);
            record_id(SeriesId::QUEUE_EWMA_LEN, self.key, t, self.ewma_len);
            let qdelay = if self.capacity_bps == 0 {
                0.0
            } else {
                (len_bytes as f64 * 8.0) / self.capacity_bps as f64
            };
            record_id(SeriesId::TRUTH_QDELAY, self.key, t, qdelay);
            record_id(SeriesId::TRUTH_PROB, self.key, t, truth_prob);
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_tap_decimates() {
        let mut tap = QueueTap::attach_if(true, 777, 8_000_000).expect("attached");
        let mut published = 0;
        for i in 0..(2 * QUEUE_SAMPLE_EVERY) {
            if tap.on_enqueue(
                SimTime::from_nanos(u64::from(i)),
                i as usize,
                u64::from(i) * 1_000,
                0.25,
            ) {
                published += 1;
            }
        }
        assert_eq!(published, 2);
        assert!(tap.ewma_len > 0.0);
        let records = flight_snapshot();
        assert!(records
            .iter()
            .any(|r| r.series == "queue/len" && r.key == 777));
        assert!(records
            .iter()
            .any(|r| r.series == "queue/ewma_len" && r.key == 777));
        assert!(records
            .iter()
            .any(|r| r.series == "truth/prob" && r.key == 777 && r.value == 0.25));
        // 64 packets of 1000 B at 8 Mbps drain in 64 ms.
        assert!(records.iter().any(|r| r.series == "truth/qdelay"
            && r.key == 777
            && (r.value - 0.064).abs() < 1e-12));
    }
}
