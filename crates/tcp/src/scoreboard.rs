//! The SACK scoreboard: per-segment delivery state for the send window.
//!
//! Tracks every transmitted-but-unacknowledged segment as one of
//! `InFlight` (sent, no information), `Sacked` (selectively acknowledged),
//! `Lost` (declared lost, awaiting retransmission) or `Retx`
//! (retransmitted, outcome pending). Loss declaration follows the
//! forward-acknowledgment (FACK) rule: a segment is lost once a segment at
//! least [`DUP_THRESH`] positions above it has been SACKed — the
//! SACK-based equivalent of TCP's three-duplicate-ACK threshold.
//!
//! The outstanding window is always the contiguous range
//! `[high_ack, next_seq)`, so the states live in a flat ring offset by the
//! lowest outstanding sequence, one byte per segment: `INLINE` of them
//! inside the struct (a short transfer never touches the heap), then a
//! doubling heap ring kept across transfers. `in_flight()` and
//! `first_lost()` are O(1) (counters and a forward cursor), and the FACK
//! sweep visits each sequence number at most once over the window's
//! lifetime (watermark-based).
//!
//! SACK processing is independent of the window too. A receiver repeats
//! its blocks on every ACK, and during recovery the first one spans the
//! whole SACKed region above the hole, so walking every segment of every
//! block costs the window per ACK. Only [`Scoreboard::ack_to`] ever removes
//! a SACKed segment, so every segment of a block applied before is SACKed
//! still: like Linux's `recv_sack_cache`, a spilled scoreboard remembers
//! the last [`MAX_SACK_BLOCKS`] blocks longer than four segments it
//! applied (in the spill allocation, after the ring) and walks only the
//! part of a new block none of them covers. Runs SACKed long ago still
//! lie in such parts (a retransmission joins its block to the run above),
//! so a SACKed segment's byte keeps the largest `k` with `seq..seq + 2^k`
//! SACKed and a walk jumps over it. [`sack_walk`] counts what that costs.

use std::cell::Cell;

use pert_core::{audit, Attach};

use netsim::{SackBlock, MAX_SACK_BLOCKS};

/// Number of SACKed segments above a hole required to declare it lost.
pub const DUP_THRESH: u64 = 3;

/// Window length held inside the [`Scoreboard`] itself (a power of two).
const INLINE: usize = 16;

/// Bytes after the spilled ring: the last [`MAX_SACK_BLOCKS`] applied
/// blocks, clipped to the window, as little-endian `(start, end)` pairs.
const RECENT_BYTES: usize = MAX_SACK_BLOCKS * 16;

/// Blocks of at most this many outstanding segments are walked whole and
/// not remembered.
const SHORT_BLOCK: u64 = 4;

/// Delivery state of one outstanding segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum SegState {
    /// Sent once, no feedback yet.
    #[default]
    InFlight,
    /// Covered by a SACK block.
    Sacked,
    /// Declared lost; retransmission pending.
    Lost,
    /// Retransmitted; outcome pending.
    Retx,
}

impl SegState {
    /// The state a ring byte holds (its low two bits).
    #[inline]
    fn from_byte(b: u8) -> SegState {
        match b & 3 {
            0 => SegState::InFlight,
            1 => SegState::Sacked,
            2 => SegState::Lost,
            _ => SegState::Retx,
        }
    }
}

/// SACK blocks the calling thread's scoreboards applied, and the segments
/// they visited doing it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackWalk {
    /// Non-empty blocks applied.
    pub blocks: u64,
    /// Segments whose state those applications examined.
    pub segments: u64,
    /// Outstanding segments those blocks covered: what walking every
    /// block whole would have examined.
    pub spanned: u64,
}

thread_local! {
    static SACK_WALK: Cell<SackWalk> = const {
        Cell::new(SackWalk {
            blocks: 0,
            segments: 0,
            spanned: 0,
        })
    };
}

/// What [`Scoreboard::sack`] has cost on the calling thread so far: an
/// exact count, cheap enough to keep on (a thread-local add per block).
pub fn sack_walk() -> SackWalk {
    SACK_WALK.with(Cell::get)
}

/// The send-window scoreboard: a ring of states for `[base, base + len)`
/// plus the counters and cursors that summarize it.
///
/// Every connection carries one, so the counters are `u32` (a window of
/// 2^32 segments is far past any receiver window) and "no SACK yet" is a
/// sentinel rather than an `Option`.
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// The ring until a window first outgrows it, one [`SegState`] byte a
    /// segment.
    inline: [u8; INLINE],
    /// The ring from then on (power-of-two length), followed by the
    /// recently applied SACK blocks ([`RECENT_BYTES`]); empty before.
    spill: Box<[u8]>,
    /// Ring index of `base`'s state, unreduced and wrapping (`slot` masks
    /// it; the ring length is a power of two no larger than 2^32).
    head: u32,
    /// Lowest outstanding sequence number (meaningful while `len > 0`).
    base: u64,
    len: u32,
    in_flight: u32,
    sacked: u32,
    lost: u32,
    /// Lowest `Lost` sequence number (meaningful while `lost > 0`).
    first_lost: u64,
    /// One past the highest SACKed sequence number; 0 before any SACK.
    sack_end: u64,
    /// FACK sweep watermark: holes below this were already examined.
    fack_mark: u64,
    /// Mutation counter driving the periodic full audit rescan (wrapping:
    /// 64 divides 2^32, so the period survives the wrap).
    ops: u32,
}

impl Scoreboard {
    /// Empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Segments consuming network capacity (`InFlight` + `Retx`).
    pub fn in_flight(&self) -> usize {
        self.in_flight as usize
    }

    /// Segments declared lost and not yet retransmitted.
    pub fn lost_count(&self) -> usize {
        self.lost as usize
    }

    /// Segments currently SACKed.
    pub fn sacked_count(&self) -> usize {
        self.sacked as usize
    }

    /// Total tracked (sent, unacknowledged) segments.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest outstanding sequence number.
    fn end(&self) -> u64 {
        self.base + u64::from(self.len)
    }

    fn ring(&self) -> &[u8] {
        match self.spill.len() {
            0 => &self.inline,
            n => &self.spill[..n - RECENT_BYTES],
        }
    }

    fn ring_mut(&mut self) -> &mut [u8] {
        match self.spill.len() {
            0 => &mut self.inline,
            n => &mut self.spill[..n - RECENT_BYTES],
        }
    }

    /// The ring index of outstanding segment `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        debug_assert!(
            self.base <= seq && seq < self.end(),
            "{seq} not outstanding"
        );
        self.head.wrapping_add((seq - self.base) as u32) as usize
    }

    /// The ring byte of `seq`: its state, then a SACKed one's skip exponent.
    #[inline]
    fn byte(&self, seq: u64) -> u8 {
        let (i, ring) = (self.slot(seq), self.ring());
        ring[i & (ring.len() - 1)]
    }

    /// The state of outstanding segment `seq`.
    #[inline]
    fn state(&self, seq: u64) -> SegState {
        SegState::from_byte(self.byte(seq))
    }

    /// Set the ring byte of outstanding segment `seq`.
    #[inline]
    fn set(&mut self, seq: u64, byte: u8) {
        let i = self.slot(seq);
        let ring = self.ring_mut();
        let mask = ring.len() - 1;
        ring[i & mask] = byte;
    }

    /// The recently applied blocks, as `(start, end)` (empty ranges where
    /// none was); none at all before the ring spills.
    fn recent(&self) -> [(u64, u64); MAX_SACK_BLOCKS] {
        let mut recent = [(0, 0); MAX_SACK_BLOCKS];
        if let Some(tail) = self.spill.len().checked_sub(RECENT_BYTES) {
            let word = |k: usize| {
                let at = tail + 8 * k;
                u64::from_le_bytes(self.spill[at..at + 8].try_into().expect("eight bytes"))
            };
            for (k, r) in recent.iter_mut().enumerate() {
                *r = (word(2 * k), word(2 * k + 1));
            }
        }
        recent
    }

    /// Remember `block` in an empty slot or over a block it covers, else in
    /// place of the oldest unless one covers it: the highest and lowest
    /// blocks, repeated on every ACK, take one slot each.
    fn remember(&mut self, mut recent: [(u64, u64); MAX_SACK_BLOCKS], block: (u64, u64)) {
        let Some(tail) = self.spill.len().checked_sub(RECENT_BYTES) else {
            return;
        };
        let within = |a: (u64, u64), b: (u64, u64)| b.0 <= a.0 && a.1 <= b.1;
        let spare = |r: (u64, u64)| r.0 >= r.1 || within(r, block);
        if let Some(k) = recent.iter().position(|&r| spare(r)) {
            recent[k] = block;
        } else if recent.iter().all(|&r| !within(block, r)) {
            recent.rotate_left(1);
            recent[MAX_SACK_BLOCKS - 1] = block;
        }
        for (k, (start, end)) in recent.into_iter().enumerate() {
            let at = tail + 16 * k;
            self.spill[at..at + 8].copy_from_slice(&start.to_le_bytes());
            self.spill[at + 8..at + 16].copy_from_slice(&end.to_le_bytes());
        }
    }

    /// Record the (first) transmission of `seq`, which must extend the
    /// outstanding window by one.
    pub fn on_send_new(&mut self, seq: u64) {
        if self.len == 0 {
            // A new window: remembered blocks describe the old one.
            self.base = seq;
            self.remember([(0, 0); MAX_SACK_BLOCKS], (0, 0));
        }
        assert_eq!(seq, self.end(), "new segment must extend the window");
        let len = self.len as usize;
        if len == self.ring().len() {
            // Full: unroll the ring into one twice its length, starting at
            // `base`, and carry the remembered blocks over.
            let head = self.head as usize & (len - 1);
            self.head = 0;
            let mut grown = Vec::with_capacity(2 * len + RECENT_BYTES);
            let ring = self.ring();
            grown.extend_from_slice(&ring[head..]);
            grown.extend_from_slice(&ring[..head]);
            grown.resize(2 * len, SegState::InFlight as u8);
            match self.spill.len().checked_sub(RECENT_BYTES) {
                Some(tail) => grown.extend_from_slice(&self.spill[tail..]),
                None => grown.resize(2 * len + RECENT_BYTES, 0),
            }
            self.spill = grown.into_boxed_slice();
        }
        self.len += 1;
        self.set(seq, SegState::InFlight as u8);
        self.in_flight += 1;
        self.audit();
    }

    /// Record the retransmission of a lost segment.
    pub fn on_retransmit(&mut self, seq: u64) {
        assert!(
            self.base <= seq && seq < self.end(),
            "retransmit of unknown seq {seq}"
        );
        debug_assert_eq!(
            self.state(seq),
            SegState::Lost,
            "retransmit of non-lost seq {seq}"
        );
        self.set(seq, SegState::Retx as u8);
        self.lost -= 1;
        self.in_flight += 1;
        self.settle_first_lost();
        self.audit();
    }

    /// Cumulative ACK up to (exclusive) `cum`: forget all covered segments.
    /// Returns the number of segments newly removed.
    pub fn ack_to(&mut self, cum: u64) -> u64 {
        let removed = cum.saturating_sub(self.base).min(u64::from(self.len));
        for seq in self.base..self.base + removed {
            match self.state(seq) {
                SegState::InFlight | SegState::Retx => self.in_flight -= 1,
                SegState::Sacked => self.sacked -= 1,
                SegState::Lost => self.lost -= 1,
            }
        }
        self.head = self.head.wrapping_add(removed as u32);
        self.base += removed;
        self.len -= removed as u32;
        self.fack_mark = self.fack_mark.max(cum);
        self.settle_first_lost();
        self.audit();
        removed
    }

    /// Apply one SACK block. Blocks can reference acked-away data
    /// harmlessly; only the part inside the window that no remembered
    /// block covers is visited.
    pub fn sack(&mut self, block: SackBlock) {
        if block.is_empty() {
            return;
        }
        let (lo, hi) = (block.start.max(self.base), block.end.min(self.end()));
        let mut visited = 0;
        if hi.saturating_sub(lo) <= SHORT_BLOCK {
            // Walking a short block costs no more than consulting the
            // remembered ones, and leaving it out keeps them for the long.
            visited = self.mark_sacked(lo, hi);
        } else {
            let recent = self.recent();
            let mut seq = lo;
            while seq < hi {
                let covered = recent.iter().filter(|r| r.0 <= seq && seq < r.1);
                if let Some(past) = covered.map(|r| r.1).max() {
                    seq = past;
                    continue;
                }
                let next = recent.iter().map(|r| r.0).filter(|&s| s > seq);
                let stop = next.fold(hi, u64::min);
                visited += self.mark_sacked(seq, stop);
                seq = stop;
            }
            self.remember(recent, (lo, hi));
        }
        SACK_WALK.with(|w| {
            let walk = w.get();
            w.set(SackWalk {
                blocks: walk.blocks + 1,
                segments: walk.segments + visited,
                spanned: walk.spanned + hi.saturating_sub(lo),
            });
        });
        self.sack_end = self.sack_end.max(block.end);
        self.settle_first_lost();
        self.audit();
    }

    /// Mark the outstanding segments `lo..hi` SACKed, jumping over the
    /// SACKed runs it meets; returns how many segments it visited.
    fn mark_sacked(&mut self, lo: u64, hi: u64) -> u64 {
        let (mut seq, mut visited) = (lo, 0);
        while seq < hi {
            visited += 1;
            let byte = self.byte(seq);
            // `seq..hi` is SACKed once this walk is done.
            let sacked = SegState::Sacked as u8 | ((hi - seq).ilog2() as u8) << 2;
            match SegState::from_byte(byte) {
                SegState::InFlight | SegState::Retx => self.in_flight -= 1,
                SegState::Lost => self.lost -= 1,
                // `seq..seq + 2^k` is SACKed: only `ack_to` unsacks, from below.
                SegState::Sacked => {
                    self.set(seq, sacked.max(byte));
                    seq += 1 << (byte >> 2);
                    continue;
                }
            }
            self.set(seq, sacked);
            self.sacked += 1;
            seq += 1;
        }
        visited
    }

    /// FACK loss declaration: mark as `Lost` every `InFlight` hole lying
    /// [`DUP_THRESH`] or more below the highest SACKed sequence. Returns
    /// the number of segments newly declared lost.
    pub fn declare_losses(&mut self) -> usize {
        let limit = self.sack_end.checked_sub(DUP_THRESH);
        let Some(limit) = limit.filter(|&l| self.fack_mark < l) else {
            return 0;
        };
        let range = self.fack_mark.max(self.base)..limit.min(self.end());
        self.fack_mark = limit;
        self.mark_lost(range, false)
    }

    /// Declare every non-SACKed outstanding segment lost (RTO recovery).
    /// Returns how many were newly marked.
    pub fn mark_all_lost(&mut self) -> usize {
        self.mark_lost(self.base..self.end(), true)
    }

    /// Move the `InFlight` (and, if `retx_too`, `Retx`) segments of `range`
    /// to `Lost`; returns how many.
    fn mark_lost(&mut self, range: std::ops::Range<u64>, retx_too: bool) -> usize {
        let before = self.lost;
        for seq in range {
            let st = self.state(seq);
            if st == SegState::InFlight || (retx_too && st == SegState::Retx) {
                self.set(seq, SegState::Lost as u8);
                self.in_flight -= 1;
                if self.lost == 0 || seq < self.first_lost {
                    self.first_lost = seq;
                }
                self.lost += 1;
            }
        }
        self.audit();
        (self.lost - before) as usize
    }

    /// Re-establish the `first_lost` cursor after segments left the `Lost`
    /// state: nothing below it is `Lost`, so it only ever scans forward.
    fn settle_first_lost(&mut self) {
        if self.lost > 0 {
            let mut seq = self.first_lost.max(self.base);
            while self.state(seq) != SegState::Lost {
                seq += 1;
            }
            self.first_lost = seq;
        }
    }

    /// Differential check of the incremental bookkeeping against the ring
    /// it summarizes: O(1) conservation identity on every mutation, full
    /// linear rescan (the naive implementation the counters and the cursor
    /// replace) every 64th, when the running simulator audits.
    fn audit(&mut self) {
        if !Attach::current().audit {
            return;
        }
        self.ops = self.ops.wrapping_add(1);
        audit::count_tcp_checks(1);
        if self.in_flight + self.sacked + self.lost != self.len {
            audit::violation(
                "scoreboard",
                format_args!(
                    "conservation broken: in_flight={} + sacked={} + lost={} != len={}",
                    self.in_flight, self.sacked, self.lost, self.len,
                ),
            );
        }
        if !self.ops.is_multiple_of(64) {
            return;
        }
        let (mut in_flight, mut sacked, mut lost, mut first_lost) = (0u32, 0u32, 0u32, None);
        for seq in self.base..self.end() {
            match self.state(seq) {
                SegState::InFlight | SegState::Retx => in_flight += 1,
                SegState::Sacked => sacked += 1,
                SegState::Lost => {
                    lost += 1;
                    first_lost = first_lost.or(Some(seq));
                }
            }
        }
        let rescan = (in_flight, sacked, lost, first_lost);
        let held = (self.in_flight, self.sacked, self.lost, self.first_lost());
        if held != rescan {
            audit::violation(
                "scoreboard",
                format_args!(
                    "(in_flight, sacked, lost, first_lost) = {held:?} diverged from linear \
                     rescan {rescan:?} of {} segments",
                    self.len,
                ),
            );
        }
    }

    /// Lowest lost segment awaiting retransmission.
    pub fn first_lost(&self) -> Option<u64> {
        (self.lost > 0).then_some(self.first_lost)
    }

    /// Highest SACKed sequence, if any.
    pub fn highest_sacked(&self) -> Option<u64> {
        self.sack_end.checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(start: u64, end: u64) -> SackBlock {
        SackBlock { start, end }
    }

    #[test]
    fn send_and_ack_cycle() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send_new(s);
        }
        assert_eq!(sb.in_flight(), 5);
        assert_eq!(sb.ack_to(3), 3);
        assert_eq!(sb.in_flight(), 2);
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.ack_to(3), 0); // idempotent
    }

    #[test]
    fn sack_reduces_in_flight() {
        let mut sb = Scoreboard::new();
        for s in 0..10 {
            sb.on_send_new(s);
        }
        sb.sack(blk(5, 8));
        assert_eq!(sb.in_flight(), 7);
        assert_eq!(sb.sacked_count(), 3);
        assert_eq!(sb.highest_sacked(), Some(7));
        // Overlapping SACK is idempotent.
        sb.sack(blk(5, 8));
        assert_eq!(sb.sacked_count(), 3);
    }

    #[test]
    fn fack_declares_hole_lost_after_three_sacks_above() {
        let mut sb = Scoreboard::new();
        for s in 0..10 {
            sb.on_send_new(s);
        }
        // Segment 0 lost in the network; 1 and 2 sacked: only 2 above.
        sb.sack(blk(1, 3));
        assert_eq!(sb.declare_losses(), 0);
        // Third sack above → hole at 0 is lost.
        sb.sack(blk(3, 4));
        assert_eq!(sb.declare_losses(), 1);
        assert_eq!(sb.first_lost(), Some(0));
        assert_eq!(sb.in_flight(), 6); // 10 − 3 sacked − 1 lost
    }

    #[test]
    fn fack_sweep_is_incremental() {
        let mut sb = Scoreboard::new();
        for s in 0..100 {
            sb.on_send_new(s);
        }
        sb.sack(blk(50, 60));
        // highest_sacked = 59 → limit = 57; InFlight holes 0..50 marked.
        assert_eq!(sb.declare_losses(), 50);
        assert_eq!(sb.lost_count(), 50);
        // Re-running without new SACK information marks nothing more.
        assert_eq!(sb.declare_losses(), 0);
        // New SACK above extends the limit to 93: holes 60..93 marked.
        sb.sack(blk(95, 96));
        assert_eq!(sb.declare_losses(), 33);
    }

    #[test]
    fn retransmit_then_ack() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send_new(s);
        }
        sb.sack(blk(1, 5));
        sb.declare_losses();
        assert_eq!(sb.first_lost(), Some(0));
        sb.on_retransmit(0);
        assert_eq!(sb.first_lost(), None);
        assert_eq!(sb.in_flight(), 1); // only the retransmission
        assert_eq!(sb.ack_to(5), 5);
        assert!(sb.is_empty());
        assert_eq!(sb.in_flight(), 0);
    }

    #[test]
    fn late_sack_of_lost_segment_cancels_loss() {
        let mut sb = Scoreboard::new();
        for s in 0..6 {
            sb.on_send_new(s);
        }
        sb.sack(blk(1, 5));
        sb.declare_losses();
        assert_eq!(sb.lost_count(), 1);
        // The "lost" segment turns out to have arrived late.
        sb.sack(blk(0, 1));
        assert_eq!(sb.lost_count(), 0);
        assert_eq!(sb.first_lost(), None);
    }

    #[test]
    fn mark_all_lost_on_rto() {
        let mut sb = Scoreboard::new();
        for s in 0..8 {
            sb.on_send_new(s);
        }
        sb.sack(blk(4, 6));
        assert_eq!(sb.mark_all_lost(), 6);
        assert_eq!(sb.in_flight(), 0);
        assert_eq!(sb.lost_count(), 6);
        assert_eq!(sb.sacked_count(), 2); // SACK info retained
        assert_eq!(sb.first_lost(), Some(0));
    }

    #[test]
    fn conservation_invariant() {
        let mut sb = Scoreboard::new();
        for s in 0..50 {
            sb.on_send_new(s);
        }
        sb.sack(blk(10, 20));
        sb.sack(blk(30, 35));
        sb.declare_losses();
        assert_eq!(
            sb.in_flight() + sb.sacked_count() + sb.lost_count(),
            sb.len()
        );
    }
}
