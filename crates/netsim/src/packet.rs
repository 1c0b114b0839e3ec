//! Packet representation.
//!
//! Packets are modelled at the granularity the PERT paper's experiments need:
//! a flow id, a segment sequence number (segments, not bytes, as in ns-2),
//! a size in bytes (which determines transmission delay), ECN codepoints,
//! and a small transport header carried inline (cumulative ACK, up to three
//! SACK blocks, and a timestamp echo for per-ACK RTT measurement).
//!
//! Everything is `Copy`-cheap and heap-free so queues can hold hundreds of
//! thousands of packets without allocator churn (smoltcp-style).

use crate::ids::{AgentId, FlowId, NodeId};
use crate::time::SimTime;

/// Maximum number of SACK blocks carried on an ACK, mirroring the common
/// TCP option-space limit when timestamps are in use.
pub const MAX_SACK_BLOCKS: usize = 3;

/// ECN codepoint carried by a packet, following RFC 3168 semantics at the
/// granularity the simulator needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ecn {
    /// Sender's transport is not ECN-capable; AQM must drop, not mark.
    NotCapable,
    /// ECN-capable transport, not yet marked (ECT).
    Capable,
    /// Congestion experienced (CE) — marked by an AQM on the path.
    CongestionExperienced,
}

impl Ecn {
    /// True if an AQM may mark this packet instead of dropping it.
    #[inline]
    pub fn is_capable(self) -> bool {
        !matches!(self, Ecn::NotCapable)
    }

    /// True if the CE mark has been applied.
    #[inline]
    pub fn is_marked(self) -> bool {
        matches!(self, Ecn::CongestionExperienced)
    }
}

/// A half-open range `[start, end)` of segment sequence numbers reported by
/// a SACK block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SackBlock {
    /// First segment covered by the block.
    pub start: u64,
    /// One past the last segment covered by the block.
    pub end: u64,
}

impl SackBlock {
    /// Number of segments the block covers.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True if the block covers no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True if `seq` lies inside the block.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        self.start <= seq && seq < self.end
    }
}

/// The transport-level payload of a packet: either a data segment or an
/// acknowledgment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A data segment with the given sequence number (in segments).
    Data {
        /// Segment sequence number.
        seq: u64,
        /// True if this transmission is a retransmission.
        retransmit: bool,
    },
    /// A (possibly selective) acknowledgment.
    Ack {
        /// Cumulative ACK: all segments `< cum_ack` have been received.
        cum_ack: u64,
        /// Up to [`MAX_SACK_BLOCKS`] SACK blocks, most recent first; unused
        /// slots are `None`.
        sack: [Option<SackBlock>; MAX_SACK_BLOCKS],
        /// Echo of the timestamp carried by the segment that triggered this
        /// ACK, used by senders for per-ACK RTT samples.
        ts_echo: SimTime,
        /// Forward one-way delay of the triggering segment as measured by
        /// the receiver (arrival − send timestamp; the simulator's global
        /// clock models synchronized hosts). Enables the paper's §7
        /// suggestion of driving PERT from one-way delays so reverse-path
        /// congestion does not trigger early response.
        owd_echo: crate::time::SimDuration,
        /// True if the acknowledged segment carried a CE mark (the receiver
        /// echoes congestion back to the sender, RFC 3168 ECE semantics).
        ece: bool,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for k = 0..=24.
const FNV_POW: [u64; 25] = {
    let mut pow = [1u64; 25];
    let mut k = 1;
    while k < 25 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// `FNV_ABSENT[k - 1][l]`: FNV-1a over `8k` bytes of `0xff` (k absent
/// SACK blocks) started from the state `l` < 256.
const FNV_ABSENT: [[u64; 256]; MAX_SACK_BLOCKS] = {
    let mut t = [[0u64; 256]; MAX_SACK_BLOCKS];
    let mut l = 0;
    while l < 256 {
        let mut h = l as u64;
        let mut byte = 0;
        while byte < 8 * MAX_SACK_BLOCKS {
            h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
            byte += 1;
            if byte % 8 == 0 {
                t[byte / 8 - 1][l] = h;
            }
        }
        l += 1;
    }
    t
};

/// FNV-1a from state `h` over the eight little-endian bytes of `w`.
#[inline]
fn fnv_word(mut h: u64, mut w: u64) -> u64 {
    let n = (71 - w.leading_zeros()) / 8;
    for _ in 0..n {
        h ^= w & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        w >>= 8;
    }
    h.wrapping_mul(FNV_POW[(8 - n) as usize])
}

/// FNV-1a from state `h` over `k` absent SACK blocks, `8k` bytes of
/// `0xff`. An XOR touches only the low byte `l` and a multiply carries
/// only upward, so the bytes act on `h − l` as a bare multiply by
/// `P^{8k}` and on `l` as the table [`FNV_ABSENT`] says.
#[inline]
fn fnv_absent(h: u64, k: usize) -> u64 {
    if k == 0 {
        return h;
    }
    let l = h & 0xff;
    (h - l)
        .wrapping_mul(FNV_POW[8 * k])
        .wrapping_add(FNV_ABSENT[k - 1][l as usize])
}

/// A simulated packet.
///
/// `size_bytes` covers the whole wire footprint (headers + payload) and is
/// what the link layer charges for transmission time.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Flow this packet belongs to (for tracing and per-flow accounting).
    pub flow: FlowId,
    /// Node the packet is ultimately destined to.
    pub dst_node: NodeId,
    /// Agent at `dst_node` that should receive the packet.
    pub dst_agent: AgentId,
    /// Total wire size in bytes.
    pub size_bytes: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Time the packet was handed to the simulator by its source agent.
    pub sent_at: SimTime,
    /// Transport payload.
    pub payload: Payload,
}

impl Packet {
    /// Wire size in bits, for transmission-delay computation.
    #[inline]
    pub fn size_bits(&self) -> u64 {
        u64::from(self.size_bytes) * 8
    }

    /// A stable, content-only ordering tiebreak (FNV-1a over the wire
    /// content), guaranteed non-zero. Two *arrival* events landing at the
    /// same instant with the same emission time are ordered by this
    /// value in the event calendar; because it depends only on packet
    /// content, a sharded run reproduces the monolithic order without
    /// knowing the monolithic insertion sequence (see `netsim::shard`).
    /// Packets with identical content hash equally, and processing
    /// identical packets in either order is indistinguishable.
    ///
    /// `dst_agent` is deliberately **excluded**: an agent id is a wiring
    /// detail numbered in allocation order, not wire content, so hashing
    /// it would let an unrelated change in how agents are installed move
    /// same-instant ties — and with them whole trajectories. Every hashed
    /// field below is transport-level content.
    ///
    /// Each field is hashed as its eight little-endian bytes. XOR with a
    /// zero byte changes nothing, so a word's zero high bytes are each a
    /// bare multiply by the prime: `fnv_word` hashes only the
    /// significant low bytes and folds the rest into one multiply by a
    /// power of the prime. A run of absent SACK blocks takes one table
    /// step (`fnv_absent`). Both give the byte-at-a-time value, bit for
    /// bit.
    pub fn order_tie(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for w in [
            self.flow.0 as u64,
            self.dst_node.0 as u64,
            u64::from(self.size_bytes),
            match self.ecn {
                Ecn::NotCapable => 0,
                Ecn::Capable => 1,
                Ecn::CongestionExperienced => 2,
            },
            self.sent_at.as_nanos(),
        ] {
            h = fnv_word(h, w);
        }
        match self.payload {
            Payload::Data { seq, retransmit } => {
                for w in [3, seq, u64::from(retransmit)] {
                    h = fnv_word(h, w);
                }
            }
            Payload::Ack {
                cum_ack,
                sack,
                ts_echo,
                owd_echo,
                ece,
            } => {
                h = fnv_word(fnv_word(h, 4), cum_ack);
                // Each absent block hashes as `u64::MAX`.
                let mut absent = 0;
                for b in sack {
                    match b {
                        Some(b) => {
                            h = fnv_absent(h, absent);
                            absent = 0;
                            h = fnv_word(fnv_word(h, b.start), b.end);
                        }
                        None => absent += 1,
                    }
                }
                h = fnv_absent(h, absent);
                for w in [ts_echo.as_nanos(), owd_echo.as_nanos(), u64::from(ece)] {
                    h = fnv_word(h, w);
                }
            }
        }
        h | 1
    }

    /// True if this is a data segment.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.payload, Payload::Data { .. })
    }

    /// True if this is an acknowledgment.
    #[inline]
    pub fn is_ack(&self) -> bool {
        matches!(self.payload, Payload::Ack { .. })
    }

    /// The data sequence number, if this is a data segment.
    #[inline]
    pub fn data_seq(&self) -> Option<u64> {
        match self.payload {
            Payload::Data { seq, .. } => Some(seq),
            Payload::Ack { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};

    fn mk(payload: Payload) -> Packet {
        Packet {
            flow: FlowId(0),
            dst_node: NodeId(1),
            dst_agent: AgentId(2),
            size_bytes: 1000,
            ecn: Ecn::Capable,
            sent_at: SimTime::ZERO,
            payload,
        }
    }

    #[test]
    fn size_bits() {
        let p = mk(Payload::Data {
            seq: 0,
            retransmit: false,
        });
        assert_eq!(p.size_bits(), 8000);
    }

    /// The calendar tiebreak must not see the wiring: the same wire
    /// packet addressed to a different agent id has to sort identically.
    #[test]
    fn order_tie_ignores_the_destination_agent() {
        let a = mk(Payload::Data {
            seq: 9,
            retransmit: false,
        });
        let mut b = a;
        b.dst_agent = AgentId(77);
        assert_eq!(a.order_tie(), b.order_tie());
        // But genuine content differences still separate packets.
        let mut c = a;
        c.payload = Payload::Data {
            seq: 10,
            retransmit: false,
        };
        assert_ne!(a.order_tie(), c.order_tie());
        assert_ne!(a.order_tie() % 2, 0, "tie must stay non-zero/odd");
    }

    /// The calendar tiebreak is part of the pop-order contract: these two
    /// values were taken from the byte-at-a-time FNV-1a, so any change to
    /// how `order_tie` walks its words that moves a bit fails here.
    #[test]
    fn order_tie_is_pinned() {
        let data = Packet {
            flow: FlowId(40_321),
            dst_node: NodeId(17),
            dst_agent: AgentId(3),
            size_bytes: 1040,
            ecn: Ecn::Capable,
            sent_at: SimTime::from_nanos(1_234_567_891),
            payload: Payload::Data {
                seq: 98_765,
                retransmit: true,
            },
        };
        let ack = Packet {
            flow: FlowId(7),
            dst_node: NodeId(2),
            dst_agent: AgentId(9),
            size_bytes: 40,
            ecn: Ecn::CongestionExperienced,
            sent_at: SimTime::from_nanos(987_654_321),
            payload: Payload::Ack {
                cum_ack: (1 << 40) + 5,
                sack: [
                    Some(SackBlock { start: 10, end: 14 }),
                    None,
                    Some(SackBlock {
                        start: u64::MAX - 3,
                        end: u64::MAX,
                    }),
                ],
                ts_echo: SimTime::from_nanos(555_000_000),
                owd_echo: crate::time::SimDuration::from_nanos(12_345),
                ece: true,
            },
        };
        assert_eq!(data.order_tie(), 15_519_610_219_915_344_031);
        assert_eq!(ack.order_tie(), 3_385_634_062_213_130_285);
    }

    /// ACKs with 0–3 absent SACK blocks, and an absent block between two
    /// present ones, hash as the byte-at-a-time FNV-1a over their words:
    /// the absent-block tables cover every run length and restart after
    /// a present block.
    #[test]
    fn order_tie_of_absent_sack_blocks_matches_the_byte_loop() {
        let byte_loop = |words: &[u64]| {
            let mut h = FNV_OFFSET;
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h | 1
        };
        let block = |start| {
            Some(SackBlock {
                start,
                end: start + 3,
            })
        };
        let patterns = [
            [block(9), block(1 << 33), block(77)],
            [block(9), block(1 << 33), None],
            [block(9), None, None],
            [None; MAX_SACK_BLOCKS],
            [block(9), None, block(77)],
        ];
        for (i, sack) in (0u64..).zip(patterns) {
            let (flow, sent, cum_ack) = (3 + i, 123_456_789 + i, 1_000 + i);
            let ack = Packet {
                flow: FlowId(flow as usize),
                dst_node: NodeId(5),
                dst_agent: AgentId(1),
                size_bytes: 40,
                ecn: Ecn::Capable,
                sent_at: SimTime::from_nanos(sent),
                payload: Payload::Ack {
                    cum_ack,
                    sack,
                    ts_echo: SimTime::from_nanos(99_999),
                    owd_echo: crate::time::SimDuration::from_nanos(4_321),
                    ece: i % 2 == 1,
                },
            };
            let mut words = vec![flow, 5, 40, 1, sent, 4, cum_ack];
            for b in sack {
                match b {
                    Some(b) => words.extend([b.start, b.end]),
                    None => words.push(u64::MAX),
                }
            }
            words.extend([99_999, 4_321, i % 2]);
            assert_eq!(ack.order_tie(), byte_loop(&words), "{sack:?}");
        }
    }

    #[test]
    fn payload_classification() {
        let d = mk(Payload::Data {
            seq: 7,
            retransmit: false,
        });
        assert!(d.is_data() && !d.is_ack());
        assert_eq!(d.data_seq(), Some(7));

        let a = mk(Payload::Ack {
            cum_ack: 3,
            sack: [None; MAX_SACK_BLOCKS],
            ts_echo: SimTime::ZERO,
            owd_echo: crate::time::SimDuration::ZERO,
            ece: false,
        });
        assert!(a.is_ack() && !a.is_data());
        assert_eq!(a.data_seq(), None);
    }

    #[test]
    fn ecn_codepoints() {
        assert!(!Ecn::NotCapable.is_capable());
        assert!(Ecn::Capable.is_capable());
        assert!(Ecn::CongestionExperienced.is_capable());
        assert!(Ecn::CongestionExperienced.is_marked());
        assert!(!Ecn::Capable.is_marked());
    }

    #[test]
    fn sack_block_geometry() {
        let b = SackBlock { start: 10, end: 14 };
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert!(b.contains(10) && b.contains(13));
        assert!(!b.contains(14) && !b.contains(9));
        assert!(SackBlock { start: 5, end: 5 }.is_empty());
    }
}
