//! Generation-indexed packet arena.
//!
//! Every in-flight [`Packet`] is interned here the moment it leaves its
//! source agent and freed when it is delivered or dropped. Events, link
//! queues, and traces hold a [`PacketRef`] — eight bytes instead of the
//! ~100-byte packet — so the calendar and the queue stores move small
//! `Copy` values and the packet bodies stay put in one contiguous slab.
//!
//! Slots are recycled through a free list. Each slot carries a
//! **generation** counter that is bumped on every free; a `PacketRef`
//! captures the generation at allocation time, so a ref held across a
//! free/reuse cycle can never alias the recycled slot's new occupant:
//! lookups through a stale ref panic in debug builds and return `None`
//! in release builds (see [`PacketArena::get`]).
//!
//! Determinism: slot assignment depends only on the alloc/free sequence
//! (the free list is LIFO), which is itself a pure function of the event
//! stream — identical runs intern identical packets in identical slots.
//!
//! Each slot also memoises its packet's calendar tiebreak
//! ([`Packet::order_tie`]) per **content version**: filled on first use by
//! [`PacketArena::order_tie`], cleared by every mutable borrow
//! ([`PacketArena::get_mut`], `IndexMut`) and on allocation — so a packet
//! is hashed once per life plus once per in-flight edit (an AQM's CE
//! mark), not once per hop, and no writer has to know the memo exists.

use crate::packet::Packet;

/// A handle to a packet interned in a [`PacketArena`].
///
/// `idx` addresses the slot, `gen` must match the slot's current
/// generation for the ref to be live. Eight bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// The slot index (stable for the lifetime of the allocation; exposed
    /// for diagnostics and tests).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The generation captured at allocation time.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// The ref as one word (generation high, index low), for storage that
    /// packs it: [`PacketRef::from_bits`] inverts it exactly.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        u64::from(self.gen) << 32 | u64::from(self.idx)
    }

    /// The ref [`PacketRef::to_bits`] packed into `bits`.
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> Self {
        PacketRef {
            idx: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Bumped on every free; a ref is live iff its `gen` matches.
    gen: u32,
    /// `Some` while the slot is occupied.
    pkt: Option<Packet>,
    /// The occupant's [`Packet::order_tie`], or 0 while nobody has asked
    /// since the content last changed (the tie itself is always odd).
    tie: u64,
}

/// Slab of in-flight packets with generation-checked handles.
///
/// `Clone` exists for the shard-split path: every shard receives a full
/// copy of the pre-split arena, so `PacketRef`s issued before the split
/// stay valid in whichever shard's event stream or queue store holds
/// them. Slots only one shard's refs point at simply idle in the other
/// clones for the remainder of the run.
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Indices of vacant slots, reused LIFO (keeps the hot set compact).
    free: Vec<u32>,
    /// Lifetime [`Packet::order_tie`] evaluations made to fill a memo.
    tie_hashes: u64,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `cap` packets before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            tie_hashes: 0,
        }
    }

    /// Intern `pkt`, returning its handle.
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        self.alloc_with_tie(pkt, 0)
    }

    /// Intern `pkt` with its tiebreak already known: `tie` is
    /// `pkt.order_tie()` (carried over from the arena the packet left, see
    /// [`crate::shard::WirePacket::tie`]), or 0 for "not computed".
    pub fn alloc_with_tie(&mut self, pkt: Packet, tie: u64) -> PacketRef {
        debug_assert!(
            tie == 0 || tie == pkt.order_tie(),
            "pre-seeded tie is stale"
        );
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.pkt.is_none(), "free list pointed at a live slot");
                slot.pkt = Some(pkt);
                slot.tie = tie;
                PacketRef { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    pkt: Some(pkt),
                    tie,
                });
                PacketRef { idx, gen: 0 }
            }
        }
    }

    /// The calendar tiebreak of the packet behind `r`
    /// ([`Packet::order_tie`], which stays the one definition of the
    /// value): hashed on first use, then answered from the slot until the
    /// packet is next borrowed mutably.
    ///
    /// # Panics
    /// Panics on a stale ref, like indexing.
    #[inline]
    pub fn order_tie(&mut self, r: PacketRef) -> u64 {
        let slot = &mut self.slots[r.idx as usize];
        let pkt = match &slot.pkt {
            Some(pkt) if slot.gen == r.gen => pkt,
            _ => panic!("stale PacketRef"),
        };
        if slot.tie == 0 {
            slot.tie = pkt.order_tie();
            self.tie_hashes += 1;
        }
        debug_assert_eq!(slot.tie, pkt.order_tie(), "tie memo outlived an edit");
        slot.tie
    }

    /// Lifetime count of [`Packet::order_tie`] evaluations made by
    /// [`PacketArena::order_tie`]: one per packet, plus one per edit of a
    /// packet whose tie had already been asked for.
    pub fn tie_hashes(&self) -> u64 {
        self.tie_hashes
    }

    /// Borrow the packet behind `r`.
    ///
    /// A stale ref (its slot was freed, and possibly reused, since `r` was
    /// issued) **panics in debug builds** and returns `None` in release —
    /// it never yields the recycled slot's new occupant.
    #[inline]
    pub fn get(&self, r: PacketRef) -> Option<&Packet> {
        let slot = self.slots.get(r.idx as usize)?;
        debug_assert!(
            slot.gen == r.gen && slot.pkt.is_some(),
            "stale PacketRef {{idx: {}, gen: {}}}: slot is at generation {}",
            r.idx,
            r.gen,
            slot.gen
        );
        if slot.gen == r.gen {
            slot.pkt.as_ref()
        } else {
            None
        }
    }

    /// Mutably borrow the packet behind `r` (same staleness contract as
    /// [`PacketArena::get`]). The borrower may change the content, so the
    /// memoised tiebreak is dropped.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> Option<&mut Packet> {
        let slot = self.slots.get_mut(r.idx as usize)?;
        debug_assert!(
            slot.gen == r.gen && slot.pkt.is_some(),
            "stale PacketRef {{idx: {}, gen: {}}}: slot is at generation {}",
            r.idx,
            r.gen,
            slot.gen
        );
        if slot.gen == r.gen {
            slot.tie = 0;
            slot.pkt.as_mut()
        } else {
            None
        }
    }

    /// Remove and return the packet behind `r`, freeing its slot (the
    /// slot's generation is bumped, invalidating every outstanding copy of
    /// `r`). Same staleness contract as [`PacketArena::get`].
    pub fn take(&mut self, r: PacketRef) -> Option<Packet> {
        let slot = self.slots.get_mut(r.idx as usize)?;
        debug_assert!(
            slot.gen == r.gen && slot.pkt.is_some(),
            "stale PacketRef {{idx: {}, gen: {}}}: slot is at generation {}",
            r.idx,
            r.gen,
            slot.gen
        );
        if slot.gen != r.gen {
            return None;
        }
        let pkt = slot.pkt.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        Some(pkt)
    }

    /// Packets currently interned.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no packets are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (high-water mark of concurrent packets).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// Panicking indexed access (tests and hot paths that hold a known-live
/// ref). Unlike [`PacketArena::get`], a stale ref panics in release too.
impl std::ops::Index<PacketRef> for PacketArena {
    type Output = Packet;
    #[inline]
    fn index(&self, r: PacketRef) -> &Packet {
        self.get(r).expect("stale PacketRef")
    }
}

impl std::ops::IndexMut<PacketRef> for PacketArena {
    #[inline]
    fn index_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.get_mut(r).expect("stale PacketRef")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{Ecn, Payload};
    use crate::time::SimTime;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: FlowId(0),
            dst_node: NodeId(0),
            dst_agent: AgentId(0),
            size_bytes: 1000,
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
            payload: Payload::Data {
                seq,
                retransmit: false,
            },
        }
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7));
        assert_eq!(a.len(), 1);
        assert_eq!(a[r].data_seq(), Some(7));
        let p = a.take(r).expect("live");
        assert_eq!(p.data_seq(), Some(7));
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_reused_lifo_with_bumped_generation() {
        let mut a = PacketArena::new();
        let r0 = a.alloc(pkt(0));
        let r1 = a.alloc(pkt(1));
        assert_ne!(r0.index(), r1.index());
        a.take(r1).unwrap();
        let r2 = a.alloc(pkt(2));
        // LIFO reuse of r1's slot, at the next generation.
        assert_eq!(r2.index(), r1.index());
        assert_eq!(r2.generation(), r1.generation() + 1);
        assert_eq!(a.slot_count(), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "stale PacketRef"))]
    fn stale_ref_never_aliases() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        a.take(r).unwrap();
        let fresh = a.alloc(pkt(2));
        assert_eq!(fresh.index(), r.index());
        // Release builds: the stale ref reads back None, never packet 2.
        // Debug builds: the lookup panics (the cfg_attr above).
        assert!(a.get(r).is_none());
    }

    #[test]
    fn mutation_through_ref_sticks() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(3));
        a[r].ecn = Ecn::CongestionExperienced;
        assert!(a[r].ecn.is_marked());
    }

    /// The memo always answers what a fresh hash of the current content
    /// would, and hashes once per content version.
    #[test]
    fn tie_memo_follows_the_content() {
        let mut a = PacketArena::new();
        let mut p = pkt(5);
        p.ecn = Ecn::Capable;
        let r = a.alloc(p);
        assert_eq!(a.tie_hashes(), 0, "alloc does not hash");
        assert_eq!(a.order_tie(r), p.order_tie());
        assert_eq!(a.order_tie(r), p.order_tie());
        assert_eq!(a.tie_hashes(), 1, "second ask is a hit");
        // Reads keep the memo.
        assert!(a[r].ecn.is_capable() && a.get(r).is_some());
        assert_eq!((a.order_tie(r), a.tie_hashes()), (p.order_tie(), 1));

        // A CE mark through IndexMut, as the AQMs do it: the value changes
        // and the memo follows.
        a[r].ecn = Ecn::CongestionExperienced;
        p.ecn = Ecn::CongestionExperienced;
        assert_ne!(p.order_tie(), pkt(5).order_tie());
        assert_eq!((a.order_tie(r), a.tie_hashes()), (p.order_tie(), 2));

        // take + slot reuse: the next occupant starts without a memo.
        a.take(r).unwrap();
        let q = pkt(6);
        let r2 = a.alloc(q);
        assert_eq!(r2.index(), r.index());
        assert_eq!((a.order_tie(r2), a.tie_hashes()), (q.order_tie(), 3));

        // Pre-seeded (the shard injection path): no hash at all, until an
        // edit invalidates the seed like any other memo.
        let s = a.alloc_with_tie(p, p.order_tie());
        assert_eq!((a.order_tie(s), a.tie_hashes()), (p.order_tie(), 3));
        a.get_mut(s).unwrap().size_bytes = 40;
        p.size_bytes = 40;
        assert_eq!((a.order_tie(s), a.tie_hashes()), (p.order_tie(), 4));
    }
}
