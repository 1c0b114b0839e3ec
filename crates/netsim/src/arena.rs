//! Generation-indexed packet arena.
//!
//! Every in-flight [`Packet`] is interned here the moment it leaves its
//! source agent and freed when it is delivered or dropped. Events, link
//! queues, and traces hold a [`PacketRef`] — eight bytes instead of the
//! 144-byte packet — so the calendar and the queue stores move small
//! `Copy` values and the packet bodies stay put in one contiguous slab.
//!
//! Each slot is split in two. A 24-byte **head** mirrors what a hop
//! reads — destination node, wire size, data/ACK, the generation and the
//! memoised tiebreak — and the 144-byte **body** holds the packet itself.
//! Forwarding, queue byte accounting and transmission read only heads
//! ([`PacketArena::dst_node`], [`PacketArena::size_bytes`],
//! [`PacketArena::is_data`], [`PacketArena::order_tie`]), so a transit hop
//! touches one cache line of arena instead of up to three. The head
//! mirrors only fields that never change in flight; the one in-flight
//! edit, an AQM's CE mark, goes through [`PacketArena::mark_ce`].
//!
//! Slots are recycled through a free list threaded through the vacant
//! heads. Each slot carries a **generation** counter that is bumped on
//! every free; a `PacketRef` captures the generation at allocation time,
//! so a ref held across a free/reuse cycle can never alias the recycled
//! slot's new occupant: head reads through a stale ref panic, and body
//! lookups panic in debug builds and return `None` in release builds (see
//! [`PacketArena::get`]).
//!
//! Determinism: slot assignment depends only on the alloc/free sequence
//! (the free list is LIFO), which is itself a pure function of the event
//! stream — identical runs intern identical packets in identical slots.
//!
//! Each head also memoises its packet's calendar tiebreak
//! ([`Packet::order_tie`]) per **content version**: filled on first use by
//! [`PacketArena::order_tie`], cleared by [`PacketArena::mark_ce`] and on
//! allocation — so a packet is hashed once per life plus once per
//! in-flight edit, not once per hop.

use crate::ids::NodeId;
use crate::packet::{Ecn, Packet};

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

/// `Head::flags`: the slot holds a packet.
const OCCUPIED: u32 = 1;
/// `Head::flags`: the packet is a data segment (else an ACK).
const DATA: u32 = 2;
/// End of the free list.
const NIL: u32 = u32::MAX;

/// The hot part of a slot: what a hop reads, in 24 bytes.
#[derive(Clone, Copy, Debug)]
struct Head {
    /// The occupant's [`Packet::order_tie`], or 0 while nobody has asked
    /// since the content last changed (the tie itself is always odd).
    tie: u64,
    /// Bumped on every free; a ref is live iff its `gen` matches.
    gen: u32,
    /// Occupied: the packet's `dst_node`. Vacant: the next free slot, or
    /// [`NIL`].
    dst: u32,
    /// The packet's `size_bytes`.
    size: u32,
    /// [`OCCUPIED`] | [`DATA`].
    flags: u32,
}

impl Head {
    /// True if `r` names this slot's current occupant.
    #[inline]
    fn holds(&self, r: PacketRef) -> bool {
        self.gen == r.gen && self.flags & OCCUPIED != 0
    }
}

/// Slab of in-flight packets with generation-checked handles.
///
/// `Clone` exists for the shard-split path: every shard receives a full
/// copy of the pre-split arena, so `PacketRef`s issued before the split
/// stay valid in whichever shard's event stream or queue store holds
/// them. Slots only one shard's refs point at simply idle in the other
/// clones for the remainder of the run.
#[derive(Clone, Debug)]
pub struct PacketArena {
    heads: Vec<Head>,
    /// `Some` exactly where the head is occupied.
    bodies: Vec<Option<Packet>>,
    /// Most recently freed slot (LIFO keeps the hot set compact), or
    /// [`NIL`]; each vacant head's `dst` links to the next.
    free: u32,
    /// Packets currently interned.
    live: usize,
    /// Lifetime [`Packet::order_tie`] evaluations made to fill a memo.
    tie_hashes: u64,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `cap` packets before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        PacketArena {
            heads: Vec::with_capacity(cap),
            bodies: Vec::with_capacity(cap),
            free: NIL,
            live: 0,
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
        let dst = u32::try_from(pkt.dst_node.index()).expect("node id exceeds u32");
        let flags = OCCUPIED | if pkt.is_data() { DATA } else { 0 };
        let mut head = Head {
            tie,
            gen: 0,
            dst,
            size: pkt.size_bytes,
            flags,
        };
        self.live += 1;
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.heads[idx as usize];
            debug_assert_eq!(slot.flags & OCCUPIED, 0, "free list pointed at a live slot");
            self.free = slot.dst;
            head.gen = slot.gen;
            *slot = head;
            self.bodies[idx as usize] = Some(pkt);
            PacketRef { idx, gen: head.gen }
        } else {
            let idx = u32::try_from(self.heads.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("arena exceeds u32 slots");
            self.heads.push(head);
            self.bodies.push(Some(pkt));
            PacketRef { idx, gen: 0 }
        }
    }

    /// The head behind `r`.
    ///
    /// # Panics
    /// Panics on a stale ref, in every build.
    #[inline]
    fn head(&self, r: PacketRef) -> &Head {
        match self.heads.get(r.idx as usize) {
            Some(h) if h.holds(r) => h,
            _ => stale(r),
        }
    }

    /// The destination node of the packet behind `r` (its `dst_node`),
    /// read from the head alone. Panics on a stale ref.
    #[inline]
    pub fn dst_node(&self, r: PacketRef) -> NodeId {
        NodeId(self.head(r).dst as usize)
    }

    /// The wire size of the packet behind `r` (its `size_bytes`), read
    /// from the head alone. Panics on a stale ref.
    #[inline]
    pub fn size_bytes(&self, r: PacketRef) -> u32 {
        self.head(r).size
    }

    /// True if the packet behind `r` is a data segment
    /// ([`Packet::is_data`]), read from the head alone. Panics on a stale
    /// ref.
    #[inline]
    pub fn is_data(&self, r: PacketRef) -> bool {
        self.head(r).flags & DATA != 0
    }

    /// The calendar tiebreak of the packet behind `r`
    /// ([`Packet::order_tie`], which stays the one definition of the
    /// value): hashed on first use, then answered from the head until the
    /// packet is next edited.
    ///
    /// # Panics
    /// Panics on a stale ref, like indexing.
    #[inline]
    pub fn order_tie(&mut self, r: PacketRef) -> u64 {
        let i = r.idx as usize;
        let head = match self.heads.get_mut(i) {
            Some(h) if h.holds(r) => h,
            _ => stale(r),
        };
        if head.tie == 0 {
            head.tie = body(&self.bodies[i]).order_tie();
            self.tie_hashes += 1;
        }
        debug_assert_eq!(
            head.tie,
            body(&self.bodies[i]).order_tie(),
            "tie memo outlived an edit"
        );
        head.tie
    }

    /// Apply the ECN CE mark to the packet behind `r` — the one edit a
    /// packet takes in flight — and drop its memoised tiebreak, which
    /// hashes the ECN codepoint.
    ///
    /// # Panics
    /// Panics on a stale ref, like indexing.
    #[inline]
    pub fn mark_ce(&mut self, r: PacketRef) {
        let i = r.idx as usize;
        match self.heads.get_mut(i) {
            Some(h) if h.holds(r) => h.tie = 0,
            _ => stale(r),
        }
        self.bodies[i]
            .as_mut()
            .expect("occupied head without a body")
            .ecn = Ecn::CongestionExperienced;
    }

    /// Lifetime count of [`Packet::order_tie`] evaluations made by
    /// [`PacketArena::order_tie`]: one per packet, plus one per CE mark on
    /// a packet whose tie had already been asked for.
    pub fn tie_hashes(&self) -> u64 {
        self.tie_hashes
    }

    /// True if `r` names the current occupant of its slot; a stale ref
    /// **panics in debug builds** here.
    #[inline]
    fn is_live(&self, r: PacketRef) -> bool {
        let live = self.heads.get(r.idx as usize).is_some_and(|h| h.holds(r));
        debug_assert!(live, "stale PacketRef {{idx: {}, gen: {}}}", r.idx, r.gen);
        live
    }

    /// Borrow the packet behind `r`.
    ///
    /// A stale ref (its slot was freed, and possibly reused, since `r` was
    /// issued) **panics in debug builds** and returns `None` in release —
    /// it never yields the recycled slot's new occupant.
    #[inline]
    pub fn get(&self, r: PacketRef) -> Option<&Packet> {
        if !self.is_live(r) {
            return None;
        }
        self.bodies[r.idx as usize].as_ref()
    }

    /// Remove and return the packet behind `r`, freeing its slot (the
    /// slot's generation is bumped, invalidating every outstanding copy of
    /// `r`). Same staleness contract as [`PacketArena::get`].
    pub fn take(&mut self, r: PacketRef) -> Option<Packet> {
        if !self.is_live(r) {
            return None;
        }
        let head = &mut self.heads[r.idx as usize];
        head.gen = head.gen.wrapping_add(1);
        head.flags = 0;
        head.dst = self.free;
        self.free = r.idx;
        self.live -= 1;
        self.bodies[r.idx as usize].take()
    }

    /// Packets currently interned.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no packets are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (high-water mark of concurrent packets).
    pub fn slot_count(&self) -> usize {
        self.heads.len()
    }
}

/// The body of an occupied slot.
#[inline]
fn body(slot: &Option<Packet>) -> &Packet {
    slot.as_ref().expect("occupied head without a body")
}

#[cold]
#[inline(never)]
fn stale(r: PacketRef) -> ! {
    panic!("stale PacketRef {{idx: {}, gen: {}}}", r.idx, r.gen)
}

/// Panicking indexed access (tests and paths that hold a known-live ref).
/// Unlike [`PacketArena::get`], a stale ref panics in release too.
impl std::ops::Index<PacketRef> for PacketArena {
    type Output = Packet;
    #[inline]
    fn index(&self, r: PacketRef) -> &Packet {
        self.get(r).expect("stale PacketRef")
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
    fn head_fits_in_24_bytes() {
        assert_eq!(std::mem::size_of::<Head>(), 24);
        assert!(std::mem::size_of::<Packet>() <= 144);
        assert_eq!(
            std::mem::size_of::<Option<Packet>>(),
            std::mem::size_of::<Packet>()
        );
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7));
        assert_eq!(a.len(), 1);
        assert_eq!(a[r].data_seq(), Some(7));
        assert_eq!(
            (a.dst_node(r), a.size_bytes(r), a.is_data(r)),
            (NodeId(0), 1000, true)
        );
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
    #[should_panic(expected = "stale PacketRef")]
    fn stale_head_read_panics_in_every_build() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        a.take(r).unwrap();
        a.alloc(pkt(2));
        a.dst_node(r);
    }

    #[test]
    fn mutation_through_ref_sticks() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(3));
        a.mark_ce(r);
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

        // A CE mark, as the AQMs apply it: the value changes and the memo
        // follows.
        a.mark_ce(r);
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
        let mut s_pkt = pkt(8);
        s_pkt.ecn = Ecn::Capable;
        let s = a.alloc_with_tie(s_pkt, s_pkt.order_tie());
        assert_eq!((a.order_tie(s), a.tie_hashes()), (s_pkt.order_tie(), 3));
        a.mark_ce(s);
        s_pkt.ecn = Ecn::CongestionExperienced;
        assert_eq!((a.order_tie(s), a.tie_hashes()), (s_pkt.order_tie(), 4));
    }
}
