//! The event calendar.
//!
//! Events pop in `(time, schedule time, content tie, insertion sequence)`
//! order, FIFO among equals, so every simulation is bit-for-bit
//! reproducible for a given seed. The two middle keys exist for the
//! shard-split path ([`EventQueue::push_lane`]): the **schedule time** is
//! the watermark at insertion, or a cross-shard packet's true emission
//! time, which slots it where the monolithic run's sequence numbers would
//! have; the **content tie** is a hash of an arrival's packet
//! ([`crate::packet::Packet::order_tie`], 0 for other events), which
//! orders arrivals emitted the same nanosecond on different shards
//! identically at any shard count (see [`Event::sched`] and [`Event::tie`]).
//!
//! The calendar is a hierarchical timing wheel — 11 levels of 64 slots,
//! 1 ns at level 0, each level 64× coarser — with O(1) amortized
//! schedule/pop. Idle sentinels at [`SimTime::MAX`] park in a top-level
//! slot for free, and an event alone in its slot pops where it lies
//! instead of cascading. A one-event **front slot** holds a new event that
//! precedes everything in the wheel (a link's next back-to-back
//! serialization), and each link's arrivals wait in an **arrival lane**
//! ([`EventQueue::push_lane`]): a FIFO of strictly increasing keys through
//! the wheel's node pool, merged at every pop by a min-heap of lane heads.
//!
//! **Cancelling** ([`EventQueue::cancel`]) leaves an O(1) tombstone that
//! never perturbs surviving events. A **reserved** key
//! ([`EventQueue::reserve`]) holds the place a schedule would have taken,
//! to be filled later ([`EventQueue::schedule_reserved`]) or never; every
//! other event keeps the key it would have had.
//!
//! The reference order is the audit **shadow**: under the runtime audit
//! flag a queue mirrors its schedule/cancel stream into a binary heap,
//! verifies each pop's key against it, and checks that a `pop_before`
//! that finds nothing leaves no live key due. A divergence panics with
//! both orderings in the message.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use crate::arena::PacketRef;
use crate::ids::{AgentId, LinkId, NodeId};
use crate::time::SimTime;

/// An opaque token an agent attaches to a timer so it can tell its own
/// timers apart (e.g. retransmission timeout vs. delayed send).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerToken(pub u64);

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Ids are unique for the lifetime of an [`EventQueue`] (they are the
/// insertion sequence numbers that also break ordering ties).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// What an event does when it fires.
///
/// Packets ride as arena refs, not values, so the calendar stores small
/// `Copy` payloads.
#[derive(Clone, Copy, Debug)]
pub enum EventKind {
    /// A packet arrives at `node` (after propagating across a link, or
    /// injected directly by the simulation driver).
    Arrival {
        /// Node the packet arrives at.
        node: NodeId,
        /// The packet, interned in the simulator's
        /// [`crate::arena::PacketArena`].
        packet: PacketRef,
    },
    /// The head-of-line packet on `link` finishes serialization; the link
    /// should propagate it and start transmitting the next queued packet.
    Departure {
        /// Link whose transmission completes.
        link: LinkId,
    },
    /// A timer scheduled by `agent` fires.
    Timer {
        /// Owning agent.
        agent: AgentId,
        /// Agent-chosen discriminator.
        token: TimerToken,
    },
    /// A control hook fires (flow start/stop, periodic sampling probe, ...).
    /// The `u64` is interpreted by the simulation driver.
    Control {
        /// Driver-chosen discriminator.
        code: u64,
    },
}

impl EventKind {
    /// Number of event classes (size of per-kind accounting tables).
    pub const CLASSES: usize = 4;

    /// Class names, indexed by [`EventKind::class`].
    pub const CLASS_NAMES: [&'static str; EventKind::CLASSES] =
        ["arrival", "departure", "timer", "control"];

    /// Compact class index for per-kind cost accounting.
    #[inline]
    pub fn class(&self) -> usize {
        match self {
            EventKind::Arrival { .. } => 0,
            EventKind::Departure { .. } => 1,
            EventKind::Timer { .. } => 2,
            EventKind::Control { .. } => 3,
        }
    }
}

/// A scheduled event: a firing time, the tiebreak triple (schedule time,
/// content tie, insertion sequence), and the action.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// When the event was *scheduled* (the causality watermark at
    /// insertion): the first tiebreak among events firing at the same
    /// instant. In a single-queue run this is non-decreasing with `seq`,
    /// so it never reorders anything; cross-shard injections carry their
    /// true emission time here so same-instant ties resolve exactly as
    /// the monolithic run's insertion order would.
    pub sched: SimTime,
    /// Content-derived tiebreak among events with equal `(at, sched)`:
    /// the packet content hash for arrivals
    /// ([`crate::packet::Packet::order_tie`], always non-zero), 0 for
    /// everything else. Two arrivals emitted at the same nanosecond on
    /// different shards have no emission-time order, so content is the
    /// only key both the monolithic and the sharded run can agree on.
    pub tie: u64,
    seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Event {
    /// The insertion sequence number (the final FIFO tiebreak among
    /// events at the same instant with the same schedule time and
    /// content tie). Exposed for the calendar-equivalence tests.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The full ordering key.
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64, u64) {
        (self.at, self.sched, self.tie, self.seq)
    }

    /// The part of the key that orders events firing at the same instant.
    #[inline]
    pub fn tie_key(&self) -> TieKey {
        (self.sched, self.tie, self.seq)
    }
}

/// `(schedule time, content tie, insertion sequence)`: what orders two
/// events that fire at the same instant.
pub type TieKey = (SimTime, u64, u64);

/// A [`TieKey`] that sorts after every event's.
pub const TIE_KEY_MAX: TieKey = (SimTime::MAX, u64::MAX, u64::MAX);

/// A calendar key held for an event that is not (yet) in the calendar:
/// the schedule time and sequence number [`EventQueue::schedule`] would
/// have stamped where [`EventQueue::reserve`] was called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    sched: SimTime,
    seq: u64,
}

impl Reservation {
    /// Where an event inserted under this reservation sorts among events
    /// firing at the same instant (reserved keys carry a zero content tie,
    /// like every non-arrival event).
    #[inline]
    pub fn tie_key(&self) -> TieKey {
        (self.sched, 0, self.seq)
    }
}

// ---------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------

/// Slots per wheel level (64 = one occupancy `u64` per level).
const WHEEL_SLOTS: usize = 64;
/// Levels: 64^11 = 2^66 ≥ 2^64 covers every u64 nanosecond timestamp,
/// including the `SimTime::MAX` idle sentinel.
const WHEEL_LEVELS: usize = 11;
/// log2(WHEEL_SLOTS).
const SLOT_BITS: u32 = 6;

/// Null link: end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// Width of the id field of a packed wheel node: node, link and agent
/// ids must stay below 2^30 (the other two bits of its `u32` hold the
/// event class).
pub(crate) const ID_BITS: u32 = 30;

/// Reject a node, link or agent id the packed calendar node cannot carry.
///
/// # Panics
/// Panics if `id` ≥ 2^[`ID_BITS`].
pub(crate) fn assert_id_fits(id: usize) {
    assert!(
        id >> ID_BITS == 0,
        "id {id} does not fit the calendar node's {ID_BITS}-bit id field"
    );
}

/// One pooled wheel entry, 48 bytes: an event packed on insert and
/// unpacked on pop, and the next node of whichever list (a slot's, or the
/// free list, where the rest is stale) it is on.
#[derive(Debug)]
struct Node {
    at: SimTime,
    sched: SimTime,
    tie: u64,
    seq: u64,
    /// The timer token, the control code or the packet ref's bits (0 for
    /// a departure).
    word: u64,
    /// The event class in the top two bits, and below them the node, link
    /// or agent id (0 for a control event).
    tag: u32,
    next: u32,
}

impl Node {
    /// `ev`, packed, at the end of a list.
    fn pack(ev: &Event) -> Node {
        let (word, id) = match ev.kind {
            EventKind::Arrival { node, packet } => (packet.to_bits(), node.index()),
            EventKind::Departure { link } => (0, link.index()),
            EventKind::Timer { agent, token } => (token.0, agent.index()),
            EventKind::Control { code } => (code, 0),
        };
        assert_id_fits(id);
        Node {
            at: ev.at,
            sched: ev.sched,
            tie: ev.tie,
            seq: ev.seq,
            word,
            tag: (ev.kind.class() as u32) << ID_BITS | id as u32,
            next: NIL,
        }
    }

    /// The stored event's full ordering key.
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64, u64) {
        (self.at, self.sched, self.tie, self.seq)
    }

    /// The event [`Node::pack`] stored.
    fn unpack(&self) -> Event {
        let id = (self.tag & ((1 << ID_BITS) - 1)) as usize;
        let kind = match self.tag >> ID_BITS {
            0 => EventKind::Arrival {
                node: NodeId(id),
                packet: PacketRef::from_bits(self.word),
            },
            1 => EventKind::Departure { link: LinkId(id) },
            2 => EventKind::Timer {
                agent: AgentId(id),
                token: TimerToken(self.word),
            },
            _ => EventKind::Control { code: self.word },
        };
        Event {
            at: self.at,
            sched: self.sched,
            tie: self.tie,
            seq: self.seq,
            kind,
        }
    }
}

/// Hierarchical timing wheel over integer nanoseconds.
///
/// `elapsed` is the internal horizon: every event strictly before it has
/// been drained, and insertions must be at or after it (guaranteed by the
/// [`EventQueue`] watermark). Level `l` has 64 slots of `64^l` ns each;
/// an event lives at the highest level where its time differs from
/// `elapsed` (`level = msb(at ^ elapsed) / 6`) and cascades toward level
/// 0 as the horizon advances, so each event is touched at most
/// `WHEEL_LEVELS` times in its life — O(1) amortized.
///
/// Slots are singly linked lists through one node pool (Varghese–Lauck):
/// a cascade relinks nodes, a pop frees one, so the footprint is the
/// high-water number of stored events × the node size, not per slot.
///
/// Aligned to 128 bytes (two cache lines, the adjacent-line prefetch
/// unit): shard calendars are forked back to back, and a wheel's hot
/// scalars must not share a line with its neighbour's once each runs on
/// its own worker thread.
#[derive(Debug)]
#[repr(align(128))]
struct Wheel {
    nodes: Vec<Node>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// First and last node of each slot's list, meaningful only while the
    /// slot's `occupied` bit is set. Level-0 lists (1 ns wide) are kept
    /// in pop order by [`Wheel::link`], the others in arrival order.
    head: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    tail: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    /// Per-level occupancy bitmaps: bit `s` set iff slot `s` is non-empty.
    occupied: [u64; WHEEL_LEVELS],
    /// Internal horizon (see type docs).
    elapsed: u64,
    /// Bit `l` set iff any slot at level `l` is occupied (fast skip of
    /// empty levels in [`Wheel::next_candidate`]).
    level_occ: u16,
    /// Events physically stored (including cancelled residents).
    stored: usize,
    /// A lower bound on their times (for the front-slot fast path): exact
    /// after a pop returns an event, `u64::MAX` once that empties the wheel.
    min_bound: u64,
    /// What [`Wheel::next_candidate`] would return, when known: the scan
    /// that re-establishes `min_bound` after a pop is the scan the next
    /// pop would start with, so it is kept and inserts keep it current.
    /// `None` (rescan) while events are stored only inside a pop.
    cand: Option<(usize, usize, u64)>,
    /// One FIFO arrival list per link through `nodes`, in strictly
    /// increasing key order; lane events are not counted in `stored`.
    lanes: Vec<Lane>,
    /// Binary min-heap of the non-empty lanes, by their head's full key;
    /// its capacity is reserved as lanes are added.
    lane_heap: Vec<LaneEntry>,
}

/// A link's arrival lane: its first and last node ([`NIL`] when empty).
#[derive(Clone, Copy, Debug)]
struct Lane {
    head: u32,
    tail: u32,
}

const EMPTY_LANE: Lane = Lane {
    head: NIL,
    tail: NIL,
};

/// A non-empty lane in the heap, with its head's time, by which the heap
/// compares lanes without reading their nodes (a head's full key is read
/// only on a tie).
#[derive(Clone, Copy, Debug)]
struct LaneEntry {
    at: SimTime,
    lane: u32,
}

impl Wheel {
    fn new(elapsed: u64) -> Self {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            head: [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS],
            tail: [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS],
            occupied: [0; WHEEL_LEVELS],
            level_occ: 0,
            elapsed,
            stored: 0,
            min_bound: u64::MAX,
            cand: None,
            lanes: Vec::new(),
            lane_heap: Vec::new(),
        }
    }

    /// Store `node` in a pooled slot, off the free list when it has one.
    fn alloc(&mut self, node: Node) -> u32 {
        match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "wheel node pool is full");
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        }
    }

    /// Free node `idx`; returns its event and its old `next`.
    fn release(&mut self, idx: u32) -> (Event, u32) {
        let node = &mut self.nodes[idx as usize];
        let (ev, next) = (node.unpack(), std::mem::replace(&mut node.next, self.free));
        self.free = idx;
        (ev, next)
    }

    /// The node at the head of `lane`.
    #[inline]
    fn head(&self, lane: u32) -> &Node {
        &self.nodes[self.lanes[lane as usize].head as usize]
    }

    /// Append `ev` to `lane` if its key follows the tail's (else `false`).
    fn lane_push(&mut self, lane: usize, ev: &Event) -> bool {
        let tail = self.lanes[lane].tail;
        if tail != NIL && self.nodes[tail as usize].key() >= ev.key() {
            return false;
        }
        let idx = self.alloc(Node::pack(ev));
        let l = &mut self.lanes[lane];
        l.tail = idx;
        if tail == NIL {
            l.head = idx;
            self.lane_heap.push(LaneEntry {
                at: ev.at,
                lane: lane as u32,
            });
            self.sift_up(self.lane_heap.len() - 1);
        } else {
            self.nodes[tail as usize].next = idx;
        }
        true
    }

    /// Remove and return the head of the earliest lane.
    fn lane_pop(&mut self) -> Event {
        let lane = self.lane_heap[0].lane as usize;
        let (ev, next) = self.release(self.lanes[lane].head);
        if next == NIL {
            self.lanes[lane] = EMPTY_LANE;
            self.lane_heap.swap_remove(0);
            if self.lane_heap.is_empty() {
                return ev;
            }
        } else {
            self.lanes[lane].head = next;
            self.lane_heap[0].at = self.nodes[next as usize].at;
        }
        self.sift_down(0);
        ev
    }

    /// Whether lane entry `a`'s head sorts before `b`'s.
    #[inline]
    fn before(&self, a: LaneEntry, b: LaneEntry) -> bool {
        debug_assert!(a.at == self.head(a.lane).at && b.at == self.head(b.lane).at);
        match a.at.cmp(&b.at) {
            Ordering::Equal => self.head(a.lane).key() < self.head(b.lane).key(),
            order => order == Ordering::Less,
        }
    }

    /// Move the entry at `pos` up to its place, shifting parents down
    /// into the hole it leaves.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.lane_heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(entry, self.lane_heap[parent]) {
                break;
            }
            self.lane_heap[pos] = self.lane_heap[parent];
            pos = parent;
        }
        self.lane_heap[pos] = entry;
    }

    /// Move the entry at `pos` down to its place, shifting the earlier
    /// child up into the hole it leaves. Which child is earlier is a coin
    /// toss, so it is selected without a branch.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.lane_heap[pos];
        let n = self.lane_heap.len();
        while 2 * pos + 1 < n {
            let left = 2 * pos + 1;
            let right = left + 1;
            let child = if right < n {
                let first = self.before(self.lane_heap[right], self.lane_heap[left]);
                std::hint::select_unpredictable(first, right, left)
            } else {
                left
            };
            if !self.before(self.lane_heap[child], entry) {
                break;
            }
            self.lane_heap[pos] = self.lane_heap[child];
            pos = child;
        }
        self.lane_heap[pos] = entry;
    }

    /// Where node `idx` sorts within a level-0 slot.
    fn order(&self, idx: u32) -> TieKey {
        let n = &self.nodes[idx as usize];
        (n.sched, n.tie, n.seq)
    }

    /// Mark a slot whose list was just taken or drained as empty.
    fn vacate(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1 << slot);
        if self.occupied[level] == 0 {
            self.level_occ &= !(1 << level);
        }
    }

    /// Link node `idx` (its `next` already [`NIL`]) into the slot its time
    /// maps to under the current horizon: at the tail, or — at level 0,
    /// when it precedes the tail — at its place in `(sched, tie, seq)`
    /// order. Same-instant events mostly arrive in that order, so the walk
    /// is rare and short: same-nanosecond arrivals, shard injections,
    /// demoted front events, cascades landing behind direct inserts.
    /// Returns the `(level, slot)` it chose.
    fn link(&mut self, idx: u32) -> (usize, usize) {
        let at = self.nodes[idx as usize].at.as_nanos();
        debug_assert!(
            at >= self.elapsed,
            "wheel insert below horizon: {at} < {}",
            self.elapsed
        );
        // `| 1`: equal times have no differing bit and belong to level 0.
        let level = ((63 - ((at ^ self.elapsed) | 1).leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS as u64 * level as u64)) & 63) as usize;
        let tail = self.tail[level][slot];
        if self.occupied[level] & (1 << slot) == 0 {
            self.head[level][slot] = idx;
            self.tail[level][slot] = idx;
            self.occupied[level] |= 1 << slot;
            self.level_occ |= 1 << level;
        } else if level > 0 || self.order(tail) < self.order(idx) {
            self.nodes[tail as usize].next = idx;
            self.tail[level][slot] = idx;
        } else {
            // The tail follows `idx`, so the walk stops at or before it.
            let (mut prev, mut cur) = (NIL, self.head[0][slot]);
            while self.order(cur) < self.order(idx) {
                (prev, cur) = (cur, self.nodes[cur as usize].next);
            }
            self.nodes[idx as usize].next = cur;
            match prev {
                NIL => self.head[0][slot] = idx,
                _ => self.nodes[prev as usize].next = idx,
            }
        }
        (level, slot)
    }

    fn insert(&mut self, ev: Event) {
        let at = ev.at.as_nanos();
        self.min_bound = self.min_bound.min(at);
        let idx = self.alloc(Node::pack(&ev));
        let (level, slot) = self.link(idx);
        // The slot's deadline as `next_candidate` computes it: its start
        // (strictly ahead of the horizon above level 0), or the exact time
        // at level 0. An equal deadline goes to the higher level there too.
        let shift = SLOT_BITS * level as u32;
        let deadline = (at >> shift) << shift;
        if self.stored == 0 {
            self.cand = Some((level, slot, deadline));
        } else if let Some((l, _, d)) = self.cand {
            if deadline < d || (deadline == d && level > l) {
                self.cand = Some((level, slot, deadline));
            }
        }
        self.stored += 1;
    }

    /// The earliest candidate: `(level, slot, deadline)`. For level 0 the
    /// deadline is the exact event time (slots are 1 ns); for higher
    /// levels it is the slot's start, where the slot must be cascaded
    /// before its events are orderable. Among equal deadlines the higher
    /// level wins so cascades happen before drains (the cascaded slot may
    /// hold an equal-time event with a smaller sequence number).
    fn next_candidate(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        let mut levels = self.level_occ;
        while levels != 0 {
            let level = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            let occ = self.occupied[level];
            let cur = ((self.elapsed >> (SLOT_BITS as u64 * level as u64)) & 63) as u32;
            let ahead = occ & (u64::MAX << cur);
            debug_assert!(
                ahead != 0,
                "wheel invariant: occupied slot behind the cursor at level {level}"
            );
            if ahead == 0 {
                continue;
            }
            let slot = ahead.trailing_zeros() as usize;
            let window_bits = SLOT_BITS as u64 * (level as u64 + 1);
            let base = if window_bits >= 64 {
                0
            } else {
                (self.elapsed >> window_bits) << window_bits
            };
            let start = base + ((slot as u64) << (SLOT_BITS as u64 * level as u64));
            let deadline = start.max(self.elapsed);
            match best {
                Some((_, _, d)) if deadline > d => {}
                _ => best = Some((level, slot, deadline)),
            }
        }
        best
    }

    /// Remove and return the earliest live event if it fires at or before
    /// `until`, dropping the cancelled tombstones it reaches. The horizon
    /// never advances past `until`.
    fn pop_before(&mut self, until: u64, cancelled: &mut HashSet<u64>) -> Option<Event> {
        loop {
            if self.stored == 0 {
                return None;
            }
            if self.cand.is_none() {
                self.cand = self.next_candidate();
            }
            debug_assert_eq!(self.cand, self.next_candidate());
            let (level, slot, deadline) = self.cand.expect("stored > 0 but no candidate");
            if deadline > until {
                return None;
            }
            let head = self.head[level][slot];
            let lone = head == self.tail[level][slot];
            let at = self.nodes[head as usize].at.as_nanos();
            let ev = if level == 0 {
                // Level-0 slots are 1 ns wide and kept in pop order: the
                // head fires at `deadline`, next.
                self.elapsed = deadline;
                self.free_head(0, slot)
            } else if lone && deadline > self.elapsed && at <= until {
                // A node alone in a slot that starts strictly ahead of the
                // horizon is the minimum of the whole wheel: every lower
                // level is empty (its slots end before this one starts, so
                // one of them would have been the candidate), and a slot of
                // a higher level inside this one's span could only start
                // where this one does — and equal deadlines go to the higher
                // level. Cascading it down level by level would end with
                // exactly this pop and this horizon, so take it where it
                // lies. Both side conditions carry the argument: a node
                // beyond `until` cascades instead, so the horizon stops at
                // the slot's start, not past `until`; and were the horizon
                // ever left standing at an occupied slot's start, inserts
                // since then would sit on lower levels and may precede the
                // node, so only a slot still strictly ahead qualifies.
                self.elapsed = at;
                self.free_head(level, slot)
            } else {
                // Cascade the whole slot one or more levels down, relative
                // to the advanced horizon, in list order (tombstones too:
                // they are dropped where they are popped). The nodes land
                // strictly below `level` (the horizon now starts this
                // slot), never back in this slot.
                self.elapsed = deadline;
                self.vacate(level, slot);
                self.cand = None;
                let mut cur = head;
                while cur != NIL {
                    let next = std::mem::replace(&mut self.nodes[cur as usize].next, NIL);
                    self.link(cur);
                    cur = next;
                }
                continue;
            };
            // Still this slot if the pop left it occupied (level 0 only),
            // else one scan — the one the next pop starts from.
            if lone {
                self.cand = self.next_candidate();
            }
            if !cancelled.is_empty() && cancelled.remove(&ev.seq) {
                continue;
            }
            // Keeping the bound exact is what lets newly scheduled near-term
            // events take the front slot instead of entering the wheel.
            self.min_bound = self.cand.map_or(u64::MAX, |c| c.2);
            return Some(ev);
        }
    }

    /// Unlink and free the head of an occupied slot, returning its event.
    fn free_head(&mut self, level: usize, slot: usize) -> Event {
        let (ev, next) = self.release(self.head[level][slot]);
        self.stored -= 1;
        match next {
            NIL => self.vacate(level, slot),
            _ => self.head[level][slot] = next,
        }
        ev
    }
}

// ---------------------------------------------------------------------
// Audit shadow
// ---------------------------------------------------------------------

/// A binary-heap mirror of the schedule/cancel stream that independently
/// re-derives the `(time, sched, tie, seq)` of every pop: the reference
/// order the wheel is checked against, attached to an audited calendar.
#[derive(Debug, Default)]
struct Shadow {
    heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    cancelled: HashSet<u64>,
    checks: u64,
}

impl Shadow {
    fn push(&mut self, at: SimTime, sched: SimTime, tie: u64, seq: u64) {
        self.heap
            .push(Reverse((at.as_nanos(), sched.as_nanos(), tie, seq)));
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// The earliest live key, after dropping the cancelled ones before it.
    fn first_live(&mut self) -> Option<(u64, u64, u64, u64)> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if !self.cancelled.remove(&key.3) {
                return Some(key);
            }
            self.heap.pop();
        }
        None
    }

    fn verify_pop(&mut self, at: SimTime, sched: SimTime, tie: u64, seq: u64) {
        let expected = self.first_live();
        self.heap.pop();
        self.checks += 1;
        if expected != Some((at.as_nanos(), sched.as_nanos(), tie, seq)) {
            crate::audit::violation(
                "calendar",
                format_args!(
                    "wheel diverged from heap shadow: popped (t={at:?}, sched={sched:?}, \
                     tie={tie}, seq={seq}), shadow expected {expected:?}"
                ),
            );
        }
    }

    /// A pop bounded by `until` found nothing: no live key may be due.
    /// Not counted, as no event was popped.
    fn verify_none(&mut self, until: SimTime) {
        if let Some(key) = self.first_live().filter(|k| k.0 <= until.as_nanos()) {
            crate::audit::violation(
                "calendar",
                format_args!("wheel found nothing due by {until:?}, shadow holds {key:?}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

/// Where the next event waits (see [`EventQueue::locate`]).
#[derive(Clone, Copy)]
enum Source {
    Front,
    Lane,
}

/// Deterministic event calendar (see module docs for the wheel, the
/// front-slot fast path, arrival lanes, cancellation, and the audit
/// shadow).
#[derive(Debug)]
pub struct EventQueue {
    /// Boxed, so a simulator's own layout does not carry the wheel's
    /// slot arrays.
    wheel: Box<Wheel>,
    /// One-event cache preceding everything in the wheel (not the
    /// lanes): filled directly by [`EventQueue::schedule`] when the new
    /// event precedes everything there (the departure fast path), or
    /// pulled through from the wheel by a pop/peek.
    front: Option<Event>,
    next_seq: u64,
    /// Scheduling below this instant would violate causality: the
    /// maximum of every popped event's time and every horizon a pop
    /// advanced to. Never exceeded by the wheel's internal horizon, which
    /// keeps insertions valid.
    watermark: SimTime,
    /// Live (scheduled minus popped minus cancelled) events.
    live: usize,
    /// Tombstones for cancelled events still resident in the wheel.
    cancelled: HashSet<u64>,
    shadow: Option<Shadow>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty calendar, shadowed when [`pert_core::Attach::current`] audits.
    pub fn new() -> Self {
        Self::with_shadow(pert_core::Attach::current().audit)
    }

    /// An empty calendar, with the reference shadow when `audited`.
    pub fn with_shadow(audited: bool) -> Self {
        EventQueue {
            wheel: Box::new(Wheel::new(0)),
            front: None,
            next_seq: 0,
            watermark: SimTime::ZERO,
            live: 0,
            cancelled: HashSet::new(),
            shadow: audited.then(Shadow::default),
        }
    }

    /// Schedule `kind` to fire at `at` and return a handle that can
    /// cancel it.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the causality watermark (the last
    /// event already delivered, or the last horizon a pop advanced to) —
    /// scheduling into the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventId {
        // Stamping the watermark as the schedule time makes the
        // `(at, sched, tie, seq)` pop order identical to plain
        // `(at, seq)` order for this queue's own schedules: the
        // watermark never decreases, so `sched` is non-decreasing with
        // `seq`, and a zero tie defers to `seq` among equals.
        let ev = self.stamp(at, self.watermark, 0, kind);
        self.insert(ev);
        EventId(ev.seq)
    }

    /// A new event under the next sequence number.
    fn stamp(&mut self, at: SimTime, sched: SimTime, tie: u64, kind: EventKind) -> Event {
        let seq = self.next_seq;
        self.next_seq += 1;
        Event {
            at,
            sched,
            tie,
            seq,
            kind,
        }
    }

    /// Register the next link's arrival lane (lane `i` is `LinkId(i)`'s)
    /// and reserve its slot in the heap of lane heads.
    pub fn add_lane(&mut self) {
        let w = &mut self.wheel;
        w.lanes.push(EMPTY_LANE);
        w.lane_heap.reserve(w.lanes.len() - w.lane_heap.len());
    }

    /// Schedule an arrival over `link` at its lane's tail, with an explicit
    /// schedule-time tiebreak (which may lie *below* the watermark: a
    /// packet emitted on another shard at `sched`, handed over at a
    /// barrier) and content tie (see [`Event::sched`] and [`Event::tie`]).
    ///
    /// # Panics
    /// As [`EventQueue::schedule`]; debug builds also reject `sched > at`.
    /// A key that does not follow the lane's tail is refused: debug builds
    /// assert, an audited calendar makes it a violation, and otherwise
    /// the wheel takes the event.
    pub fn push_lane(
        &mut self,
        link: LinkId,
        at: SimTime,
        sched: SimTime,
        tie: u64,
        kind: EventKind,
    ) {
        let ev = self.stamp(at, sched, tie, kind);
        if self.wheel.lane_push(link.index(), &ev) {
            return self.admit(&ev);
        }
        if self.shadow.is_some() {
            crate::audit::violation(
                "calendar",
                format_args!("lane {link} push {:?} does not follow its tail", ev.key()),
            );
        }
        debug_assert!(false, "lane {link} push does not follow its tail");
        self.insert(ev);
    }

    /// Take the key a [`EventQueue::schedule`] call would stamp right now
    /// — `(sched = watermark, seq = next)` — without scheduling anything.
    /// Every later event gets the sequence number it would have had if
    /// the event had been scheduled here.
    pub fn reserve(&mut self) -> Reservation {
        let seq = self.next_seq;
        self.next_seq += 1;
        Reservation {
            sched: self.watermark,
            seq,
        }
    }

    /// Schedule `kind` at `at` under a key taken earlier by
    /// [`EventQueue::reserve`] (once per reservation): it pops exactly
    /// where an event scheduled at the reservation point would — in
    /// particular *before* events already pending at `at` with a later
    /// key, including when `at` is the current instant.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the causality watermark.
    pub fn schedule_reserved(&mut self, at: SimTime, key: Reservation, kind: EventKind) {
        debug_assert!(key.seq < self.next_seq, "reservation from another queue");
        self.insert(Event {
            at,
            sched: key.sched,
            tie: 0,
            seq: key.seq,
            kind,
        });
    }

    /// Put an event taken out by [`EventQueue::drain_all`] back under its
    /// own key: into the queue it came from (the split's rollback) or into
    /// a fork of it (a shard calendar). Arrivals go to the wheel, not to
    /// a lane.
    pub fn adopt(&mut self, ev: Event) {
        debug_assert!(ev.seq < self.next_seq, "adopted event from another queue");
        self.insert(ev);
    }

    /// An empty queue with as many lanes, audited if this one is, that
    /// continues its sequence numbers: events adopted from this queue, the
    /// [`EventId`]s and [`Reservation`]s issued by it, and everything the
    /// fork schedules later all stay distinct.
    pub(crate) fn fork(&self) -> EventQueue {
        let lanes = self.wheel.lanes.len();
        let mut q = Self::new();
        q.wheel.lanes = vec![EMPTY_LANE; lanes];
        q.wheel.lane_heap = Vec::with_capacity(lanes);
        q.next_seq = self.next_seq;
        q.shadow = self.shadow.as_ref().map(|_| Shadow::default());
        q
    }

    /// Insert a fully keyed event (mirrored into the audit shadow).
    fn insert(&mut self, ev: Event) {
        self.admit(&ev);
        match &mut self.front {
            Some(f) if ev.key() < f.key() => {
                // The new event precedes the front one: swap it in. The
                // demoted one still precedes everything in the wheel.
                let demoted = std::mem::replace(f, ev);
                self.wheel.insert(demoted);
            }
            Some(_) => self.wheel.insert(ev),
            None => {
                // Fast path: an event before everything in the wheel is
                // held directly (a link's next back-to-back serialization).
                // Cancelled residents may hold the wheel's bound below its
                // live minimum; that only makes the check stricter.
                if ev.at.as_nanos() < self.wheel.min_bound {
                    self.front = Some(ev);
                } else {
                    self.wheel.insert(ev);
                }
            }
        }
    }

    /// Check a new event against the causality watermark, mirror it into
    /// the audit shadow and count it live.
    fn admit(&mut self, ev: &Event) {
        assert!(
            ev.at >= self.watermark,
            "scheduling into the past: {:?} < {:?}",
            ev.at,
            self.watermark
        );
        debug_assert!(
            ev.sched <= ev.at,
            "schedule time after firing time: {:?} > {:?}",
            ev.sched,
            ev.at
        );
        if let Some(s) = &mut self.shadow {
            s.push(ev.at, ev.sched, ev.tie, ev.seq);
        }
        self.live += 1;
    }

    /// Cancel a pending event. O(1): a tombstone is recorded and the
    /// event is physically dropped when the calendar reaches it, without
    /// perturbing the order of surviving events. This is what keeps
    /// far-future idle sentinels (timers parked at [`SimTime::MAX`]) free.
    ///
    /// Returns `false`, changing nothing, for an id this queue never
    /// issued or one whose tombstone is still pending (a double cancel);
    /// under `--audit` that is a calendar violation. An id whose event
    /// already fired or was already dropped cannot be told from a live
    /// one: passing it is a caller bug that corrupts the live count.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || self.cancelled.contains(&id.0) {
            if self.shadow.is_some() {
                crate::audit::violation("calendar", format_args!("cancel of dead {id:?}"));
            }
            return false;
        }
        if let Some(s) = &mut self.shadow {
            s.cancel(id.0);
        }
        self.live -= 1;
        if self.front.as_ref().is_some_and(|f| f.seq == id.0) {
            self.front = None;
        } else {
            self.cancelled.insert(id.0);
        }
        true
    }

    /// The wheel's internal horizon. The watermark is raised to this
    /// after any call that may cascade, so subsequent schedules can never
    /// land below it.
    fn horizon(&self) -> SimTime {
        SimTime::from_nanos(self.wheel.elapsed)
    }

    /// Where the earliest pending event waits, and its time, if it fires
    /// by `until`: in the front slot — which, empty, first pulls the
    /// wheel's next event, bounded by `until` and the earliest lane head
    /// — or at a lane head. A lane head below the wheel's bound is found
    /// without touching the wheel.
    fn locate(&mut self, until: SimTime) -> Option<(Source, SimTime)> {
        let lane = self.wheel.lane_heap.first().map(|l| l.at);
        if self.front.is_none() {
            let bound = match lane {
                Some(at) if at.as_nanos() < self.wheel.min_bound => {
                    return (at <= until).then_some((Source::Lane, at));
                }
                Some(at) => at.min(until),
                None => until,
            };
            self.front = self.wheel.pop_before(bound.as_nanos(), &mut self.cancelled);
        }
        let lane_first =
            |f: &Event, at| at < f.at || at == f.at && self.lane_node().key() < f.key();
        let found = match (&self.front, lane) {
            (Some(f), Some(at)) if lane_first(f, at) => (Source::Lane, at),
            (Some(f), _) => (Source::Front, f.at),
            (None, Some(at)) => (Source::Lane, at),
            (None, None) => return None,
        };
        (found.1 <= until).then_some(found)
    }

    /// The earliest lane head's node.
    fn lane_node(&self) -> &Node {
        let w = &self.wheel;
        w.head(w.lane_heap.first().expect("a lane was located").lane)
    }

    /// Remove the event [`EventQueue::locate`] found.
    fn remove(&mut self, src: Source) -> Event {
        match src {
            Source::Front => self.front.take().expect("located in the front slot"),
            Source::Lane => self.wheel.lane_pop(),
        }
    }

    /// Pop the event [`EventQueue::locate`] found, advancing the causality
    /// watermark to its time.
    fn take(&mut self, src: Source) -> Event {
        let ev = self.remove(src);
        self.live -= 1;
        self.watermark = ev.at;
        if let Some(s) = &mut self.shadow {
            s.verify_pop(ev.at, ev.sched, ev.tie, ev.seq);
        }
        ev
    }

    /// Remove and return the earliest event if it fires at or before
    /// `until`, advancing the causality watermark — to the event's time,
    /// or to `until` itself when every pending event lies beyond it.
    pub fn pop_before(&mut self, until: SimTime) -> Option<Event> {
        if self.live > 0 {
            // A front-slot occupant precedes everything in the wheel; the
            // slot is NOT refilled after the pop — prefetching would drag
            // the next wheel event out only for the handler's own
            // schedules to demote it straight back.
            if let Some((src, ..)) = self.locate(until) {
                return Some(self.take(src));
            }
            // Nothing fires by `until`; the caller's clock will advance
            // there, so scheduling before it is now causally invalid (and
            // the wheel may have cascaded up to it).
            self.watermark = self.watermark.max(until).max(self.horizon());
        }
        if let Some(s) = &mut self.shadow {
            s.verify_none(until);
        }
        None
    }

    /// Remove and return the earliest event, advancing the internal
    /// causality watermark.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(SimTime::MAX)
    }

    /// The firing time of the next event, if any.
    ///
    /// Finding it may pull an event into the front slot (and cascade the
    /// wheel up to it), so the causality watermark is raised to the
    /// returned time, pulled or not: a later schedule below it is rejected
    /// and one at or after it gets the key it would have had.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // The shadow oracle needs no adjustment: it is consulted only at
        // the logical pop, and prefetching into the front slot is not one.
        let (_, at) = self.locate(SimTime::MAX)?;
        self.watermark = self.watermark.max(at).max(self.horizon());
        Some(at)
    }

    /// Remove **every** pending event in `(time, sched, tie, seq)` order,
    /// without advancing the causality watermark or consulting the shadow
    /// oracle: the shard split moves each, key and all, into a fork
    /// ([`EventQueue::adopt`]), whose shadow verifies
    /// its pop once, so audit totals match at any shard count. The shadow
    /// keeps its check count and drops its pending set; lanes and the
    /// node pool's capacity stay, so whoever adopts the drained events
    /// back into this queue reuses the pool instead of regrowing it.
    pub fn drain_all(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.live);
        while self.live > 0 {
            let (src, ..) = self
                .locate(SimTime::MAX)
                .expect("live count says events remain, but the calendar is empty");
            out.push(self.remove(src));
            self.live -= 1;
        }
        // Only cancelled residents are left, and the wheel's horizon ran to
        // the last event: restart at the watermark so a refill (the split's
        // rollback, or the shard that takes this queue over) works.
        let w = &mut self.wheel;
        debug_assert!(w.lane_heap.is_empty(), "a lane outlived the drain");
        w.nodes.clear();
        **w = Wheel {
            nodes: std::mem::take(&mut w.nodes),
            lanes: std::mem::take(&mut w.lanes),
            lane_heap: std::mem::take(&mut w.lane_heap),
            ..Wheel::new(self.watermark.as_nanos())
        };
        self.cancelled.clear();
        if let Some(s) = &mut self.shadow {
            s.heap.clear();
            s.cancelled.clear();
        }
        out
    }

    /// Bytes of event storage the wheel holds (capacity, not use): at
    /// most 2 × high-water stored events × the 48-byte node.
    pub fn footprint_bytes(&self) -> usize {
        self.wheel.nodes.capacity() * std::mem::size_of::<Node>()
    }

    /// Number of pending (scheduled, unfired, uncancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Flush the shadow oracle's batched check count into the global audit
/// registry.
impl Drop for EventQueue {
    fn drop(&mut self) {
        if let Some(s) = &self.shadow {
            if s.checks > 0 {
                crate::audit::count_calendar_checks(s.checks);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(code: u64) -> EventKind {
        EventKind::Control { code }
    }

    /// Insert `kind` under an explicit schedule time and content tie, as a
    /// drained event adopted back carries them.
    fn keyed(q: &mut EventQueue, at: SimTime, sched: SimTime, tie: u64, kind: EventKind) {
        let ev = q.stamp(at, sched, tie, kind);
        q.insert(ev);
    }

    fn codes(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Control { code } => code,
                _ => unreachable!(),
            })
            .collect()
    }

    /// Deterministic pseudorandom stream for the churn tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    impl EventQueue {
        /// An empty queue with the audit shadow attached whatever the
        /// process-wide flag says, so tests that run in parallel need not
        /// flip it.
        pub(crate) fn audited() -> Self {
            let mut q = Self::new();
            q.shadow.get_or_insert_with(Shadow::default);
            q
        }

        /// Pops the shadow has verified, if it is attached.
        pub(crate) fn shadow_checks(&self) -> Option<u64> {
            self.shadow.as_ref().map(|s| s.checks)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::audited();
        q.schedule(SimTime::from_nanos(30), ctrl(3));
        q.schedule(SimTime::from_nanos(10), ctrl(1));
        q.schedule(SimTime::from_nanos(20), ctrl(2));
        assert_eq!(codes(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::audited();
        let t = SimTime::from_nanos(5);
        for code in 0..10 {
            q.schedule(t, ctrl(code));
        }
        assert_eq!(codes(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ctrl(0));
        q.pop();
        q.schedule(SimTime::from_nanos(50), ctrl(1));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::audited();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(42), ctrl(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_horizon_and_watermark() {
        let mut q = EventQueue::audited();
        q.schedule(SimTime::from_nanos(500), ctrl(5));
        assert!(q.pop_before(SimTime::from_nanos(100)).is_none());
        assert_eq!(q.len(), 1);
        // The horizon advanced to 100; scheduling at it is still legal.
        q.schedule(SimTime::from_nanos(100), ctrl(1));
        let ev = q.pop_before(SimTime::from_nanos(1_000)).expect("due");
        assert_eq!(ev.at, SimTime::from_nanos(100));
        let ev = q.pop_before(SimTime::from_nanos(1_000)).expect("due");
        assert_eq!(ev.at, SimTime::from_nanos(500));
        assert!(q.is_empty());
    }

    #[test]
    fn cancellation_removes_events_and_sentinels() {
        let mut q = EventQueue::audited();
        let a = q.schedule(SimTime::from_nanos(10), ctrl(0));
        q.schedule(SimTime::from_nanos(20), ctrl(1));
        // A far-future idle sentinel parks for free and cancels for
        // free.
        let sentinel = q.schedule(SimTime::MAX, ctrl(99));
        assert_eq!(q.len(), 3);
        q.cancel(a);
        q.cancel(sentinel);
        assert_eq!(q.len(), 1);
        let order = codes(&mut q);
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn cancel_front_slot_event() {
        let mut q = EventQueue::audited();
        q.schedule(SimTime::from_nanos(100), ctrl(1));
        q.pop();
        // Fast path: earlier than everything pending → front slot.
        let id = q.schedule(SimTime::from_nanos(150), ctrl(2));
        q.schedule(SimTime::from_nanos(200), ctrl(3));
        q.cancel(id);
        assert_eq!(codes(&mut q), vec![3]);
    }

    #[test]
    fn far_future_and_sentinel_events_pop_in_order() {
        let mut q = EventQueue::audited();
        // Spread across all wheel levels, scheduled out of order.
        let times = [
            u64::MAX,
            1,
            1 << 40,
            (1 << 40) + 1,
            1 << 18,
            63,
            64,
            1 << 30,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), ctrl(i as u64));
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn schedule_during_pop_interleaving_keeps_order() {
        let mut q = EventQueue::audited();
        q.schedule(SimTime::from_nanos(10), ctrl(0));
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_nanos(10));
        // Zero-delay reschedule at the current instant pops next and
        // FIFO after anything already pending at that instant.
        q.schedule(SimTime::from_nanos(10), ctrl(1));
        q.schedule(SimTime::from_nanos(10), ctrl(2));
        q.schedule(SimTime::from_nanos(11), ctrl(3));
        assert_eq!(codes(&mut q), vec![1, 2, 3]);
    }

    /// The shard-injection path: an event scheduled *late* (after the
    /// watermark passed its emission time) but carrying an early `sched`
    /// wins same-instant ties against events scheduled earlier in wall
    /// order with later `sched` — including against a front-slot occupant.
    #[test]
    fn explicit_sched_reorders_same_instant_ties() {
        let mut q = EventQueue::audited();
        let t = SimTime::from_nanos;
        // Local events: scheduled at watermark 0, firing at 100.
        q.schedule(t(100), ctrl(0));
        q.schedule(t(100), ctrl(1));
        // Advance the watermark to 50 without firing anything.
        assert!(q.pop_before(t(50)).is_none());
        // Injection emitted at 10 on another shard, arriving at 100:
        // must precede both locals (their sched is 0 < 10? no — their
        // sched IS 0, so they keep winning; emitted-at-10 loses).
        keyed(&mut q, t(100), t(10), 0, ctrl(2));
        // Injection emitted "before" the locals were scheduled is
        // impossible monolithically (sched 0 ties break by seq), but
        // one landing between them in sched order is the real shape:
        // local at sched 0, injected at sched 10, local at sched 50.
        q.schedule(t(100), ctrl(3)); // sched = watermark = 50
        assert_eq!(codes(&mut q), vec![0, 1, 2, 3]);
    }

    /// Same, but the tie victim sits in the front slot: the injected
    /// event must demote it.
    #[test]
    fn explicit_sched_demotes_front_slot_on_tie() {
        let mut q = EventQueue::audited();
        let t = SimTime::from_nanos;
        q.schedule(t(40), ctrl(9));
        q.pop(); // watermark 40; wheel empty
        let _front = q.schedule(t(100), ctrl(1)); // takes the front slot, sched 40
        keyed(&mut q, t(100), t(20), 0, ctrl(0)); // emitted earlier: precedes
        assert_eq!(codes(&mut q), vec![0, 1]);
    }

    /// Equal `(time, sched)` resolves by the content tie before the
    /// insertion sequence, and a zero tie (non-arrival) precedes any
    /// non-zero one — including across the front slot.
    #[test]
    fn content_tie_orders_equal_time_and_sched() {
        let mut q = EventQueue::audited();
        let t = SimTime::from_nanos;
        q.schedule(t(40), ctrl(9));
        q.pop(); // watermark 40
        keyed(&mut q, t(100), t(40), 7, ctrl(2)); // arrival-like, big tie
        keyed(&mut q, t(100), t(40), 3, ctrl(1)); // arrival-like, small tie
        keyed(&mut q, t(100), t(40), 0, ctrl(0)); // plain event wins
        keyed(&mut q, t(100), t(40), 7, ctrl(3)); // equal tie: falls to seq
        assert_eq!(codes(&mut q), vec![0, 1, 2, 3]);
    }

    /// The pooled wheel node stays packed at 48 bytes: what the calendar's
    /// footprint (high-water × node) is quoted in.
    #[test]
    fn wheel_node_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    /// Every event kind comes back from the packed node exactly, at both
    /// ends of the id field and with full-width tokens and packet refs.
    #[test]
    fn packed_node_round_trips_every_event_kind() {
        let packet = PacketRef::from_bits(u64::from(u32::MAX) << 32 | 7);
        assert_eq!(packet.generation(), u32::MAX);
        for id in [0, (1 << ID_BITS) - 1] {
            let kinds = [
                EventKind::Arrival {
                    node: NodeId(id),
                    packet,
                },
                EventKind::Departure { link: LinkId(id) },
                EventKind::Timer {
                    agent: AgentId(id),
                    token: TimerToken(u64::MAX),
                },
                EventKind::Control { code: u64::MAX },
            ];
            for kind in kinds {
                let ev = Event {
                    at: SimTime::MAX,
                    sched: SimTime::from_nanos(3),
                    tie: u64::MAX,
                    seq: u64::MAX - 1,
                    kind,
                };
                let back = Node::pack(&ev).unpack();
                assert_eq!(back.key(), ev.key());
                assert_eq!(format!("{:?}", back.kind), format!("{kind:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the calendar node's 30-bit id field")]
    fn packing_an_id_past_the_field_panics() {
        Node::pack(&Event {
            at: SimTime::ZERO,
            sched: SimTime::ZERO,
            tie: 0,
            seq: 0,
            kind: EventKind::Timer {
                agent: AgentId(1 << ID_BITS),
                token: TimerToken(0),
            },
        });
    }

    /// A lane push whose key does not follow the lane's tail is refused:
    /// debug builds assert, and an audited queue (one carrying the
    /// shadow) reports a calendar violation. Otherwise the
    /// wheel takes the event, and it still pops in key order.
    #[test]
    fn lane_push_that_does_not_increase_is_refused() {
        let t = SimTime::from_nanos;
        // An earlier time, then the tail's own time with a smaller tie.
        for (at, tie) in [(99, 5), (100, 0)] {
            let mut q = EventQueue::new();
            q.add_lane();
            q.push_lane(LinkId(0), t(100), t(0), 1, ctrl(0));
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.push_lane(LinkId(0), t(at), t(0), tie, ctrl(1))
            }));
            match pushed {
                Err(panic) => {
                    let msg = panic.downcast::<String>().expect("a formatted panic");
                    assert!(msg.contains("does not follow its tail"), "{msg}");
                }
                Ok(()) => assert_eq!(codes(&mut q), [1, 0]),
            }
        }
    }

    /// A fork keeps its parent's lanes and shadow and continues its
    /// sequence numbers, so adopted and newly scheduled events never share
    /// a key.
    #[test]
    fn fork_keeps_the_backend_and_continues_the_sequence() {
        let t = SimTime::from_nanos;
        let mut q = EventQueue::audited();
        q.add_lane();
        q.schedule(t(10), ctrl(0));
        q.schedule(t(20), ctrl(1));
        let mut f = q.fork();
        assert!(f.is_empty());
        assert_eq!(f.shadow_checks(), Some(0));
        let id = f.schedule(t(5), ctrl(2));
        assert_eq!(id, EventId(2));
        f.push_lane(LinkId(0), t(7), t(0), 1, ctrl(3));
        assert_eq!(codes(&mut f), [2, 3]);
        assert_eq!(f.shadow_checks(), Some(2));
    }

    /// One dispatch run as the simulator's loop takes it: the run's head
    /// (`head`, handed on by the previous run, or the next event due by
    /// `until`), then every event that continues it — same instant, same
    /// class — one `pop_before` at a time, bounded by the run's instant.
    /// The first event that does not continue the run is left in `head`.
    fn pop_run(q: &mut EventQueue, head: &mut Option<Event>, until: SimTime) -> Vec<Event> {
        let Some(first) = head.take().or_else(|| q.pop_before(until)) else {
            return Vec::new();
        };
        let mut run = vec![first];
        loop {
            match q.pop_before(first.at) {
                Some(ev) if (ev.at, ev.kind.class()) == (first.at, first.kind.class()) => {
                    run.push(ev)
                }
                next => {
                    *head = next;
                    return run;
                }
            }
        }
    }

    #[test]
    fn batches_group_consecutive_same_time_same_class_runs() {
        let mut q = EventQueue::audited();
        let t = |n| SimTime::from_nanos(n);
        let timer = || EventKind::Timer {
            agent: AgentId(0),
            token: TimerToken(0),
        };
        q.schedule(t(10), ctrl(0));
        q.schedule(t(10), ctrl(1));
        q.schedule(t(10), timer());
        q.schedule(t(10), ctrl(2));
        q.schedule(t(20), ctrl(3));
        let mut head = None;
        // The two leading controls at t=10 run together…
        let run = pop_run(&mut q, &mut head, SimTime::MAX);
        assert!(run.iter().all(|e| e.at == t(10)));
        assert_eq!(run.iter().map(|e| e.seq()).collect::<Vec<_>>(), vec![0, 1]);
        // …the interleaved timer pops alone (it broke the class run)…
        let run = pop_run(&mut q, &mut head, SimTime::MAX);
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].kind.class(), 2);
        // …the trailing control does NOT rejoin the earlier run…
        let run = pop_run(&mut q, &mut head, SimTime::MAX);
        assert_eq!(run.iter().map(|e| e.seq()).collect::<Vec<_>>(), vec![3]);
        // …and the t=20 event was never dragged into a t=10 run.
        let run = pop_run(&mut q, &mut head, SimTime::MAX);
        assert_eq!(run.iter().map(|e| e.at).collect::<Vec<_>>(), vec![t(20)]);
        assert!(q.is_empty());
    }

    #[test]
    fn batch_probe_keeps_scheduling_at_batch_instant_legal() {
        let mut q = EventQueue::audited();
        q.schedule(SimTime::from_nanos(10), ctrl(0));
        q.schedule(SimTime::from_nanos(10), ctrl(1));
        q.schedule(SimTime::from_nanos(50), ctrl(9));
        assert_eq!(pop_run(&mut q, &mut None, SimTime::MAX).len(), 2);
        // The pop that ended the run was bounded at its instant: a
        // handler scheduling at the run's instant must still not hit
        // the causality assert (peek_time would have raised the
        // watermark to 50 here), and its event fires next.
        q.schedule(SimTime::from_nanos(10), ctrl(2));
        assert_eq!(codes(&mut q), vec![2, 9]);
    }

    /// A reservation consumes a sequence number and nothing else: the
    /// events around it keep the keys they would have had, whether or not
    /// it is ever scheduled.
    #[test]
    fn reservations_keep_every_other_key() {
        let mut q = EventQueue::audited();
        let t = SimTime::from_nanos;
        q.schedule(t(5), ctrl(0));
        let unused = q.reserve();
        let used = q.reserve();
        q.schedule(t(5), ctrl(3));
        assert_eq!(q.len(), 2);
        q.schedule_reserved(t(5), used, ctrl(2));
        assert_eq!(unused.tie_key(), (SimTime::ZERO, 0, 1));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![0, 2, 3]);
    }

    /// The concatenation of dispatch runs is the plain pop stream under
    /// dense churn: the shadow verifies every pop and every empty pop, and
    /// a count of the events scheduled checks `len`.
    #[test]
    fn batched_stream_equals_unbatched_stream_under_churn() {
        let mut q = EventQueue::audited();
        let mut rnd = xorshift(0x9e37_79b9_7f4a_7c15);
        let (mut watermark, mut pending, mut popped) = (0u64, 0usize, 0u64);
        let mut head = None;
        for round in 0..200 {
            for _ in 0..(rnd() % 8) {
                // Coarse times force same-timestamp collisions; alternate
                // classes so runs actually split.
                let at = watermark + (rnd() % 40) * 10;
                let kind = if rnd().is_multiple_of(2) {
                    ctrl(round)
                } else {
                    EventKind::Timer {
                        agent: AgentId(0),
                        token: TimerToken(round),
                    }
                };
                q.schedule(SimTime::from_nanos(at), kind);
                pending += 1;
            }
            let until = SimTime::from_nanos(watermark + rnd() % 300);
            loop {
                let run = pop_run(&mut q, &mut head, until);
                let Some(last) = run.last() else { break };
                watermark = last.at.as_nanos();
                pending -= run.len();
                popped += run.len() as u64;
            }
            assert_eq!(q.len(), pending);
            watermark = watermark.max(until.as_nanos());
        }
        assert_eq!(q.shadow_checks(), Some(popped));
    }

    /// Dense churn: schedule/pop interleavings drained through `pop_before`
    /// horizons pop in the shadow's `(time, seq)` order, and every empty
    /// pop leaves nothing due.
    #[test]
    fn wheel_matches_heap_under_churn() {
        let mut q = EventQueue::audited();
        let mut rnd = xorshift(0x243f_6a88_85a3_08d3);
        let (mut watermark, mut pending, mut popped) = (0u64, 0usize, 0u64);
        for round in 0..200 {
            for _ in 0..(rnd() % 8) {
                let at = watermark + rnd() % 100_000;
                q.schedule(SimTime::from_nanos(at), ctrl(round));
                pending += 1;
            }
            let until = watermark + rnd() % 50_000;
            while let Some(ev) = q.pop_before(SimTime::from_nanos(until)) {
                assert!(ev.at.as_nanos() <= until);
                watermark = ev.at.as_nanos();
                pending -= 1;
                popped += 1;
            }
            assert_eq!(q.len(), pending);
            watermark = watermark.max(until);
        }
        assert_eq!(q.shadow_checks(), Some(popped));
    }

    /// The shadow verifies each pop exactly once, wherever the event
    /// waited: in the front slot, in a lane, in the wheel, or under a
    /// reserved key.
    #[test]
    fn the_shadow_checks_each_pop_once_from_every_source() {
        let t = SimTime::from_nanos;
        let mut q = EventQueue::audited();
        q.add_lane();
        q.schedule(t(10), ctrl(0));
        q.schedule(t(1 << 20), ctrl(1));
        let key = q.reserve();
        q.push_lane(LinkId(0), t(30), t(0), 1, ctrl(2));
        q.schedule_reserved(t(40), key, ctrl(3));
        assert!(q.front.is_some_and(|f| f.at == t(10)));
        assert_eq!(q.wheel.stored, 2);
        assert_eq!(q.wheel.lane_heap.len(), 1);
        assert_eq!(codes(&mut q), [0, 2, 3, 1]);
        assert_eq!(q.shadow_checks(), Some(4));
        // Popping an empty queue checks that nothing is due, but counts
        // no pop.
        assert!(q.pop().is_none());
        assert_eq!(q.shadow_checks(), Some(4));
    }

    /// An event lost from the wheel without the shadow knowing is caught
    /// where the wheel finds nothing due and the shadow still holds it.
    #[test]
    #[should_panic(expected = "audit violation [calendar]")]
    fn an_event_lost_from_the_wheel_is_a_violation_when_nothing_pops() {
        let t = SimTime::from_nanos;
        let mut q = EventQueue::audited();
        q.schedule(t(10), ctrl(0));
        q.schedule(t(20), ctrl(1));
        let lost = q.wheel.pop_before(u64::MAX, &mut q.cancelled);
        assert_eq!(lost.map(|e| e.at), Some(t(20)));
        assert_eq!(q.pop().map(|e| e.at), Some(t(10)));
        q.pop_before(t(30));
    }
}
