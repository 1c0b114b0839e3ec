//! Calendar property tests. Every queue here is built audited, so it
//! carries its heap shadow, the reference order:
//! the shadow verifies the `(time, sched, tie, seq)` of every pop and that
//! a pop finding nothing leaves nothing due, while the interpreter's own
//! mirror of the pending events and of the watermark checks `len`,
//! `peek_time`, every `None`, each popped event's key and kind, and the
//! key a reserve takes. The op streams cover
//! simultaneous events, `SimTime::MAX` idle sentinels, cancellations,
//! events scheduled while a pop loop is in flight, keys reserved early and
//! scheduled late (or never), every way the wheel's pooled nodes are freed
//! and reused, the sparse calendars of small simulations, where an event
//! sits alone in its slot and the wheel pops it in place instead of
//! cascading it down, and per-link arrival lanes merged with all of the
//! above.

use std::collections::{BTreeMap, VecDeque};

use netsim::event::{Event, EventKind, EventQueue, Reservation};
use netsim::ids::{AgentId, LinkId};
use netsim::time::SimTime;
use netsim::{EventId, TimerToken};
use proptest::prelude::*;

/// A new queue with the audit shadow attached.
fn audited() -> EventQueue {
    EventQueue::with_shadow(true)
}

/// Stable discriminant for comparing event kinds with the mirror's.
fn disc(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Arrival { .. } => 0,
        EventKind::Departure { .. } => 1,
        EventKind::Timer { .. } => 2,
        EventKind::Control { .. } => 3,
    }
}

fn kind_for(tag: u64, code: u64) -> EventKind {
    if tag.is_multiple_of(2) {
        EventKind::Timer {
            agent: AgentId(tag as usize % 5),
            token: TimerToken(code),
        }
    } else {
        EventKind::Control { code }
    }
}

/// `base + off ns`, saturating at `SimTime::MAX` (reachable once a pop
/// returns an end-of-time sentinel).
fn after(base: SimTime, off: u64) -> SimTime {
    SimTime::from_nanos(base.as_nanos().saturating_add(off))
}

/// A log-uniform offset between 1 µs and 200 ms: a uniform octave, then a
/// uniform position inside it — the spread of timer and propagation delays
/// on a 5–50 Mbps dumbbell, which lands events on wheel levels 1 to 4.
fn sparse_offset(x: u64) -> u64 {
    let lo = 1_000u64 << (x % 18);
    (lo + (x >> 8) % lo).min(200_000_000)
}

/// At most this many events pending in the sparse regime.
const SPARSE_PENDING: usize = 8;

/// A pending event as the interpreter expects it to pop.
#[derive(Clone, Copy)]
struct Pending {
    at: SimTime,
    sched: SimTime,
    tie: u64,
    kind: u8,
    /// Its id, if the interpreter may cancel it.
    id: Option<EventId>,
}

impl Pending {
    /// What a pop or a drain must return for this event.
    fn key(&self) -> (SimTime, SimTime, u64, u8) {
        (self.at, self.sched, self.tie, self.kind)
    }
}

/// What the interpreter knows of the queue it drives.
struct Mirror {
    /// The interpreter's clock: every schedule lands at or after it.
    now: SimTime,
    /// The queue's causality watermark, the schedule time it stamps: the
    /// last pop, a `pop_before` horizon that found nothing while events
    /// were pending, or a peeked time, whichever came last and highest.
    mark: SimTime,
    /// Every pending event by sequence number.
    pending: BTreeMap<u64, Pending>,
    /// The queue's next sequence number (schedules, lane pushes and
    /// reserves).
    next_seq: u64,
    /// Keys reserved and not yet scheduled.
    reserved: Vec<Reservation>,
    /// Per lane: the last time pushed, and the `(seq, time)` of its events
    /// not yet popped, in push (= pop) order.
    lane_last: Vec<Option<SimTime>>,
    lane_pending: Vec<VecDeque<(u64, SimTime)>>,
}

impl Mirror {
    fn new(lanes: usize) -> Self {
        Mirror {
            now: SimTime::ZERO,
            mark: SimTime::ZERO,
            pending: BTreeMap::new(),
            next_seq: 0,
            reserved: Vec::new(),
            lane_last: vec![None; lanes],
            lane_pending: vec![VecDeque::new(); lanes],
        }
    }

    /// Record an event inserted under sequence number `seq`.
    fn add(
        &mut self,
        seq: u64,
        at: SimTime,
        (sched, tie): (SimTime, u64),
        kind: EventKind,
        id: Option<EventId>,
    ) {
        let kind = disc(&kind);
        self.pending.insert(
            seq,
            Pending {
                at,
                sched,
                tie,
                kind,
                id,
            },
        );
    }

    fn schedule(&mut self, q: &mut EventQueue, at: SimTime, tag: u64) {
        let kind = kind_for(tag, self.next_seq);
        let id = q.schedule(at, kind);
        self.add(self.next_seq, at, (self.mark, 0), kind, Some(id));
        self.next_seq += 1;
    }

    /// Schedule `kind` under the reserved `key`.
    fn schedule_reserved(
        &mut self,
        q: &mut EventQueue,
        at: SimTime,
        key: Reservation,
        kind: EventKind,
    ) {
        q.schedule_reserved(at, key, kind);
        let (sched, tie, seq) = key.tie_key();
        self.add(seq, at, (sched, tie), kind, None);
    }

    /// Push an arrival-like event at `lane`'s tail.
    fn push_lane(
        &mut self,
        q: &mut EventQueue,
        lane: usize,
        at: SimTime,
        sched: SimTime,
        tie: u64,
        tag: u64,
    ) {
        let kind = kind_for(tag, self.next_seq);
        q.push_lane(LinkId(lane), at, sched, tie, kind);
        self.add(self.next_seq, at, (sched, tie), kind, None);
        self.lane_last[lane] = Some(at);
        self.lane_pending[lane].push_back((self.next_seq, at));
        self.next_seq += 1;
    }

    /// The earliest pending time.
    fn first(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.at).min()
    }

    /// Check what a pop bounded by `until` returned, and return the
    /// popped event's time.
    fn popped(&mut self, ev: Option<Event>, until: SimTime) -> Option<SimTime> {
        let Some(ev) = ev else {
            let first = self.first();
            prop_assert!(
                first.is_none_or(|t| t > until),
                "nothing popped by {until:?}, but an event is pending at {first:?}"
            );
            if first.is_some() {
                self.mark = self.mark.max(until);
            }
            return None;
        };
        let want = self
            .pending
            .remove(&ev.seq())
            .expect("popped an event that is not pending");
        let got = (ev.at, ev.sched, ev.tie, disc(&ev.kind));
        prop_assert_eq!(got, want.key(), "popped event changed");
        prop_assert!(ev.at <= until, "popped {:?} past {until:?}", ev.at);
        for lane in &mut self.lane_pending {
            if lane.front().is_some_and(|&(seq, _)| seq == ev.seq()) {
                lane.pop_front();
            }
        }
        (self.now, self.mark) = (ev.at, ev.at);
        Some(ev.at)
    }
}

/// Drive one audited queue through an operation stream.
///
/// Ops are `(selector, a, b)` triples decoded below. The mirror keeps the
/// watermark so every schedule lands at or after the last pop (the queue's
/// causality contract), and tracks pending ids so it only cancels events
/// that have not fired. The queue registers `lanes` arrival lanes; the
/// interpreter pushes each lane's events at strictly increasing times, as
/// a link's serialization does.
fn drive(ops: &[(u8, u64, u64)], lanes: usize) {
    let mut q = audited();
    for _ in 0..lanes {
        q.add_lane();
    }
    let mut m = Mirror::new(lanes);

    for &(sel, a, b) in ops {
        match sel % 20 {
            // Spread-out schedule: anywhere in the next millisecond.
            0 | 1 => m.schedule(&mut q, after(m.now, a % 1_000_000), b),
            // Collision-heavy schedule: at most 4 ns ahead, forcing
            // simultaneous events that exercise the FIFO tiebreak.
            2 => m.schedule(&mut q, after(m.now, a % 4), b),
            // Idle sentinel at the end of time.
            3 => m.schedule(&mut q, SimTime::MAX, b),
            // Cancel a still-pending scheduled event.
            4 => {
                let ids: Vec<_> = m
                    .pending
                    .iter()
                    .filter_map(|(&seq, p)| Some((seq, p.id?)))
                    .collect();
                if !ids.is_empty() {
                    let (seq, id) = ids[b as usize % ids.len()];
                    prop_assert!(q.cancel(id));
                    m.pending.remove(&seq);
                }
            }
            // Single pop.
            5 => {
                m.popped(q.pop(), SimTime::MAX);
            }
            // Bounded pop_before drain, optionally scheduling new events
            // mid-drain (the schedule-during-pop interleaving).
            6 => {
                let until = after(m.now, a % 100_000);
                let mut budget = 8u32;
                while let Some(at) = m.popped(q.pop_before(until), until) {
                    if b % 3 == 0 && budget > 0 {
                        budget -= 1;
                        m.schedule(&mut q, after(at, 1 + b % 50), b);
                    }
                }
                m.now = m.now.max(until);
            }
            // Drain to exhaustion: every live node returns to the pool (a
            // pending tombstone keeps its own until reached), and the ops
            // that follow refill from the free list.
            7 => while m.popped(q.pop(), SimTime::MAX).is_some() {},
            // Demotion into a non-empty level-0 list: two events a few ns
            // out share a 1 ns slot, the first of them usually in the
            // front slot; a third just ahead of them takes the front and
            // pushes its occupant back into the wheel, where it must sort
            // ahead of its later-scheduled twin.
            8 => {
                let twin = after(m.now, 2 + a % 3);
                for at in [twin, twin, after(m.now, 1)] {
                    m.schedule(&mut q, at, b);
                }
            }
            // Reserve the key a schedule would take here: the watermark
            // and the next sequence number.
            10 => {
                let key = q.reserve();
                prop_assert_eq!(key.tie_key(), (m.mark, 0, m.next_seq));
                m.reserved.push(key);
                m.next_seq += 1;
            }
            // Schedule under a reserved key, at the current instant
            // (`a % 3 == 0`: it may sort before events already pending
            // there) or just after it.
            11 => {
                if !m.reserved.is_empty() {
                    let key = m.reserved.swap_remove(b as usize % m.reserved.len());
                    let (at, kind) = (after(m.now, a % 3), kind_for(b, key.tie_key().2));
                    m.schedule_reserved(&mut q, at, key, kind);
                }
            }
            // Sparse schedule: far apart and few, so most events are alone
            // in a wheel slot above level 0 (a pop when enough are pending).
            12 => {
                if m.pending.len() < SPARSE_PENDING {
                    m.schedule(&mut q, after(m.now, sparse_offset(a)), b);
                } else {
                    m.popped(q.pop(), SimTime::MAX);
                }
            }
            // Sparse bounded drain: the horizon stops wherever `until`
            // falls — short of a lone node's slot, at its start, inside it
            // below or above the node — and later schedules land around it.
            13 => {
                let until = after(m.now, sparse_offset(a));
                let mut budget = 4u32;
                while let Some(at) = m.popped(q.pop_before(until), until) {
                    if b % 3 == 0 && budget > 0 && m.pending.len() < SPARSE_PENDING {
                        budget -= 1;
                        m.schedule(&mut q, after(at, sparse_offset(b >> 2)), b);
                    }
                }
                m.now = m.now.max(until);
            }
            // Lane push: an arrival 5–100 ms out (it would cascade three or
            // four wheel levels), one up to 1 µs out, or one a few ns out
            // (same-instant ties with the front slot and level 0), after
            // the lane's previous push. 15: an injection, emitted on
            // another shard before this queue's watermark.
            // (A lane whose last push reached the end of time takes no more.)
            14 | 15 if lanes > 0 && m.lane_last[b as usize % lanes] != Some(SimTime::MAX) => {
                let lane = b as usize % lanes;
                let x = a >> 2;
                let off = match a % 4 {
                    0 => x % 4,
                    1 => x % 1_000,
                    _ => 5_000_000 + x % 95_000_000,
                };
                let floor = m.lane_last[lane].map_or(m.now, |t| m.now.max(after(t, 1)));
                let sched = if sel % 20 == 15 {
                    SimTime::from_nanos(x % m.now.as_nanos().saturating_add(1))
                } else {
                    m.now
                };
                m.push_lane(
                    &mut q,
                    lane,
                    after(floor, off),
                    sched,
                    (b >> 8) % 3,
                    b >> 16,
                );
            }
            // At a lane head's instant: a plain event (it lands in the front
            // slot or at level 0 beside the head), or a reserved departure
            // whose older key sorts before it.
            16 if lanes > 0 => {
                if let Some(&(_, at)) = m.lane_pending[b as usize % lanes].front() {
                    if a % 2 == 0 || m.reserved.is_empty() {
                        m.schedule(&mut q, at, b);
                    } else {
                        let key = m.reserved.swap_remove(b as usize % m.reserved.len());
                        let kind = EventKind::Departure { link: LinkId(0) };
                        m.schedule_reserved(&mut q, at, key, kind);
                    }
                }
            }
            // One dispatch run as the simulator's loop takes it: pops due
            // by a horizon while they continue the first one's run (same
            // instant, same class). The first pop that does not is handed
            // on as the next run's head, already checked.
            17 => {
                let until = after(m.now, a % 10_000_000);
                let mut run = None;
                loop {
                    let ev = q.pop_before(until);
                    let key = ev.map(|e| (e.at, e.kind.class()));
                    if m.popped(ev, until).is_none() {
                        m.now = m.now.max(until);
                        break;
                    }
                    if *run.get_or_insert(key) != key {
                        break;
                    }
                }
            }
            // Take every pending event out in key order and put it back:
            // the shard split's drain and its rollback. Lane events return
            // to the wheel, not to their lanes.
            18 => {
                let drained = q.drain_all();
                let key = |e: &Event| (e.at, e.sched, e.tie, e.seq());
                prop_assert!(
                    drained.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                    "drained out of key order"
                );
                let got: BTreeMap<_, _> = drained
                    .iter()
                    .map(|e| (e.seq(), (e.at, e.sched, e.tie, disc(&e.kind))))
                    .collect();
                let want: BTreeMap<_, _> = m.pending.iter().map(|(&s, p)| (s, p.key())).collect();
                prop_assert_eq!(got, want, "drained events differ from the pending ones");
                prop_assert!(q.is_empty());
                for ev in drained {
                    q.adopt(ev);
                }
            }
            // Every lane's head at one instant: the dumbbell's equal-rate,
            // equal-delay host links fed at once. Past 32 lanes, equal-time
            // heads are ordered by their full key at heap depth 5 and more;
            // small ties leave many of those keys to the sequence number.
            19 if lanes > 0 => {
                let floor = m
                    .lane_last
                    .iter()
                    .flatten()
                    .fold(m.now, |f, &t| f.max(after(t, 1)));
                if floor < SimTime::MAX {
                    let at = after(floor, a % 1_000);
                    for lane in 0..lanes {
                        let tie = (b >> (lane % 60)) % 3;
                        m.push_lane(&mut q, lane, at, m.now, tie, b >> 16);
                    }
                }
            }
            // Peek finds the earliest pending time and may advance the
            // causality watermark.
            _ => {
                let t = q.peek_time();
                prop_assert_eq!(t, m.first(), "peek_time is not the earliest pending time");
                if let Some(t) = t {
                    m.now = m.now.max(t);
                    m.mark = m.mark.max(t);
                }
            }
        }
        prop_assert_eq!(q.len(), m.pending.len(), "live count diverged");
        prop_assert_eq!(q.is_empty(), m.pending.is_empty());
    }

    // Drain to exhaustion: the tail must match event for event.
    while m.popped(q.pop(), SimTime::MAX).is_some() {}
    prop_assert!(q.is_empty() && m.pending.is_empty());
}

proptest! {
    /// Randomized op streams: the wheel pops the shadow heap's
    /// `(time, sched, tie, seq)` sequence under schedules, collisions,
    /// sentinels, cancellations, peeks, mid-drain schedules, full drains
    /// followed by refills, front-slot demotions, and reserved keys.
    #[test]
    fn wheel_and_heap_pop_identical_streams(
        ops in proptest::collection::vec(
            (0u8..12, 0u64..u64::MAX, 0u64..u64::MAX),
            1..120,
        ),
    ) {
        drive(&ops, 0);
    }

    /// The sparse regime of the small-dumbbell sweeps: at most eight events
    /// pending, 1 µs – 200 ms apart, popped one by one or up to horizons
    /// that stop anywhere, with cancels, reserved keys, same-instant
    /// reschedules and peeks mixed in. Nearly every pop here is a node
    /// alone in a slot above level 0.
    #[test]
    fn sparse_calendars_pop_identical_streams(
        ops in proptest::collection::vec(
            (
                prop_oneof![
                    6 => Just(12u8), 4 => Just(13u8), 2 => Just(5u8),
                    1 => Just(2u8), 1 => Just(4u8), 1 => Just(9u8),
                    1 => Just(10u8), 1 => Just(11u8),
                ],
                0u64..u64::MAX,
                0u64..u64::MAX,
            ),
            1..160,
        ),
    ) {
        drive(&ops, 0);
    }

    /// Every regime above with 2–40 arrival lanes, or 33–96 of them:
    /// arrivals 5–100 ms out and a few ns out, same-instant ties between a
    /// lane head, the front slot, level-0 events and reserved departures,
    /// injections with a schedule time below the watermark, dispatch runs,
    /// drains refilled by adoption, and every lane's head at one instant.
    #[test]
    fn lanes_merge_into_identical_streams(
        lanes in prop_oneof![2usize..41, 33usize..97],
        ops in proptest::collection::vec(
            (
                prop_oneof![
                    6 => Just(14u8), 2 => Just(15u8), 3 => Just(16u8),
                    3 => Just(17u8), 1 => Just(18u8), 1 => Just(19u8),
                    2 => 0u8..14,
                ],
                0u64..u64::MAX,
                0u64..u64::MAX,
            ),
            1..200,
        ),
    ) {
        drive(&ops, lanes);
    }

    /// Pure collision storms: every event lands on one of two instants, so
    /// the entire pop order is decided by the insertion-seq tiebreak.
    #[test]
    fn simultaneous_storms_preserve_fifo(
        picks in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        let ops: Vec<(u8, u64, u64)> = picks
            .iter()
            .enumerate()
            .map(|(i, &hi)| (2u8, if hi { 3 } else { 0 }, i as u64))
            .collect();
        drive(&ops, 0);
    }
}

/// A key reserved early and scheduled at the *current* instant — by the
/// handler of the event just popped — pops where an event scheduled at
/// the reservation point would have: before the later-keyed events
/// already pending at that instant, whether the next of them waits in the
/// front slot or in the wheel. That is why a dispatch run is extended one
/// pop at a time (`continue_run`), after each handler, and never popped
/// ahead.
#[test]
fn reserved_key_at_the_current_instant_precedes_later_keys() {
    let at = SimTime::from_nanos;
    for peek_first in [false, true] {
        let mut q = audited();
        q.schedule(at(10), kind_for(1, 0));
        let key = q.reserve();
        q.schedule(at(10), kind_for(1, 2));
        q.schedule(at(10), kind_for(1, 3));
        q.schedule(at(11), kind_for(1, 4));
        let first = q.pop().expect("due");
        assert_eq!(first.seq(), 0);
        if peek_first {
            // Pull event 2 into the front slot; the insert demotes it.
            assert_eq!(q.peek_time(), Some(at(10)));
        }
        q.schedule_reserved(at(10), key, kind_for(1, 1));
        assert_eq!(q.len(), 4);
        let next = continue_run(&mut q, &first).ok();
        assert_eq!(next.map(|e| e.tie_key()), Some(key.tie_key()));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at, e.seq()))
            .collect();
        let want = [(at(10), 2), (at(10), 3), (at(11), 4)];
        assert_eq!(order, want, "peeked: {peek_first}");
    }
}

/// Extend the run `first` heads as the simulator's loop does: pop the
/// next event, which continues the run if it fires at `first`'s instant
/// with `first`'s class, and otherwise is handed back (`Err`) as the next
/// run's head.
fn continue_run(q: &mut EventQueue, first: &Event) -> Result<Event, Option<Event>> {
    match q.pop() {
        Some(ev) if (ev.at, ev.kind.class()) == (first.at, first.kind.class()) => Ok(ev),
        next => Err(next),
    }
}

/// Run `script` on an audited queue, whose shadow verifies every pop,
/// and return the `(at, seq)` stream it popped.
fn on_audited(script: impl Fn(&mut EventQueue) -> Vec<Event>) -> Vec<(u64, u64)> {
    let popped = script(&mut audited());
    popped.iter().map(|e| (e.at.as_nanos(), e.seq())).collect()
}

/// Level-3 slots are 64³ ns wide; slot 5 of the first window.
const L3_SLOT: u64 = 64 * 64 * 64;
const L3_START: u64 = 5 * L3_SLOT;

/// The horizon may stop anywhere relative to a node that is alone in a
/// level-3 slot: before the slot, exactly at its start, or strictly inside
/// it below the node (the node then cascades so the horizon never passes
/// `until`). Events inserted afterwards *below* the node — into lower
/// levels, since the horizon now stands inside the slot — must still pop
/// before it; popping the lone node in place would overtake them.
#[test]
fn horizon_inside_a_lone_slot_then_inserts_below_the_lone_node() {
    let at = SimTime::from_nanos;
    let lone = L3_START + 200_000;
    for until in [L3_START - 7, L3_START, L3_START + 1, L3_START + 100_000] {
        let stream = on_audited(|q| {
            // An earlier event takes the front slot, so `lone` enters the
            // wheel; popping it again leaves the wheel horizon at 0 and
            // `lone` alone in a level-3 slot.
            q.schedule(at(1), kind_for(1, 0));
            q.schedule(at(lone), kind_for(1, 1));
            let mut out = vec![q.pop().expect("the front event")];
            assert!(q.pop_before(at(until)).is_none(), "nothing due by {until}");
            // Below the node: at the horizon, just past it, just under the
            // node; and one above it.
            q.schedule(at(until), kind_for(1, 2));
            q.schedule(at(until + 10), kind_for(1, 3));
            q.schedule(at(lone - 1), kind_for(1, 4));
            q.schedule(at(lone + 1), kind_for(1, 5));
            out.extend(std::iter::from_fn(|| q.pop()));
            out
        });
        let want = [
            (1, 0),
            (until, 2),
            (until + 10, 3),
            (lone - 1, 4),
            (lone, 1),
            (lone + 1, 5),
        ];
        assert_eq!(stream, want, "until = {until}");
    }
}

/// `pop_before(until)` is inclusive: an event at exactly `until` pops,
/// whether it waits in the front slot, at a lane head, on wheel level 0
/// or alone in a level-3 slot, and a horizon one nanosecond short of it
/// pops nothing.
#[test]
fn pop_before_takes_an_event_at_exactly_until() {
    let at = SimTime::from_nanos;
    for t in [5, 63, L3_START + 200_000] {
        for source in ["front", "lane", "wheel"] {
            let mut q = audited();
            q.add_lane();
            match source {
                "front" => drop(q.schedule(at(t), kind_for(1, 0))),
                "lane" => q.push_lane(LinkId(0), at(t), SimTime::ZERO, 0, kind_for(1, 0)),
                _ => {
                    // An earlier event takes the front slot, so `t` enters
                    // the wheel; popping it leaves `t` the wheel's only node.
                    q.schedule(at(1), kind_for(1, 0));
                    q.schedule(at(t), kind_for(1, 1));
                    assert_eq!(q.pop().map(|e| e.at), Some(at(1)));
                }
            }
            let ctx = format!("{source} at {t}");
            assert!(q.pop_before(at(t - 1)).is_none(), "{ctx}: popped early");
            assert_eq!(q.pop_before(at(t)).map(|e| e.at), Some(at(t)), "{ctx}");
            assert!(q.is_empty(), "{ctx}");
        }
    }
}

/// A lane head inside the span of a wheel slot whose node lies beyond it:
/// finding the head pulls the wheel only up to the head's instant, so a
/// peek leaves the watermark there and an event scheduled at the head's
/// instant is still legal. Pulling the node
/// itself would have moved the horizon, and with it the watermark, past
/// the head.
#[test]
fn peek_at_a_lane_head_does_not_pull_the_wheel_past_it() {
    let at = SimTime::from_nanos;
    let (head, beyond) = (L3_START + 100_000, L3_START + 200_000);
    let stream = on_audited(|q| {
        q.add_lane();
        q.schedule(at(10), kind_for(1, 0));
        q.schedule(at(20), kind_for(1, 1));
        q.schedule(at(beyond), kind_for(1, 2));
        // The second pop leaves the wheel's bound at the level-3 slot's
        // start, below the lane head pushed next.
        let mut out = vec![q.pop().expect("t=10"), q.pop().expect("t=20")];
        q.push_lane(LinkId(0), at(head), at(20), 7, kind_for(0, 3));
        assert_eq!(q.peek_time(), Some(at(head)));
        q.schedule(at(head), kind_for(1, 4));
        out.extend(std::iter::from_fn(|| q.pop()));
        out
    });
    assert_eq!(
        stream,
        [(10, 0), (20, 1), (head, 3), (head, 4), (beyond, 2)]
    );
}

/// A cancelled node alone in its slot is dropped where it lies, never
/// returned, and the horizon it moved is still one a schedule may use.
#[test]
fn cancelled_lone_node_is_dropped_in_place() {
    let at = SimTime::from_nanos;
    let lone = L3_START + 200_000;
    let stream = on_audited(|q| {
        q.schedule(at(1), kind_for(1, 0));
        let victim = q.schedule(at(lone), kind_for(1, 1));
        q.schedule(at(40 * L3_SLOT), kind_for(1, 2));
        let mut out = vec![q.pop().expect("the front event")];
        assert!(q.cancel(victim));
        assert_eq!(q.len(), 1);
        // Reaches the tombstone, drops it, finds nothing else due.
        assert!(q.pop_before(at(lone + 5)).is_none());
        q.schedule(at(lone + 5), kind_for(1, 3));
        out.extend(std::iter::from_fn(|| q.pop()));
        out
    });
    assert_eq!(stream, [(1, 0), (lone + 5, 3), (40 * L3_SLOT, 2)]);
}

/// The handler of a lone node popped in place arms a reserved departure
/// key at that very instant: the horizon stands at the instant (not at the
/// slot start, not past it), so the insert is legal, lands on level 0, and
/// the run's next pop finds it before the later-keyed event there.
#[test]
fn reserved_key_at_the_instant_a_lone_node_was_popped() {
    let at = SimTime::from_nanos;
    let lone = L3_START + 200_000;
    let stream = on_audited(|q| {
        q.schedule(at(1), kind_for(1, 0));
        let key = q.reserve(); // seq 1
        q.schedule(at(lone), kind_for(1, 2));
        q.schedule(at(lone + L3_SLOT), kind_for(1, 3));
        let mut out = vec![q.pop().expect("the front event")];
        let popped = q.pop().expect("the lone node");
        out.push(popped);
        q.schedule(at(lone), kind_for(1, 4));
        q.schedule_reserved(at(lone), key, kind_for(1, 1));
        let head = loop {
            match continue_run(q, &popped) {
                Ok(ev) => out.push(ev),
                Err(head) => break head,
            }
        };
        let left = q.len() + usize::from(head.is_some());
        assert_eq!(left, 1, "the run ends at the instant");
        out.extend(head);
        out.extend(std::iter::from_fn(|| q.pop()));
        out
    });
    let want = [(1, 0), (lone, 2), (lone, 1), (lone, 4), (lone + L3_SLOT, 3)];
    assert_eq!(stream, want);
}

/// Cancelling an id that is not pending — never issued, or already
/// cancelled — is refused without touching the live count: `false`, or
/// on an audited queue a calendar violation. Before, it decremented the count regardless and
/// left a tombstone nothing ever reaches, so every later pop paid a hash
/// probe.
#[test]
fn cancelling_a_dead_id_is_refused() {
    let refused = |q: &mut EventQueue, id| match std::panic::catch_unwind(
        std::panic::AssertUnwindSafe(|| q.cancel(id)),
    ) {
        Ok(cancelled) => !cancelled,
        Err(panic) => panic
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("audit violation [calendar]")),
    };
    let at = SimTime::from_nanos;
    // Ids are insertion sequence numbers: another queue's later ids
    // are ids this queue never issued.
    let mut other = audited();
    let issued: Vec<_> = (0..4)
        .map(|i| other.schedule(at(i), kind_for(1, i)))
        .collect();

    let mut q = audited();
    let front = q.schedule(at(10), kind_for(1, 0));
    let stored = q.schedule(at(20), kind_for(1, 1));
    q.schedule(at(30), kind_for(1, 2));
    assert!(refused(&mut q, issued[3]), "never-issued id");
    assert_eq!(q.len(), 3);

    assert!(q.cancel(stored), "first cancel of a stored event");
    assert!(refused(&mut q, stored), "double cancel");
    assert_eq!(q.len(), 2);

    assert!(q.cancel(front), "cancel of the front-slot event");
    assert_eq!(q.len(), 1);
    let left: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
    assert_eq!(left, [at(30)]);
    assert!(q.is_empty());
}
