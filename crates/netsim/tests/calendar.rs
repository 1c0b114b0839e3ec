//! Calendar-equivalence property tests: the timing wheel and the binary
//! heap must emit byte-identical `(time, sched, tie, seq, kind)` pop
//! streams for any legal schedule, including simultaneous events,
//! `SimTime::MAX` idle sentinels, cancellations, events scheduled while a
//! pop loop is in flight, keys reserved early and scheduled late (or
//! never), every way the wheel's pooled nodes are freed and reused, and
//! the sparse calendars of small simulations, where an event sits alone in
//! its slot and the wheel pops it in place instead of cascading it down,
//! and per-link arrival lanes merged with all of the above (the heap takes
//! a lane push as a plain insert).

use std::collections::{BTreeMap, VecDeque};

use netsim::event::{CalendarKind, Event, EventKind, EventQueue};
use netsim::ids::{AgentId, LinkId};
use netsim::time::SimTime;
use netsim::TimerToken;
use proptest::prelude::*;

/// Stable discriminant for comparing event kinds across the two backends.
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

/// Drive a wheel-backed and a heap-backed queue through the same operation
/// stream and require identical observable behaviour at every step.
///
/// Ops are `(selector, a, b)` triples decoded below. The interpreter keeps
/// its own watermark mirror so every schedule lands at or after the last
/// pop (the queue's causality contract), and tracks pending ids so it only
/// cancels events that have not fired. Both queues register `lanes`
/// arrival lanes; the interpreter pushes each lane's events at strictly
/// increasing times, as a link's serialization does.
fn drive(ops: &[(u8, u64, u64)], lanes: usize) {
    let mut wheel = EventQueue::with_calendar(CalendarKind::Wheel);
    let mut heap = EventQueue::with_calendar(CalendarKind::Heap);
    for _ in 0..lanes {
        wheel.add_lane();
        heap.add_lane();
    }
    let mut now = SimTime::ZERO;
    // insertion index -> (wheel id, heap id), removed on pop/cancel.
    let mut pending = BTreeMap::new();
    // Mirrors both queues' next sequence number (schedules and reserves).
    let mut scheduled: u64 = 0;
    // Keys reserved on (wheel, heap) and not yet scheduled.
    let mut reserved = Vec::new();
    // Per lane: the last time pushed, and the `(seq, time)` of its events
    // not yet popped, in push (= pop) order.
    let mut lane_last = vec![None::<SimTime>; lanes];
    let mut lane_pending: Vec<VecDeque<(u64, SimTime)>> = vec![VecDeque::new(); lanes];

    let schedule = |wheel: &mut EventQueue,
                    heap: &mut EventQueue,
                    pending: &mut BTreeMap<u64, _>,
                    scheduled: &mut u64,
                    at: SimTime,
                    tag: u64| {
        let kind = |code| kind_for(tag, code);
        let wid = wheel.schedule(at, kind(*scheduled));
        let hid = heap.schedule(at, kind(*scheduled));
        pending.insert(*scheduled, (wid, hid));
        *scheduled += 1;
    };

    let compare_pop = |a: Option<Event>,
                       b: Option<Event>,
                       pending: &mut BTreeMap<u64, _>,
                       lane_pending: &mut Vec<VecDeque<(u64, SimTime)>>,
                       now: &mut SimTime|
     -> Option<SimTime> {
        match (a, b) {
            (None, None) => None,
            (Some(x), Some(y)) => {
                prop_assert_eq!(
                    (x.at, x.sched, x.tie, x.seq(), disc(&x.kind)),
                    (y.at, y.sched, y.tie, y.seq(), disc(&y.kind)),
                    "wheel and heap popped different events"
                );
                pending.remove(&x.seq());
                for lane in lane_pending.iter_mut() {
                    if lane.front().is_some_and(|&(seq, _)| seq == x.seq()) {
                        lane.pop_front();
                    }
                }
                *now = x.at;
                Some(x.at)
            }
            (x, y) => panic!("pop divergence: wheel {x:?} vs heap {y:?}"),
        }
    };

    for &(sel, a, b) in ops {
        match sel % 20 {
            // Spread-out schedule: anywhere in the next millisecond.
            0 | 1 => {
                let at = after(now, a % 1_000_000);
                schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
            }
            // Collision-heavy schedule: at most 4 ns ahead, forcing
            // simultaneous events that exercise the FIFO tiebreak.
            2 => {
                let at = after(now, a % 4);
                schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
            }
            // Idle sentinel at the end of time.
            3 => {
                let at = SimTime::MAX;
                schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
            }
            // Cancel a still-pending event (both queues).
            4 => {
                if !pending.is_empty() {
                    let idx = b as usize % pending.len();
                    let (&key, &(wid, hid)) = pending.iter().nth(idx).unwrap();
                    wheel.cancel(wid);
                    heap.cancel(hid);
                    pending.remove(&key);
                }
            }
            // Single pop.
            5 => {
                let (x, y) = (wheel.pop(), heap.pop());
                compare_pop(x, y, &mut pending, &mut lane_pending, &mut now);
            }
            // Bounded pop_before drain, optionally scheduling new events
            // mid-drain (the schedule-during-pop interleaving).
            6 => {
                let until = after(now, a % 100_000);
                let mut budget = 8u32;
                loop {
                    let (x, y) = (wheel.pop_before(until), heap.pop_before(until));
                    let Some(at) = compare_pop(x, y, &mut pending, &mut lane_pending, &mut now)
                    else {
                        break;
                    };
                    if b % 3 == 0 && budget > 0 {
                        budget -= 1;
                        let again = after(at, 1 + b % 50);
                        schedule(
                            &mut wheel,
                            &mut heap,
                            &mut pending,
                            &mut scheduled,
                            again,
                            b,
                        );
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                now = now.max(until);
            }
            // Drain to exhaustion: every live node returns to the pool (a
            // pending tombstone keeps its own until reached), and the ops
            // that follow refill from the free list.
            7 => loop {
                let (x, y) = (wheel.pop(), heap.pop());
                if compare_pop(x, y, &mut pending, &mut lane_pending, &mut now).is_none() {
                    break;
                }
            },
            // Demotion into a non-empty level-0 list: two events a few ns
            // out share a 1 ns slot, the first of them usually in the
            // front slot; a third just ahead of them takes the front and
            // pushes its occupant back into the wheel, where it must sort
            // ahead of its later-scheduled twin.
            8 => {
                let twin = after(now, 2 + a % 3);
                for at in [twin, twin, after(now, 1)] {
                    schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
                }
            }
            // Reserve the key a schedule would take here, on both queues.
            10 => {
                let (w, h) = (wheel.reserve(), heap.reserve());
                prop_assert_eq!(w.tie_key(), h.tie_key());
                reserved.push((w, h));
                scheduled += 1;
            }
            // Schedule under a reserved key, at the current instant
            // (`a % 3 == 0`: it may sort before events already pending
            // there) or just after it.
            11 => {
                if !reserved.is_empty() {
                    let (w, h) = reserved.swap_remove(b as usize % reserved.len());
                    let at = after(now, a % 3);
                    wheel.schedule_reserved(at, w, kind_for(b, w.tie_key().2));
                    heap.schedule_reserved(at, h, kind_for(b, h.tie_key().2));
                }
            }
            // Sparse schedule: far apart and few, so most events are alone
            // in a wheel slot above level 0 (a pop when enough are pending).
            12 => {
                if pending.len() < SPARSE_PENDING {
                    let at = after(now, sparse_offset(a));
                    schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
                } else {
                    let (x, y) = (wheel.pop(), heap.pop());
                    compare_pop(x, y, &mut pending, &mut lane_pending, &mut now);
                }
            }
            // Sparse bounded drain: the horizon stops wherever `until`
            // falls — short of a lone node's slot, at its start, inside it
            // below or above the node — and later schedules land around it.
            13 => {
                let until = after(now, sparse_offset(a));
                let mut budget = 4u32;
                loop {
                    let (x, y) = (wheel.pop_before(until), heap.pop_before(until));
                    let Some(at) = compare_pop(x, y, &mut pending, &mut lane_pending, &mut now)
                    else {
                        break;
                    };
                    if b % 3 == 0 && budget > 0 && pending.len() < SPARSE_PENDING {
                        budget -= 1;
                        let again = after(at, sparse_offset(b >> 2));
                        schedule(
                            &mut wheel,
                            &mut heap,
                            &mut pending,
                            &mut scheduled,
                            again,
                            b,
                        );
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                now = now.max(until);
            }
            // Lane push: an arrival 5–100 ms out (it would cascade three or
            // four wheel levels), one up to 1 µs out, or one a few ns out
            // (same-instant ties with the front slot and level 0), after
            // the lane's previous push. 15: an injection, emitted on
            // another shard before this queue's watermark.
            // (A lane whose last push reached the end of time takes no more.)
            14 | 15 if lanes > 0 && lane_last[b as usize % lanes] != Some(SimTime::MAX) => {
                let lane = b as usize % lanes;
                let x = a >> 2;
                let off = match a % 4 {
                    0 => x % 4,
                    1 => x % 1_000,
                    _ => 5_000_000 + x % 95_000_000,
                };
                let floor = lane_last[lane].map_or(now, |t| now.max(after(t, 1)));
                let at = after(floor, off);
                let sched = if sel % 20 == 15 {
                    SimTime::from_nanos(x % now.as_nanos().saturating_add(1))
                } else {
                    now
                };
                let tie = (b >> 8) % 3;
                for q in [&mut wheel, &mut heap] {
                    q.push_lane(LinkId(lane), at, sched, tie, kind_for(b >> 16, scheduled));
                }
                lane_last[lane] = Some(at);
                lane_pending[lane].push_back((scheduled, at));
                scheduled += 1;
            }
            // At a lane head's instant: a plain event (it lands in the front
            // slot or at level 0 beside the head), or a reserved departure
            // whose older key sorts before it.
            16 if lanes > 0 => {
                if let Some(&(_, at)) = lane_pending[b as usize % lanes].front() {
                    if a % 2 == 0 || reserved.is_empty() {
                        schedule(&mut wheel, &mut heap, &mut pending, &mut scheduled, at, b);
                    } else {
                        let (w, h) = reserved.swap_remove(b as usize % reserved.len());
                        let kind = EventKind::Departure { link: LinkId(0) };
                        wheel.schedule_reserved(at, w, kind);
                        heap.schedule_reserved(at, h, kind);
                    }
                }
            }
            // One dispatch run as the simulator's loop takes it: pops due
            // by a horizon while they continue the first one's run (same
            // instant, same class). The first pop that does not is handed
            // on as the next run's head, already compared.
            17 => {
                let until = after(now, a % 10_000_000);
                let mut run = None;
                loop {
                    let (x, y) = (wheel.pop_before(until), heap.pop_before(until));
                    let key = x.map(|e| (e.at, e.kind.class()));
                    if compare_pop(x, y, &mut pending, &mut lane_pending, &mut now).is_none() {
                        now = now.max(until);
                        break;
                    }
                    if *run.get_or_insert(key) != key {
                        break;
                    }
                }
            }
            // Take every pending event out in pop order and put it back:
            // the shard split's drain and its rollback. Lane events return
            // to the wheel, not to their lanes.
            18 => {
                let (dw, dh) = (wheel.drain_all(), heap.drain_all());
                let key = |e: &Event| (e.at, e.sched, e.tie, e.seq(), disc(&e.kind));
                prop_assert_eq!(
                    dw.iter().map(key).collect::<Vec<_>>(),
                    dh.iter().map(key).collect::<Vec<_>>(),
                    "drained streams differ"
                );
                prop_assert!(wheel.is_empty() && heap.is_empty());
                for (x, y) in dw.into_iter().zip(dh) {
                    wheel.adopt(x);
                    heap.adopt(y);
                }
            }
            // Every lane's head at one instant: the dumbbell's equal-rate,
            // equal-delay host links fed at once. Past 32 lanes, equal-time
            // heads are ordered by their full key at heap depth 5 and more;
            // small ties leave many of those keys to the sequence number.
            19 if lanes > 0 => {
                let floor = lane_last
                    .iter()
                    .flatten()
                    .fold(now, |f, &t| f.max(after(t, 1)));
                if floor < SimTime::MAX {
                    let at = after(floor, a % 1_000);
                    for lane in 0..lanes {
                        let tie = (b >> (lane % 60)) % 3;
                        for q in [&mut wheel, &mut heap] {
                            q.push_lane(LinkId(lane), at, now, tie, kind_for(b >> 16, scheduled));
                        }
                        lane_last[lane] = Some(at);
                        lane_pending[lane].push_back((scheduled, at));
                        scheduled += 1;
                    }
                }
            }
            // Peek must agree and may advance the causality watermark.
            _ => {
                let (tw, th) = (wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(tw, th, "peek_time diverged");
                if let Some(t) = tw {
                    now = now.max(t);
                }
            }
        }
        prop_assert_eq!(wheel.len(), heap.len(), "live counts diverged");
        prop_assert_eq!(wheel.is_empty(), heap.is_empty());
    }

    // Drain to exhaustion: the tails must match event for event.
    loop {
        let (x, y) = (wheel.pop(), heap.pop());
        if compare_pop(x, y, &mut pending, &mut lane_pending, &mut now).is_none() {
            break;
        }
    }
    prop_assert!(wheel.is_empty() && heap.is_empty());
}

proptest! {
    /// Randomized op streams: wheel and heap pop identical
    /// `(time, seq, kind)` sequences under schedules, collisions,
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
/// already pending at that instant, on both backends, whether the next of
/// them waits in the front slot or in the backend. That is why a dispatch
/// run is extended one pop at a time (`continue_run`), after each
/// handler, and never popped ahead.
#[test]
fn reserved_key_at_the_current_instant_precedes_later_keys() {
    let at = SimTime::from_nanos;
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        for peek_first in [false, true] {
            let mut q = EventQueue::with_calendar(kind);
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
            assert_eq!(order, want, "{kind:?}, peeked: {peek_first}");
        }
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

/// Run `script` on a wheel and on a heap queue; both must pop the same
/// `(at, sched, tie, seq)` stream, which is returned.
fn on_both(script: impl Fn(&mut EventQueue) -> Vec<Event>) -> Vec<(u64, u64)> {
    let key = |e: &Event| (e.at, e.sched, e.tie, e.seq());
    let [wheel, heap] = [CalendarKind::Wheel, CalendarKind::Heap]
        .map(|kind| script(&mut EventQueue::with_calendar(kind)));
    assert_eq!(
        wheel.iter().map(key).collect::<Vec<_>>(),
        heap.iter().map(key).collect::<Vec<_>>(),
        "wheel and heap streams differ"
    );
    wheel.iter().map(|e| (e.at.as_nanos(), e.seq())).collect()
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
        let stream = on_both(|q| {
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

/// A lane head inside the span of a wheel slot whose node lies beyond it:
/// finding the head pulls the wheel only up to the head's instant, so a
/// peek leaves the watermark there and an event scheduled at the head's
/// instant is still legal — on the wheel as on the heap. Pulling the node
/// itself would have moved the horizon, and with it the watermark, past
/// the head.
#[test]
fn peek_at_a_lane_head_does_not_pull_the_wheel_past_it() {
    let at = SimTime::from_nanos;
    let (head, beyond) = (L3_START + 100_000, L3_START + 200_000);
    let stream = on_both(|q| {
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
    let stream = on_both(|q| {
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
    let stream = on_both(|q| {
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
/// under the audit flag (wheel queues then carry the shadow oracle) a
/// calendar violation. Before, it decremented the count regardless and
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
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        let at = SimTime::from_nanos;
        // Ids are insertion sequence numbers: another queue's later ids
        // are ids this queue never issued.
        let mut other = EventQueue::with_calendar(kind);
        let issued: Vec<_> = (0..4)
            .map(|i| other.schedule(at(i), kind_for(1, i)))
            .collect();

        let mut q = EventQueue::with_calendar(kind);
        let front = q.schedule(at(10), kind_for(1, 0));
        let stored = q.schedule(at(20), kind_for(1, 1));
        q.schedule(at(30), kind_for(1, 2));
        assert!(refused(&mut q, issued[3]), "{kind:?}: never-issued id");
        assert_eq!(q.len(), 3);

        assert!(q.cancel(stored), "{kind:?}: first cancel of a stored event");
        assert!(refused(&mut q, stored), "{kind:?}: double cancel");
        assert_eq!(q.len(), 2);

        assert!(q.cancel(front), "{kind:?}: cancel of the front-slot event");
        assert_eq!(q.len(), 1);
        let left: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(left, [at(30)], "{kind:?}");
        assert!(q.is_empty());
    }
}
