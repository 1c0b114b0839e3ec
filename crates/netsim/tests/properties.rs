//! Property-based tests for the simulator's core data structures.

use netsim::arena::{PacketArena, PacketRef};
use netsim::event::{EventKind, EventQueue};
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{Ecn, Packet, Payload, SackBlock, MAX_SACK_BLOCKS};
use netsim::queue::{
    AvqParams, AvqQueue, DropTail, EnqueueOutcome, PiParams, PiQueue, QueueDiscipline, RandomLoss,
    RedParams, RedQueue, RemParams, RemQueue,
};
use netsim::time::{transmission_delay, SimDuration, SimTime};
use proptest::prelude::*;

/// One of each discipline (plus the random-loss wrapper), small buffers
/// and aggressive AQM constants so random streams hit every outcome.
fn all_disciplines(seed: u64) -> Vec<Box<dyn QueueDiscipline>> {
    let mut pi = PiParams::hollot_example(12, 4.0, true, seed);
    pi.a = 0.01;
    pi.b = 0.005;
    vec![
        Box::new(DropTail::new(12)),
        Box::new(RedQueue::new(RedParams {
            capacity_pkts: 12,
            min_th: 2.0,
            max_th: 6.0,
            max_p: 0.5,
            w_q: 0.2,
            gentle: true,
            ecn: true,
            mean_pkt_time: SimDuration::from_micros(10),
            seed,
        })),
        Box::new(PiQueue::new(pi)),
        Box::new(RemQueue::new(RemParams {
            capacity_pkts: 12,
            q_ref: 4.0,
            gamma: 0.05,
            alpha_w: 0.1,
            phi: 1.2,
            update_interval: SimDuration::from_micros(1),
            ecn: true,
            seed,
        })),
        Box::new(AvqQueue::new(AvqParams {
            capacity_pkts: 12,
            virtual_capacity_pkts: 6.0,
            link_pps: 1000.0,
            gamma: 0.98,
            alpha: 0.1,
            ecn: true,
        })),
        Box::new(RandomLoss::new(Box::new(DropTail::new(12)), 0.3, seed)),
    ]
}

fn packet(size: u32, ecn: bool) -> Packet {
    Packet {
        flow: FlowId(0),
        dst_node: NodeId(0),
        dst_agent: AgentId(0),
        size_bytes: size,
        ecn: if ecn { Ecn::Capable } else { Ecn::NotCapable },
        sent_at: SimTime::ZERO,
        payload: Payload::Data {
            seq: 0,
            retransmit: false,
        },
    }
}

proptest! {
    /// Events pop in non-decreasing time order regardless of insertion
    /// order, and simultaneous events pop FIFO.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), EventKind::Control { code: i as u64 });
        }
        let mut last_time = SimTime::ZERO;
        let mut last_code_at_time: Option<u64> = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last_time);
            if ev.at > last_time {
                last_code_at_time = None;
            }
            if let EventKind::Control { code } = ev.kind {
                if let Some(prev) = last_code_at_time {
                    // FIFO among equal timestamps means codes (insertion
                    // order) increase.
                    if ev.at == last_time {
                        prop_assert!(code > prev);
                    }
                }
                last_code_at_time = Some(code);
            }
            last_time = ev.at;
        }
    }

    /// Transmission delay is monotone in size and inverse-monotone in
    /// capacity, and never truncates below the exact value.
    #[test]
    fn transmission_delay_monotone(bits in 1u64..10_000_000, cap in 1u64..10_000_000_000) {
        let d = transmission_delay(bits, cap);
        let exact = bits as f64 * 1e9 / cap as f64;
        prop_assert!(d.as_nanos() as f64 >= exact - 1.0);
        prop_assert!(d.as_nanos() as f64 <= exact + 1.0);
        prop_assert!(transmission_delay(bits + 1, cap) >= d);
        if cap > 1 {
            prop_assert!(transmission_delay(bits, cap - 1) >= d);
        }
    }

    /// The `u64` fast path of `transmission_delay` is the `u128` formula,
    /// bit for bit: packet-sized inputs, arbitrary ones, and both sides
    /// of the `bits * 1e9 > u64::MAX` boundary where it hands over.
    #[test]
    fn transmission_delay_equals_the_u128_form(
        bits in prop_oneof![
            0u64..200_000,
            u64::MAX / 1_000_000_000 - 1_000..u64::MAX / 1_000_000_000 + 1_000,
            any::<u64>(),
        ],
        cap in prop_oneof![1u64..100_000_000_000, 1u64..u64::MAX],
    ) {
        let wide = (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(cap));
        // Beyond u64 nanoseconds both forms refuse; nothing to compare.
        if let Ok(ns) = u64::try_from(wide) {
            prop_assert_eq!(transmission_delay(bits, cap).as_nanos(), ns);
        }
    }

    /// DropTail conserves packets: enqueued = dequeued + resident, and
    /// never exceeds capacity.
    #[test]
    fn droptail_conservation(
        cap in 1usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut arena = PacketArena::new();
        let mut q = DropTail::new(cap);
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_nanos(t);
            if op {
                let r = arena.alloc(packet(100, false));
                if let EnqueueOutcome::Dropped(r, _) = q.enqueue(r, &mut arena, now) {
                    arena.take(r);
                }
            } else if let Some(r) = q.dequeue(&mut arena, now) {
                arena.take(r);
            }
            prop_assert!(q.len() <= cap);
            let s = q.stats();
            prop_assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
        }
    }

    /// RED: same conservation law; ECT packets are never early-dropped
    /// when ECN is on (only overflow can drop them); mark+drop+enqueue
    /// accounts for every offered packet.
    #[test]
    fn red_accounting(
        ops in proptest::collection::vec(any::<bool>(), 1..500),
        seed in any::<u64>(),
    ) {
        let params = RedParams {
            capacity_pkts: 20,
            min_th: 2.0,
            max_th: 6.0,
            max_p: 0.5,
            w_q: 0.2,
            gentle: true,
            ecn: true,
            mean_pkt_time: SimDuration::from_micros(10),
            seed,
        };
        let mut arena = PacketArena::new();
        let mut q = RedQueue::new(params);
        let mut offered = 0u64;
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_nanos(t * 1000);
            if op {
                offered += 1;
                // ECT packets only drop on overflow or beyond the
                // gentle region; both are allowed, but overflow
                // requires a full buffer.
                let r = arena.alloc(packet(100, true));
                if let EnqueueOutcome::Dropped(r, reason) = q.enqueue(r, &mut arena, now) {
                    if reason == netsim::queue::DropReason::Overflow {
                        prop_assert_eq!(q.len(), 20);
                    }
                    arena.take(r);
                }
            } else if let Some(r) = q.dequeue(&mut arena, now) {
                arena.take(r);
            }
            let s = q.stats();
            prop_assert_eq!(s.enqueued + s.dropped, offered);
            prop_assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
            prop_assert!(s.marked <= s.enqueued);
        }
    }

    /// PI probability stays in [0, 1] under arbitrary enqueue/dequeue/tick
    /// interleavings.
    #[test]
    fn pi_probability_bounded(
        ops in proptest::collection::vec(0u8..3, 1..500),
        q_ref in 0.0f64..30.0,
    ) {
        let mut params = PiParams::hollot_example(50, q_ref, false, 1);
        params.a = 0.01;
        params.b = 0.005;
        let mut arena = PacketArena::new();
        let mut q = PiQueue::new(params);
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_nanos(t * 1000);
            match op {
                0 => {
                    let r = arena.alloc(packet(100, false));
                    if let EnqueueOutcome::Dropped(r, _) = q.enqueue(r, &mut arena, now) {
                        arena.take(r);
                    }
                }
                1 => {
                    if let Some(r) = q.dequeue(&mut arena, now) {
                        arena.take(r);
                    }
                }
                _ => q.on_tick(now),
            }
            prop_assert!((0.0..=1.0).contains(&q.probability()));
        }
    }

    /// Queue-occupancy time integral: mean lies between min and max
    /// observed occupancy.
    #[test]
    fn occupancy_mean_within_bounds(
        lens in proptest::collection::vec(0usize..50, 2..100),
    ) {
        let mut stats = netsim::queue::QueueStats::default();
        let mut t = 0u64;
        for &len in &lens {
            t += 17;
            stats.advance(SimTime::from_nanos(t), len);
        }
        let end = SimTime::from_nanos(t);
        let mean = stats.mean_len(SimTime::ZERO, end);
        let hi = *lens.iter().max().unwrap() as f64;
        prop_assert!(mean >= 0.0 && mean <= hi + 1e-9);
    }

    /// Arena generation safety: under arbitrary alloc/free interleavings
    /// (with heavy slot reuse), live refs always resolve to exactly the
    /// packet they were created for, and a stale ref — held across a
    /// free and any number of reuses of its slot — never resolves at all
    /// (release builds return `None`; debug builds panic, covered by
    /// `stale_lookup_never_aliases` below and the arena unit tests).
    #[test]
    fn arena_generations_never_alias(
        ops in proptest::collection::vec(any::<u8>(), 1..400),
    ) {
        let mut arena = PacketArena::new();
        let mut live: Vec<(PacketRef, u64)> = Vec::new();
        let mut stale: Vec<(PacketRef, u64)> = Vec::new();
        let mut tag = 0u64;
        for op in ops {
            if op & 1 == 0 || live.is_empty() {
                // Alloc, tagging the packet with a unique sequence number.
                let mut p = packet(100, false);
                p.payload = Payload::Data { seq: tag, retransmit: false };
                let r = arena.alloc(p);
                live.push((r, tag));
                tag += 1;
            } else {
                // Free a pseudo-random live ref; keep it as a stale probe.
                let victim = (op >> 1) as usize % live.len();
                let (r, t) = live.swap_remove(victim);
                let freed = arena.take(r).expect("live ref failed to resolve");
                prop_assert_eq!(freed.payload, Payload::Data { seq: t, retransmit: false });
                stale.push((r, t));
            }
            prop_assert_eq!(arena.len(), live.len());
            // Every live ref still reads back its own packet — slot reuse
            // never rebinds an existing handle.
            for &(r, t) in &live {
                let p = arena.get(r).expect("live ref failed to resolve");
                prop_assert_eq!(p.payload, Payload::Data { seq: t, retransmit: false });
            }
            // Stale refs must never alias the slot's new occupant. The
            // debug contract (panic) can't be probed in a loop without
            // unwinding; the release contract is `None`.
            if !cfg!(debug_assertions) {
                for &(r, _) in &stale {
                    prop_assert!(arena.get(r).is_none());
                }
            }
        }
    }

    /// The `QueueStats` occupancy integral matches an independently
    /// maintained naive step trace *exactly* (same integer arithmetic)
    /// for every discipline under randomized enqueue/dequeue/tick
    /// interleavings with mixed ECN traffic.
    #[test]
    fn integral_matches_naive_step_trace(
        // Two bits per op: bit 0 = enqueue (vs dequeue), bit 1 = ECT.
        ops in proptest::collection::vec(0u8..4, 1..300),
        seed in any::<u64>(),
    ) {
        for mut q in all_disciplines(seed) {
            let mut arena = PacketArena::new();
            let mut t = 0u64;
            let (mut len, mut last, mut integral) = (0usize, 0u64, 0u128);
            for (i, &op) in ops.iter().enumerate() {
                let (enq, ecn) = (op & 1 != 0, op & 2 != 0);
                t += 1_000;
                // Disciplines advance the accumulators at the op instant
                // with the pre-op length; mirror that before applying.
                integral += (t - last) as u128 * len as u128;
                last = t;
                let now = SimTime::from_nanos(t);
                if enq {
                    let r = arena.alloc(packet(100, ecn));
                    match q.enqueue(r, &mut arena, now) {
                        EnqueueOutcome::Enqueued | EnqueueOutcome::Marked => len += 1,
                        EnqueueOutcome::Dropped(r, _) => {
                            arena.take(r);
                        }
                    }
                } else if let Some(r) = q.dequeue(&mut arena, now) {
                    arena.take(r);
                    len -= 1;
                }
                if i % 7 == 0 {
                    q.on_tick(now); // must never touch the accumulators
                }
                prop_assert_eq!(q.len(), len);
                prop_assert_eq!(q.stats().integral_pkt_ns, integral);
            }
        }
    }
}

/// Randomized stale-lookup sweep that exercises the *debug* half of the
/// generation contract (a stale ref panics rather than aliasing), which
/// the proptest above cannot probe without unwinding on every case. The
/// default panic hook is silenced for the duration so the expected
/// panics don't spam test output.
#[test]
// The `cfg!(debug_assertions)` assertions are the point: each build mode
// must take exactly one of the two stale-ref behaviors.
#[allow(clippy::assertions_on_constants)]
fn stale_lookup_never_aliases() {
    let mut x = 0x243f_6a88_85a3_08d3u64; // deterministic xorshift
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(move || {
        let mut arena = PacketArena::new();
        let mut live: Vec<PacketRef> = Vec::new();
        for _ in 0..2_000 {
            if rnd() % 2 == 0 || live.is_empty() {
                live.push(arena.alloc(packet(100, false)));
            } else {
                let r = live.swap_remove(rnd() as usize % live.len());
                arena.take(r).expect("live ref failed to resolve");
                // Force reuse of the freed slot, then probe the stale ref.
                let reused = arena.alloc(packet(200, true));
                assert_eq!(reused.index(), r.index(), "free list must be LIFO");
                live.push(reused);
                let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    arena.get(r).map(|p| p.size_bytes)
                }));
                match probe {
                    Ok(Some(_)) => panic!("ALIAS: stale ref resolved to the slot's new occupant"),
                    Ok(None) => assert!(
                        !cfg!(debug_assertions),
                        "debug builds must panic on stale refs, not return None"
                    ),
                    Err(_) => assert!(
                        cfg!(debug_assertions),
                        "release builds must return None on stale refs, not panic"
                    ),
                }
            }
        }
    });
    std::panic::set_hook(hook);
    if let Err(e) = outcome {
        std::panic::resume_unwind(e);
    }
}

/// The definition `Packet::order_tie` must reproduce: FNV-1a one byte at
/// a time over the eight little-endian bytes of each field word.
fn fnv1a_bytes(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h | 1
}

/// The words `Packet::order_tie` hashes, in order (`dst_agent` excluded).
fn tie_words(p: &Packet) -> Vec<u64> {
    let mut w = vec![
        p.flow.0 as u64,
        p.dst_node.0 as u64,
        u64::from(p.size_bytes),
        match p.ecn {
            Ecn::NotCapable => 0,
            Ecn::Capable => 1,
            Ecn::CongestionExperienced => 2,
        },
        p.sent_at.as_nanos(),
    ];
    match p.payload {
        Payload::Data { seq, retransmit } => w.extend([3, seq, u64::from(retransmit)]),
        Payload::Ack {
            cum_ack,
            sack,
            ts_echo,
            owd_echo,
            ece,
        } => {
            w.extend([4, cum_ack]);
            for b in sack {
                match b {
                    Some(b) => w.extend([b.start, b.end]),
                    None => w.push(u64::MAX),
                }
            }
            w.extend([ts_echo.as_nanos(), owd_echo.as_nanos(), u64::from(ece)]);
        }
    }
    w
}

/// Words that walk every significant-byte count: 0, `u64::MAX`, single
/// bits and arbitrary values at every right shift, and arbitrary words.
fn word() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (0u32..64).prop_map(|s| 1u64 << s),
        (any::<u64>(), 0u32..64).prop_map(|(w, s)| w >> s),
        any::<u64>(),
    ]
    .boxed()
}

/// A packet built from eleven words and a byte of choices: payload kind,
/// ECN codepoint, retransmit/ECE, and which SACK blocks are present.
fn packet_from(w: &[u64], choice: u8) -> Packet {
    let sack = |i: usize| {
        (choice >> (4 + i) & 1 == 1).then_some(SackBlock {
            start: w[5 + 2 * i],
            end: w[6 + 2 * i],
        })
    };
    let sack: [Option<SackBlock>; MAX_SACK_BLOCKS] = [sack(0), sack(1), sack(2)];
    Packet {
        flow: FlowId(w[0] as usize),
        dst_node: NodeId(w[1] as usize),
        dst_agent: AgentId(w[2] as usize),
        size_bytes: w[3] as u32,
        ecn: [Ecn::NotCapable, Ecn::Capable, Ecn::CongestionExperienced]
            [usize::from(choice >> 1 & 3) % 3],
        sent_at: SimTime::from_nanos(w[4]),
        payload: if choice & 1 == 0 {
            Payload::Data {
                seq: w[5],
                retransmit: choice & 8 != 0,
            }
        } else {
            Payload::Ack {
                cum_ack: w[0] ^ w[10],
                sack,
                ts_echo: SimTime::from_nanos(w[10]),
                owd_echo: SimDuration::from_nanos(w[9]),
                ece: choice & 8 != 0,
            }
        },
    }
}

/// Field-wise packet equality (`Packet` has no `PartialEq`).
fn same_packet(a: &Packet, b: &Packet) -> bool {
    a.flow == b.flow
        && a.dst_node == b.dst_node
        && a.dst_agent == b.dst_agent
        && a.size_bytes == b.size_bytes
        && a.ecn == b.ecn
        && a.sent_at == b.sent_at
        && a.payload == b.payload
}

/// True if `f` panics.
fn panics<R>(f: impl FnOnce() -> R) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

proptest! {
    /// The zero-skipping hash loop returns the byte-at-a-time FNV-1a value
    /// for arbitrary ids, sizes, ECN codepoints and send times, both
    /// payloads, SACK blocks present and absent, and words of every
    /// significant-byte count including 0 and `u64::MAX`.
    #[test]
    fn order_tie_matches_the_byte_loop(
        w in proptest::collection::vec(word(), 11),
        choice in any::<u8>(),
    ) {
        let p = packet_from(&w, choice);
        prop_assert_eq!(p.order_tie(), fnv1a_bytes(&tie_words(&p)));
    }

    /// The arena against a `Vec<Option<Packet>>` model under arbitrary
    /// `alloc`/`alloc_with_tie`/`take`/`mark_ce`/`order_tie` sequences:
    /// the head accessors agree with the body, freed slots come back
    /// LIFO at the next generation, `len`/`slot_count` and the hash count
    /// are exact, a CE mark clears the tie memo, and a stale ref panics
    /// through every head accessor in every build.
    #[test]
    fn arena_matches_a_slot_model(
        ops in proptest::collection::vec((0u8..6, any::<u16>(), word(), any::<u8>()), 1..120),
    ) {
        let mut arena = PacketArena::new();
        // Per slot: the occupant, its generation, whether its tie is known.
        let mut model: Vec<(Option<Packet>, u32, bool)> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut live: Vec<PacketRef> = Vec::new();
        let mut stale: Vec<PacketRef> = Vec::new();
        let mut hashes = 0u64;
        for (kind, pick, w, choice) in ops {
            let pick = usize::from(pick);
            match kind {
                0 | 1 => {
                    let mut words: Vec<u64> = (0..11).map(|i| w.rotate_left(7 * i)).collect();
                    words[1] &= u64::from(u32::MAX); // node ids fit the head's u32
                    let p = packet_from(&words, choice);
                    let r = if kind == 0 {
                        arena.alloc(p)
                    } else {
                        arena.alloc_with_tie(p, p.order_tie())
                    };
                    let idx = match free.pop() {
                        Some(idx) => idx,
                        None => {
                            model.push((None, 0, false));
                            (model.len() - 1) as u32
                        }
                    };
                    prop_assert_eq!(r.index(), idx, "slots are reused LIFO");
                    let slot = &mut model[idx as usize];
                    prop_assert_eq!(r.generation(), slot.1);
                    *slot = (Some(p), slot.1, kind == 1);
                    live.push(r);
                }
                2 if !live.is_empty() => {
                    let r = live.swap_remove(pick % live.len());
                    let slot = &mut model[r.index() as usize];
                    let got = arena.take(r).expect("live ref failed to resolve");
                    prop_assert!(same_packet(&got, &slot.0.take().unwrap()));
                    slot.1 = slot.1.wrapping_add(1);
                    free.push(r.index());
                    stale.push(r);
                }
                3 if !live.is_empty() => {
                    let r = live[pick % live.len()];
                    arena.mark_ce(r);
                    let slot = &mut model[r.index() as usize];
                    slot.0.as_mut().unwrap().ecn = Ecn::CongestionExperienced;
                    slot.2 = false;
                }
                4 if !live.is_empty() => {
                    let r = live[pick % live.len()];
                    let slot = &mut model[r.index() as usize];
                    hashes += u64::from(!slot.2);
                    slot.2 = true;
                    prop_assert_eq!(arena.order_tie(r), slot.0.unwrap().order_tie());
                }
                5 if !stale.is_empty() => {
                    let r = stale[pick % stale.len()];
                    prop_assert!(panics(|| arena.dst_node(r)));
                    prop_assert!(panics(|| arena.size_bytes(r)));
                    prop_assert!(panics(|| arena.is_data(r)));
                    prop_assert!(panics(|| arena.order_tie(r)));
                    prop_assert!(panics(|| arena.mark_ce(r)));
                    prop_assert!(panics(|| arena[r].size_bytes));
                }
                _ => {}
            }
            prop_assert_eq!(arena.len(), live.len());
            prop_assert_eq!(arena.slot_count(), model.len());
            prop_assert_eq!(arena.tie_hashes(), hashes);
            for &r in &live {
                let p = model[r.index() as usize].0.as_ref().unwrap();
                prop_assert!(same_packet(&arena[r], p));
                prop_assert_eq!(arena.dst_node(r), p.dst_node);
                prop_assert_eq!(arena.size_bytes(r), p.size_bytes);
                prop_assert_eq!(arena.is_data(r), p.is_data());
            }
        }
    }
}

mod audit_props {
    use super::*;
    use netsim::audit::{AuditCtx, EnqueueKind, QueueLedger, QueueOp};
    use netsim::ids::LinkId;
    use netsim::queue::DropReason;

    proptest! {
        /// Every discipline conserves packets: replaying the observed
        /// operation stream through the audit ledger (which verifies
        /// `enqueued = dequeued + dropped + resident`, byte totals, and
        /// the full `QueueStats` mirror after every op) never trips a
        /// violation, for random packet streams including ECN mixes.
        #[test]
        fn disciplines_conserve_packets_via_audit_ledger(
            // Two bits per op: bit 0 = enqueue (vs dequeue), bit 1 = ECT.
            ops in proptest::collection::vec(0u8..4, 1..300),
            seed in any::<u64>(),
        ) {
            for mut q in all_disciplines(seed) {
                let mut arena = PacketArena::new();
                let mut ledger = QueueLedger::new(q.as_ref());
                let mut t = 0u64;
                for (i, &op) in ops.iter().enumerate() {
                    let (enq, ecn) = (op & 1 != 0, op & 2 != 0);
                    t += 1_000;
                    let now = SimTime::from_nanos(t);
                    let ctx = AuditCtx { seed, event_index: i as u64, now };
                    let op = if enq {
                        let r = arena.alloc(packet(100, ecn));
                        let kind = match q.enqueue(r, &mut arena, now) {
                            EnqueueOutcome::Enqueued => EnqueueKind::Stored,
                            EnqueueOutcome::Marked => EnqueueKind::Marked,
                            EnqueueOutcome::Dropped(r, reason) => {
                                arena.take(r);
                                match reason {
                                    DropReason::Overflow => EnqueueKind::DroppedOverflow,
                                    DropReason::Early => EnqueueKind::DroppedEarly,
                                }
                            }
                        };
                        QueueOp::Enqueue { kind, size_bytes: 100 }
                    } else {
                        QueueOp::Dequeue {
                            popped: q
                                .dequeue(&mut arena, now)
                                .map(|r| arena.take(r).unwrap().size_bytes),
                        }
                    };
                    ledger.apply(&op, now);
                    // Panics with a seed/event/state dump on divergence.
                    ledger.verify(LinkId(0), q.as_ref(), &ctx);
                }
            }
        }
    }
}
