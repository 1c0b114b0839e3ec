//! Space-parallel sharded simulation with deterministic barrier epochs.
//!
//! The node graph is cut into N partitions along links whose propagation
//! delay is positive; each partition's [`Simulator`] runs on its own
//! thread up to a shared barrier instant, then the shards exchange the
//! packets that crossed a cut link and advance to the next epoch. The
//! epoch width is the **lookahead window** W = the minimum delay over
//! the actually-cut links: a packet emitted anywhere inside an epoch
//! cannot arrive on another shard before the *next* epoch begins, so
//! each shard can run a full epoch without consulting its peers — the
//! classic conservative (Chandy–Misra style) synchronization argument,
//! applied at link granularity.
//!
//! # Determinism contract
//!
//! Reports must be byte-identical at any `--shards N` (pinned by
//! `crates/experiments/tests/shard_equivalence.rs`). The moving parts:
//!
//! * Events migrate to shards in drained `(time, sched, tie, seq)`
//!   order with their original schedule times and content ties
//!   preserved, so same-instant tie order survives the split.
//! * The calendar orders same-instant events by their **schedule time**
//!   before the insertion sequence (see [`crate::event`]) — a no-op for
//!   any single queue, but decisive here: a cross-shard packet is
//!   injected after the barrier, long after the destination scheduled
//!   its own same-instant events, yet it carries its true emission time
//!   ([`WirePacket::sched`]) and therefore wins or loses the tie exactly
//!   as the monolithic run's global insertion order would have decided.
//!   This matters constantly in practice: at a saturated bottleneck the
//!   whole system is ACK-clocked onto the serialization lattice, and a
//!   cut-link arrival ties with the bottleneck's departure at the same
//!   nanosecond every few epochs.
//! * Two arrivals emitted at the *same nanosecond* on *different*
//!   shards have no emission-time order, so arrivals carry a third key:
//!   a **content tie** ([`crate::packet::Packet::order_tie`], a hash of
//!   the packet itself), memoised in the arena the packet lives in and
//!   carried across a cut as [`WirePacket::tie`], so the monolithic
//!   scheduler and the shard injector use one value hashed once.
//!   Symmetric topologies hit this constantly (mirror-image ACKs clocked
//!   by the same bottleneck tick); content is the only key the two modes
//!   can agree on without a global sequence. Arrivals that tie on content
//!   too are identical packets, for which either processing order is
//!   observably the same.
//! * Cross-shard packets are injected at every barrier source shard by
//!   source shard, each source's in emission order, regardless of which
//!   thread finished first. No sort is needed: a cut link's arrivals all
//!   come from one source in emission order, which is its lane's key
//!   order; the calendar's full key orders arrivals across lanes whatever
//!   order they were inserted in; and the one thing insertion order
//!   still fixes, the sequence number, breaks ties only between
//!   identical packets.
//! * Epochs are half-open: each epoch runs to one nanosecond *before*
//!   its barrier instant, so an arrival landing exactly on a barrier is
//!   injected before any local event at that instant fires. The final
//!   epoch closes at `until`, matching the monolithic inclusive run.
//! * Simulation state and telemetry never touch wall-clock or thread
//!   identity: every per-shard record is an exact count keyed by shard
//!   id and stamped with a barrier instant, so attached runs are
//!   byte-identical too. Only [`ShardedSim::per_shard_cpu_ns`] reads
//!   the host, and nothing it returns reaches a report or a trace.
//!
//! # What can be sharded
//!
//! A split is refused (and the caller falls back to one shard) when the
//! simulator holds probes, a shared agent that is not
//! [`Agent::shard_splittable`](crate::sim::Agent::shard_splittable), or
//! when the topology has no positive-delay links to cut.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::ids::LinkId;
use crate::packet::Packet;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

/// A packet crossing a shard boundary: everything the destination shard
/// needs to re-intern it and schedule its arrival. Compact and `Copy` —
/// barrier exchanges move flat buffers of these, never boxed state.
#[derive(Clone, Copy, Debug)]
pub struct WirePacket {
    /// Absolute arrival instant at `link`'s far end: emission time plus
    /// serialization plus the cut link's propagation delay (always at or
    /// beyond the next barrier).
    pub at: SimTime,
    /// Emission time on the source shard (when the monolithic run would
    /// have scheduled this arrival): the tiebreak that orders the
    /// injected arrival against same-instant events on the destination
    /// shard exactly as the monolithic insertion order would.
    pub sched: SimTime,
    /// The cut link the packet crossed: its far end, owned by the
    /// destination shard, is where it arrives, and its arrival lane is
    /// where it waits there.
    pub link: LinkId,
    /// `pkt.order_tie()`, taken from the source arena's memo: the
    /// destination's calendar key uses it as is, and it seeds the
    /// destination arena's memo, so crossing a cut hashes nothing.
    pub tie: u64,
    /// The packet body, moved out of the source shard's arena.
    pub pkt: Packet,
}

/// A node partition produced by [`partition`].
#[derive(Clone, Debug)]
pub struct Partition {
    /// Owning shard of every node, indexed by [`NodeId`](crate::ids::NodeId).
    pub shard_of_node: Vec<usize>,
    /// Number of shards actually produced (≤ the requested count — the
    /// topology may not separate further).
    pub shards: usize,
    /// The lookahead window: minimum propagation delay over cut links
    /// ([`SimDuration`] of `u64::MAX` nanoseconds when no link is cut —
    /// the groups never exchange packets).
    pub lookahead: SimDuration,
}

/// Cut the topology into up to `want` node groups, weighing each node by
/// the events the simulator has attributed to it so far
/// ([`Simulator::node_event_profile`]); see [`partition_with`] for the
/// algorithm. A simulator that has run no event is sliced by node count;
/// one split after a warm-up is sliced by the load the warm-up saw.
pub fn partition(sim: &Simulator, want: usize) -> Result<Partition, String> {
    partition_with(sim, want, Some(sim.node_event_profile()))
}

/// Cut the topology into up to `want` node groups, cutting only links
/// with positive propagation delay, and maximize the lookahead window.
///
/// Distinct positive delays are tried as a threshold θ in *descending*
/// order: all links with delay < θ are contracted (zero-delay links
/// always are), and the first θ whose contraction leaves at least
/// `want` connected components wins — every cut link then has delay
/// ≥ θ, so the window is as wide as the request allows. When no
/// threshold reaches `want` components, the most fragmenting θ is used
/// and the shard count clamps to its component count.
///
/// Components are then sliced contiguously into groups of balanced
/// **effective weight**, where a node weighs its observed event count
/// (`weights[node id]`, missing entries read as zero) plus one — the
/// `+1` floor keeps all-zero or absent weights equivalent to balanced
/// node count, and keeps every node countable so the cover stays total.
/// The slicing *order* uses only stable keys — total effective weight,
/// node count, then the sorted multiset of per-node
/// `(effective weight, degree)` keys, all descending — so permuting the
/// creation order of equal-weight nodes cannot reshuffle which group a
/// heavy or well-connected component lands in; the minimum node id is
/// only the final, totalizing tiebreak. Deterministic, topology-only,
/// no RNG, no floating point (weight accumulators are `u128`, so even
/// `u64::MAX` per-node weights cannot overflow).
pub fn partition_with(
    sim: &Simulator,
    want: usize,
    weights: Option<&[u64]>,
) -> Result<Partition, String> {
    let nodes = sim.num_nodes();
    if want < 2 {
        return Err("need at least two shards to split".into());
    }
    if nodes < want {
        return Err(format!("{nodes} nodes cannot fill {want} shards"));
    }
    let links: Vec<(usize, usize, SimDuration)> = (0..sim.num_links())
        .map(|i| {
            let l = sim.link(LinkId(i));
            (l.from.index(), l.to.index(), l.delay)
        })
        .collect();
    let mut thresholds: Vec<SimDuration> = links
        .iter()
        .map(|&(_, _, d)| d)
        .filter(|d| !d.is_zero())
        .collect();
    thresholds.sort_unstable();
    thresholds.dedup();
    thresholds.reverse();
    if thresholds.is_empty() {
        return Err("no positive-delay links: nothing can be cut".into());
    }

    // Union-find contraction at threshold θ; returns each node's root.
    let components_at = |theta: SimDuration| -> Vec<usize> {
        let mut parent: Vec<usize> = (0..nodes).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(from, to, delay) in &links {
            if delay < theta {
                let (a, b) = (find(&mut parent, from), find(&mut parent, to));
                if a != b {
                    // Union by smaller root id keeps roots canonical.
                    let (lo, hi) = (a.min(b), a.max(b));
                    parent[hi] = lo;
                }
            }
        }
        (0..nodes).map(|x| find(&mut parent, x)).collect()
    };
    let count = |roots: &[usize]| roots.iter().enumerate().filter(|&(i, &r)| i == r).count();

    let mut best: Option<(Vec<usize>, usize)> = None;
    let mut chosen: Option<Vec<usize>> = None;
    for &theta in &thresholds {
        let roots = components_at(theta);
        let c = count(&roots);
        if c >= want {
            chosen = Some(roots);
            break;
        }
        if best.as_ref().is_none_or(|(_, bc)| c > *bc) {
            best = Some((roots, c));
        }
    }
    let (roots, shards) = match chosen {
        Some(roots) => (roots, want),
        None => {
            let (roots, c) = best.expect("thresholds is non-empty");
            if c < 2 {
                return Err("topology does not separate at any delay threshold".into());
            }
            (roots, c)
        }
    };

    // Components, initially in min-node-id order (the root IS the
    // minimum id); each node list is ascending, so `nodes[0]` is the
    // component's minimum id.
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut comp_of_root: Vec<Option<usize>> = vec![None; nodes];
    for (node, &r) in roots.iter().enumerate() {
        let idx = *comp_of_root[r].get_or_insert_with(|| {
            comps.push(Vec::new());
            comps.len() - 1
        });
        comps[idx].push(node);
    }

    // Stable per-node key: effective weight (observed events + 1) and
    // topology degree. Both survive a relabeling of node ids, unlike
    // the raw creation order.
    let mut degree = vec![0usize; nodes];
    for &(from, to, _) in &links {
        degree[from] += 1;
        degree[to] += 1;
    }
    let node_w = |n: usize| -> u64 {
        weights
            .and_then(|w| w.get(n).copied())
            .unwrap_or(0)
            .saturating_add(1)
    };
    struct Comp {
        nodes: Vec<usize>,
        weight: u128,
        keys: Vec<(u64, usize)>,
    }
    let mut comps: Vec<Comp> = comps
        .into_iter()
        .map(|nodes| {
            let weight = nodes.iter().map(|&n| node_w(n) as u128).sum();
            let mut keys: Vec<(u64, usize)> =
                nodes.iter().map(|&n| (node_w(n), degree[n])).collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            Comp {
                nodes,
                weight,
                keys,
            }
        })
        .collect();
    // Heaviest first, by stable keys only; min node id is the last
    // resort so equal-keyed components still order deterministically.
    comps.sort_by(|a, b| {
        b.weight
            .cmp(&a.weight)
            .then(b.nodes.len().cmp(&a.nodes.len()))
            .then(b.keys.cmp(&a.keys))
            .then(a.nodes[0].cmp(&b.nodes[0]))
    });

    // Contiguous slicing into `shards` groups of balanced effective
    // weight; forced advancement keeps every group non-empty.
    let total: u128 = comps.iter().map(|c| c.weight).sum();
    let mut shard_of_node = vec![0usize; nodes];
    let mut g = 0usize;
    let mut cum: u128 = 0;
    for (ci, comp) in comps.iter().enumerate() {
        for &node in &comp.nodes {
            shard_of_node[node] = g;
        }
        cum += comp.weight;
        let comps_left = comps.len() - ci - 1;
        let groups_left = shards - g - 1;
        if groups_left > 0
            && comps_left >= groups_left
            && (comps_left == groups_left || cum * shards as u128 >= (g + 1) as u128 * total)
        {
            g += 1;
        }
    }

    let lookahead = links
        .iter()
        .filter(|&&(from, to, _)| shard_of_node[from] != shard_of_node[to])
        .map(|&(_, _, d)| d)
        .min()
        .unwrap_or(SimDuration::from_nanos(u64::MAX));
    Ok(Partition {
        shard_of_node,
        shards,
        lookahead,
    })
}

/// A reusable cyclic barrier whose waiters can be released early by
/// [`AbortableBarrier::abort`] — a panicking worker aborts instead of
/// leaving its peers parked forever (a `std::sync::Barrier` would
/// deadlock the scope join).
struct AbortableBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    aborted: bool,
}

impl AbortableBarrier {
    fn new(n: usize) -> Self {
        AbortableBarrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wait for all `n` parties. Returns `false` when the barrier was
    /// aborted (the caller should unwind its work and return).
    fn wait(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.aborted {
            return false;
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !st.aborted {
            st = self.cv.wait(st).unwrap();
        }
        !st.aborted
    }

    /// Release every current and future waiter with a `false` verdict.
    fn abort(&self) {
        self.state.lock().unwrap().aborted = true;
        self.cv.notify_all();
    }
}

/// Per-destination, per-source mailboxes with two parity slots. At the
/// end of epoch k every shard swaps its outbox for each destination into
/// slot `k & 1`; after barrier k each shard drains its own slots `k & 1`
/// in place. Epoch k+1 writes go to the other slot, and a shard cannot
/// reach the end of epoch k+2 (which reuses slot `k & 1`) before barrier
/// k+1 — by which point every drain of that slot has completed, so a
/// drain never waits on its lock and one barrier per epoch is race-free.
/// The boxes live as long as the [`ShardedSim`]: a pair's three buffers
/// (the outbox and two slots) keep their capacity from epoch to epoch
/// and call to call, and never pass to another pair.
type Mailboxes = Vec<Vec<[Mutex<Vec<WirePacket>>; 2]>>;

/// Why a mailbox lock can fail: only a peer that panicked mid-hand-off
/// leaves one poisoned, and its panic is the one the caller sees.
const POISONED: &str = "a shard panicked holding a mailbox";

/// A simulator split into space-parallel shards, driven in lockstep
/// barrier epochs. Construct with [`ShardedSim::split`], advance with
/// [`ShardedSim::run_until`], and recover the merged simulator for
/// result reads with [`ShardedSim::merge`].
pub struct ShardedSim {
    /// The emptied original simulator; revived by `merge`.
    husk: Simulator,
    shards: Vec<Simulator>,
    mail: Mailboxes,
    window: SimDuration,
    now: SimTime,
    /// Cumulative per-shard worker CPU time (see
    /// [`ShardedSim::per_shard_cpu_ns`]).
    cpu_ns: Vec<u64>,
}

impl ShardedSim {
    /// Partition `sim` into up to `want` shards. On any refusal —
    /// un-splittable state, an inseparable topology — the untouched
    /// simulator is handed back with the reason, so callers fall back
    /// to the monolithic path at zero cost. Nodes are weighed by the
    /// simulator's own event profile (see [`partition`]).
    #[allow(clippy::result_large_err)] // the Err deliberately carries the whole Simulator back
    pub fn split(sim: Simulator, want: usize) -> Result<ShardedSim, (Simulator, String)> {
        let part = partition(&sim, want);
        Self::split_along(sim, part)
    }

    /// [`split`](Self::split) with explicit partition weights instead of
    /// the simulator's profile (`None` balances node count).
    #[allow(clippy::result_large_err)]
    pub fn split_with(
        sim: Simulator,
        want: usize,
        weights: Option<&[u64]>,
    ) -> Result<ShardedSim, (Simulator, String)> {
        let part = partition_with(&sim, want, weights);
        Self::split_along(sim, part)
    }

    #[allow(clippy::result_large_err)]
    fn split_along(
        sim: Simulator,
        part: Result<Partition, String>,
    ) -> Result<ShardedSim, (Simulator, String)> {
        let part = match part {
            Ok(p) => p,
            Err(e) => return Err((sim, e)),
        };
        let mut husk = sim;
        let shards = match husk.split_shards(&part.shard_of_node, part.shards) {
            Ok(s) => s,
            Err(e) => return Err((husk, e)),
        };
        let n = shards.len();
        Ok(ShardedSim {
            now: husk.now(),
            husk,
            shards,
            mail: (0..n)
                .map(|_| {
                    (0..n)
                        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                        .collect()
                })
                .collect(),
            window: part.lookahead,
            cpu_ns: vec![0; n],
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead window (epoch width).
    pub fn lookahead(&self) -> SimDuration {
        self.window
    }

    /// Current simulation time (all shards agree between calls).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all shards plus the pre-split run.
    pub fn events_processed(&self) -> u64 {
        self.husk.events_processed()
            + self
                .shards
                .iter()
                .map(|s| s.events_processed())
                .sum::<u64>()
    }

    /// Events processed by each shard since the split (the pre-split
    /// run's count is excluded): the load-balance view of
    /// [`ShardedSim::events_processed`].
    pub fn per_shard_events(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events_processed()).collect()
    }

    /// Cumulative CPU time each shard's worker thread has spent
    /// executing, in nanoseconds, summed over every
    /// [`ShardedSim::run_until`] call. Measured by the kernel scheduler
    /// (`/proc/thread-self/schedstat`), so it excludes barrier waits and
    /// stays meaningful when shard threads timeslice fewer cores than
    /// shards — unlike wall clocks. All zeros where the proc file is
    /// unavailable (non-Linux hosts).
    pub fn per_shard_cpu_ns(&self) -> &[u64] {
        &self.cpu_ns
    }

    /// Run every shard to `until` in barrier epochs of the lookahead
    /// window, exchanging cross-shard packets at each barrier.
    ///
    /// # Panics
    /// A panic on any shard thread aborts the barrier (so no peer is
    /// left parked) and resurfaces on the calling thread.
    pub fn run_until(&mut self, until: SimTime) {
        if until <= self.now {
            return;
        }
        let n = self.shards.len();
        let window = self.window;
        let start = self.now;
        let barrier = AbortableBarrier::new(n);
        // Workers inherit the caller's telemetry scope (the job label),
        // so records they publish group exactly like the monolithic
        // run's would. The fork hands the caller's own sink over first
        // and each worker hands its over as its scope guard drops, before
        // the join: a series that moves from this thread to a worker and
        // back keeps its publication order.
        let scope = crate::telemetry::fork_scope();
        let cpu: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for (me, shard) in self.shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let mail = &self.mail;
                let cpu = &cpu;
                let scope = scope.clone();
                s.spawn(move || {
                    let _scope = crate::telemetry::scoped(&scope);
                    // Tag every record this worker publishes (queue taps,
                    // epoch series, flight/panic dumps) with its shard id.
                    let _shard_tag = crate::telemetry::shard_scoped(me as u32);
                    let ev_before = shard.events_processed();
                    let cpu_before = thread_cpu_ns();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        run_worker(me, shard, mail, barrier, start, until, window);
                    }));
                    cpu[me].store(
                        thread_cpu_ns().saturating_sub(cpu_before),
                        Ordering::Relaxed,
                    );
                    if let Err(payload) = r {
                        // Release the peers before re-raising; the scope
                        // join then propagates this panic to the caller.
                        barrier.abort();
                        resume_unwind(payload);
                    }
                    // Per-shard event counter: load imbalance across
                    // shards, in events.
                    if shard.config().attach.telemetry {
                        crate::telemetry::counter_add(
                            &format!("shard/{me}"),
                            shard.events_processed() - ev_before,
                        );
                    }
                });
            }
        });
        for (total, c) in self.cpu_ns.iter_mut().zip(&cpu) {
            *total += c.load(Ordering::Relaxed);
        }
        self.now = until;
    }

    /// Restart measurement windows on every shard (and the husk, so the
    /// merged totals cover exactly the measured interval).
    pub fn reset_measurements(&mut self) {
        self.husk.reset_measurements();
        for s in &mut self.shards {
            s.reset_measurements();
        }
    }

    /// Flush occupancy integrals on every shard up to now.
    pub fn flush_measurements(&mut self) {
        for s in &mut self.shards {
            s.flush_measurements();
        }
        self.husk.flush_measurements();
    }

    /// Merge the shards back into the original simulator for result
    /// reads (goodput, link metrics, traces, counters). The merged
    /// simulator must not be run further — see
    /// `Simulator::merge_shards`.
    pub fn merge(self) -> Simulator {
        let ShardedSim {
            mut husk, shards, ..
        } = self;
        husk.merge_shards(shards);
        husk
    }
}

/// Nanoseconds the calling thread has spent executing on a CPU, from
/// the kernel scheduler's accounting (`/proc/thread-self/schedstat`,
/// first field); 0 where unavailable. Purely observational — never fed
/// back into simulation state, so it cannot perturb determinism.
///
/// Read into a stack buffer, which one `read` of the procfs file fills
/// with the whole line: the line's length follows the thread's CPU and
/// run-queue times, and a growing heap buffer would make the number of
/// allocations a `run_until` call makes depend on them.
fn thread_cpu_ns() -> u64 {
    use std::io::Read as _;
    let mut buf = [0u8; 128];
    let Ok(n) =
        std::fs::File::open("/proc/thread-self/schedstat").and_then(|mut f| f.read(&mut buf))
    else {
        return 0;
    };
    std::str::from_utf8(&buf[..n])
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One shard's epoch loop. All shards compute identical barrier
/// instants, so they make identical numbers of `barrier.wait` calls.
///
/// When telemetry is attached, each epoch publishes per-shard records
/// keyed by shard id and stamped with the barrier instant: exact event
/// and mailbox counts (`shard/events`, `shard/mailbox_{in,out}_pkts`).
/// Detached runs skip all of it: the `tel` flag is read once.
fn run_worker(
    me: usize,
    shard: &mut Simulator,
    mail: &Mailboxes,
    barrier: &AbortableBarrier,
    start: SimTime,
    until: SimTime,
    window: SimDuration,
) {
    let tel = shard.config().attach.telemetry;
    let mut ev_last = shard.events_processed();
    let mut t = start;
    let mut k = 0usize;
    while t < until {
        let remaining = until.duration_since(t);
        let b = if remaining <= window {
            until
        } else {
            t + window
        };
        // Half-open epochs: run strictly *before* the barrier instant,
        // so a cross-shard packet arriving exactly at `b` is injected
        // before any local event at `b` fires and the calendar's
        // (time, sched, tie, seq) key can order them. The final epoch
        // closes at `until` itself, matching the monolithic inclusive
        // `run_until`.
        let run_to = if b < until {
            SimTime::from_nanos(b.as_nanos() - 1)
        } else {
            until
        };
        shard.run_until(run_to);
        let slot = k & 1;
        let mut out_pkts = 0;
        for (dst, boxes) in mail.iter().enumerate() {
            if dst != me {
                let mut sent = boxes[me][slot].lock().expect(POISONED);
                shard.take_outbox(dst, &mut sent);
                out_pkts += sent.len();
            }
        }
        if !barrier.wait() {
            return;
        }
        // Source by source, each in emission order (see the module docs
        // on why that order needs no sort).
        let mut in_pkts = 0;
        for (src, boxes) in mail[me].iter().enumerate() {
            if src != me {
                in_pkts += shard.inject_mail(&mut boxes[slot].lock().expect(POISONED));
            }
        }
        if tel {
            use crate::telemetry::{self as tele, SeriesId};
            let tb = b.as_nanos() as f64 / 1e9;
            let publish = |series, v: f64| tele::record_id(series, me as u64, tb, v);
            let ev_now = shard.events_processed();
            publish(SeriesId::SHARD_EVENTS, (ev_now - ev_last) as f64);
            ev_last = ev_now;
            publish(SeriesId::SHARD_MAILBOX_OUT_PKTS, out_pkts as f64);
            publish(SeriesId::SHARD_MAILBOX_IN_PKTS, in_pkts as f64);
        }
        t = b;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerToken;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{Ecn, Payload};
    use crate::queue::DropTail;
    use crate::sim::{Agent, Ctx};
    use std::any::Any;

    fn line_sim(delays_ms: &[u64]) -> Simulator {
        let mut sim = Simulator::new(7);
        let nodes: Vec<NodeId> = (0..=delays_ms.len()).map(|_| sim.add_node()).collect();
        for (i, &d) in delays_ms.iter().enumerate() {
            sim.add_duplex_link(
                nodes[i],
                nodes[i + 1],
                8_000_000,
                SimDuration::from_millis(d),
                |_| Box::new(DropTail::new(64)),
            );
        }
        sim.compute_routes();
        sim
    }

    #[test]
    fn partition_cuts_only_positive_delay_links() {
        // 0 -0ms- 1 -5ms- 2 -0ms- 3: only the middle link may be cut.
        let sim = line_sim(&[0, 5, 0]);
        let p = partition(&sim, 2).expect("separable");
        assert_eq!(p.shards, 2);
        assert_eq!(p.shard_of_node[0], p.shard_of_node[1]);
        assert_eq!(p.shard_of_node[2], p.shard_of_node[3]);
        assert_ne!(p.shard_of_node[0], p.shard_of_node[2]);
        assert_eq!(p.lookahead, SimDuration::from_millis(5));
    }

    #[test]
    fn partition_maximizes_lookahead() {
        // 0 -1ms- 1 -20ms- 2 -1ms- 3: for 2 shards, cut the 20 ms link
        // (θ = 20 ms contracts both 1 ms links) rather than a 1 ms one.
        let sim = line_sim(&[1, 20, 1]);
        let p = partition(&sim, 2).expect("separable");
        assert_eq!(p.shards, 2);
        assert_eq!(p.lookahead, SimDuration::from_millis(20));
        // For 4 shards it must fall back to the 1 ms threshold.
        let p4 = partition(&sim, 4).expect("separable");
        assert_eq!(p4.shards, 4);
        assert_eq!(p4.lookahead, SimDuration::from_millis(1));
    }

    #[test]
    fn partition_refuses_zero_delay_topologies() {
        let sim = line_sim(&[0, 0]);
        assert!(partition(&sim, 2).is_err());
    }

    #[test]
    fn partition_clamps_to_component_count() {
        let sim = line_sim(&[5]);
        // Two nodes cannot fill three shards.
        assert!(partition(&sim, 3).is_err());
        let p = partition(&sim, 2).expect("separable");
        assert_eq!(p.shards, 2);
    }

    #[test]
    fn weighted_partition_isolates_heavy_components() {
        // 6 singleton components; node 2 carries the observed load.
        let sim = line_sim(&[5, 5, 5, 5, 5]);
        let mut w = vec![0u64; 6];
        w[2] = 1_000;
        let p = partition_with(&sim, 2, Some(&w)).expect("separable");
        assert_eq!(p.shards, 2);
        let heavy = p.shard_of_node[2];
        for n in [0usize, 1, 3, 4, 5] {
            assert_ne!(p.shard_of_node[n], heavy, "node {n} shares the hot shard");
        }
    }

    #[test]
    fn zero_and_extreme_weights_still_produce_a_total_cover() {
        let sim = line_sim(&[5, 5, 5, 5, 5]);
        for w in [
            vec![0u64; 6],
            vec![u64::MAX; 6],
            vec![u64::MAX, 0, u64::MAX, 0, 0, 0],
        ] {
            let p = partition_with(&sim, 3, Some(&w)).expect("separable");
            assert_eq!(p.shard_of_node.len(), 6);
            assert!(p.shard_of_node.iter().all(|&s| s < p.shards));
            for g in 0..p.shards {
                assert!(p.shard_of_node.contains(&g), "group {g} empty");
            }
        }
        // A short weight vector reads missing nodes as zero, not an error.
        let p = partition_with(&sim, 2, Some(&[7])).expect("separable");
        assert!(p.shard_of_node.iter().all(|&s| s < p.shards));
    }

    /// Router `a` feeding two sources, router `z` feeding two sinks;
    /// returns the nodes in physical order `[a, s1, s2, z, d1, d2]`.
    fn mini_dumbbell(routers_first: bool) -> (Simulator, Vec<NodeId>) {
        let mut sim = Simulator::new(7);
        let (a, s1, s2, z, d1, d2);
        if routers_first {
            a = sim.add_node();
            s1 = sim.add_node();
            s2 = sim.add_node();
            z = sim.add_node();
            d1 = sim.add_node();
            d2 = sim.add_node();
        } else {
            z = sim.add_node();
            d1 = sim.add_node();
            d2 = sim.add_node();
            a = sim.add_node();
            s1 = sim.add_node();
            s2 = sim.add_node();
        }
        for (x, y, ms) in [(a, z, 10), (a, s1, 5), (a, s2, 5), (z, d1, 5), (z, d2, 5)] {
            sim.add_duplex_link(x, y, 8_000_000, SimDuration::from_millis(ms), |_| {
                Box::new(DropTail::new(64))
            });
        }
        sim.compute_routes();
        (sim, vec![a, s1, s2, z, d1, d2])
    }

    /// Sends `n` packets to `to` when its timer fires.
    struct Burst {
        flow: FlowId,
        to: (NodeId, AgentId),
        n: u64,
    }

    impl Agent for Burst {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_>) {
            for seq in 0..self.n {
                ctx.send(Packet {
                    flow: self.flow,
                    dst_node: self.to.0,
                    dst_agent: self.to.1,
                    size_bytes: 1000,
                    ecn: Ecn::NotCapable,
                    sent_at: ctx.now(),
                    payload: Payload::Data {
                        seq,
                        retransmit: false,
                    },
                });
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Before any event runs, the profile is all zero and the partition is
    /// the node-count one, which puts the mini-dumbbell's two routers on
    /// one of three shards. Once a warm-up has pushed every packet through
    /// both routers, the profile puts them on different shards.
    #[test]
    fn partition_weighs_nodes_by_the_event_profile() {
        let (mut sim, ids) = mini_dumbbell(true);
        let (a, z) = (ids[0].index(), ids[3].index());
        for (i, (src, dst)) in [(ids[1], ids[4]), (ids[2], ids[5])].into_iter().enumerate() {
            let flow = FlowId(i);
            let sink = sim.add_agent(
                dst,
                Box::new(Burst {
                    flow,
                    to: (src, AgentId(0)),
                    n: 0,
                }),
            );
            let n = 20;
            let burst = sim.add_agent(
                src,
                Box::new(Burst {
                    flow,
                    to: (dst, sink),
                    n,
                }),
            );
            sim.schedule_agent_timer(SimTime::ZERO, burst, TimerToken(0));
        }

        let cold = partition(&sim, 3).expect("separable");
        let by_count = partition_with(&sim, 3, None).expect("separable");
        assert_eq!(cold.shard_of_node, by_count.shard_of_node);
        assert_eq!(
            (cold.shards, cold.lookahead),
            (by_count.shards, by_count.lookahead)
        );
        assert_eq!(cold.shard_of_node[a], cold.shard_of_node[z]);

        sim.run_until(SimTime::from_millis(200));
        let warm = partition(&sim, 3).expect("separable");
        assert_ne!(warm.shard_of_node[a], warm.shard_of_node[z]);
        assert_eq!((warm.shards, warm.lookahead), (cold.shards, cold.lookahead));
    }

    /// The ROADMAP item 1 failure mode: on a mini-dumbbell, raw
    /// insertion order decided which hosts shared a shard with which
    /// router, so permuting node creation order reshuffled the
    /// partition. Stable keys (weight, size, degree) order the slicing
    /// instead; creation order must not change the physical grouping.
    #[test]
    fn equal_weight_partition_survives_creation_order_permutation() {
        // Canonical form: groups as sorted sets of *physical* indices.
        fn canon(p: &Partition, ids: &[NodeId]) -> Vec<Vec<usize>> {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); p.shards];
            for (phys, id) in ids.iter().enumerate() {
                groups[p.shard_of_node[id.index()]].push(phys);
            }
            groups.sort();
            groups
        }
        for want in [2usize, 3] {
            let (sim1, ids1) = mini_dumbbell(true);
            let (sim2, ids2) = mini_dumbbell(false);
            let p1 = partition_with(&sim1, want, None).expect("separable");
            let p2 = partition_with(&sim2, want, None).expect("separable");
            assert_eq!(canon(&p1, &ids1), canon(&p2, &ids2), "want = {want}");
        }
    }

    #[test]
    fn abortable_barrier_releases_waiters_on_abort() {
        let barrier = AbortableBarrier::new(2);
        std::thread::scope(|s| {
            let b = &barrier;
            let h = s.spawn(move || b.wait());
            // Give the waiter time to park, then abort instead of joining.
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.abort();
            assert!(!h.join().unwrap());
            assert!(!b.wait());
        });
    }
}
