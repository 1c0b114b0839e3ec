//! The simulator: topology construction, the event loop, and the agent API.
//!
//! # Model
//!
//! * **Nodes** forward packets using static next-hop tables
//!   ([`Simulator::compute_routes`] must be called after the topology is
//!   built and before the first packet is sent).
//! * **Links** are unidirectional, serialize one packet at a time, and own
//!   an AQM queue; a duplex "cable" is just two links.
//! * **Agents** (transport endpoints) live on nodes. They receive packets
//!   addressed to them and timer callbacks, and react through [`Ctx`]
//!   (send a packet, arm a timer, draw random numbers).
//! * **Probes** are closures sampled at a fixed period with a read-only view
//!   of the simulator — used for queue-length time series etc.
//!
//! The loop is strictly deterministic: events fire in `(time, insertion)`
//! order and all randomness flows from seeded [`SmallRng`]s.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arena::{PacketArena, PacketRef};
#[cfg(feature = "audit")]
use crate::audit::{AuditCtx, AuditHook, ConservationAuditor, EnqueueKind, QueueOp};
use crate::event::{
    assert_id_fits, Event, EventId, EventKind, EventQueue, TieKey, TimerToken, TIE_KEY_MAX,
};
use crate::ids::{AgentId, LinkId, NodeId};
use crate::link::Link;
use crate::node::{compute_routes, Node};
use crate::packet::Packet;
#[cfg(feature = "audit")]
use crate::queue::DropReason;
use crate::queue::{EnqueueOutcome, QueueDiscipline};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropRecord, MarkRecord, Trace};

/// A transport endpoint attached to a node.
///
/// Implementations hold all their own state (congestion window, RTT
/// estimators, receive buffers, statistics) and interact with the world only
/// through [`Ctx`]. After a run, experiments read results back by
/// downcasting via [`Agent::as_any`].
///
/// Agents are `Send` so a whole [`Simulator`] can be handed to a worker
/// thread: the experiment runner executes independent simulations in
/// parallel, each confined to one thread at a time.
pub trait Agent: Send {
    /// A packet addressed to this agent has arrived at its node.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A timer armed with [`Ctx::schedule`] has fired.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>);

    /// Downcast support for reading results after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// True when this agent can be divided across space-parallel shards by
    /// [`Agent::shard_split`]. Ordinary agents return `false` (the
    /// default) and move wholesale to the shard that owns their node;
    /// shared agents hosting endpoints on many nodes must opt in here or
    /// they veto the split (the run falls back to one shard).
    fn shard_splittable(&self) -> bool {
        false
    }

    /// For splittable shared agents: the node a pending timer with this
    /// token belongs to, so the event can be routed to that node's shard.
    /// `None` (the default) means the timer cannot be attributed to a
    /// node, which vetoes the split.
    fn shard_route_timer(&self, _token: TimerToken) -> Option<NodeId> {
        None
    }

    /// Split this (shared) agent into `n` per-shard parts, one per shard,
    /// in shard order. Per-endpoint state must *move* to the owner shard
    /// (`shard_of_node[node]`); what remains behind is a husk that only
    /// [`Agent::shard_merge`] may touch again.
    ///
    /// Only called after [`Agent::shard_splittable`] returned `true`; the
    /// default is therefore unreachable.
    fn shard_split(&mut self, _n: usize, _shard_of_node: &[usize]) -> Vec<Box<dyn Agent>> {
        unreachable!("shard_split on an agent that is not splittable")
    }

    /// Reabsorb the parts produced by [`Agent::shard_split`] (same order)
    /// after the shards ran to the horizon, restoring a whole agent for
    /// post-run result reads.
    fn shard_merge(&mut self, _parts: Vec<Box<dyn Agent>>) {
        unreachable!("shard_merge on an agent that is not splittable")
    }
}

/// The world as seen by an agent during a callback.
pub struct Ctx<'a> {
    sim: &'a mut Simulator,
    /// The agent being called.
    pub agent: AgentId,
    /// The node the agent lives on.
    pub node: NodeId,
}

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Transmit `pkt` from this agent's node. The packet is routed by the
    /// static tables and experiences queueing, serialization, and
    /// propagation delays on every hop.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.sim.now;
        self.sim.route_packet(self.node, pkt);
    }

    /// Transmit `pkt` from an explicit `node` rather than this agent's own.
    /// Shared agents (e.g. a flow slab hosting many endpoints on different
    /// nodes) use this; for ordinary agents it is identical to [`Ctx::send`]
    /// with `node == self.node`.
    pub fn send_from(&mut self, node: NodeId, mut pkt: Packet) {
        pkt.sent_at = self.sim.now;
        self.sim.route_packet(node, pkt);
    }

    /// Arm a timer that calls [`Agent::on_timer`] after `delay` with
    /// `token`, returning a handle for [`Ctx::cancel_timer`]. Agents that
    /// never cancel may instead let stale timers fire and detect them
    /// (e.g. by embedding an epoch in the token).
    pub fn schedule(&mut self, delay: SimDuration, token: TimerToken) -> EventId {
        let at = self.sim.now + delay;
        self.sim.counters.timers_scheduled += 1;
        self.sim.events.schedule(
            at,
            EventKind::Timer {
                agent: self.agent,
                token,
            },
        )
    }

    /// Cancel a timer armed with [`Ctx::schedule`] that has not yet fired.
    /// O(1); see [`crate::event::EventQueue::cancel`] for the contract
    /// (the id must still be pending) and the meaning of `false`.
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.sim.events.cancel(id)
    }

    /// Deterministic per-simulation random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }
}

/// A periodic read-only measurement callback. `Send` for the same reason
/// as [`Agent`]: probes travel with the simulator across threads.
type ProbeFn = Box<dyn FnMut(&Simulator, SimTime) + Send>;

struct Probe {
    interval: SimDuration,
    f: Option<ProbeFn>,
}

/// Control-event codes are `(kind << 32) | index`.
const CTRL_QUEUE_TICK: u64 = 1 << 32;
const CTRL_PROBE: u64 = 2 << 32;

/// Cross-shard send state installed on shard-local simulators by the
/// space-parallel driver (see [`crate::shard`]). When present,
/// transmissions whose arrival node lives on another shard divert into
/// that shard's outbox instead of the local calendar; at each epoch
/// barrier the driver swaps every outbox with the emptied mailbox the
/// destination drained in place, so each source–destination pair's
/// buffers go round between the two and no exchange copies or allocates
/// once they have grown. Aligned like [`Simulator`]: each shard's box is
/// allocated next to the others' and written on every cross-shard send.
#[repr(align(128))]
pub(crate) struct ShardIo {
    /// This shard's index.
    me: usize,
    /// Owning shard of every node.
    shard_of_node: Vec<usize>,
    /// Packets bound for each shard (this shard's own entry stays empty),
    /// in emission order.
    outbox: Vec<Outbox>,
}

/// One destination's outbox, on cache lines of its own: a shard writes
/// its outbox's length on every cross-shard send, and the split allocates
/// every shard's outbox array back to back.
#[repr(align(128))]
#[derive(Default)]
struct Outbox(Vec<crate::shard::WirePacket>);

/// Width of a link-utilization window (telemetry derivation): one
/// simulated second. Windows roll forward on transmission starts; fully
/// idle windows are coalesced into one `link/idle_wins` record.
#[cfg(feature = "telemetry")]
const UTIL_WINDOW_NS: u64 = crate::time::NANOS_PER_SEC;

/// Progress counters flush to the global telemetry atomics once per
/// this many events — frequent enough for a ~1 Hz display, rare enough
/// to stay invisible in profiles.
#[cfg(feature = "telemetry")]
const PROGRESS_BATCH: u64 = 16_384;

/// Per-link utilization-window state (telemetry derivation only; never
/// read by the simulation itself).
#[cfg(feature = "telemetry")]
#[derive(Clone, Copy, Debug, Default)]
struct UtilWindow {
    /// Start of the currently open window, ns.
    start_ns: u64,
    /// Bits whose transmission started inside the open window.
    bits: u64,
    /// Size of the most recent transmission folded into the open window.
    /// A window legitimately exceeds `capacity × 1 s` by at most this
    /// much (a transmission that *starts* inside the window is attributed
    /// wholly to it even when it finishes in the next one); anything
    /// beyond is over-delivery and reported as an audit violation.
    last_bits: u64,
    /// Closed all-idle windows not yet flushed as a coalesced record.
    idle_pending: u64,
}

/// Cheap always-on per-simulation counters (plain integer increments on
/// paths that already mutate state — they never affect event order or
/// randomness). The window restarts at [`Simulator::reset_measurements`];
/// when the `telemetry` feature is compiled in and the runtime flag was up
/// at construction, the final window is flushed into the global metrics
/// registry when the simulator drops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Timers armed via [`Ctx::schedule`] or
    /// [`Simulator::schedule_agent_timer`] (timer churn).
    pub timers_scheduled: u64,
    /// Packets accepted by a link queue (including marked ones).
    pub enqueued: u64,
    /// Packets ECN-marked on acceptance.
    pub marked: u64,
    /// Packets dropped because a queue was full.
    pub dropped_overflow: u64,
    /// Packets dropped early by an AQM decision.
    pub dropped_early: u64,
    /// Link departures never scheduled because no packet was waiting (see
    /// [`crate::link`]); counted when the link is next seen idle, or at the
    /// end of [`Simulator::run_until`]. Lifetime, not windowed: added to
    /// [`Simulator::events_processed`] it gives the always-scheduled count.
    pub departures_elided: u64,
}

/// The discrete-event network simulator.
///
/// Aligned to 128 bytes (two cache lines, the adjacent-line prefetch
/// unit): a sharded run keeps its shards side by side in one vector, and
/// the clock, counters and calendar front each worker writes on every
/// event must not share a line with the next shard's.
#[repr(align(128))]
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    /// Tie key of the event being dispatched ([`TIE_KEY_MAX`] outside
    /// [`Simulator::run_until`]): what a lazily scheduled link departure
    /// is ordered against at `now == free_at`.
    cur_key: TieKey,
    /// In-flight packets, interned once at first enqueue and addressed by
    /// [`PacketRef`] everywhere downstream (queues, Arrival events). Slot
    /// assignment is a pure function of the deterministic event stream.
    arena: PacketArena,
    nodes: Vec<Node>,
    links: Vec<Link>,
    link_endpoints: Vec<(NodeId, NodeId)>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_nodes: Vec<NodeId>,
    probes: Vec<Probe>,
    /// Central drop/mark log.
    pub trace: Trace,
    rng: SmallRng,
    routes_ready: bool,
    events_processed: u64,
    /// Lifetime events by class (see [`EventKind::class`]); cheap plain
    /// increments, always on, never part of a measurement window.
    ev_counts: [u64; EventKind::CLASSES],
    /// Lifetime events attributed to each node (indexed by [`NodeId`]):
    /// arrivals to the node, departures and queue ticks to the link's
    /// from-node, timers to the agent's home node. Cheap plain
    /// increments, always on; the shard partitioner weighs nodes by them
    /// (see [`crate::shard::partition`]).
    node_events: Vec<u64>,
    counters: SimCounters,
    seed: u64,
    #[cfg(feature = "audit")]
    audit_hooks: Vec<Box<dyn AuditHook>>,
    /// Whether telemetry was enabled when this simulator was built (taps
    /// attach at construction; see `crate::telemetry`).
    #[cfg(feature = "telemetry")]
    tel_on: bool,
    /// Per-link queue enqueue + dequeue calls (`tel_on` only), summed by
    /// discipline name at drop.
    #[cfg(feature = "telemetry")]
    queue_ops: Vec<u64>,
    /// Per-link utilization-window state (`tel_on` only).
    #[cfg(feature = "telemetry")]
    util: Vec<UtilWindow>,
    /// `Some` only on shard-local simulators created by
    /// [`Simulator::split_shards`]; diverts cross-shard transmissions.
    shard_io: Option<Box<ShardIo>>,
}

impl Simulator {
    /// Create a simulator whose randomness derives from `seed`.
    ///
    /// When the audit layer is compiled in and enabled at runtime (see
    /// [`crate::audit::enabled`]), a [`ConservationAuditor`] is installed
    /// automatically — the flag must therefore be set *before* simulators
    /// are built.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            cur_key: TIE_KEY_MAX,
            arena: PacketArena::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            link_endpoints: Vec::new(),
            agents: Vec::new(),
            agent_nodes: Vec::new(),
            probes: Vec::new(),
            trace: Trace::default(),
            rng: SmallRng::seed_from_u64(seed),
            routes_ready: false,
            events_processed: 0,
            ev_counts: [0; EventKind::CLASSES],
            node_events: Vec::new(),
            counters: SimCounters::default(),
            seed,
            #[cfg(feature = "audit")]
            audit_hooks: if crate::audit::enabled() {
                vec![Box::new(ConservationAuditor::new()) as Box<dyn AuditHook>]
            } else {
                Vec::new()
            },
            #[cfg(feature = "telemetry")]
            tel_on: crate::telemetry::enabled(),
            #[cfg(feature = "telemetry")]
            queue_ops: Vec::new(),
            #[cfg(feature = "telemetry")]
            util: Vec::new(),
            shard_io: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seed this simulator was created with (embedded in audit
    /// reproducers).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[cfg(feature = "audit")]
    #[inline]
    fn audit_ctx(&self) -> AuditCtx {
        AuditCtx {
            seed: self.seed,
            event_index: self.events_processed,
            now: self.now,
        }
    }

    /// Report a queue operation to every audit hook, with the queue in
    /// its post-op state.
    #[cfg(feature = "audit")]
    fn audit_queue_op(&mut self, link_id: LinkId, op: QueueOp) {
        if self.audit_hooks.is_empty() {
            return;
        }
        let ctx = AuditCtx {
            seed: self.seed,
            event_index: self.events_processed,
            now: self.now,
        };
        let Simulator {
            links, audit_hooks, ..
        } = self;
        let link = &links[link_id.index()];
        for hook in audit_hooks.iter_mut() {
            hook.on_queue_op(link, &op, &ctx);
        }
    }

    /// Total events processed so far (engine throughput metric; lifetime,
    /// not reset by [`Simulator::reset_measurements`]).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pending events and the bytes of storage the calendar holds for
    /// them (see [`crate::event::EventQueue::footprint_bytes`]).
    pub fn calendar_footprint(&self) -> (usize, usize) {
        (self.events.len(), self.events.footprint_bytes())
    }

    /// Lifetime [`Packet::order_tie`] evaluations (see
    /// [`PacketArena::tie_hashes`]): one per packet that crosses a link,
    /// plus one per CE mark applied after its first hop.
    pub fn tie_hashes(&self) -> u64 {
        self.arena.tie_hashes()
    }

    /// The current measurement window's event counters (restarted by
    /// [`Simulator::reset_measurements`]).
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Lifetime events processed by class, indexed like
    /// [`EventKind::CLASS_NAMES`] (not reset by
    /// [`Simulator::reset_measurements`]).
    pub fn event_class_counts(&self) -> [u64; EventKind::CLASSES] {
        self.ev_counts
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a node and return its id.
    ///
    /// # Panics
    /// Panics past 2^30 nodes, the width of the calendar node's id field;
    /// [`Simulator::add_link`] and [`Simulator::alloc_agent`] likewise.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        assert_id_fits(id.index());
        self.nodes.push(Node::default());
        self.node_events.push(0);
        id
    }

    /// Lifetime events attributed to each node so far (see the
    /// `node_events` field for the attribution rule). The weights
    /// [`crate::shard::partition`] slices by.
    pub fn node_event_profile(&self) -> &[u64] {
        &self.node_events
    }

    /// Add `n` nodes and return their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Add a unidirectional link `from → to`.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity_bps: u64,
        delay: SimDuration,
        queue: Box<dyn QueueDiscipline>,
    ) -> LinkId {
        assert!(from != to, "self-links are not allowed");
        let id = LinkId(self.links.len());
        assert_id_fits(id.index());
        if let Some(iv) = queue.tick_interval() {
            self.events.schedule(
                self.now + iv,
                EventKind::Control {
                    code: CTRL_QUEUE_TICK | id.0 as u64,
                },
            );
        }
        self.links
            .push(Link::new(id, from, to, capacity_bps, delay, queue));
        self.events.add_lane();
        #[cfg(feature = "telemetry")]
        {
            if self.tel_on {
                // Tap key = link index: `queue/len` series line up with the
                // LinkIds reported everywhere else. The capacity lets the
                // tap publish truth/qdelay (backlog drain time).
                self.links[id.index()]
                    .queue
                    .attach_tap(id.0 as u64, capacity_bps);
            }
            self.queue_ops.push(0);
            self.util.push(UtilWindow {
                start_ns: self.now.as_nanos(),
                ..UtilWindow::default()
            });
        }
        self.link_endpoints.push((from, to));
        self.nodes[from.index()].out_links.push(id);
        self.routes_ready = false;
        #[cfg(feature = "audit")]
        {
            let Simulator {
                links, audit_hooks, ..
            } = self;
            let queue = links[id.index()].queue.as_ref();
            for hook in audit_hooks.iter_mut() {
                hook.on_link_added(id, queue);
            }
        }
        id
    }

    /// Add a duplex link (two mirrored unidirectional links), constructing a
    /// separate queue for each direction via `mk_queue(direction)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: u64,
        delay: SimDuration,
        mut mk_queue: impl FnMut(usize) -> Box<dyn QueueDiscipline>,
    ) -> (LinkId, LinkId) {
        let f = self.add_link(a, b, capacity_bps, delay, mk_queue(0));
        let r = self.add_link(b, a, capacity_bps, delay, mk_queue(1));
        (f, r)
    }

    /// (Re)compute all next-hop tables. Must be called after topology
    /// changes and before packets flow.
    pub fn compute_routes(&mut self) {
        let tables = compute_routes(self.nodes.len(), &self.link_endpoints);
        for (node, table) in self.nodes.iter_mut().zip(tables) {
            node.routes = table;
        }
        self.routes_ready = true;
    }

    // ------------------------------------------------------------------
    // Agents
    // ------------------------------------------------------------------

    /// Reserve an agent slot (so endpoints can learn each other's ids
    /// before construction) to be filled by [`Simulator::install_agent`].
    pub fn alloc_agent(&mut self) -> AgentId {
        let id = AgentId(self.agents.len());
        assert_id_fits(id.index());
        self.agents.push(None);
        self.agent_nodes.push(NodeId(usize::MAX));
        id
    }

    /// Install `agent` in a previously allocated slot, attached to `node`.
    pub fn install_agent(&mut self, id: AgentId, node: NodeId, agent: Box<dyn Agent>) {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        assert!(
            self.agents[id.index()].is_none(),
            "agent slot {id} already installed"
        );
        self.agents[id.index()] = Some(agent);
        self.agent_nodes[id.index()] = node;
    }

    /// Convenience: allocate and install in one call.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        let id = self.alloc_agent();
        self.install_agent(id, node, agent);
        id
    }

    /// Install `agent` in a previously allocated slot **without** binding
    /// it to a node. A shared agent hosts many logical endpoints (one per
    /// flow) that may live on different nodes: packets address it through
    /// `dst_agent` as usual and [`Ctx::node`] reports the arrival node;
    /// timers fired on it see the [`NodeId`] sentinel `usize::MAX` and must
    /// send via [`Ctx::send_from`].
    pub fn install_shared_agent(&mut self, id: AgentId, agent: Box<dyn Agent>) {
        assert!(
            self.agents[id.index()].is_none(),
            "agent slot {id} already installed"
        );
        self.agents[id.index()] = Some(agent);
    }

    /// Arm a timer for `agent` at absolute time `at` (typically used to
    /// start flows at staggered times). Returns a handle accepted by
    /// [`Simulator::cancel_timer`].
    pub fn schedule_agent_timer(
        &mut self,
        at: SimTime,
        agent: AgentId,
        token: TimerToken,
    ) -> EventId {
        assert!(
            self.agents[agent.index()].is_some(),
            "agent {agent} not installed"
        );
        self.counters.timers_scheduled += 1;
        self.events.schedule(at, EventKind::Timer { agent, token })
    }

    /// Cancel a still-pending timer (see
    /// [`crate::event::EventQueue::cancel`] for the contract and the
    /// meaning of `false`).
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.events.cancel(id)
    }

    /// Borrow an installed agent immutably, downcast to `T`.
    ///
    /// # Panics
    /// Panics if the agent is missing or of a different concrete type.
    pub fn agent<T: 'static>(&self, id: AgentId) -> &T {
        self.agents[id.index()]
            .as_deref()
            .unwrap_or_else(|| panic!("agent {id} not installed"))
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("agent {id} has unexpected type"))
    }

    /// Borrow an installed agent mutably, downcast to `T`.
    pub fn agent_mut<T: 'static>(&mut self, id: AgentId) -> &mut T {
        self.agents[id.index()]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("agent {id} not installed"))
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("agent {id} has unexpected type"))
    }

    /// Find the first installed agent of concrete type `T` (shared agents
    /// such as flow slabs are singletons, so "first" is unambiguous).
    pub fn find_agent_by<T: 'static>(&self) -> Option<(AgentId, &T)> {
        self.agents.iter().enumerate().find_map(|(i, a)| {
            a.as_deref()?
                .as_any()
                .downcast_ref::<T>()
                .map(|t| (AgentId(i), t))
        })
    }

    // ------------------------------------------------------------------
    // Probes and measurement windows
    // ------------------------------------------------------------------

    /// Register a probe called every `interval` with a read-only simulator
    /// view. The first call happens one `interval` from now.
    pub fn add_probe(
        &mut self,
        interval: SimDuration,
        f: impl FnMut(&Simulator, SimTime) + Send + 'static,
    ) {
        assert!(!interval.is_zero(), "probe interval must be positive");
        let idx = self.probes.len();
        self.probes.push(Probe {
            interval,
            f: Some(Box::new(f)),
        });
        self.events.schedule(
            self.now + interval,
            EventKind::Control {
                code: CTRL_PROBE | idx as u64,
            },
        );
    }

    /// Access a link (for probes and post-run reporting).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link access (for measurement-window management).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of agent slots allocated (installed or not).
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Restart every link's measurement window (delivery counters, queue
    /// occupancy integrals) and clear the drop/mark trace. Call at the end
    /// of the warm-up transient; the paper measures t ∈ [100 s, 300 s].
    pub fn reset_measurements(&mut self) {
        let now = self.now;
        for link in &mut self.links {
            link.reset_measurement(now);
        }
        self.trace.clear();
        self.counters = SimCounters {
            departures_elided: self.counters.departures_elided,
            ..SimCounters::default()
        };
        // Utilization windows restart with the measurement window, so
        // derived utilization covers the same interval as the link and
        // queue statistics (warm-up windows are discarded, not flushed).
        #[cfg(feature = "telemetry")]
        for w in &mut self.util {
            *w = UtilWindow {
                start_ns: now.as_nanos(),
                ..UtilWindow::default()
            };
        }
        #[cfg(feature = "audit")]
        {
            let ctx = self.audit_ctx();
            for hook in &mut self.audit_hooks {
                hook.on_window_reset(&ctx);
            }
        }
    }

    /// Flush all occupancy integrals up to `now` (call before reading
    /// time-weighted queue statistics).
    pub fn flush_measurements(&mut self) {
        let now = self.now;
        for link in &mut self.links {
            link.flush_stats(now);
        }
        #[cfg(feature = "audit")]
        {
            let ctx = self.audit_ctx();
            for hook in &mut self.audit_hooks {
                hook.on_flush(&ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet movement
    // ------------------------------------------------------------------

    /// Route `pkt` out of `node`: deliver locally if it has arrived, else
    /// intern it in the arena and enqueue on the next-hop link. Packets
    /// that never cross a link (local delivery) are never interned.
    fn route_packet(&mut self, node: NodeId, pkt: Packet) {
        assert!(self.routes_ready, "compute_routes() was not called");
        if pkt.dst_node == node {
            self.deliver(node, pkt);
            return;
        }
        let next = self.nodes[node.index()].routes[pkt.dst_node.index()]
            .unwrap_or_else(|| panic!("no route from {node} to {}", pkt.dst_node));
        let r = self.arena.alloc(pkt);
        self.enqueue_on_link(next, r);
    }

    /// A packet (by ref) reached `node` off a link: free-and-deliver on the
    /// final hop, else forward the same ref to the next-hop queue.
    fn on_arrival(&mut self, node: NodeId, r: PacketRef) {
        let dst = self.arena.dst_node(r);
        if dst == node {
            let pkt = self
                .arena
                .take(r)
                .expect("arrival event held a stale PacketRef");
            self.deliver(node, pkt);
            return;
        }
        let next = self.nodes[node.index()].routes[dst.index()]
            .unwrap_or_else(|| panic!("no route from {node} to {dst}"));
        self.enqueue_on_link(next, r);
    }

    /// Offer `pkt` to `link`'s queue; start transmission if idle; log drops
    /// and marks. Dropped refs are freed here — queues never own packets
    /// they reject.
    fn enqueue_on_link(&mut self, link_id: LinkId, pkt: PacketRef) {
        let now = self.now;
        #[cfg(feature = "audit")]
        let size_bytes = self.arena.size_bytes(pkt);
        let outcome = self.links[link_id.index()]
            .queue
            .enqueue(pkt, &mut self.arena, now);
        #[cfg(feature = "telemetry")]
        if self.tel_on {
            self.queue_ops[link_id.index()] += 1;
        }
        #[cfg(feature = "audit")]
        {
            let kind = match &outcome {
                EnqueueOutcome::Enqueued => EnqueueKind::Stored,
                EnqueueOutcome::Marked => EnqueueKind::Marked,
                EnqueueOutcome::Dropped(_, DropReason::Overflow) => EnqueueKind::DroppedOverflow,
                EnqueueOutcome::Dropped(_, DropReason::Early) => EnqueueKind::DroppedEarly,
            };
            self.audit_queue_op(link_id, QueueOp::Enqueue { kind, size_bytes });
        }
        match outcome {
            EnqueueOutcome::Enqueued => {
                self.counters.enqueued += 1;
            }
            EnqueueOutcome::Marked => {
                self.counters.enqueued += 1;
                self.counters.marked += 1;
                if self.trace.record_marks {
                    self.trace.record_mark(MarkRecord {
                        at: now,
                        link: link_id,
                        flow: self.arena[pkt].flow,
                    });
                }
            }
            EnqueueOutcome::Dropped(r, reason) => {
                let dropped = self.arena.take(r).expect("queue dropped a stale PacketRef");
                match reason {
                    crate::queue::DropReason::Overflow => self.counters.dropped_overflow += 1,
                    crate::queue::DropReason::Early => self.counters.dropped_early += 1,
                }
                self.trace.drops.push(DropRecord {
                    at: now,
                    link: link_id,
                    flow: dropped.flow,
                    reason,
                    was_data: dropped.is_data(),
                });
                return;
            }
        }
        let link = &mut self.links[link_id.index()];
        if link.idle_for(now, self.cur_key) {
            self.counters.departures_elided += u64::from(link.end_service());
            self.start_transmission(link_id);
        } else {
            self.arm_departure(link_id);
        }
    }

    /// A packet now waits behind the one `link_id` is serializing: put the
    /// reserved departure into the calendar unless it already is there.
    fn arm_departure(&mut self, link_id: LinkId) {
        if let Some((at, key)) = self.links[link_id.index()].arm() {
            self.events
                .schedule_reserved(at, key, EventKind::Departure { link: link_id });
        }
    }

    /// Pull the next packet from the queue (if any), put it in service and
    /// reserve its departure; the departure is scheduled only when a
    /// packet is left waiting.
    fn start_transmission(&mut self, link_id: LinkId) {
        let now = self.now;
        // The departing packet stays logically "on the wire": we dequeue
        // now (disciplines may reorder in principle, so its size must come
        // from the actual pop) and the Arrival event carries only the
        // 8-byte arena ref, not the packet itself.
        let popped = self.links[link_id.index()]
            .queue
            .dequeue(&mut self.arena, now);
        #[cfg(feature = "telemetry")]
        if self.tel_on {
            self.queue_ops[link_id.index()] += 1;
        }
        let Some(pkt) = popped else {
            #[cfg(feature = "audit")]
            self.audit_queue_op(link_id, QueueOp::Dequeue { popped: None });
            return;
        };
        let size_bytes = self.arena.size_bytes(pkt);
        let bits = u64::from(size_bytes) * 8;
        let link = &mut self.links[link_id.index()];
        let tx = link.serialization(bits);
        link.begin_service(now + tx, self.events.reserve());
        link.delivered_bits += bits;
        link.delivered_pkts += 1;
        let arrive_at = now + tx + link.delay;
        let to = link.to;
        if !link.queue.is_empty() {
            self.arm_departure(link_id);
        }
        // On shard-local simulators, an arrival node owned by another
        // shard diverts the packet to the outbox: it leaves this shard's
        // arena here and is re-interned by the destination shard when
        // batches are exchanged at the next epoch barrier. The partition
        // cuts only links with `delay >= lookahead`, so the arrival time
        // always lands at or beyond the barrier the batch crosses.
        let remote_shard = self.shard_io.as_ref().and_then(|io| {
            let dst = io.shard_of_node[to.index()];
            (dst != io.me).then_some(dst)
        });
        // Arrivals carry the packet's content hash as their ordering tie
        // so that two arrivals landing at the same instant with the same
        // emission time sort identically whether scheduled here or
        // injected across a shard boundary (see `Packet::order_tie`). The
        // arena hashes a packet once per content version, not per hop.
        let tie = self.arena.order_tie(pkt);
        match remote_shard {
            Some(dst) => {
                let pkt = self
                    .arena
                    .take(pkt)
                    .expect("departing packet held a stale PacketRef");
                self.shard_io.as_mut().expect("checked above").outbox[dst]
                    .0
                    .push(crate::shard::WirePacket {
                        at: arrive_at,
                        sched: now,
                        link: link_id,
                        tie,
                        pkt,
                    });
            }
            None => {
                self.events.push_lane(
                    link_id,
                    arrive_at,
                    now,
                    tie,
                    EventKind::Arrival {
                        node: to,
                        packet: pkt,
                    },
                );
            }
        }
        #[cfg(feature = "audit")]
        self.audit_queue_op(
            link_id,
            QueueOp::Dequeue {
                popped: Some(size_bytes),
            },
        );
        #[cfg(feature = "telemetry")]
        if self.tel_on {
            self.util_account(link_id, now, bits);
        }
    }

    /// Fold `bits` (whose transmission starts at `now`) into `link_id`'s
    /// open utilization window, closing and publishing any windows `now`
    /// has passed. Telemetry derivation only — the records never feed
    /// back into the simulation, and `t`/`value` are pure integer
    /// functions of deterministic state.
    #[cfg(feature = "telemetry")]
    fn util_account(&mut self, link_id: LinkId, now: SimTime, bits: u64) {
        let capacity_bps = self.links[link_id.index()].capacity_bps;
        let w = &mut self.util[link_id.index()];
        let now_ns = now.as_nanos();
        while now_ns >= w.start_ns.saturating_add(UTIL_WINDOW_NS) {
            if w.bits == 0 {
                w.idle_pending += 1;
            } else {
                if w.idle_pending > 0 {
                    crate::telemetry::record_id(
                        crate::telemetry::SeriesId::LINK_IDLE_WINS,
                        link_id.0 as u64,
                        w.start_ns as f64 / 1e9,
                        w.idle_pending as f64,
                    );
                    w.idle_pending = 0;
                }
                // A closed window can hold more than one second of bits
                // only via the single transmission straddling its end;
                // more than that means the link delivered bits it had no
                // capacity for — broken accounting, not 100% utilization.
                #[cfg(feature = "audit")]
                if u128::from(w.bits) > u128::from(capacity_bps) + u128::from(w.last_bits)
                    && pert_core::audit::enabled()
                {
                    pert_core::audit::violation(
                        "link",
                        format_args!(
                            "utilization over-delivery on link {}: {} bits started \
                             inside one 1 s window of a {} bit/s link \
                             (straddle allowance {} bits)",
                            link_id.0, w.bits, capacity_bps, w.last_bits
                        ),
                    );
                }
                // Window width is exactly one second, so basis points
                // reduce to bits / bits-per-second. The straddling
                // transmission can push a legitimate window a hair over
                // 100%; the *recorded* value clamps to the 10,000 bp
                // scale (over-delivery beyond the straddle allowance
                // panicked above rather than hiding under this clamp).
                let bp = (u128::from(w.bits) * 10_000 / u128::from(capacity_bps.max(1))).min(10_000)
                    as u64;
                crate::telemetry::record_id(
                    crate::telemetry::SeriesId::LINK_UTIL_BP,
                    link_id.0 as u64,
                    (w.start_ns + UTIL_WINDOW_NS) as f64 / 1e9,
                    bp as f64,
                );
                w.bits = 0;
                w.last_bits = 0;
            }
            w.start_ns += UTIL_WINDOW_NS;
        }
        w.bits += bits;
        w.last_bits = bits;
    }

    /// Deliver `pkt` to its destination agent at `node`.
    fn deliver(&mut self, node: NodeId, pkt: Packet) {
        #[cfg(feature = "audit")]
        if !self.audit_hooks.is_empty() {
            let ctx = self.audit_ctx();
            for hook in &mut self.audit_hooks {
                hook.on_delivery(&pkt, &ctx);
            }
        }
        let id = pkt.dst_agent;
        debug_assert!(
            self.agent_nodes[id.index()] == node
                || self.agent_nodes[id.index()] == NodeId(usize::MAX),
            "packet for {id} delivered to wrong node {node}"
        );
        let mut agent = self.agents[id.index()]
            .take()
            .unwrap_or_else(|| panic!("agent {id} not installed (or re-entrant callback)"));
        let mut ctx = Ctx {
            sim: self,
            agent: id,
            node,
        };
        agent.on_packet(pkt, &mut ctx);
        self.agents[id.index()] = Some(agent);
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Run until the clock reaches `until` (events at exactly `until` are
    /// processed) or the calendar empties.
    ///
    /// # Panics
    /// Panics if more than ten million events fire without simulated time
    /// advancing — a zero-delay event storm, which always indicates an
    /// agent bug (e.g. two agents answering each other with zero-latency
    /// messages). The panic message names the stuck timestamp.
    pub fn run_until(&mut self, until: SimTime) {
        let mut stuck_at = self.now;
        let mut stuck_count: u64 = 0;
        // Progress counters batch locally and flush to the process-wide
        // atomics every PROGRESS_BATCH events — wall-clock/stderr tooling
        // only, so it reads state but never influences the simulation.
        #[cfg(feature = "telemetry")]
        let progress_on = crate::telemetry::progress_enabled();
        #[cfg(feature = "telemetry")]
        let mut prog_events: u64 = 0;
        #[cfg(feature = "telemetry")]
        let mut prog_since = self.now;
        // Run dispatch: the `match` below executes once per maximal run of
        // same-(time, class) events, not once per event. A run is extended
        // one `pop_before` at a time, after each handler returned; the
        // first event that does not continue it heads the next run.
        let mut next = self.events.pop_before(until);
        while let Some(first) = next {
            let at = first.at;
            if at != stuck_at {
                stuck_at = at;
                stuck_count = 0;
            }
            self.now = at;
            #[cfg(feature = "telemetry")]
            let before = stuck_count;
            next = match first.kind {
                EventKind::Arrival { .. } => {
                    self.dispatch_run(first, until, &mut stuck_count, |sim, kind| {
                        let EventKind::Arrival { node, packet } = kind else {
                            unreachable!("mixed-class run");
                        };
                        sim.node_events[node.index()] += 1;
                        sim.on_arrival(node, packet);
                    })
                }
                EventKind::Departure { .. } => {
                    self.dispatch_run(first, until, &mut stuck_count, |sim, kind| {
                        let EventKind::Departure { link } = kind else {
                            unreachable!("mixed-class run");
                        };
                        let (from, _) = sim.link_endpoints[link.index()];
                        sim.node_events[from.index()] += 1;
                        sim.on_link_free(link);
                    })
                }
                EventKind::Timer { .. } => {
                    self.dispatch_run(first, until, &mut stuck_count, |sim, kind| {
                        let EventKind::Timer { agent, token } = kind else {
                            unreachable!("mixed-class run");
                        };
                        let mut a = sim.agents[agent.index()]
                            .take()
                            .unwrap_or_else(|| panic!("timer for missing agent {agent}"));
                        let node = sim.agent_nodes[agent.index()];
                        // Shared slab agents carry the sentinel home node;
                        // their per-flow timers name a node via the same
                        // routing hook the shard splitter uses.
                        let profiled = if node == NodeId(usize::MAX) {
                            a.shard_route_timer(token)
                        } else {
                            Some(node)
                        };
                        if let Some(p) = profiled {
                            sim.node_events[p.index()] += 1;
                        }
                        let mut ctx = Ctx { sim, agent, node };
                        a.on_timer(token, &mut ctx);
                        sim.agents[agent.index()] = Some(a);
                    })
                }
                EventKind::Control { .. } => {
                    self.dispatch_run(first, until, &mut stuck_count, |sim, kind| {
                        let EventKind::Control { code } = kind else {
                            unreachable!("mixed-class run");
                        };
                        // Queue ticks belong to their link's from-node;
                        // probes sample global state and stay unattributed.
                        if code & (0xffff_ffff << 32) == CTRL_QUEUE_TICK {
                            let (from, _) = sim.link_endpoints[(code & 0xffff_ffff) as usize];
                            sim.node_events[from.index()] += 1;
                        }
                        sim.on_control(code);
                    })
                }
            };
            #[cfg(feature = "telemetry")]
            if progress_on {
                // Events actually dispatched in this run.
                prog_events += stuck_count - before;
                if prog_events >= PROGRESS_BATCH {
                    let adv = self.now.duration_since(prog_since).as_nanos();
                    crate::telemetry::progress_add(prog_events, adv);
                    prog_events = 0;
                    prog_since = self.now;
                }
            }
        }
        #[cfg(feature = "telemetry")]
        if progress_on && prog_events > 0 {
            let adv = self.now.duration_since(prog_since).as_nanos();
            crate::telemetry::progress_add(prog_events, adv);
        }
        // Advance the clock to the horizon so measurement windows line up.
        if self.now < until {
            self.now = until;
        }
        // Every departure due by now has fired, scheduled or not: count the
        // elided ones here, not when (or whether) their links see a packet.
        self.cur_key = TIE_KEY_MAX;
        for link in &mut self.links {
            if link.idle_for(self.now, TIE_KEY_MAX) {
                self.counters.departures_elided += u64::from(link.end_service());
            }
        }
    }

    /// Dispatch `first`, then every event that follows it in the pop order
    /// at the same instant with the same class, through `handle`; `storm`
    /// counts the events dispatched since the clock last moved. Returns
    /// the next event due by `until` — the head of the next run — which
    /// is popped only once the last handler returned (a handler may insert
    /// a reserved key at `at` that sorts before events pending there).
    /// Each event's counters increment *before* the audit hooks run so
    /// `event_index` in reproducers keeps its historical meaning.
    #[inline]
    fn dispatch_run(
        &mut self,
        first: Event,
        until: SimTime,
        storm: &mut u64,
        mut handle: impl FnMut(&mut Simulator, EventKind),
    ) -> Option<Event> {
        let (at, class) = (first.at, first.kind.class());
        let mut ev = first;
        loop {
            *storm += 1;
            assert!(
                *storm < 10_000_000,
                "event storm: 10M events at t = {at:?} without progress (last kind: {:?})",
                ev.kind
            );
            self.cur_key = ev.tie_key();
            self.events_processed += 1;
            self.ev_counts[class] += 1;
            #[cfg(feature = "audit")]
            if !self.audit_hooks.is_empty() {
                let ctx = self.audit_ctx();
                for hook in &mut self.audit_hooks {
                    hook.on_event(&ctx);
                }
            }
            handle(self, ev.kind);
            match self.events.pop_before(until) {
                Some(e) if e.at == at && e.kind.class() == class => ev = e,
                next => return next,
            }
        }
    }

    fn on_link_free(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        link.end_service();
        if !link.queue.is_empty() {
            self.start_transmission(link_id);
        }
    }

    fn on_control(&mut self, code: u64) {
        let kind = code & (0xffff_ffff << 32);
        let idx = (code & 0xffff_ffff) as usize;
        match kind {
            CTRL_QUEUE_TICK => {
                let now = self.now;
                let link = &mut self.links[idx];
                link.queue.on_tick(now);
                if let Some(iv) = link.queue.tick_interval() {
                    self.events.schedule(
                        now + iv,
                        EventKind::Control {
                            code: CTRL_QUEUE_TICK | idx as u64,
                        },
                    );
                }
            }
            CTRL_PROBE => {
                let now = self.now;
                let mut f = self.probes[idx].f.take().expect("re-entrant probe");
                f(self, now);
                let iv = self.probes[idx].interval;
                self.probes[idx].f = Some(f);
                self.events.schedule(
                    now + iv,
                    EventKind::Control {
                        code: CTRL_PROBE | idx as u64,
                    },
                );
            }
            _ => unreachable!("unknown control code {code:#x}"),
        }
    }

    // ------------------------------------------------------------------
    // Space-parallel sharding (driver: `crate::shard`)
    // ------------------------------------------------------------------

    /// Split this simulator into `n` shard-local simulators along the
    /// node partition `shard_of_node`, leaving `self` as a husk that only
    /// [`Simulator::merge_shards`] may revive. Pending events migrate to
    /// the shard owning their node/link; single-node agents move to their
    /// owner; shared agents and audit hooks split via their hooks; every
    /// shard receives a full clone of the packet arena so pre-split
    /// [`PacketRef`]s stay valid wherever they ended up.
    ///
    /// Fails (with `self` fully restored) when anything cannot be
    /// attributed to one shard: probes, a cut link with zero delay, a
    /// shared agent or audit hook that does not opt in, or an unroutable
    /// pending event.
    pub(crate) fn split_shards(
        &mut self,
        shard_of_node: &[usize],
        n: usize,
    ) -> Result<Vec<Simulator>, String> {
        assert!(n >= 1, "need at least one shard");
        assert_eq!(
            shard_of_node.len(),
            self.nodes.len(),
            "partition must cover every node"
        );
        assert!(
            shard_of_node.iter().all(|&s| s < n),
            "partition names a shard >= {n}"
        );
        assert!(self.routes_ready, "compute_routes() was not called");
        if !self.probes.is_empty() {
            return Err("probes sample global simulator state and cannot be split".into());
        }
        let shard_of_link: Vec<usize> = self
            .link_endpoints
            .iter()
            .map(|&(from, _)| shard_of_node[from.index()])
            .collect();
        for (i, link) in self.links.iter().enumerate() {
            let (from, to) = self.link_endpoints[i];
            if shard_of_node[from.index()] != shard_of_node[to.index()] && link.delay.is_zero() {
                return Err(format!("cut link {i} has zero delay: no lookahead window"));
            }
        }
        for (i, agent) in self.agents.iter().enumerate() {
            let Some(agent) = agent else { continue };
            if self.agent_nodes[i] == NodeId(usize::MAX) && !agent.shard_splittable() {
                return Err(format!("shared agent {i} is not shard-splittable"));
            }
        }
        #[cfg(feature = "audit")]
        if !self.audit_hooks.iter().all(|h| h.supports_shard_split()) {
            return Err("an installed audit hook does not support shard splitting".into());
        }

        // Route every pending event to a shard. The routing pass is pure
        // reads; its only side effect is the drain itself, which the error
        // path rolls back exactly (same order, watermark untouched).
        let drained = self.events.drain_all();
        let mut routed: Vec<usize> = Vec::with_capacity(drained.len());
        let mut route_err: Option<String> = None;
        for ev in &drained {
            let target = match &ev.kind {
                EventKind::Arrival { node, .. } => Some(shard_of_node[node.index()]),
                EventKind::Departure { link } => Some(shard_of_link[link.index()]),
                EventKind::Timer { agent, token } => {
                    let node = self.agent_nodes[agent.index()];
                    if node == NodeId(usize::MAX) {
                        self.agents[agent.index()]
                            .as_ref()
                            .expect("timer pending for a missing agent")
                            .shard_route_timer(*token)
                            .map(|node| shard_of_node[node.index()])
                    } else {
                        Some(shard_of_node[node.index()])
                    }
                }
                EventKind::Control { code } => {
                    let kind = code & (0xffff_ffff << 32);
                    let idx = (code & 0xffff_ffff) as usize;
                    (kind == CTRL_QUEUE_TICK).then(|| shard_of_link[idx])
                }
            };
            match target {
                Some(t) => routed.push(t),
                None => {
                    route_err = Some(format!(
                        "pending event {:?} cannot be attributed to a shard",
                        ev.kind
                    ));
                    break;
                }
            }
        }
        if let Some(err) = route_err {
            for ev in drained {
                self.events.adopt(ev);
            }
            return Err(err);
        }

        // ---- Point of no return: distribute state. ----
        // Migrated events enter their shard's calendar under their own
        // `(time, sched, tie, seq)` keys, and each goes on numbering where
        // this one stopped: same-time tie order survives, the departure
        // keys links reserved stay free, and pre-split `EventId`s still
        // name their events. The shard adopting the most events takes this
        // drained queue itself, node pool and all, and the husk keeps a
        // fork; the others start from forks, whose watermark of zero is
        // below every migrated timestamp.
        let mut adopted = vec![0usize; n];
        for &t in &routed {
            adopted[t] += 1;
        }
        let busiest = (0..n).max_by_key(|&t| (adopted[t], n - t)).expect("n >= 1");
        let mut calendars: Vec<EventQueue> = (0..n).map(|_| self.events.fork()).collect();
        std::mem::swap(&mut calendars[busiest], &mut self.events);
        for (ev, t) in drained.into_iter().zip(routed) {
            calendars[t].adopt(ev);
        }

        // Agents: shared ones split, single-node ones move to their owner.
        // Every other slot stays `None`, so a misrouted packet or timer
        // panics as "not installed" instead of silently diverging.
        let mut shard_agents: Vec<Vec<Option<Box<dyn Agent>>>> =
            (0..n).map(|_| Vec::new()).collect();
        for i in 0..self.agents.len() {
            if self.agents[i].is_none() {
                for sa in &mut shard_agents {
                    sa.push(None);
                }
                continue;
            }
            let node = self.agent_nodes[i];
            if node == NodeId(usize::MAX) {
                let parts = self.agents[i]
                    .as_mut()
                    .expect("checked above")
                    .shard_split(n, shard_of_node);
                assert_eq!(parts.len(), n, "shard_split must return one part per shard");
                for (sa, part) in shard_agents.iter_mut().zip(parts) {
                    sa.push(Some(part));
                }
            } else {
                let owner = shard_of_node[node.index()];
                let mut moved = self.agents[i].take();
                for (s, sa) in shard_agents.iter_mut().enumerate() {
                    sa.push(if s == owner { moved.take() } else { None });
                }
            }
        }

        #[cfg(feature = "audit")]
        let mut shard_hooks: Vec<Vec<Box<dyn AuditHook>>> = (0..n).map(|_| Vec::new()).collect();
        #[cfg(feature = "audit")]
        for hook in &mut self.audit_hooks {
            let parts = hook.shard_split(&shard_of_link, n);
            assert_eq!(parts.len(), n, "shard_split must return one hook per shard");
            for (sh, part) in shard_hooks.iter_mut().zip(parts) {
                sh.push(part);
            }
        }

        // Links move wholesale to their owner (queues keep their resident
        // packet refs — valid against the owner's arena clone). Every
        // other slot gets an inert placeholder preserving LinkId indexing
        // and the real endpoints; resets and flushes on it are harmless.
        let endpoints = self.link_endpoints.clone();
        let placeholder = |i: usize| {
            let (from, to) = endpoints[i];
            Link::new(
                LinkId(i),
                from,
                to,
                1,
                SimDuration::ZERO,
                Box::new(crate::queue::DropTail::new(1)),
            )
        };
        let mut shard_links: Vec<Vec<Link>> = (0..n).map(|_| Vec::new()).collect();
        for (i, &owner) in shard_of_link.iter().enumerate() {
            let mut real = Some(std::mem::replace(&mut self.links[i], placeholder(i)));
            for (s, sl) in shard_links.iter_mut().enumerate() {
                sl.push(if s == owner {
                    real.take().expect("each link has one owner")
                } else {
                    placeholder(i)
                });
            }
        }

        let mut calendars = calendars.into_iter();
        let mut shard_agents = shard_agents.into_iter();
        let mut shard_links = shard_links.into_iter();
        #[cfg(feature = "audit")]
        let mut shard_hooks = shard_hooks.into_iter();
        let mut shards = Vec::with_capacity(n);
        for me in 0..n {
            shards.push(Simulator {
                now: self.now,
                events: calendars.next().expect("one calendar per shard"),
                cur_key: TIE_KEY_MAX,
                arena: self.arena.clone(),
                nodes: self.nodes.clone(),
                links: shard_links.next().expect("one list per shard"),
                link_endpoints: self.link_endpoints.clone(),
                agents: shard_agents.next().expect("one list per shard"),
                agent_nodes: self.agent_nodes.clone(),
                probes: Vec::new(),
                trace: Trace {
                    record_marks: self.trace.record_marks,
                    marks_cap: self.trace.marks_cap,
                    ..Trace::default()
                },
                // Never drawn from at runtime (no agent uses `Ctx::rng` on
                // the shardable scenarios); seeded deterministically anyway.
                rng: SmallRng::seed_from_u64(self.seed ^ me as u64),
                routes_ready: true,
                events_processed: 0,
                ev_counts: [0; EventKind::CLASSES],
                node_events: vec![0; self.nodes.len()],
                counters: SimCounters::default(),
                seed: self.seed,
                #[cfg(feature = "audit")]
                audit_hooks: shard_hooks.next().expect("one list per shard"),
                #[cfg(feature = "telemetry")]
                tel_on: self.tel_on,
                // Full copies: the owner's entries evolve from the
                // warm-up state exactly as the monolithic run's would;
                // non-owned copies idle and are discarded at merge.
                #[cfg(feature = "telemetry")]
                queue_ops: self.queue_ops.clone(),
                #[cfg(feature = "telemetry")]
                util: self.util.clone(),
                shard_io: Some(Box::new(ShardIo {
                    me,
                    shard_of_node: shard_of_node.to_vec(),
                    outbox: (0..n).map(|_| Outbox::default()).collect(),
                })),
            });
        }
        Ok(shards)
    }

    /// Reabsorb shard simulators produced by [`Simulator::split_shards`]
    /// after they ran to a common horizon. Owned links, agents, traces,
    /// and counters return home; leftover shard events (arrivals beyond
    /// the horizon) are discarded, exactly like the monolithic run's
    /// never-fired pending events. The merged simulator is for *reading
    /// results only* — queue-resident refs from packets interned after
    /// the split do not resolve against the husk's arena.
    pub(crate) fn merge_shards(&mut self, shards: Vec<Simulator>) {
        let mut shards = shards;
        // Shared agents first: parts are collected across shards in shard
        // order, the order `shard_split` produced them in.
        for i in 0..self.agents.len() {
            if self.agent_nodes[i] == NodeId(usize::MAX) && self.agents[i].is_some() {
                let parts: Vec<Box<dyn Agent>> = shards
                    .iter_mut()
                    .map(|s| s.agents[i].take().expect("shared agent part missing"))
                    .collect();
                self.agents[i]
                    .as_mut()
                    .expect("checked above")
                    .shard_merge(parts);
            }
        }
        let mut marks: Vec<MarkRecord> = self.trace.marks.drain(..).collect();
        for mut shard in shards {
            let io = shard
                .shard_io
                .take()
                .expect("merge_shards on a non-shard simulator");
            self.now = self.now.max(shard.now);
            self.events_processed += shard.events_processed;
            for c in 0..EventKind::CLASSES {
                self.ev_counts[c] += shard.ev_counts[c];
            }
            for (home, n) in self.node_events.iter_mut().zip(&shard.node_events) {
                *home += n;
            }
            self.counters.timers_scheduled += shard.counters.timers_scheduled;
            self.counters.enqueued += shard.counters.enqueued;
            self.counters.marked += shard.counters.marked;
            self.counters.dropped_overflow += shard.counters.dropped_overflow;
            self.counters.dropped_early += shard.counters.dropped_early;
            self.counters.departures_elided += shard.counters.departures_elided;
            for i in 0..self.links.len() {
                let (from, _) = self.link_endpoints[i];
                if io.shard_of_node[from.index()] == io.me {
                    std::mem::swap(&mut self.links[i], &mut shard.links[i]);
                    #[cfg(feature = "telemetry")]
                    {
                        self.queue_ops[i] = shard.queue_ops[i];
                        self.util[i] = shard.util[i];
                    }
                }
            }
            for a in 0..self.agents.len() {
                if let Some(agent) = shard.agents[a].take() {
                    debug_assert!(self.agents[a].is_none(), "agent {a} merged twice");
                    self.agents[a] = Some(agent);
                }
            }
            self.trace.drops.append(&mut shard.trace.drops);
            marks.extend(shard.trace.marks.drain(..));
            self.trace.marks_dropped += shard.trace.marks_dropped;
            // The shard flushes its audit check counts when it drops here;
            // its telemetry flush is suppressed — the merged husk reports
            // the combined totals exactly once.
            #[cfg(feature = "telemetry")]
            {
                shard.tel_on = false;
            }
        }
        // Stable sorts restore global time order; same-instant records
        // from different shards keep shard order (see DESIGN.md §9 on the
        // tie caveat).
        self.trace.drops.sort_by_key(|d| d.at);
        marks.sort_by_key(|m| m.at);
        let cap = self.trace.marks_cap;
        if marks.len() > cap {
            self.trace.marks_dropped += (marks.len() - cap) as u64;
            marks.drain(..marks.len() - cap);
        }
        self.trace.marks = marks.into();
    }

    /// Re-intern a packet received from another shard and schedule its
    /// arrival. `sched` is the packet's true emission time on its source
    /// shard — below this queue's watermark by now — so the arrival wins
    /// or loses same-instant ties against local events exactly as the
    /// monolithic run's insertion order would have decided; the content
    /// tie settles ties against arrivals emitted the same nanosecond
    /// elsewhere, by the same rule the monolithic scheduler applies. It
    /// travels with the packet (hashed once, on the source shard) and
    /// seeds this arena's memo; that it still is the wire copy's hash is
    /// checked in debug builds and, under the audit flag, as a calendar
    /// violation. The arrival joins the cut link's lane: all of a cut
    /// link's packets come from one source shard in emission order, which
    /// is the lane's key order.
    fn inject_arrival(&mut self, w: crate::shard::WirePacket) {
        let (_, node) = self.link_endpoints[w.link.index()];
        #[cfg(feature = "audit")]
        if !self.audit_hooks.is_empty() && w.tie != w.pkt.order_tie() {
            crate::audit::violation(
                "calendar",
                format_args!(
                    "wire tie {} is not the hash {} of the packet it travelled with \
                     (arrival t={:?} at node {node})",
                    w.tie,
                    w.pkt.order_tie(),
                    w.at,
                ),
            );
        }
        debug_assert_eq!(w.tie, w.pkt.order_tie(), "wire tie drifted from its packet");
        let packet = self.arena.alloc_with_tie(w.pkt, w.tie);
        self.events.push_lane(
            w.link,
            w.at,
            w.sched,
            w.tie,
            EventKind::Arrival { node, packet },
        );
    }

    /// Inject one source shard's mail, in the order it was sent, and
    /// return how many packets it held. `mail` is drained in place and
    /// keeps its capacity for the source's next swap.
    pub(crate) fn inject_mail(&mut self, mail: &mut Vec<crate::shard::WirePacket>) -> usize {
        let n = mail.len();
        for w in mail.drain(..) {
            self.inject_arrival(w);
        }
        n
    }

    /// Swap the packets bound for shard `dst` accumulated since the last
    /// call, in emission order, into `mail`, whose (empty) buffer becomes
    /// the new outbox.
    pub(crate) fn take_outbox(&mut self, dst: usize, mail: &mut Vec<crate::shard::WirePacket>) {
        debug_assert!(mail.is_empty(), "mailbox refilled before its drain");
        let io = self
            .shard_io
            .as_mut()
            .expect("take_outbox on a non-shard simulator");
        std::mem::swap(&mut io.outbox[dst].0, mail);
    }
}

/// When the `telemetry` feature is compiled in and the runtime flag was
/// up at construction, flush the final measurement window into the
/// global telemetry metrics registry.
impl Drop for Simulator {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        self.flush_telemetry();
    }
}

#[cfg(feature = "telemetry")]
impl Simulator {
    /// Drop-time telemetry flush. Only active when the runtime flag was
    /// up at construction, so simulators built with telemetry off cost
    /// nothing here.
    fn flush_telemetry(&mut self) {
        if !self.tel_on {
            return;
        }
        // A placeholder left by `std::mem::replace` (the sharded
        // measurement path swaps the real simulator out) has no links and
        // processed no events; flushing it would pollute the metrics
        // registry with zero-valued series.
        if self.events_processed == 0 && self.links.is_empty() {
            return;
        }
        use crate::telemetry::{self as tel, SeriesId};
        tel::counter_add("sim/events", self.events_processed);
        tel::counter_add("sim/ev_departure_elided", self.counters.departures_elided);
        tel::counter_add("sim/timers_scheduled", self.counters.timers_scheduled);
        tel::counter_add("queue/enqueued", self.counters.enqueued);
        tel::counter_add("queue/marked", self.counters.marked);
        tel::counter_add("queue/dropped_overflow", self.counters.dropped_overflow);
        tel::counter_add("queue/dropped_early", self.counters.dropped_early);
        tel::counter_add("trace/marks_dropped", self.trace.marks_dropped);
        for (i, name) in EventKind::CLASS_NAMES.iter().enumerate() {
            tel::counter_add(&format!("sim/ev_{name}"), self.ev_counts[i]);
        }
        // Queue ops summed by discipline name.
        let mut by_discipline: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (link, ops) in self.links.iter().zip(&self.queue_ops) {
            *by_discipline.entry(link.queue.name()).or_default() += ops;
        }
        for (name, ops) in &by_discipline {
            tel::counter_add(&format!("sim/queue_ops/{name}"), *ops);
        }
        // Final per-link queue totals for the derived drop/mark rates:
        // exactly one record per (scope, link), covering the measurement
        // window (counters restart at `reset_measurements`), so a
        // summing reducer sees each link once.
        for (i, link) in self.links.iter().enumerate() {
            let s = link.queue.stats();
            let offered = s.enqueued + s.dropped;
            if offered > 0 {
                let publish = |series, n: u64| tel::record_id(series, i as u64, 0.0, n as f64);
                publish(SeriesId::QUEUE_FINAL_OFFERED, offered);
                publish(SeriesId::QUEUE_FINAL_DROPPED, s.dropped);
                publish(SeriesId::QUEUE_FINAL_MARKED, s.marked);
            }
        }
        // Flush coalesced idle utilization windows left pending (the
        // partial open window is discarded — a fractional window would
        // skew the distribution).
        for (i, w) in self.util.iter().enumerate() {
            if w.idle_pending > 0 {
                tel::record_id(
                    SeriesId::LINK_IDLE_WINS,
                    i as u64,
                    w.start_ns as f64 / 1e9,
                    w.idle_pending as f64,
                );
            }
        }
        let peak = self
            .links
            .iter()
            .map(|l| l.queue.stats().peak_len as u64)
            .max()
            .unwrap_or(0);
        tel::gauge_max("queue/peak_len", peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::packet::{Ecn, Payload};
    use crate::queue::DropTail;
    use std::sync::{Arc, Mutex};

    /// Echoes every received data packet back as an ACK; counts arrivals.
    struct Echo {
        peer_agent: AgentId,
        peer_node: NodeId,
        received: Vec<(SimTime, u64)>,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.received.push((ctx.now(), seq));
                ctx.send(Packet {
                    flow: pkt.flow,
                    dst_node: self.peer_node,
                    dst_agent: self.peer_agent,
                    size_bytes: 40,
                    ecn: Ecn::NotCapable,
                    sent_at: ctx.now(),
                    payload: Payload::Ack {
                        cum_ack: seq + 1,
                        sack: [None; 3],
                        ts_echo: pkt.sent_at,
                        owd_echo: ctx.now().duration_since(pkt.sent_at),
                        ece: false,
                    },
                });
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `n` packets per timer fire (sequence numbers continue across
    /// fires, keeping the tcp-seq auditor satisfied); records ACK RTTs.
    struct Blaster {
        peer_agent: AgentId,
        peer_node: NodeId,
        n: u64,
        next_seq: u64,
        rtts: Vec<SimDuration>,
    }

    impl Agent for Blaster {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let Payload::Ack { ts_echo, .. } = pkt.payload {
                self.rtts.push(ctx.now().duration_since(ts_echo));
            }
        }
        fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_>) {
            let first = self.next_seq;
            self.next_seq += self.n;
            for seq in first..first + self.n {
                ctx.send(Packet {
                    flow: FlowId(0),
                    dst_node: self.peer_node,
                    dst_agent: self.peer_agent,
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

    fn two_node_sim(queue_cap: usize) -> (Simulator, AgentId, AgentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        // 8 Mbps, 10 ms each way: 1000-byte packet tx = 1 ms.
        sim.add_duplex_link(a, b, 8_000_000, SimDuration::from_millis(10), |_| {
            Box::new(DropTail::new(queue_cap))
        });
        sim.compute_routes();
        let tx = sim.alloc_agent();
        let rx = sim.alloc_agent();
        sim.install_agent(
            tx,
            a,
            Box::new(Blaster {
                peer_agent: rx,
                peer_node: b,
                n: 5,
                next_seq: 0,
                rtts: Vec::new(),
            }),
        );
        sim.install_agent(
            rx,
            b,
            Box::new(Echo {
                peer_agent: tx,
                peer_node: a,
                received: Vec::new(),
            }),
        );
        (sim, tx, rx)
    }

    #[test]
    fn end_to_end_delivery_and_timing() {
        let (mut sim, tx, rx) = two_node_sim(100);
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(1.0));

        let echo: &Echo = sim.agent(rx);
        assert_eq!(echo.received.len(), 5);
        // First packet: 1 ms serialization + 10 ms propagation.
        assert_eq!(echo.received[0].0, SimTime::from_millis(11));
        // Subsequent packets pace out at 1 ms (serialization) intervals.
        assert_eq!(echo.received[1].0, SimTime::from_millis(12));

        let blaster: &Blaster = sim.agent(tx);
        assert_eq!(blaster.rtts.len(), 5);
        // RTT of first packet: 1 ms + 10 ms + 0.04 ms (ACK tx) + 10 ms.
        let rtt = blaster.rtts[0].as_secs_f64();
        assert!((rtt - 0.02104).abs() < 1e-9, "rtt = {rtt}");
    }

    #[test]
    fn queue_overflow_is_traced() {
        // Queue cap 2: 5 back-to-back sends overflow (1 in flight + 2 queued).
        let (mut sim, tx, _rx) = two_node_sim(2);
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.trace.drops.len(), 2);
        assert!(sim.trace.drops.iter().all(|d| d.was_data));
    }

    #[test]
    fn reset_measurements_zeroes_counters_then_rerun_accumulates() {
        let (mut sim, tx, _rx) = two_node_sim(2);
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let warm = sim.counters();
        assert!(warm.enqueued > 0, "warm-up produced no enqueues");
        assert_eq!(warm.dropped_overflow, 2);
        assert_eq!(warm.timers_scheduled, 1);
        assert_eq!(sim.trace.drops.len(), 2);

        // End of warm-up: everything windowed must return to zero.
        sim.reset_measurements();
        assert_eq!(
            sim.counters(),
            SimCounters {
                departures_elided: warm.departures_elided,
                ..SimCounters::default()
            },
            "only the lifetime elision tally survives the reset"
        );
        assert!(sim.trace.drops.is_empty());
        assert!(sim.trace.marks.is_empty());
        assert_eq!(sim.trace.marks_dropped, 0);

        // The same workload after the reset fills a fresh window with
        // identical totals — nothing leaked across the boundary.
        sim.schedule_agent_timer(SimTime::from_secs_f64(1.0), tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(2.0));
        sim.flush_measurements();
        let fresh = sim.counters();
        assert_eq!(fresh.enqueued, warm.enqueued);
        assert_eq!(fresh.dropped_overflow, warm.dropped_overflow);
        assert_eq!(fresh.timers_scheduled, warm.timers_scheduled);
        assert_eq!(sim.trace.drops.len(), 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut sim, tx, rx) = two_node_sim(2);
            sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
            sim.run_until(SimTime::from_secs_f64(1.0));
            let echo: &Echo = sim.agent(rx);
            (echo.received.clone(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn probes_fire_at_interval() {
        let (mut sim, tx, _rx) = two_node_sim(100);
        let samples: Arc<Mutex<Vec<SimTime>>> = Arc::default();
        let s2 = Arc::clone(&samples);
        sim.add_probe(SimDuration::from_millis(100), move |_sim, now| {
            s2.lock().unwrap().push(now);
        });
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let got = samples.lock().unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], SimTime::from_millis(100));
    }

    #[test]
    fn utilization_counts_delivered_bits() {
        let (mut sim, tx, _rx) = two_node_sim(100);
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 5 × 1000-byte packets on the forward link.
        assert_eq!(sim.link(LinkId(0)).delivered_bits, 5 * 8000);
        // 5 × 40-byte ACKs on the reverse link.
        assert_eq!(sim.link(LinkId(1)).delivered_bits, 5 * 320);
    }

    /// The experiment runner moves whole simulations across threads; a
    /// non-`Send` field anywhere in the graph should fail this at compile
    /// time rather than deep inside the experiments crate.
    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
    }

    /// One transmission straddling the window end can legitimately push a
    /// window past 100%; that must NOT trip the over-delivery audit.
    #[test]
    #[cfg(all(feature = "telemetry", feature = "audit"))]
    fn util_straddling_transmission_is_not_a_violation() {
        let (mut sim, _tx, _rx) = two_node_sim(100);
        let cap = 8_000_000u64; // two_node_sim link capacity, bits/s
        sim.tel_on = true;
        sim.util_account(LinkId(0), SimTime::ZERO, cap);
        sim.util_account(LinkId(0), SimTime::ZERO, cap);
        // Closing the window sees exactly capacity + straddle allowance.
        sim.util_account(LinkId(0), SimTime::from_secs(2), 1);
    }

    /// Bits beyond capacity + one straddling transmission are broken
    /// accounting and must surface as an audit violation, not be hidden
    /// by the 10,000 bp clamp.
    #[test]
    #[cfg(all(feature = "telemetry", feature = "audit", debug_assertions))]
    fn util_over_delivery_is_an_audit_violation() {
        if !pert_core::audit::enabled() {
            return;
        }
        let (mut sim, _tx, _rx) = two_node_sim(100);
        let cap = 8_000_000u64;
        sim.tel_on = true;
        for _ in 0..3 {
            sim.util_account(LinkId(0), SimTime::ZERO, cap);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.util_account(LinkId(0), SimTime::from_secs(2), 1);
        }))
        .expect_err("an over-delivered window must be reported");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(msg.contains("audit violation [link]"), "{msg}");
        assert!(msg.contains("over-delivery"), "{msg}");
    }

    /// What the handlers of [`one_instant_sim`] did, in order.
    type Log = Arc<Mutex<Vec<(SimTime, &'static str)>>>;

    /// A FIFO that ticks every 500 µs and logs its ticks and operations.
    struct Ticker {
        fifo: DropTail,
        log: Log,
    }

    impl QueueDiscipline for Ticker {
        fn enqueue(
            &mut self,
            pkt: PacketRef,
            arena: &mut PacketArena,
            now: SimTime,
        ) -> EnqueueOutcome {
            self.log.lock().unwrap().push((now, "enqueue"));
            self.fifo.enqueue(pkt, arena, now)
        }
        fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketRef> {
            self.log.lock().unwrap().push((now, "dequeue"));
            self.fifo.dequeue(arena, now)
        }
        fn len(&self) -> usize {
            self.fifo.len()
        }
        fn len_bytes(&self) -> u64 {
            self.fifo.len_bytes()
        }
        fn capacity_pkts(&self) -> usize {
            self.fifo.capacity_pkts()
        }
        fn stats(&self) -> &crate::queue::QueueStats {
            self.fifo.stats()
        }
        fn stats_mut(&mut self) -> &mut crate::queue::QueueStats {
            self.fifo.stats_mut()
        }
        fn on_tick(&mut self, now: SimTime) {
            self.log.lock().unwrap().push((now, "tick"));
        }
        fn tick_interval(&self) -> Option<SimDuration> {
            Some(SimDuration::from_micros(500))
        }
        fn name(&self) -> &'static str {
            "ticker"
        }
    }

    /// Logs its timers and packets; each timer sends `token` 1000-byte
    /// packets to `dst`.
    struct Logger {
        dst: (NodeId, AgentId),
        next_seq: u64,
        log: Log,
    }

    impl Agent for Logger {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
            self.log.lock().unwrap().push((ctx.now(), "arrival"));
        }
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
            self.log.lock().unwrap().push((ctx.now(), "timer"));
            for _ in 0..token.0 {
                self.next_seq += 1;
                ctx.send(Packet {
                    flow: FlowId(ctx.agent.index()),
                    dst_node: self.dst.0,
                    dst_agent: self.dst.1,
                    size_bytes: 1000,
                    ecn: Ecn::NotCapable,
                    sent_at: ctx.now(),
                    payload: Payload::Data {
                        seq: self.next_seq,
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

    /// Two senders feed a router over equal 8 Mbps, 8 ms links (1 ms per
    /// packet); the router's 8 Mbps link out is a [`Ticker`]. At 10 ms
    /// one instant holds, in key order: a timer scheduled at the start,
    /// two arrivals emitted at 1 ms (one per lane, ordered by content
    /// tie), the router link's departure, reserved at 9 ms and armed by
    /// the first of those arrivals, and a queue tick scheduled at 9.5 ms.
    fn one_instant_sim(calendar: crate::event::CalendarKind) -> (Simulator, Log) {
        let log = Log::default();
        let mut sim = Simulator::new(1);
        sim.events = EventQueue::with_calendar(calendar);
        let [a1, a2, b, c] = [(); 4].map(|_| sim.add_node());
        for a in [a1, a2] {
            sim.add_link(
                a,
                b,
                8_000_000,
                SimDuration::from_millis(8),
                Box::new(DropTail::new(8)),
            );
        }
        let ticker = Ticker {
            fifo: DropTail::new(8),
            log: Arc::clone(&log),
        };
        sim.add_link(
            b,
            c,
            8_000_000,
            SimDuration::from_millis(1),
            Box::new(ticker),
        );
        sim.compute_routes();
        let sink = sim.alloc_agent();
        let logger = |dst| Logger {
            dst,
            next_seq: 0,
            log: Arc::clone(&log),
        };
        sim.install_agent(sink, c, Box::new(logger((c, sink))));
        let s1 = sim.add_agent(a1, Box::new(logger((c, sink))));
        let s2 = sim.add_agent(a2, Box::new(logger((c, sink))));
        let ms = SimTime::from_millis;
        sim.schedule_agent_timer(ms(0), s1, TimerToken(2));
        sim.schedule_agent_timer(ms(1), s2, TimerToken(1));
        sim.schedule_agent_timer(ms(10), s2, TimerToken(1));
        sim.run_until(ms(25));
        (sim, log)
    }

    /// The run loop pops each event only after the previous handler
    /// returned, so a departure an arrival arms at the current instant
    /// still precedes the tick pending there: the wheel-backed simulator
    /// dispatches in the heap backend's pop order, event for event.
    #[test]
    fn one_instant_dispatches_in_heap_pop_order() {
        use crate::event::CalendarKind;
        let (wheel, log) = one_instant_sim(CalendarKind::Wheel);
        let (heap, heap_log) = one_instant_sim(CalendarKind::Heap);
        let log = log.lock().unwrap().clone();
        assert_eq!(log, *heap_log.lock().unwrap());
        let at_10ms: Vec<_> = log
            .iter()
            .filter(|(t, _)| *t == SimTime::from_millis(10))
            .map(|&(_, what)| what)
            .collect();
        assert_eq!(at_10ms, ["timer", "enqueue", "enqueue", "dequeue", "tick"]);
        assert_eq!(log.iter().filter(|(_, what)| *what == "arrival").count(), 4);
        for sim in [&wheel, &heap] {
            assert_eq!(sim.event_class_counts(), wheel.event_class_counts());
            assert_eq!(
                sim.event_class_counts().iter().sum::<u64>(),
                sim.events_processed()
            );
        }
    }

    /// The serialization memo keys on the rate too: a capacity changed
    /// between two packets serializes the second at the new rate.
    #[test]
    fn capacity_change_applies_to_the_next_packet() {
        let (mut sim, tx, rx) = two_node_sim(100);
        sim.schedule_agent_timer(SimTime::ZERO, tx, TimerToken(0));
        sim.run_until(SimTime::from_millis(100));
        sim.link_mut(LinkId(0)).capacity_bps = 4_000_000;
        sim.schedule_agent_timer(SimTime::from_millis(100), tx, TimerToken(0));
        sim.run_until(SimTime::from_millis(200));
        let echo: &Echo = sim.agent(rx);
        let got: Vec<_> = echo.received.iter().map(|&(t, _)| t).collect();
        // 1 ms per packet at 8 Mbps, then 2 ms at 4 Mbps; 10 ms delay.
        let want: Vec<_> = [11, 12, 13, 14, 15, 112, 114, 116, 118, 120]
            .map(SimTime::from_millis)
            .into();
        assert_eq!(got, want);
    }

    /// `split_shards` drains the calendar to route its events and, when it
    /// then refuses, schedules them straight back: the drained queue must
    /// take the refill as a first fill. The wheel's horizon used to stay at
    /// the last drained event (so earlier refills landed behind it), and a
    /// cancelled event later than every live one came back to life when
    /// the drain cleared its tombstone.
    #[test]
    fn drained_calendar_refills_in_the_same_order() {
        use crate::event::{CalendarKind, EventQueue};
        let at = SimTime::from_nanos;
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut q = EventQueue::with_calendar(kind);
            q.schedule(at(5), EventKind::Control { code: 99 });
            assert_eq!(q.pop().map(|e| e.at), Some(at(5)));
            let times = [7, 1 << 30, 7, 1 << 20, 9, u64::MAX];
            let ids: Vec<_> = (0u64..)
                .zip(times)
                .map(|(code, t)| q.schedule(at(t), EventKind::Control { code }))
                .collect();
            assert!(q.cancel(ids[5]));

            let code = |e: &Event| match e.kind {
                EventKind::Control { code } => code,
                _ => unreachable!(),
            };
            let in_order = [0, 2, 4, 3, 1];
            let drained = q.drain_all();
            assert_eq!(drained.iter().map(code).collect::<Vec<_>>(), in_order);
            assert!(q.is_empty());
            for ev in &drained {
                q.adopt(*ev);
            }
            assert_eq!(q.len(), 5);
            let again: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(again.iter().map(code).collect::<Vec<_>>(), in_order);
            assert_eq!(again.last().map(|e| e.at), Some(at(1 << 30)), "{kind:?}");
        }
    }
}
