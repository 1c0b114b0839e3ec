//! The struct-of-arrays flow slab: one shared agent hosting every TCP
//! connection of a simulation, both halves.
//!
//! Per-flow agents carry two costs at scale: every endpoint is a separate
//! `Box<dyn Agent>` (pointer chase + heap spread per event), and the hot
//! per-ACK fields sit interleaved with cold configuration in one large
//! struct. The slab flips the layout: a connection is one *row* across
//! parallel vectors indexed by a dense slot, and each half of it is paid
//! for when it first runs, not when it is declared.
//!
//! * *Slot-indexed columns* hold only what demultiplexing needs: the
//!   sender entry (a 40-byte `PendingRow` until the sender's first event,
//!   then its index among the started senders), the 8-byte receiver entry
//!   (an interned delayed-ACK setting until the first data segment, then
//!   its index among the opened receivers), the two endpoint nodes and the
//!   `flow → slot` map: 60 bytes a declared connection.
//! * *Sender rows* — the hot parts (`Wnd`, `RttState`, `AppState`, all
//!   `Copy`) and the cold remainder (`FlowCold`, congestion control
//!   inline) — are built by the sender's first event into two parallel
//!   dense columns, in start order.
//! * *Receiver rows* (`SinkState`) are built by the receiver's first data
//!   segment, which is always its first event, into a dense column in
//!   order of first data.
//!
//! A connection that never starts never costs either row, and each dense
//! column is reserved once per part for every row still pending there, so
//! it is allocated once and its pages are touched only as rows open.
//!
//! The slab is installed once per simulator as a *shared* agent (it has no
//! home node; every row records its source and sink nodes and transmits
//! via [`netsim::Ctx::send_from`]). Demultiplexing:
//!
//! * packets — both directions carry the flow id, and `flow → slot` is a
//!   dense lookup; data segments go to the receiver half, ACKs to the
//!   sender half.
//! * timers — tokens carry `slot << 8 | kind`, so bits 8.. address the
//!   row and the low byte selects the action (start/stop/transfer/RTO/
//!   pacing). The receiver's delayed-ACK timer is kind `0xDA` with the
//!   slot in bits 8–39 and its epoch in bits 40–63
//!   (`SinkState::token`), so slots are limited to 32 bits.
//!
//! The protocol logic is `FlowView`/`FlowIo` and `SinkState`/
//! `SinkIo`; the slab only demultiplexes and owns the columns.

use std::any::Any;

use netsim::{Agent, Ctx, FlowId, NodeId, Packet, SimDuration, TimerToken};
use pert_core::predictors::AckSample;
use pert_core::Attach;

use crate::cc::{Cc, CcAlgorithm};
use crate::sender::{
    fresh_hot, FlowCold, FlowIo, FlowView, Hot, PendingRow, SenderStats, TcpConfig, TOKEN_START,
    TOKEN_STOP,
};
use crate::sink::{delack_timeout, SinkIo, SinkState, SinkStats, TOKEN_DELACK};
use crate::source::Source;
use crate::{CcKind, ConnectionSpec};

/// [`FlowSlab::by_flow`] entry of a flow id no connection has.
const UNREGISTERED: u32 = u32::MAX;

/// What a sender that has not run reads back: a fresh row's statistics.
const FRESH_STATS: SenderStats = SenderStats {
    acked_segments: 0,
    sent_segments: 0,
    retransmits: 0,
    loss_events: 0,
    timeouts: 0,
    ecn_reductions: 0,
    early_reductions: 0,
};

/// What a receiver that has seen no data reads back.
const FRESH_SINK_STATS: SinkStats = SinkStats {
    segments_received: 0,
    duplicates: 0,
    marked: 0,
    rcv_next: 0,
};

/// The 32-bit index the slab stores for an id; `id` names it in the panic.
fn index32(index: usize, id: impl std::fmt::Display) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("{id} does not fit the slab's 32-bit ids"))
}

/// The index of the last entry of `table` that `is` picks, pushing
/// `new()` when none does.
fn interned<T>(table: &mut Vec<T>, is: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> usize {
    table.iter().rposition(is).unwrap_or_else(|| {
        table.push(new());
        table.len() - 1
    })
}

/// Room for every row still `pending` on a part, reserved when the dense
/// `column` is full: the first row a part opens allocates the column once,
/// and its pages are touched only as rows open.
fn reserve_pending<T>(column: &mut Vec<T>, pending: usize) {
    if column.len() == column.capacity() {
        column.reserve(pending);
    }
}

/// The slots whose endpoint in `nodes` shard `s` owns.
fn owned_by<'a>(
    s: usize,
    nodes: &'a [u32],
    shard_of_node: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    (0..nodes.len()).filter(move |&slot| shard_of_node[nodes[slot] as usize] == s)
}

/// The sender half of a slot on one part of the slab.
enum Sender {
    /// Declared and not yet run; its first event builds its rows.
    Pending(PendingRow),
    /// Running: its hot parts are `hot[i]` and its cold state `live[i]`.
    Live(u32),
    /// Hosted by another shard's part of the slab. Touching it here is a
    /// bug and panics rather than silently diverging.
    Away,
}

/// The receiver half of a slot on one part of the slab, in 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Receiver {
    /// Has seen no data; its delayed-ACK timeout is `delacks[i]`.
    Pending(u32),
    /// Has seen data: its state is `sinks[i]`.
    Live(u32),
    /// Hosted by another shard's part of the slab.
    Away,
}

/// One distinct congestion control of the slab's connections.
struct Kind {
    spec: CcKind,
    /// An unseeded, uninstrumented instance: what a sender that never ran
    /// reads back. Building it when the kind is interned also rejects bad
    /// parameters at `add_flow`, before any simulation.
    fresh: Cc,
}

impl Kind {
    fn new(spec: &CcKind) -> Self {
        Kind {
            spec: spec.clone(),
            fresh: spec.build(0, Attach::default()),
        }
    }
}

impl Clone for Kind {
    fn clone(&self) -> Self {
        Kind::new(&self.spec)
    }
}

/// Shared agent hosting every TCP connection of a simulation in
/// struct-of-arrays form. Build implicitly through
/// [`connect`](crate::connect) /
/// [`connect_with_source`](crate::connect_with_source); read results back
/// with the `sender_*` and [`sink_stats`](crate::sink_stats) accessors in
/// the crate root.
#[derive(Default)]
pub struct FlowSlab {
    // --- slot-indexed: one entry per connection ---------------------------
    /// The sender half of every slot: a pending row until the sender's
    /// first event, then its index in `hot` and `live`. A shard part that
    /// hosts no sender holds this column empty.
    senders: Vec<Sender>,
    /// The receiver half of every slot: pending until its first data
    /// segment, then its index in `sinks`. A shard part that hosts no
    /// receiver holds this column empty.
    receivers: Vec<Receiver>,
    /// Source (sender-half) node of every slot, as a 32-bit index.
    nodes: Vec<u32>,
    /// Sink (receiver-half) node of every slot, as a 32-bit index.
    sink_nodes: Vec<u32>,
    /// Dense `flow id → slot` map (flow ids are small consecutive
    /// integers in every topology builder); [`UNREGISTERED`] where no
    /// flow has that id.
    by_flow: Vec<u32>,
    // --- dense: one row per half this part has run ------------------------
    /// Hot parts of the started senders this part hosts, in start order.
    hot: Vec<Hot>,
    /// Cold state of the same senders, parallel to `hot`. There is no
    /// full-width sender column: a slot's sender rows exist only once it
    /// has run, and only on the part that runs it.
    live: Vec<FlowCold>,
    /// State of the receivers this part hosts that have seen data, in
    /// order of first data.
    sinks: Vec<SinkState>,
    // --- what pending entries need ---------------------------------------
    /// `Pending` entries in `senders`: the room the next growth of `hot`
    /// and `live` reserves.
    pending: usize,
    /// `Pending` entries in `receivers`: the room the next growth of
    /// `sinks` reserves.
    pending_sinks: usize,
    /// The distinct congestion controls pending rows name by index.
    kinds: Vec<Kind>,
    /// The distinct delayed-ACK timeouts pending receivers name by index.
    delacks: Vec<SimDuration>,
    /// Set only on the husk a shard split leaves behind: the node → shard
    /// map the parts were cut along, which names each row's owners at
    /// merge time.
    shard_of_node: Vec<usize>,
    /// What the connections attach: the simulator's config's decision.
    attach: Attach,
}

impl FlowSlab {
    /// An empty slab whose connections attach as `attach` says.
    pub fn new(attach: Attach) -> Self {
        let mut slab = FlowSlab::default();
        slab.attach = attach;
        slab
    }

    /// Number of connections hosted.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the slab hosts no connections.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Register the connection `spec` describes, both halves: its sender
    /// on `spec.src` fed by `source`, its receiver on `spec.dst`. Returns
    /// the connection's slot. Each half's rows are built when it first
    /// runs.
    pub fn add_flow(&mut self, spec: &ConnectionSpec, source: Box<dyn Source>) -> usize {
        let slot = self.len();
        assert!(
            slot < UNREGISTERED as usize,
            "flow slot must fit the 32-bit slot field of a timer token"
        );
        assert!(spec.seg_size > 0, "segments must carry data");
        let flow = spec.flow;
        let flow32 = index32(flow.index(), flow);
        let src = index32(spec.src.index(), spec.src);
        let dst = index32(spec.dst.index(), spec.dst);
        if self.by_flow.len() <= flow.index() {
            self.by_flow.resize(flow.index() + 1, UNREGISTERED);
        }
        assert!(
            self.by_flow[flow.index()] == UNREGISTERED,
            "flow {flow} registered twice in the slab"
        );
        let cfg = TcpConfig {
            flow: flow32,
            seg_size: spec.seg_size,
            ecn: spec.ecn,
            record_samples: spec.record_samples,
        };
        let kind = self.intern(&spec.cc);
        let delack = self.intern_delack(delack_timeout(spec.delack));
        self.senders.push(Sender::Pending(PendingRow {
            source,
            seed: spec.seed,
            cfg,
            kind,
        }));
        self.pending += 1;
        self.receivers.push(Receiver::Pending(delack));
        self.pending_sinks += 1;
        self.nodes.push(src);
        self.sink_nodes.push(dst);
        self.by_flow[flow.index()] = slot as u32;
        slot
    }

    /// The index of `cc` among the slab's kinds, interning it if new.
    fn intern(&mut self, cc: &CcKind) -> u16 {
        let i = interned(&mut self.kinds, |k| k.spec == *cc, || Kind::new(cc));
        u16::try_from(i).expect("a slab holds at most 65 536 distinct congestion controls")
    }

    /// The index of `delack` among the slab's delayed-ACK timeouts,
    /// interning it if new.
    fn intern_delack(&mut self, delack: SimDuration) -> u32 {
        let i = interned(&mut self.delacks, |&d| d == delack, || delack);
        index32(i, "delayed-ACK setting")
    }

    /// The slot hosting `flow`, if registered.
    pub fn slot_of(&self, flow: FlowId) -> Option<usize> {
        self.by_flow
            .get(flow.index())
            .filter(|&&s| s != UNREGISTERED)
            .map(|&s| s as usize)
    }

    fn expect_slot(&self, flow: FlowId) -> usize {
        self.slot_of(flow)
            .unwrap_or_else(|| panic!("flow {flow} is not hosted by this slab"))
    }

    /// Timer token that starts the flow in `slot`.
    pub fn start_token(slot: usize) -> TimerToken {
        TimerToken(TOKEN_START | ((slot as u64) << 8))
    }

    /// Timer token that stops the flow in `slot`.
    pub fn stop_token(slot: usize) -> TimerToken {
        TimerToken(TOKEN_STOP | ((slot as u64) << 8))
    }

    fn view(&mut self, slot: usize) -> FlowView<'_> {
        let i = match self.senders.get(slot) {
            Some(Sender::Live(i)) => *i as usize,
            Some(Sender::Pending(_)) => self.start(slot),
            _ => panic!("flow is hosted by another shard"),
        };
        let Hot { wnd, rtt, app } = &mut self.hot[i];
        FlowView {
            wnd,
            rtt,
            app,
            cold: &mut self.live[i],
        }
    }

    /// Build the pending sender of `slot` into `hot` and `live`; returns
    /// its index there.
    #[cold]
    fn start(&mut self, slot: usize) -> usize {
        let i = self.live.len();
        let live = Sender::Live(index32(i, "live row"));
        let Sender::Pending(row) = std::mem::replace(&mut self.senders[slot], live) else {
            unreachable!("slot {slot} is not pending")
        };
        reserve_pending(&mut self.hot, self.pending);
        reserve_pending(&mut self.live, self.pending);
        self.pending -= 1;
        let cc = self.kinds[usize::from(row.kind)]
            .spec
            .build(row.seed, self.attach);
        self.hot.push(fresh_hot());
        self.live
            .push(FlowCold::build(row, cc, self.attach.telemetry));
        i
    }

    /// How the sender half of `slot` reaches the simulator.
    fn sender_io<'a, 'b>(&self, slot: usize, ctx: &'a mut Ctx<'b>) -> FlowIo<'a, 'b> {
        FlowIo {
            node: NodeId(self.nodes[slot] as usize),
            peer_node: NodeId(self.sink_nodes[slot] as usize),
            token_bits: (slot as u64) << 8,
            ctx,
        }
    }

    /// The receiver state of `slot`. A pending receiver is built here by
    /// its first data segment, which carries its `flow`; every other event
    /// of a receiver comes after that one.
    fn sink(&mut self, slot: usize, first_data: Option<FlowId>) -> &mut SinkState {
        let i = match (self.receivers.get(slot), first_data) {
            (Some(Receiver::Live(i)), _) => *i as usize,
            (Some(&Receiver::Pending(delack)), Some(flow)) => self.open(slot, flow, delack),
            (Some(Receiver::Pending(_)), None) => {
                unreachable!("slot {slot}'s receiver has an event before its first data")
            }
            _ => panic!("flow is hosted by another shard"),
        };
        &mut self.sinks[i]
    }

    /// Build the pending receiver of `slot` into `sinks`; returns its
    /// index there.
    #[cold]
    fn open(&mut self, slot: usize, flow: FlowId, delack: u32) -> usize {
        let i = self.sinks.len();
        self.receivers[slot] = Receiver::Live(index32(i, "receiver row"));
        reserve_pending(&mut self.sinks, self.pending_sinks);
        self.pending_sinks -= 1;
        let flow = index32(flow.index(), flow);
        let delack = self.delacks[delack as usize];
        self.sinks
            .push(SinkState::new(flow, delack, self.attach.audit));
        i
    }

    /// Run the receiver half of `slot`; `first_data` as for
    /// [`sink`](Self::sink).
    fn receiver<'a, 'b>(
        &mut self,
        slot: usize,
        first_data: Option<FlowId>,
        ctx: &'a mut Ctx<'b>,
    ) -> (&mut SinkState, SinkIo<'a, 'b>) {
        let io = SinkIo {
            node: NodeId(self.sink_nodes[slot] as usize),
            peer_node: NodeId(self.nodes[slot] as usize),
            slot,
            ctx,
        };
        (self.sink(slot, first_data), io)
    }

    // --- per-flow read-back ---------------------------------------------

    /// The slot of `flow`, whose sender half this slab hosts.
    fn sender_slot(&self, flow: FlowId) -> usize {
        let slot = self.expect_slot(flow);
        assert!(
            matches!(
                self.senders.get(slot),
                Some(Sender::Pending(_) | Sender::Live(_))
            ),
            "flow {flow} is hosted by another shard"
        );
        slot
    }

    /// The index of `flow`'s sender rows, or its pending row if it has
    /// not run.
    fn row_of(&self, flow: FlowId) -> Result<usize, &PendingRow> {
        match &self.senders[self.sender_slot(flow)] {
            Sender::Live(i) => Ok(*i as usize),
            Sender::Pending(row) => Err(row),
            Sender::Away => unreachable!("checked by sender_slot"),
        }
    }

    /// The cold state of `flow`'s sender, or its pending row if it has not
    /// run.
    fn cold_of(&self, flow: FlowId) -> Result<&FlowCold, &PendingRow> {
        self.row_of(flow).map(|i| &self.live[i])
    }

    /// The hot parts of `flow`'s sender; a fresh row's if it has not run.
    fn hot_of(&self, flow: FlowId) -> Hot {
        self.row_of(flow)
            .map_or_else(|_| fresh_hot(), |i| self.hot[i])
    }

    /// Cumulative statistics of `flow`.
    pub fn stats_of(&self, flow: FlowId) -> &SenderStats {
        self.cold_of(flow).map_or(&FRESH_STATS, |c| &c.stats)
    }

    /// Per-ACK samples of `flow` (empty unless `record_samples`).
    pub fn samples_of(&self, flow: FlowId) -> &[AckSample] {
        self.cold_of(flow).map_or(&[], FlowCold::samples)
    }

    /// Congestion-control algorithm of `flow`, for reading its counters
    /// back after a run (`early_reductions`, `name`); a fresh one of its
    /// kind while the sender has not run.
    pub fn cc_of(&self, flow: FlowId) -> &dyn CcAlgorithm {
        match self.cold_of(flow) {
            Ok(cold) => &*cold.cc,
            Err(row) => &*self.kinds[usize::from(row.kind)].fresh,
        }
    }

    /// Current congestion window of `flow`, segments.
    pub fn cwnd_of(&self, flow: FlowId) -> f64 {
        self.hot_of(flow).wnd.cwnd
    }

    /// True once `flow` has permanently finished.
    pub fn stopped_of(&self, flow: FlowId) -> bool {
        self.hot_of(flow).app.stopped
    }

    /// Receiver statistics of `flow`; a fresh receiver's while it has
    /// seen no data.
    pub fn sink_stats_of(&self, flow: FlowId) -> &SinkStats {
        match self.receivers.get(self.expect_slot(flow)) {
            Some(Receiver::Live(i)) => &self.sinks[*i as usize].stats,
            Some(Receiver::Pending(_)) => &FRESH_SINK_STATS,
            _ => panic!("flow {flow} is hosted by another shard"),
        }
    }
}

/// Every sender's totals reach telemetry exactly once, in slot order, when
/// the part hosting it drops: a started sender's from its cold state, a
/// pending one's as a fresh row's. A shard split or merge moves rows, so
/// no row is flushed twice.
impl Drop for FlowSlab {
    fn drop(&mut self) {
        for sender in &self.senders {
            match sender {
                Sender::Pending(row) if self.attach.telemetry => row.flush_telemetry(),
                Sender::Live(i) => self.live[*i as usize].flush_telemetry(),
                Sender::Pending(_) | Sender::Away => {}
            }
        }
    }
}

impl Agent for FlowSlab {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let slot = self.expect_slot(pkt.flow);
        if pkt.is_ack() {
            let mut io = self.sender_io(slot, ctx);
            self.view(slot).handle_packet(pkt, &mut io);
        } else {
            debug_assert_eq!(
                ctx.node.index(),
                self.sink_nodes[slot] as usize,
                "data off its sink node"
            );
            let (sink, mut io) = self.receiver(slot, Some(pkt.flow), ctx);
            sink.on_data(pkt, &mut io);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        if token.0 & 0xff == TOKEN_DELACK {
            let (sink, mut io) = self.receiver(SinkState::token_slot(token), None, ctx);
            sink.on_delack_timer(token, &mut io);
            return;
        }
        let slot = (token.0 >> 8) as usize;
        let mut io = self.sender_io(slot, ctx);
        self.view(slot).handle_timer(token.0 & 0xff, &mut io);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn shard_splittable(&self) -> bool {
        true
    }

    fn shard_route_timer(&self, token: TimerToken) -> Option<NodeId> {
        let node = if token.0 & 0xff == TOKEN_DELACK {
            self.sink_nodes.get(SinkState::token_slot(token))
        } else {
            self.nodes.get((token.0 >> 8) as usize)
        };
        node.map(|&n| NodeId(n as usize))
    }

    fn shard_split(&mut self, n: usize, shard_of_node: &[usize]) -> Vec<Box<dyn Agent>> {
        // Every part keeps the slot → node and flow → slot maps, so slot
        // numbering and token routing stay identical everywhere. A part
        // hosting a row of a half holds that half's slot-indexed column,
        // `Away` where another part owns the slot; the first such part
        // takes the column itself. A sender's pending row or dense rows
        // (and thus the right to run it) move to the shard owning its
        // source node, a receiver's to the shard owning its sink node. The
        // husk keeps only the partition.
        let mut whole = std::mem::take(self);
        self.shard_of_node = shard_of_node.to_vec();
        self.attach = whole.attach;
        let owner = |nodes: &[u32], slot: usize| shard_of_node[nodes[slot] as usize];
        let (mut senders, mut receivers) = (vec![false; n], vec![false; n]);
        for slot in 0..whole.len() {
            senders[owner(&whole.nodes, slot)] = true;
            receivers[owner(&whole.sink_nodes, slot)] = true;
        }
        let first_sender = senders.iter().position(|&h| h);
        let first_receiver = receivers.iter().position(|&h| h);
        let mut parts: Vec<FlowSlab> = (0..n).map(|_| FlowSlab::new(whole.attach)).collect();
        // Descending, so the part that takes a column or table itself comes
        // after every part that needs a copy of it.
        for (s, part) in parts.iter_mut().enumerate().rev() {
            if Some(s) == first_sender {
                part.senders = std::mem::take(&mut whole.senders);
                part.kinds = std::mem::take(&mut whole.kinds);
            } else if senders[s] {
                part.senders = (0..whole.len()).map(|_| Sender::Away).collect();
                part.kinds = whole.kinds.clone();
            }
            if Some(s) == first_receiver {
                part.receivers = std::mem::take(&mut whole.receivers);
                part.delacks = std::mem::take(&mut whole.delacks);
            } else if receivers[s] {
                part.receivers = vec![Receiver::Away; whole.len()];
                part.delacks = whole.delacks.clone();
            }
            if s == 0 {
                part.nodes = std::mem::take(&mut whole.nodes);
                part.sink_nodes = std::mem::take(&mut whole.sink_nodes);
                part.by_flow = std::mem::take(&mut whole.by_flow);
            } else {
                part.nodes = whole.nodes.clone();
                part.sink_nodes = whole.sink_nodes.clone();
                part.by_flow = whole.by_flow.clone();
            }
        }
        let nodes = std::mem::take(&mut parts[0].nodes);
        let sink_nodes = std::mem::take(&mut parts[0].sink_nodes);
        if let Some(first) = first_sender {
            let mut hot = std::mem::take(&mut whole.hot).into_iter();
            let mut live = std::mem::take(&mut whole.live).into_iter();
            let mut slot_of_live = vec![0; live.len()];
            for slot in 0..nodes.len() {
                let row = std::mem::replace(&mut parts[first].senders[slot], Sender::Away);
                let part = &mut parts[owner(&nodes, slot)];
                match row {
                    Sender::Live(i) => slot_of_live[i as usize] = slot,
                    Sender::Pending(_) => {
                        part.senders[slot] = row;
                        part.pending += 1;
                    }
                    Sender::Away => unreachable!("an unsplit slab hosts every sender"),
                }
            }
            for slot in slot_of_live {
                let part = &mut parts[owner(&nodes, slot)];
                part.senders[slot] = Sender::Live(part.live.len() as u32);
                part.hot.extend(hot.next());
                part.live.extend(live.next());
            }
        }
        if let Some(first) = first_receiver {
            let mut sinks = std::mem::take(&mut whole.sinks).into_iter();
            let mut slot_of_sink = vec![0; sinks.len()];
            for slot in 0..sink_nodes.len() {
                let entry = std::mem::replace(&mut parts[first].receivers[slot], Receiver::Away);
                let part = &mut parts[owner(&sink_nodes, slot)];
                match entry {
                    Receiver::Live(i) => slot_of_sink[i as usize] = slot,
                    Receiver::Pending(_) => {
                        part.receivers[slot] = entry;
                        part.pending_sinks += 1;
                    }
                    Receiver::Away => unreachable!("an unsplit slab hosts every receiver"),
                }
            }
            for slot in slot_of_sink {
                let part = &mut parts[owner(&sink_nodes, slot)];
                part.receivers[slot] = Receiver::Live(part.sinks.len() as u32);
                part.sinks.extend(sinks.next());
            }
        }
        parts[0].nodes = nodes;
        parts[0].sink_nodes = sink_nodes;
        parts
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn Agent>)
            .collect()
    }

    fn shard_merge(&mut self, parts: Vec<Box<dyn Agent>>) {
        // Each half's slot-indexed column and dense rows come home from the
        // first part holding them; every other part returns the rows it
        // owns, appended to the dense columns: a sender by its source
        // node, a receiver by its sink node.
        let shard_of_node = std::mem::take(&mut self.shard_of_node);
        let shard_of_node = shard_of_node.as_slice();
        let mut parts: Vec<FlowSlab> = parts
            .into_iter()
            .map(|mut p| {
                std::mem::take(
                    p.as_any_mut()
                        .downcast_mut::<FlowSlab>()
                        .expect("shard part of a FlowSlab must be a FlowSlab"),
                )
            })
            .collect();
        let first_sender = parts.iter().position(|p| !p.senders.is_empty());
        let first_receiver = parts.iter().position(|p| !p.receivers.is_empty());
        let home = &mut parts[0];
        self.nodes = std::mem::take(&mut home.nodes);
        self.sink_nodes = std::mem::take(&mut home.sink_nodes);
        self.by_flow = std::mem::take(&mut home.by_flow);
        if let Some(first) = first_sender {
            let holder = &mut parts[first];
            self.senders = std::mem::take(&mut holder.senders);
            self.hot = std::mem::take(&mut holder.hot);
            self.live = std::mem::take(&mut holder.live);
            self.pending = holder.pending;
            self.kinds = std::mem::take(&mut holder.kinds);
        }
        if let Some(first) = first_receiver {
            let holder = &mut parts[first];
            self.receivers = std::mem::take(&mut holder.receivers);
            self.sinks = std::mem::take(&mut holder.sinks);
            self.pending_sinks = holder.pending_sinks;
            self.delacks = std::mem::take(&mut holder.delacks);
        }
        for (s, part) in parts.iter_mut().enumerate() {
            if Some(s) != first_sender && !part.senders.is_empty() {
                let mut slot_of_live = vec![0; part.live.len()];
                for slot in owned_by(s, &self.nodes, shard_of_node) {
                    match std::mem::replace(&mut part.senders[slot], Sender::Away) {
                        Sender::Live(i) => slot_of_live[i as usize] = slot,
                        row @ Sender::Pending(_) => {
                            self.senders[slot] = row;
                            self.pending += 1;
                        }
                        Sender::Away => unreachable!("slot {slot} lost its sender"),
                    }
                }
                let rows = part.hot.drain(..).zip(part.live.drain(..));
                for (slot, (hot, cold)) in slot_of_live.into_iter().zip(rows) {
                    self.senders[slot] = Sender::Live(self.live.len() as u32);
                    self.hot.push(hot);
                    self.live.push(cold);
                }
            }
            if Some(s) != first_receiver && !part.receivers.is_empty() {
                let mut slot_of_sink = vec![0; part.sinks.len()];
                for slot in owned_by(s, &self.sink_nodes, shard_of_node) {
                    match part.receivers[slot] {
                        Receiver::Live(i) => slot_of_sink[i as usize] = slot,
                        entry @ Receiver::Pending(_) => {
                            self.receivers[slot] = entry;
                            self.pending_sinks += 1;
                        }
                        Receiver::Away => unreachable!("slot {slot} lost its receiver"),
                    }
                }
                for (slot, sink) in slot_of_sink.into_iter().zip(part.sinks.drain(..)) {
                    self.receivers[slot] = Receiver::Live(self.sinks.len() as u32);
                    self.sinks.push(sink);
                }
            }
        }
        debug_assert!(
            self.senders.iter().all(|s| !matches!(s, Sender::Away))
                && !self.receivers.contains(&Receiver::Away),
            "a half lost its row in the merge"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Greedy;

    fn add(slab: &mut FlowSlab, flow: usize, src: usize, dst: usize) -> usize {
        let spec = ConnectionSpec::sack(FlowId(flow), NodeId(src), NodeId(dst), 0);
        slab.add_flow(&spec, Box::new(Greedy))
    }

    #[test]
    fn slots_are_dense_and_flow_keyed() {
        let mut slab = FlowSlab::new(Attach::default());
        let s0 = add(&mut slab, 7, 0, 1);
        let s1 = add(&mut slab, 3, 2, 1);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.slot_of(FlowId(7)), Some(0));
        assert_eq!(slab.slot_of(FlowId(3)), Some(1));
        assert_eq!(slab.slot_of(FlowId(0)), None);
        assert_eq!(slab.cwnd_of(FlowId(7)), 2.0);
        assert!(!slab.stopped_of(FlowId(3)));
        assert_eq!(*slab.sink_stats_of(FlowId(3)), SinkStats::default());
    }

    #[test]
    fn tokens_embed_the_slot_above_the_kind_byte() {
        let t = FlowSlab::start_token(5);
        assert_eq!(t.0 & 0xff, TOKEN_START);
        assert_eq!(t.0 >> 8, 5);
        let t = FlowSlab::stop_token(1023);
        assert_eq!(t.0 & 0xff, TOKEN_STOP);
        assert_eq!(t.0 >> 8, 1023);
    }

    /// How `p` holds the sender and the receiver of `slot`: pending, live
    /// or away.
    fn held(p: &FlowSlab, slot: usize) -> [&'static str; 2] {
        let sender = match p.senders.get(slot) {
            Some(Sender::Pending(_)) => "pending",
            Some(Sender::Live(_)) => "live",
            Some(Sender::Away) => "away",
            None => "no column",
        };
        let receiver = match p.receivers.get(slot) {
            Some(Receiver::Pending(_)) => "pending",
            Some(Receiver::Live(_)) => "live",
            Some(Receiver::Away) => "away",
            None => "no column",
        };
        [sender, receiver]
    }

    /// `held` of every slot of `p`, senders then receivers.
    fn held_all(p: &FlowSlab) -> [Vec<&'static str>; 2] {
        let rows: Vec<_> = (0..p.len()).map(|slot| held(p, slot)).collect();
        [0, 1].map(|half| rows.iter().map(|r| r[half]).collect())
    }

    /// True when every half is back on `slab`, none of them away.
    fn all_home(slab: &FlowSlab) -> bool {
        slab.senders.len() == slab.len()
            && slab.receivers.len() == slab.len()
            && held_all(slab).iter().flatten().all(|&h| h != "away")
    }

    /// The receiver state of `slot`, whose flow id is its slot in these
    /// tests, opened as its first data segment would open it.
    fn sink_mut(p: &mut FlowSlab, slot: usize) -> &mut SinkState {
        p.sink(slot, Some(FlowId(slot)))
    }

    #[test]
    fn shard_split_moves_cold_state_to_owner_and_merges_back() {
        // Flows 0 and 2 send n0 → n1, flows 1 and 3 send n1 → n0: on two
        // shards each connection's halves live apart. Flows 3 and 2 have
        // run (in that order) before the cut, and so have their receivers,
        // so it is taken mid-run with a pending and a live sender, and a
        // receiver that has seen no data and one that has, on each side.
        let mut slab = FlowSlab::new(Attach::default());
        for (flow, src, dst) in [(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 1, 0)] {
            add(&mut slab, flow, src, dst);
        }
        slab.view(3).cold.stats.acked_segments = 33;
        slab.view(2).cold.stats.acked_segments = 22;
        slab.view(2).wnd.cwnd = 20.0;
        sink_mut(&mut slab, 3).stats.rcv_next = 3;
        sink_mut(&mut slab, 2).stats.rcv_next = 2;
        assert_eq!((slab.live.len(), slab.pending), (2, 2));
        assert_eq!((slab.sinks.len(), slab.pending_sinks), (2, 2));
        let route = |s: &FlowSlab, t| s.shard_route_timer(t);
        assert_eq!(route(&slab, FlowSlab::start_token(1)), Some(NodeId(1)));
        assert_eq!(route(&slab, SinkState::token(1, 9)), Some(NodeId(0)));
        assert_eq!(route(&slab, SinkState::token(0, 9)), Some(NodeId(1)));

        let mut parts = slab.shard_split(2, &[0, 1]);
        assert!(slab.is_empty(), "the husk keeps no rows");
        // Shard 0 owns the senders of flows 0 and 2 and the receivers of 1
        // and 3, shard 1 the other halves. Each part's dense columns hold
        // its own started halves and no more.
        let p0 = part(&mut parts, 0);
        assert_eq!(
            held_all(p0),
            [
                ["pending", "away", "live", "away"],
                ["away", "pending", "away", "live"]
            ]
        );
        assert_eq!((p0.live.len(), p0.hot.len(), p0.pending), (1, 1, 1));
        assert_eq!((p0.sinks.len(), p0.pending_sinks), (1, 1));
        assert_eq!(p0.stats_of(FlowId(2)).acked_segments, 22);
        assert_eq!(p0.cwnd_of(FlowId(2)), 20.0);
        assert_eq!(p0.sink_stats_of(FlowId(3)).rcv_next, 3);
        assert_eq!(*p0.sink_stats_of(FlowId(1)), SinkStats::default());
        p0.view(0).cold.stats.acked_segments = 10;
        sink_mut(p0, 1).stats.rcv_next = 9;
        let p1 = part(&mut parts, 1);
        assert_eq!(
            held_all(p1),
            [
                ["away", "pending", "away", "live"],
                ["pending", "away", "live", "away"]
            ]
        );
        assert_eq!((p1.live.len(), p1.hot.len(), p1.pending), (1, 1, 1));
        assert_eq!((p1.sinks.len(), p1.pending_sinks), (1, 1));
        assert_eq!(p1.stats_of(FlowId(3)).acked_segments, 33);
        assert_eq!(p1.stats_of(FlowId(1)).acked_segments, 0);
        assert_eq!(p1.sink_stats_of(FlowId(2)).rcv_next, 2);
        p1.view(3).wnd.cwnd = 42.0;
        slab.shard_merge(parts);
        let cwnd: Vec<_> = (0..4).map(|f| slab.cwnd_of(FlowId(f))).collect();
        assert_eq!(cwnd, [2.0, 2.0, 20.0, 42.0]);
        let acked: Vec<_> = (0..4)
            .map(|f| slab.stats_of(FlowId(f)).acked_segments)
            .collect();
        assert_eq!(acked, [10, 0, 22, 33]);
        let rcv_next: Vec<_> = (0..4)
            .map(|f| slab.sink_stats_of(FlowId(f)).rcv_next)
            .collect();
        assert_eq!(rcv_next, [0, 9, 2, 3]);
        assert_eq!(
            held_all(&slab),
            [
                ["live", "pending", "live", "live"],
                ["pending", "live", "live", "live"]
            ]
        );
        assert_eq!((slab.live.len(), slab.hot.len(), slab.pending), (3, 3, 1));
        assert_eq!((slab.sinks.len(), slab.pending_sinks), (3, 1));
        assert!(all_home(&slab));
        assert!(slab.shard_of_node.is_empty());
        // The pending halves still open after the round trip.
        slab.view(1).cold.stats.acked_segments = 11;
        assert_eq!(slab.stats_of(FlowId(1)).acked_segments, 11);
        sink_mut(&mut slab, 0).stats.rcv_next = 1;
        assert_eq!(slab.sink_stats_of(FlowId(0)).rcv_next, 1);
        assert_eq!((slab.pending, slab.pending_sinks), (0, 0));
    }

    fn part(parts: &mut [Box<dyn Agent>], i: usize) -> &mut FlowSlab {
        parts[i].as_any_mut().downcast_mut::<FlowSlab>().unwrap()
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the read should panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// The slot-indexed columns of the two halves on a part: empty or one
    /// entry per connection.
    fn half_columns(p: &FlowSlab) -> [usize; 2] {
        [p.senders.len(), p.receivers.len()]
    }

    #[test]
    fn dumbbell_split_keeps_each_half_on_its_own_shard() {
        // Senders on n0 and n1 (shard 0), receivers on n2 and n3 (shard 1).
        let mut slab = FlowSlab::new(Attach::default());
        add(&mut slab, 0, 0, 2);
        add(&mut slab, 1, 1, 3);
        add(&mut slab, 2, 0, 3);
        let mut parts = slab.shard_split(2, &[0, 0, 1, 1]);
        let p0 = part(&mut parts, 0);
        assert_eq!(p0.len(), 3);
        assert_eq!(half_columns(p0), [3, 0], "shard 0 hosts no receiver");
        assert!(panic_message(|| {
            p0.sink_stats_of(FlowId(1));
        })
        .contains("hosted by another shard"));
        p0.view(2).wnd.cwnd = 17.0;
        let p1 = part(&mut parts, 1);
        assert_eq!(p1.len(), 3);
        assert_eq!(half_columns(p1), [0, 3], "shard 1 hosts no sender");
        assert!(panic_message(|| {
            p1.cwnd_of(FlowId(0));
        })
        .contains("hosted by another shard"));
        assert!(panic_message(|| {
            p1.stats_of(FlowId(2));
        })
        .contains("hosted by another shard"));
        sink_mut(p1, 1).stats.rcv_next = 5;
        slab.shard_merge(parts);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.cwnd_of(FlowId(2)), 17.0);
        assert_eq!(slab.sink_stats_of(FlowId(1)).rcv_next, 5);
        assert!(all_home(&slab));
        assert_eq!(slab.slot_of(FlowId(2)), Some(2));
    }

    #[test]
    fn a_part_hosting_no_row_holds_no_columns() {
        // Flow 0 sends n0 → n2, flow 1 sends n2 → n0; shard 1 owns only n1.
        let mut slab = FlowSlab::new(Attach::default());
        add(&mut slab, 0, 0, 2);
        add(&mut slab, 1, 2, 0);
        let mut parts = slab.shard_split(3, &[0, 1, 2]);
        let p1 = part(&mut parts, 1);
        assert_eq!(p1.len(), 2);
        assert_eq!(half_columns(p1), [0, 0]);
        assert_eq!(p1.slot_of(FlowId(1)), Some(1));
        assert!(panic_message(|| {
            p1.stopped_of(FlowId(0));
        })
        .contains("hosted by another shard"));
        // The hosts carry full-width entry columns; only the owners' rows
        // move.
        let p0 = part(&mut parts, 0);
        assert_eq!(half_columns(p0), [2, 2]);
        assert_eq!(held_all(p0), [["pending", "away"], ["away", "pending"]]);
        assert!(panic_message(|| {
            p0.cwnd_of(FlowId(1));
        })
        .contains("hosted by another shard"));
        sink_mut(p0, 1).stats.rcv_next = 3;
        p0.view(0).wnd.cwnd = 8.0;
        let p2 = part(&mut parts, 2);
        assert_eq!(half_columns(p2), [2, 2]);
        assert_eq!(held_all(p2), [["away", "pending"], ["pending", "away"]]);
        sink_mut(p2, 0).stats.rcv_next = 4;
        p2.view(1).wnd.cwnd = 9.0;
        slab.shard_merge(parts);
        assert_eq!(slab.cwnd_of(FlowId(0)), 8.0);
        assert_eq!(slab.cwnd_of(FlowId(1)), 9.0);
        assert_eq!(slab.sink_stats_of(FlowId(0)).rcv_next, 4);
        assert_eq!(slab.sink_stats_of(FlowId(1)).rcv_next, 3);
        assert!(all_home(&slab));
        assert!(slab.shard_of_node.is_empty());
    }

    #[test]
    #[should_panic(expected = "n4294967296 does not fit the slab's 32-bit ids")]
    fn node_ids_past_32_bits_are_rejected() {
        add(&mut FlowSlab::new(Attach::default()), 0, 0, 1 << 32);
    }

    /// The receiver is built at its first data segment, but a zero
    /// delayed-ACK timeout is refused when the connection is declared.
    #[test]
    #[should_panic(expected = "delayed-ACK timeout must be positive")]
    fn a_zero_delayed_ack_timeout_is_rejected_at_declaration() {
        let mut spec = ConnectionSpec::sack(FlowId(0), NodeId(0), NodeId(1), 0);
        spec.delack = Some(SimDuration::ZERO);
        FlowSlab::new(Attach::default()).add_flow(&spec, Box::new(Greedy));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_flow_registration_panics() {
        let mut slab = FlowSlab::new(Attach::default());
        add(&mut slab, 1, 0, 1);
        add(&mut slab, 1, 0, 1);
    }

    /// What every connection pays in slot-indexed columns, declared or
    /// started: its sender and receiver entries, its two endpoint nodes
    /// and its `flow → slot` entry. Everything else is a dense row that
    /// only a half that has run holds.
    #[test]
    fn a_declared_connection_holds_at_most_64_bytes_of_slot_columns() {
        fn element<T>(_: &Vec<T>) -> usize {
            std::mem::size_of::<T>()
        }
        let s = FlowSlab::default();
        let per_slot = element(&s.senders)
            + element(&s.receivers)
            + element(&s.nodes)
            + element(&s.sink_nodes)
            + element(&s.by_flow);
        assert!(
            per_slot <= 64,
            "a declared connection holds {per_slot} B of slot-indexed columns, budget 64 B"
        );
    }

    /// The per-connection parts a detached run builds, at their budgets: a
    /// declared connection holds its pending row in the sender column and
    /// an 8-byte receiver entry; a started sender its `Hot` row and its
    /// `FlowCold`, with the congestion control inline and recorders and
    /// the audit oracle behind one pointer each; a receiver that has seen
    /// data its `SinkState` row.
    #[test]
    fn row_parts_stay_within_their_budgets() {
        use crate::cc::Cc;
        use crate::scoreboard::Scoreboard;
        use crate::sender::{AppState, RttState, Wnd};
        use pert_core::pert::PertController;
        use std::mem::size_of;
        let parts = [
            ("Wnd", size_of::<Wnd>(), 48),
            ("RttState", size_of::<RttState>(), 40),
            ("AppState", size_of::<AppState>(), 24),
            ("Hot", size_of::<Hot>(), 112),
            ("SinkState", size_of::<SinkState>(), 104),
            ("PendingRow", size_of::<PendingRow>(), 40),
            ("Sender", size_of::<Sender>(), 40),
            ("Receiver", size_of::<Receiver>(), 8),
            ("FlowCold", size_of::<FlowCold>(), 360),
            ("Cc", size_of::<Cc>(), 152),
            ("PertController", size_of::<PertController>(), 144),
            ("Scoreboard", size_of::<Scoreboard>(), 88),
        ];
        for (part, size, budget) in parts {
            assert!(size <= budget, "{part} is {size} B, budget {budget} B");
        }
    }
}
