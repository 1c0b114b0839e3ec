//! The struct-of-arrays flow slab: one shared agent hosting every TCP
//! connection of a simulation, both halves.
//!
//! Per-flow agents carry two costs at scale: every endpoint is a separate
//! `Box<dyn Agent>` (pointer chase + heap spread per event), and the hot
//! per-ACK fields sit interleaved with cold configuration in one large
//! struct. The slab flips the layout: a connection is one *row* across
//! parallel vectors indexed by a dense slot — the sender's hot parts
//! (`Wnd`, `RttState`, `AppState`, all `Copy`), its receiver half
//! (`SinkState`), and the two endpoint nodes — so dispatching a burst of
//! ACKs walks compact arrays.
//!
//! The sender's cold remainder (`FlowCold`, congestion control inline) is
//! paid for when the sender first runs, not when it is declared: a
//! declared connection holds a 40-byte `PendingRow`, and the sender's first
//! event builds its `FlowCold` from it into a dense `live` column, in start
//! order. A connection that never starts never costs its cold bytes.
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

use netsim::{Agent, Ctx, FlowId, NodeId, Packet, TimerToken};
use pert_core::predictors::AckSample;
use pert_core::Attach;

use crate::cc::{Cc, CcAlgorithm};
use crate::sender::{
    fresh_hot, AppState, FlowCold, FlowIo, FlowView, PendingRow, RttState, SenderStats, TcpConfig,
    Wnd, TOKEN_START, TOKEN_STOP,
};
use crate::sink::{SinkIo, SinkState, SinkStats, TOKEN_DELACK};
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

/// The 32-bit index the slab stores for an id; `id` names it in the panic.
fn index32(index: usize, id: impl std::fmt::Display) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("{id} does not fit the slab's 32-bit ids"))
}

/// The sender half of a slot, beyond its hot columns, on one part of the
/// slab.
enum Sender {
    /// Declared and not yet run; its first event builds it into `live`.
    Pending(PendingRow),
    /// Running: its cold state is `live[i]`.
    Live(u32),
    /// Hosted by another shard's part of the slab. Touching it here is a
    /// bug and panics rather than silently diverging.
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
    // Hot sender state, parallel vectors keyed by slot.
    wnd: Vec<Wnd>,
    rtt: Vec<RttState>,
    app: Vec<AppState>,
    /// Receiver half of every connection, same keying.
    sinks: Vec<SinkState>,
    /// The rest of every sender, same keying: a pending row until the
    /// sender's first event, then its index in `live`. A shard part that
    /// hosts no sender holds this and the three hot columns empty, and one
    /// that hosts no receiver `sinks` empty.
    senders: Vec<Sender>,
    /// Cold state of the started senders this part hosts, in start order.
    /// There is no full-width cold column: a slot's cold bytes exist only
    /// once its sender has run, and only on the part that runs it.
    live: Vec<FlowCold>,
    /// `Pending` rows in `senders`: the room the next growth of `live`
    /// reserves, so one reservation holds every sender this part starts.
    pending: usize,
    /// The distinct congestion controls pending rows name by index.
    kinds: Vec<Kind>,
    /// Source (sender-half) node of every slot, as a 32-bit index.
    nodes: Vec<u32>,
    /// Sink (receiver-half) node of every slot, as a 32-bit index.
    sink_nodes: Vec<u32>,
    /// Dense `flow id → slot` map (flow ids are small consecutive
    /// integers in every topology builder); [`UNREGISTERED`] where no
    /// flow has that id.
    by_flow: Vec<u32>,
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
    /// the connection's slot. The sender's cold state is built when it
    /// first runs.
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
        let (wnd, rtt, app) = fresh_hot();
        self.wnd.push(wnd);
        self.rtt.push(rtt);
        self.app.push(app);
        self.sinks
            .push(SinkState::new(flow32, spec.delack, self.attach.audit));
        self.senders.push(Sender::Pending(PendingRow {
            source,
            seed: spec.seed,
            cfg,
            kind,
        }));
        self.pending += 1;
        self.nodes.push(src);
        self.sink_nodes.push(dst);
        self.by_flow[flow.index()] = slot as u32;
        slot
    }

    /// The index of `cc` among the slab's kinds, interning it if new.
    fn intern(&mut self, cc: &CcKind) -> u16 {
        let i = match self.kinds.iter().rposition(|k| k.spec == *cc) {
            Some(i) => i,
            None => {
                self.kinds.push(Kind::new(cc));
                self.kinds.len() - 1
            }
        };
        u16::try_from(i).expect("a slab holds at most 65 536 distinct congestion controls")
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
        FlowView {
            wnd: &mut self.wnd[slot],
            rtt: &mut self.rtt[slot],
            app: &mut self.app[slot],
            cold: &mut self.live[i],
        }
    }

    /// Build the pending sender of `slot` into `live`; returns its index.
    /// The first build on a part reserves room for every sender pending
    /// there, so the column is allocated once and its pages are touched
    /// only as senders start.
    #[cold]
    fn start(&mut self, slot: usize) -> usize {
        let i = self.live.len();
        let live = Sender::Live(index32(i, "live row"));
        let Sender::Pending(row) = std::mem::replace(&mut self.senders[slot], live) else {
            unreachable!("slot {slot} is not pending")
        };
        if i == self.live.capacity() {
            self.live.reserve(self.pending);
        }
        self.pending -= 1;
        let cc = self.kinds[usize::from(row.kind)]
            .spec
            .build(row.seed, self.attach);
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

    /// Run the receiver half of `slot`.
    fn receiver<'a, 'b>(
        &mut self,
        slot: usize,
        ctx: &'a mut Ctx<'b>,
    ) -> (&mut SinkState, SinkIo<'a, 'b>) {
        let io = SinkIo {
            node: NodeId(self.sink_nodes[slot] as usize),
            peer_node: NodeId(self.nodes[slot] as usize),
            slot,
            ctx,
        };
        let sink = self
            .sinks
            .get_mut(slot)
            .expect("flow is hosted by another shard");
        (sink, io)
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

    /// The cold state of `flow`'s sender, or its pending row if it has not
    /// run.
    fn cold_of(&self, flow: FlowId) -> Result<&FlowCold, &PendingRow> {
        match &self.senders[self.sender_slot(flow)] {
            Sender::Live(i) => Ok(&self.live[*i as usize]),
            Sender::Pending(row) => Err(row),
            Sender::Away => unreachable!("checked by sender_slot"),
        }
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
        self.wnd[self.sender_slot(flow)].cwnd
    }

    /// True once `flow` has permanently finished.
    pub fn stopped_of(&self, flow: FlowId) -> bool {
        self.app[self.sender_slot(flow)].stopped
    }

    /// Receiver statistics of `flow`.
    pub fn sink_stats_of(&self, flow: FlowId) -> &SinkStats {
        &self
            .sinks
            .get(self.expect_slot(flow))
            .expect("flow is hosted by another shard")
            .stats
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
            let (sink, mut io) = self.receiver(slot, ctx);
            sink.on_data(pkt, &mut io);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        if token.0 & 0xff == TOKEN_DELACK {
            let (sink, mut io) = self.receiver(SinkState::token_slot(token), ctx);
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
        // Every part keeps the row → node and flow → slot maps, so slot
        // numbering and token routing stay identical everywhere. Each half's
        // columns move to the first part that hosts a row of it and are
        // cloned only into later parts that host one too; a part hosting
        // none of a half holds empty columns for it. A sender's pending row
        // or cold state (and thus the right to run it) moves to the shard
        // owning its source node; a receiver row is authoritative on the
        // shard owning its sink node. The husk keeps only the partition.
        let mut whole = std::mem::take(self);
        self.shard_of_node = shard_of_node.to_vec();
        self.attach = whole.attach;
        let owner = |nodes: &[u32], slot: usize| shard_of_node[nodes[slot] as usize];
        let (mut senders, mut receivers) = (vec![false; n], vec![false; n]);
        for slot in 0..whole.len() {
            senders[owner(&whole.nodes, slot)] = true;
            receivers[owner(&whole.sink_nodes, slot)] = true;
        }
        let mut parts: Vec<FlowSlab> = (0..n).map(|_| FlowSlab::new(whole.attach)).collect();
        // Descending, so the first host, which takes the columns themselves,
        // comes after every part that needs a clone of them.
        let first_sender = senders.iter().position(|&h| h);
        let first_receiver = receivers.iter().position(|&h| h);
        for (s, part) in parts.iter_mut().enumerate().rev() {
            if Some(s) == first_sender {
                part.wnd = std::mem::take(&mut whole.wnd);
                part.rtt = std::mem::take(&mut whole.rtt);
                part.app = std::mem::take(&mut whole.app);
                part.senders = std::mem::take(&mut whole.senders);
                part.kinds = std::mem::take(&mut whole.kinds);
            } else if senders[s] {
                part.wnd = whole.wnd.clone();
                part.rtt = whole.rtt.clone();
                part.app = whole.app.clone();
                part.senders = (0..whole.len()).map(|_| Sender::Away).collect();
                part.kinds = whole.kinds.clone();
            }
            if Some(s) == first_receiver {
                part.sinks = std::mem::take(&mut whole.sinks);
            } else if receivers[s] {
                part.sinks = whole.sinks.clone();
            }
        }
        if let Some(first) = first_sender {
            let mut slot_of_live = vec![0; whole.live.len()];
            for slot in 0..whole.len() {
                let row = std::mem::replace(&mut parts[first].senders[slot], Sender::Away);
                let part = &mut parts[owner(&whole.nodes, slot)];
                match row {
                    Sender::Live(i) => slot_of_live[i as usize] = slot,
                    Sender::Pending(_) => {
                        part.senders[slot] = row;
                        part.pending += 1;
                    }
                    Sender::Away => unreachable!("an unsplit slab hosts every sender"),
                }
            }
            for (i, cold) in std::mem::take(&mut whole.live).into_iter().enumerate() {
                let slot = slot_of_live[i];
                let part = &mut parts[owner(&whole.nodes, slot)];
                part.senders[slot] = Sender::Live(part.live.len() as u32);
                part.live.push(cold);
            }
        }
        for (s, part) in parts.iter_mut().enumerate().rev() {
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
        parts
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn Agent>)
            .collect()
    }

    fn shard_merge(&mut self, parts: Vec<Box<dyn Agent>>) {
        // Each half's columns come home from the part holding them; every
        // other part returns the rows it owned: a sender row with its hot
        // state and its pending row or cold state, a receiver row by its
        // sink node.
        let shard_of_node = std::mem::take(&mut self.shard_of_node);
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
        let first_receiver = parts.iter().position(|p| !p.sinks.is_empty());
        let home = &mut parts[0];
        self.nodes = std::mem::take(&mut home.nodes);
        self.sink_nodes = std::mem::take(&mut home.sink_nodes);
        self.by_flow = std::mem::take(&mut home.by_flow);
        if let Some(first) = first_sender {
            let holder = &mut parts[first];
            self.wnd = std::mem::take(&mut holder.wnd);
            self.rtt = std::mem::take(&mut holder.rtt);
            self.app = std::mem::take(&mut holder.app);
            self.senders = std::mem::take(&mut holder.senders);
            self.live = std::mem::take(&mut holder.live);
            self.pending = holder.pending;
            self.kinds = std::mem::take(&mut holder.kinds);
        }
        if let Some(first) = first_receiver {
            self.sinks = std::mem::take(&mut parts[first].sinks);
        }
        for (s, part) in parts.iter_mut().enumerate() {
            if Some(s) == first_sender || part.senders.is_empty() {
                continue;
            }
            let mut slot_of_live = vec![0; part.live.len()];
            for slot in 0..self.len() {
                if shard_of_node[self.nodes[slot] as usize] != s {
                    continue;
                }
                self.wnd[slot] = part.wnd[slot];
                self.rtt[slot] = part.rtt[slot];
                self.app[slot] = part.app[slot];
                match std::mem::replace(&mut part.senders[slot], Sender::Away) {
                    Sender::Live(i) => slot_of_live[i as usize] = slot,
                    row @ Sender::Pending(_) => {
                        self.senders[slot] = row;
                        self.pending += 1;
                    }
                    Sender::Away => unreachable!("slot {slot} lost its sender"),
                }
            }
            for (i, cold) in std::mem::take(&mut part.live).into_iter().enumerate() {
                let slot = slot_of_live[i];
                self.senders[slot] = Sender::Live(self.live.len() as u32);
                self.live.push(cold);
            }
        }
        for slot in 0..self.len() {
            debug_assert!(
                !matches!(self.senders[slot], Sender::Away),
                "slot {slot} lost its sender"
            );
            let receiver = shard_of_node[self.sink_nodes[slot] as usize];
            if Some(receiver) != first_receiver {
                std::mem::swap(&mut self.sinks[slot], &mut parts[receiver].sinks[slot]);
            }
        }
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

    /// How `p` holds the sender of `slot`: pending, live or away.
    fn held(p: &FlowSlab, slot: usize) -> &'static str {
        match p.senders.get(slot) {
            Some(Sender::Pending(_)) => "pending",
            Some(Sender::Live(_)) => "live",
            Some(Sender::Away) => "away",
            None => "no column",
        }
    }

    /// True when every sender is back on `slab`, none of them away.
    fn all_home(slab: &FlowSlab) -> bool {
        slab.senders.len() == slab.len() && slab.senders.iter().all(|s| !matches!(s, Sender::Away))
    }

    #[test]
    fn shard_split_moves_cold_state_to_owner_and_merges_back() {
        // Flows 0 and 2 send n0 → n1, flows 1 and 3 send n1 → n0: on two
        // shards each connection's halves live apart. Flows 3 and 2 have
        // run (in that order) before the cut, so it is taken mid-run with
        // a pending and a live sender on each side of it.
        let mut slab = FlowSlab::new(Attach::default());
        for (flow, src, dst) in [(0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 1, 0)] {
            add(&mut slab, flow, src, dst);
        }
        slab.view(3).cold.stats.acked_segments = 33;
        slab.view(2).cold.stats.acked_segments = 22;
        assert_eq!((slab.live.len(), slab.pending), (2, 2));
        let route = |s: &FlowSlab, t| s.shard_route_timer(t);
        assert_eq!(route(&slab, FlowSlab::start_token(1)), Some(NodeId(1)));
        assert_eq!(route(&slab, SinkState::token(1, 9)), Some(NodeId(0)));
        assert_eq!(route(&slab, SinkState::token(0, 9)), Some(NodeId(1)));

        let mut parts = slab.shard_split(2, &[0, 1]);
        assert!(slab.is_empty(), "the husk keeps no rows");
        // Every part carries every row; only the owners' copies may move
        // and only they come home. Shard 0 owns the senders of flows 0 and
        // 2 and the receivers of 1 and 3, shard 1 the other halves. Each
        // part's live column holds its own started senders and no more.
        let p0 = part(&mut parts, 0);
        let held0: Vec<_> = (0..4).map(|s| held(p0, s)).collect();
        assert_eq!(held0, ["pending", "away", "live", "away"]);
        assert_eq!((p0.live.len(), p0.pending), (1, 1));
        assert_eq!(p0.stats_of(FlowId(2)).acked_segments, 22);
        p0.view(0).cold.stats.acked_segments = 10;
        p0.sinks[1].stats.rcv_next = 9;
        p0.sinks[0].stats.rcv_next = 1_000;
        p0.wnd[1].cwnd = 1_000.0;
        let p1 = part(&mut parts, 1);
        let held1: Vec<_> = (0..4).map(|s| held(p1, s)).collect();
        assert_eq!(held1, ["away", "pending", "away", "live"]);
        assert_eq!((p1.live.len(), p1.pending), (1, 1));
        assert_eq!(p1.stats_of(FlowId(3)).acked_segments, 33);
        assert_eq!(p1.stats_of(FlowId(1)).acked_segments, 0);
        p1.sinks[0].stats.rcv_next = 7;
        p1.sinks[1].stats.rcv_next = 1_000;
        p1.wnd[1].cwnd = 42.0;
        slab.shard_merge(parts);
        assert_eq!(slab.cwnd_of(FlowId(1)), 42.0);
        assert_eq!(slab.sink_stats_of(FlowId(0)).rcv_next, 7);
        assert_eq!(slab.sink_stats_of(FlowId(1)).rcv_next, 9);
        let acked: Vec<_> = (0..4)
            .map(|f| slab.stats_of(FlowId(f)).acked_segments)
            .collect();
        assert_eq!(acked, [10, 0, 22, 33]);
        let held: Vec<_> = (0..4).map(|s| held(&slab, s)).collect();
        assert_eq!(held, ["live", "pending", "live", "live"]);
        assert_eq!((slab.live.len(), slab.pending), (3, 1));
        assert!(all_home(&slab));
        assert!(slab.shard_of_node.is_empty());
        // The pending sender still runs after the round trip.
        slab.view(1).cold.stats.acked_segments = 11;
        assert_eq!(slab.stats_of(FlowId(1)).acked_segments, 11);
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

    /// Sender columns on every part: empty or one row per connection.
    fn sender_columns(p: &FlowSlab) -> [usize; 4] {
        [p.wnd.len(), p.rtt.len(), p.app.len(), p.senders.len()]
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
        assert_eq!(sender_columns(p0), [3; 4]);
        assert!(p0.sinks.is_empty(), "shard 0 hosts no receiver");
        assert!(panic_message(|| {
            p0.sink_stats_of(FlowId(1));
        })
        .contains("hosted by another shard"));
        p0.wnd[2].cwnd = 17.0;
        let p1 = part(&mut parts, 1);
        assert_eq!(p1.len(), 3);
        assert_eq!(sender_columns(p1), [0; 4], "shard 1 hosts no sender");
        assert_eq!(p1.sinks.len(), 3);
        assert!(panic_message(|| {
            p1.cwnd_of(FlowId(0));
        })
        .contains("hosted by another shard"));
        assert!(panic_message(|| {
            p1.stats_of(FlowId(2));
        })
        .contains("hosted by another shard"));
        p1.sinks[1].stats.rcv_next = 5;
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
        assert_eq!(sender_columns(p1), [0; 4]);
        assert!(p1.sinks.is_empty());
        assert_eq!(p1.slot_of(FlowId(1)), Some(1));
        assert!(panic_message(|| {
            p1.stopped_of(FlowId(0));
        })
        .contains("hosted by another shard"));
        // The hosts carry full-width columns; only the owners' rows move.
        let p0 = part(&mut parts, 0);
        assert_eq!(sender_columns(p0), [2; 4]);
        assert_eq!((held(p0, 0), held(p0, 1)), ("pending", "away"));
        assert!(panic_message(|| {
            p0.cwnd_of(FlowId(1));
        })
        .contains("hosted by another shard"));
        p0.sinks[1].stats.rcv_next = 3;
        p0.wnd[0].cwnd = 8.0;
        let p2 = part(&mut parts, 2);
        assert_eq!(sender_columns(p2), [2; 4]);
        assert_eq!((held(p2, 0), held(p2, 1)), ("away", "pending"));
        assert_eq!(p2.sinks.len(), 2);
        p2.sinks[0].stats.rcv_next = 4;
        p2.wnd[1].cwnd = 9.0;
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

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_flow_registration_panics() {
        let mut slab = FlowSlab::new(Attach::default());
        add(&mut slab, 1, 0, 1);
        add(&mut slab, 1, 0, 1);
    }

    /// The per-connection parts a detached run builds, at their budgets: a
    /// declared connection holds its pending row in the sender column; a
    /// started one its `FlowCold`, with the congestion control inline and
    /// recorders and the audit oracle behind one pointer each.
    #[test]
    fn row_parts_stay_within_their_budgets() {
        use crate::cc::Cc;
        use crate::scoreboard::Scoreboard;
        use pert_core::pert::PertController;
        use std::mem::size_of;
        let parts = [
            ("Wnd", size_of::<Wnd>(), 48),
            ("RttState", size_of::<RttState>(), 40),
            ("AppState", size_of::<AppState>(), 24),
            ("SinkState", size_of::<SinkState>(), 104),
            ("PendingRow", size_of::<PendingRow>(), 48),
            ("Sender", size_of::<Sender>(), 48),
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
