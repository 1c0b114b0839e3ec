//! # pert-tcp — TCP endpoints for the `netsim` simulator
//!
//! A SACK-capable TCP sender/sink pair with pluggable congestion control,
//! covering every transport the PERT paper evaluates:
//!
//! | scheme (`CcKind`) | construction                                   |
//! |-------------------|------------------------------------------------|
//! | `Sack`            | [`cc::Reno`] (+ `ecn: true` for RED/PI/REM-ECN routers) |
//! | `Vegas`           | [`cc::Vegas`]                                  |
//! | `Pert`            | [`cc::PertCc`] (gentle-RED emulation, §3)      |
//! | `PertOwd`         | [`cc::PertCc`] on the one-way delay (§7)       |
//! | `PertPi`          | [`cc::PertCc`] with [`pert_core::PiLaw`] (PI emulation, §6) |
//! | `PertRem`         | [`cc::PertCc`] with [`pert_core::RemLaw`] (REM emulation, §8) |
//! | `Cubic`           | [`Cubic`] (RFC 9438, HyStart++, PRR)           |
//! | `Bbr`             | [`Bbr`] (BBRv1-style, paced)                   |
//!
//! The sender implements slow start, congestion avoidance, FACK-style loss
//! detection over a SACK scoreboard, fast retransmit/recovery, RTO with
//! exponential backoff, ECN, and per-ACK RTT sampling via exact packet
//! timestamps (see [`sender`] and [`sink`]).
//!
//! Use [`connect`] to wire a sender/sink pair into a simulator. Every
//! connection of a simulation, sender and receiver half, is one row of a
//! shared struct-of-arrays [`FlowSlab`] agent; read per-flow results back
//! through the `sender_*` accessors and [`sink_stats`]:
//!
//! ```
//! use netsim::prelude::*;
//! use pert_tcp::{connect, ConnectionSpec};
//!
//! let mut sim = Simulator::new(7);
//! let (a, b) = (sim.add_node(), sim.add_node());
//! sim.add_duplex_link(a, b, 10_000_000, SimDuration::from_millis(10), |_| {
//!     Box::new(DropTail::new(50))
//! });
//! sim.compute_routes();
//! let conn = connect(&mut sim, ConnectionSpec::pert(FlowId(0), a, b, 1));
//! sim.schedule_agent_timer(SimTime::ZERO, conn.sender, conn.start_token);
//! sim.run_until(SimTime::from_secs_f64(5.0));
//! assert!(pert_tcp::sender_stats(&sim, &conn).acked_segments > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbr;
pub mod cc;
pub mod cubic;
pub mod intervals;
pub mod scoreboard;
pub mod sender;
pub mod sink;
pub mod slab;
pub mod source;

pub use bbr::Bbr;
pub use cc::{CcAction, CcAlgorithm, CcContext, DelaySignal, PertCc, Reno, Vegas};
pub use cubic::Cubic;
pub use intervals::IntervalSet;
pub use scoreboard::{Scoreboard, SegState};
pub use sender::SenderStats;
pub use sink::SinkStats;
pub use slab::FlowSlab;
pub use source::{Finite, FnSource, Greedy, Source, Transfer};

use cc::Cc;
use netsim::{AgentId, FlowId, NodeId, Simulator, TimerToken};
use pert_core::pert::{PertController, PertParams};
use pert_core::pi::PertPiParams;
use pert_core::predictors::AckSample;
use pert_core::rem::PertRemParams;

/// Which congestion control a connection uses.
#[derive(Clone, Debug)]
pub enum CcKind {
    /// Loss-based SACK (the paper's standard-TCP baseline).
    Sack,
    /// TCP Vegas.
    Vegas,
    /// PERT with the given parameters.
    Pert(PertParams),
    /// PERT driven by forward one-way delay (§7 variant).
    PertOwd(PertParams),
    /// PERT/PI with the given parameters.
    PertPi(PertPiParams),
    /// PERT/REM with the given parameters (§8 generalization).
    PertRem(PertRemParams),
    /// CUBIC (RFC 9438) with hybrid slow start and PRR — the modern
    /// loss-based competitor.
    Cubic,
    /// BBRv1-style model-based sender (delivery-rate + min-RTT filters,
    /// gain cycling, paced sending).
    Bbr,
}

impl CcKind {
    fn build(&self, seed: u64) -> Cc {
        match self {
            CcKind::Sack => Cc::Reno(Reno::new()),
            CcKind::Vegas => Cc::Vegas(Vegas::new()),
            CcKind::Pert(p) => Cc::Pert(PertCc::around(PertController::new(*p, seed))),
            CcKind::PertOwd(p) => Cc::Pert(PertCc::with_signal(*p, DelaySignal::OneWayDelay, seed)),
            CcKind::PertPi(p) => Cc::PertPi(Box::new(PertCc::around(PertController::pi(*p, seed)))),
            CcKind::PertRem(p) => {
                Cc::PertRem(Box::new(PertCc::around(PertController::rem(*p, seed))))
            }
            CcKind::Cubic => Cc::Cubic(Box::new(Cubic::new(seed))),
            CcKind::Bbr => Cc::Bbr(Box::new(Bbr::new(seed))),
        }
    }

    /// Short scheme name.
    pub fn name(&self) -> &'static str {
        match self {
            CcKind::Sack => "sack",
            CcKind::Vegas => "vegas",
            CcKind::Pert(_) => "pert",
            CcKind::PertOwd(_) => "pert-owd",
            CcKind::PertPi(_) => "pert-pi",
            CcKind::PertRem(_) => "pert-rem",
            CcKind::Cubic => "cubic",
            CcKind::Bbr => "bbr",
        }
    }
}

/// Everything needed to create one connection.
#[derive(Clone, Debug)]
pub struct ConnectionSpec {
    /// Flow id (unique per connection).
    pub flow: FlowId,
    /// Sender-side node.
    pub src: NodeId,
    /// Sink-side node.
    pub dst: NodeId,
    /// Congestion control.
    pub cc: CcKind,
    /// ECN-capable transport (pair with RED/PI-ECN routers).
    pub ecn: bool,
    /// Seed for all per-connection randomness.
    pub seed: u64,
    /// Record per-ACK samples on the sender.
    pub record_samples: bool,
    /// Delayed-ACK timeout for the sink (`None` = per-packet ACKs, the
    /// paper's assumption).
    pub delack: Option<netsim::SimDuration>,
    /// Segment size in bytes.
    pub seg_size: u32,
}

impl ConnectionSpec {
    /// A SACK connection (ECN off — DropTail baseline).
    pub fn sack(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        Self::new(flow, src, dst, CcKind::Sack, seed)
    }

    /// A SACK connection with ECN (RED-ECN baseline).
    pub fn sack_ecn(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        let mut s = Self::new(flow, src, dst, CcKind::Sack, seed);
        s.ecn = true;
        s
    }

    /// A Vegas connection.
    pub fn vegas(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        Self::new(flow, src, dst, CcKind::Vegas, seed)
    }

    /// A PERT connection with the paper's default parameters.
    pub fn pert(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        Self::new(flow, src, dst, CcKind::Pert(PertParams::default()), seed)
    }

    /// A CUBIC connection.
    pub fn cubic(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        Self::new(flow, src, dst, CcKind::Cubic, seed)
    }

    /// A BBR connection.
    pub fn bbr(flow: FlowId, src: NodeId, dst: NodeId, seed: u64) -> Self {
        Self::new(flow, src, dst, CcKind::Bbr, seed)
    }

    /// Generic constructor.
    pub fn new(flow: FlowId, src: NodeId, dst: NodeId, cc: CcKind, seed: u64) -> Self {
        ConnectionSpec {
            flow,
            src,
            dst,
            cc,
            ecn: false,
            seed,
            record_samples: false,
            delack: None,
            seg_size: 1000,
        }
    }

    /// Builder-style: record per-ACK samples.
    pub fn with_samples(mut self) -> Self {
        self.record_samples = true;
        self
    }
}

/// Handle to an installed connection.
#[derive(Clone, Copy, Debug)]
pub struct Connection {
    /// The flow id.
    pub flow: FlowId,
    /// Sender agent: the simulator's shared [`FlowSlab`]. Use with the
    /// timer tokens below and the `sender_*` accessors.
    pub sender: AgentId,
    /// Receiver agent: the same [`FlowSlab`] as `sender` (it hosts both
    /// halves of every connection in one row). Read it back with
    /// [`sink_stats`].
    pub sink: AgentId,
    /// Token that starts this flow (schedule on `sender` with
    /// [`netsim::Simulator::schedule_agent_timer`]).
    pub start_token: TimerToken,
    /// Token that stops this flow.
    pub stop_token: TimerToken,
}

/// Install a sender/sink pair for `spec`, using `source` as the
/// application (defaults to [`Greedy`] via [`connect`]).
///
/// # Panics
/// If `spec.src == spec.dst`: a segment sent to its own node is delivered
/// synchronously, and its ACK would re-enter the sender while it is still
/// sending.
pub fn connect_with_source(
    sim: &mut Simulator,
    spec: ConnectionSpec,
    source: Box<dyn Source>,
) -> Connection {
    assert!(
        spec.src != spec.dst,
        "flow {} connects node {} to itself; a connection needs two nodes",
        spec.flow,
        spec.src
    );
    // One slab per simulator hosts every connection; create it lazily.
    let slab_id = match sim.find_agent_by::<FlowSlab>() {
        Some((id, _)) => id,
        None => {
            let id = sim.alloc_agent();
            sim.install_shared_agent(id, Box::new(FlowSlab::new()));
            id
        }
    };
    let slot = sim.agent_mut::<FlowSlab>(slab_id).add_flow(&spec, source);

    Connection {
        flow: spec.flow,
        sender: slab_id,
        sink: slab_id,
        start_token: FlowSlab::start_token(slot),
        stop_token: FlowSlab::stop_token(slot),
    }
}

/// Install a greedy (long-lived FTP) connection for `spec`.
pub fn connect(sim: &mut Simulator, spec: ConnectionSpec) -> Connection {
    connect_with_source(sim, spec, Box::new(Greedy))
}

// ---------------------------------------------------------------------
// Per-flow read-back from the slab.
// ---------------------------------------------------------------------

/// Cumulative sender statistics of `conn`.
pub fn sender_stats(sim: &Simulator, conn: &Connection) -> SenderStats {
    *sim.agent::<FlowSlab>(conn.sender).stats_of(conn.flow)
}

/// Per-ACK samples of `conn` (empty unless `record_samples`).
pub fn sender_samples<'a>(sim: &'a Simulator, conn: &Connection) -> &'a [AckSample] {
    sim.agent::<FlowSlab>(conn.sender).samples_of(conn.flow)
}

/// The congestion-control algorithm of `conn`, for reading its counters
/// back after a run (`early_reductions`, `name`).
pub fn sender_cc<'a>(sim: &'a Simulator, conn: &Connection) -> &'a dyn CcAlgorithm {
    sim.agent::<FlowSlab>(conn.sender).cc_of(conn.flow)
}

/// Current congestion window of `conn`, segments.
pub fn sender_cwnd(sim: &Simulator, conn: &Connection) -> f64 {
    sim.agent::<FlowSlab>(conn.sender).cwnd_of(conn.flow)
}

/// Receiver statistics of `conn`.
pub fn sink_stats(sim: &Simulator, conn: &Connection) -> SinkStats {
    *sim.agent::<FlowSlab>(conn.sink).sink_stats_of(conn.flow)
}

/// True once `conn`'s flow has permanently finished.
pub fn sender_stopped(sim: &Simulator, conn: &Connection) -> bool {
    sim.agent::<FlowSlab>(conn.sender).stopped_of(conn.flow)
}
