//! # netsim — a deterministic, packet-level network simulator
//!
//! A from-scratch discrete-event simulator covering the slice of ns-2 that
//! the PERT paper's evaluation exercises:
//!
//! * arbitrary topologies of nodes and unidirectional **links** (capacity +
//!   propagation delay), with static shortest-path routing;
//! * pluggable **queue disciplines**: one [`queue::Fifo`] run by an AQM
//!   policy — [`queue::DropTail`], [`queue::RedQueue`] (gentle + Adaptive
//!   RED), [`queue::PiQueue`], [`queue::RemQueue`], [`queue::AvqQueue`],
//!   all with ECN marking support;
//! * a transport-agnostic **agent** API ([`Agent`]/[`Ctx`]) on which the
//!   `pert-tcp` crate builds TCP Reno/SACK, Vegas, PERT, and PERT/PI;
//! * built-in **instrumentation**: time-weighted queue occupancy, per-link
//!   utilization, a central drop trace whose records carry both the flow
//!   and the link (the paper's flow-level vs. queue-level loss views),
//!   and periodic read-only probes.
//!
//! The engine is single-threaded and strictly deterministic: identical
//! seeds produce identical runs, which the test suites rely on. For
//! large topologies the [`shard`] module cuts the node graph along
//! positive-delay links and runs the pieces space-parallel in
//! deterministic barrier epochs — reports stay byte-identical at any
//! shard count.
//!
//! ## Example
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node();
//! let b = sim.add_node();
//! sim.add_duplex_link(a, b, 10_000_000, SimDuration::from_millis(5), |_| {
//!     Box::new(DropTail::new(50))
//! });
//! sim.compute_routes();
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(sim.trace.drops.len(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod audit;
pub mod event;
pub mod ids;
pub mod link;
pub mod node;
pub mod packet;
pub mod queue;
pub mod shard;
pub mod sim;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use arena::{PacketArena, PacketRef};
pub use event::{EventId, TimerToken};
pub use ids::{AgentId, FlowId, LinkId, NodeId};
pub use link::Link;
pub use packet::{Ecn, Packet, Payload, SackBlock, MAX_SACK_BLOCKS};
pub use shard::ShardedSim;
pub use sim::{Agent, Ctx, SimConfig, Simulator};
pub use time::{transmission_delay, SimDuration, SimTime};

/// Common imports for simulator users.
pub mod prelude {
    pub use crate::arena::{PacketArena, PacketRef};
    pub use crate::event::{EventId, TimerToken};
    pub use crate::ids::{AgentId, FlowId, LinkId, NodeId};
    pub use crate::packet::{Ecn, Packet, Payload, SackBlock};
    pub use crate::queue::{
        AdaptiveRedParams, DropTail, PiParams, PiQueue, QueueDiscipline, RedParams, RedQueue,
    };
    pub use crate::sim::{Agent, Ctx, SimConfig, Simulator};
    pub use crate::time::{SimDuration, SimTime};
}
