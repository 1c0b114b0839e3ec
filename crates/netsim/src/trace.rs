//! Simulation-wide drop trace.
//!
//! The paper's §2 analysis needs losses observable at *two* levels: per-flow
//! (what a single end host can see) and per-queue (what actually happens at
//! the bottleneck). Every drop is therefore logged centrally with its time,
//! link, flow and reason. Drops are sparse, so the log is kept in full.

use crate::ids::{FlowId, LinkId};
use crate::queue::DropReason;
use crate::time::SimTime;

/// One dropped packet.
#[derive(Clone, Copy, Debug)]
pub struct DropRecord {
    /// When the drop happened.
    pub at: SimTime,
    /// The link whose queue dropped the packet.
    pub link: LinkId,
    /// The flow the packet belonged to.
    pub flow: FlowId,
    /// Overflow vs. early (AQM) drop.
    pub reason: DropReason,
    /// True if the packet was a data segment (as opposed to an ACK).
    pub was_data: bool,
}

/// Central drop log.
#[derive(Debug, Default)]
pub struct Trace {
    /// All drops, in time order.
    pub drops: Vec<DropRecord>,
}

impl Trace {
    /// Clear everything (used when discarding the warm-up transient).
    pub fn clear(&mut self) {
        self.drops.clear();
    }
}
