//! # workload — traffic generators and scenario builders
//!
//! Everything needed to reproduce the paper's experimental setups:
//!
//! * [`dist`] — exponential and Pareto samplers;
//! * [`web`] — the heavy-tailed on/off web-session source (§4.4, after
//!   Feldmann et al.);
//! * [`scheme`] — the transport + router-queue bundles under comparison
//!   (SACK/DropTail, SACK/RED-ECN, Vegas, PERT, PERT/PI, SACK/PI-ECN);
//! * [`dumbbell`] — the single-bottleneck topology with per-flow RTT
//!   control, reverse traffic, and web background (§2.2, §4.1–§4.5);
//! * [`chain`] — the six-router multi-bottleneck line (§4.6, Fig. 10);
//! * [`measure`] — the warm-up/window measurement protocol and the
//!   `(Q, p, U, F)` metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod dist;
pub mod dumbbell;
pub mod measure;
pub mod scheme;
pub mod web;

pub use chain::{build_chain, Chain, ChainConfig};
pub use dumbbell::{build_dumbbell, Dumbbell, DumbbellConfig};
pub use measure::{link_metrics, run_measured, snapshot_goodput, GoodputSnapshot, LinkMetrics};
pub use scheme::Scheme;
pub use web::{WebParams, WebSession};
