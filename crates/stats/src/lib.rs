//! # sim-stats — measurement utilities for the PERT reproduction
//!
//! Dependency-free analysis helpers:
//!
//! * [`jain::jain_index`] — Jain's fairness index (`F` in the paper's
//!   tables);
//! * [`transitions`] — the §2 congestion-state machine analysis
//!   (prediction efficiency, false positives, false negatives — Figures
//!   2 and 3);
//! * [`histogram::Histogram`] — empirical PDFs (Figure 4);
//! * [`timeseries::TimeSeries`] — step-interpolated time-indexed lookups
//!   (queue length at false-positive instants; throughput traces);
//! * [`metrics::MetricsSet`] — named counters/gauges/fixed-bucket
//!   histograms with deterministic, commutative merging (the model
//!   behind the telemetry registry);
//! * [`derive::DeriveSet`] — streaming reducers that turn raw telemetry
//!   records into derived metrics (delay CDFs, utilization, loss rates,
//!   fairness, PERT response frequency) with the same commutative
//!   integer contract;
//! * [`series::SeriesId`] — the integer ids of the telemetry series the
//!   reducers dispatch on;
//! * [`json`] — the one JSON codec (string and number writers, a pull
//!   parser) every crate writes and reads its JSON with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod derive;
pub mod histogram;
pub mod jain;
pub mod json;
pub mod metrics;
pub mod series;
pub mod timeseries;
pub mod transitions;

pub use derive::{DeriveSet, DerivedSummary};
pub use histogram::Histogram;
pub use jain::jain_index;
pub use metrics::{BucketHistogram, MetricValue, MetricsSet};
pub use series::SeriesId;
pub use timeseries::TimeSeries;
pub use transitions::{analyze, cluster_losses, TransitionCounts};
