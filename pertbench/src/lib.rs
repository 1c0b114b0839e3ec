//! # pert-bench — the repo's benchmark
//!
//! Four workloads, seven end-to-end metrics and the per-layer drivers
//! behind them, built to repeat on a shared host whose speed swings ×2
//! in regimes of tens of seconds: every repetition is a fresh child
//! process, every derived workload is timed right next to its base and
//! reported as a ratio to it, and what can be counted is counted.
//! `README.md` next to this crate has the definitions and the measured
//! noise; `BENCHMARK.json` at the repo root is the contract.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod def;
pub mod host;
pub mod layers;
pub mod measure;
pub mod refkernel;
pub mod spans;
pub mod stats;
pub mod workloads;
