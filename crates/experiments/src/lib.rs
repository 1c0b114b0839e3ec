//! # experiments — the per-figure reproduction harness
//!
//! One module per table/figure of *"Emulating AQM from End Hosts"*
//! (SIGCOMM 2007). Each module implements the [`scenario::Scenario`]
//! trait: it declares independent, self-seeded [`runner::Job`]s, the
//! [`runner`] executes them on a worker pool, and the module reassembles
//! the ordered results into a structured [`report::Report`] (text, JSON,
//! or CSV). The `experiments` binary dispatches through
//! [`scenario::lookup`]; output is byte-identical whatever `--jobs` says
//! because rendering reads only the declared-order cells.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`cases`]  | the §2.2 six-case traffic setup feeding Figs. 2–4 |
//! | [`fig2`]   | flow-level vs queue-level loss correlation |
//! | [`fig3`]   | predictor efficiency / false ± rates |
//! | [`fig4`]   | queue-length PDF at false positives |
//! | [`fig5`]   | the PERT response curve |
//! | [`fig6`]   | bandwidth sweep (1 Mbps–1 Gbps) |
//! | [`fig7`]   | RTT sweep (10 ms–1 s) |
//! | [`fig8`]   | flow-count sweep (1–1000) |
//! | [`fig9`]   | web-session sweep (10–1000) |
//! | [`table1`] | heterogeneous-RTT fairness table |
//! | [`fig11`]  | multi-bottleneck chain |
//! | [`fig12`]  | dynamic arrivals/departures |
//! | [`fig13`]  | fluid-model stability (a: eq. 13; b–d: eq. 14) |
//! | [`fig14`]  | PERT/PI vs router PI-ECN |
//! | [`mix`]    | beyond-paper: PERT vs CUBIC/BBR cross-traffic |
//! | [`reverse`] | §7 reverse-path traffic: PERT (RTT) vs PERT-OWD |
//! | [`rem`]    | §8 generalization: PERT/REM vs router REM-ECN |
//! | [`robustness`] | non-congestion loss + delayed-ACK stress tests |
//! | [`ablations`] | decrease factor, EWMA weight, response curve |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cases;
pub mod cli;
pub mod common;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod mix;
pub mod progress;
pub mod rem;
pub mod report;
pub mod reverse;
pub mod robustness;
pub mod runner;
pub mod scenario;
pub mod spans;
pub mod sweep;
pub mod table1;
pub mod trace_cli;

pub use common::Scale;
pub use report::Report;
pub use scenario::Scenario;
