//! # pert-core — PERT: Probabilistic Early Response TCP
//!
//! Simulator-independent implementation of the algorithms from
//! *"Emulating AQM from End Hosts"* (Bhandarkar, Reddy, Zhang, Loguinov —
//! SIGCOMM 2007):
//!
//! * [`estimators`] — the RTT smoothers compared in §2.4 (instantaneous,
//!   windowed moving average, EWMA 7/8 and the adopted `srtt_0.99`);
//! * [`predictors`] — the end-host congestion predictors evaluated in
//!   Figure 3 (CARD, TRI-S, DUAL, Vegas, CIM, and the threshold family);
//! * [`response`] — the gentle-RED-shaped probabilistic response curve
//!   (Figure 5);
//! * [`pert`] — the per-flow PERT controller: `srtt_0.99` + probabilistic
//!   multiplicative decrease (35 %), at most once per RTT;
//! * [`pi`] — PERT/PI, the §6 variant that emulates the PI AQM controller
//!   on the queuing-delay estimate;
//! * [`rem`] — PERT/REM, demonstrating the paper's closing claim that the
//!   scheme generalizes to other AQM algorithms (here REM's
//!   price-and-exponential-marking law);
//! * [`buffer`] — the buffer-sizing relation (eq. 1) motivating the 35 %
//!   decrease factor.
//!
//! Everything here is pure computation over `f64` seconds: drive it from a
//! real TCP stack, a simulator (see the `pert-tcp` crate), or a recorded
//! trace.
//!
//! ## Quick start
//!
//! ```
//! use pert_core::{PertController, PertParams};
//!
//! let mut pert = PertController::new(PertParams::default(), 7);
//! let mut cwnd = 10.0_f64;
//! // per ACK:
//! if let Some(resp) = pert.on_ack(0.350, /*rtt=*/0.072) {
//!     cwnd *= 1.0 - resp.factor; // early multiplicative decrease
//! }
//! assert!(cwnd > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod buffer;
pub mod estimators;
pub mod pert;
pub mod pi;
pub mod predictors;
pub mod reference;
pub mod rem;
pub mod response;
pub mod telemetry;

pub use estimators::{Ewma, MinMax, MovingAverage};
pub use pert::{EarlyResponse, Law, PertController, PertParams, PertStats};
pub use pi::{PertPiController, PertPiParams, PiLaw};
pub use predictors::{AckSample, CongestionState, Predictor};
pub use rem::{PertRemController, PertRemParams, RemLaw};
pub use response::ResponseCurve;
