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

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::thread::LocalKey;

/// What an instrumented object attaches when it is built: telemetry taps
/// and audit shadows. A simulator hands its config's to what it builds;
/// the public constructors read [`Attach::current`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attach {
    /// Attach telemetry taps.
    pub telemetry: bool,
    /// Attach audit shadows.
    pub audit: bool,
}

thread_local! {
    static ENTERED: Cell<Option<Attach>> = const { Cell::new(None) };
}

impl Attach {
    /// The decision entered on this thread ([`Attach::enter`]), else audit
    /// in debug builds and telemetry as `telemetry::set_enabled` left it.
    #[inline]
    pub fn current() -> Self {
        let entered = ENTERED.try_with(Cell::get).ok().flatten();
        entered.unwrap_or_else(|| Attach {
            telemetry: telemetry::ATTACH_DEFAULT.load(Ordering::Relaxed),
            audit: cfg!(debug_assertions),
        })
    }

    /// Make `self` this thread's [`Attach::current`] until the guard
    /// drops, when the previous decision comes back.
    pub fn enter(self) -> Entered<Attach> {
        Entered::new(&ENTERED, self)
    }
}

/// A value entered in a thread-local slot, the previous one restored on
/// drop. The guard stays on the thread that entered it.
pub struct Entered<T: Copy + 'static> {
    slot: &'static LocalKey<Cell<Option<T>>>,
    prev: Option<T>,
    _thread: PhantomData<*const ()>,
}

impl<T: Copy + 'static> Entered<T> {
    /// Enter `value` in `slot` on this thread.
    pub fn new(slot: &'static LocalKey<Cell<Option<T>>>, value: T) -> Self {
        let prev = slot.replace(Some(value));
        let _thread = PhantomData;
        Entered {
            slot,
            prev,
            _thread,
        }
    }
}

impl<T: Copy + 'static> Drop for Entered<T> {
    fn drop(&mut self) {
        // Past the thread's teardown there is no slot left to restore.
        let _ = self.slot.try_with(|slot| slot.set(self.prev));
    }
}
