//! Simulation clock types.
//!
//! All simulator time is kept in integer **nanoseconds** ([`SimTime`],
//! [`SimDuration`]) so that event ordering is exact and runs are bit-for-bit
//! reproducible; floating point is only used at the edges (configuration and
//! reporting), via the `as_secs_f64` / `from_secs_f64` helpers.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as used by all conversions in this module.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// The largest nanosecond count an `f64` second value can address without
/// losing integer precision (2^53 ≈ 104 days). Beyond this, consecutive
/// representable `f64` values are more than 1 ns apart, so
/// `from_secs_f64` would silently snap to a nearby-but-wrong nanosecond;
/// both `from_secs_f64` constructors reject such values. Use the integer
/// constructors (`from_nanos`/`from_micros`/`from_millis`/`from_secs`)
/// for times that large.
pub const MAX_F64_EXACT_NANOS: u64 = 1 << 53;

/// Report a time-arithmetic underflow (`earlier - later`).
///
/// Out of line and cold: the comparison guarding it is the only cost on
/// the hot path. When [`pert_core::Attach::current`] audits (a running
/// simulator enters its config) it is an audit **violation** —
/// counted and panicking, like a conservation-ledger breach — because a
/// negative elapsed time means causality broke somewhere upstream (with
/// cross-shard clock skew it would otherwise silently clamp to zero and
/// corrupt RTT estimates downstream). Debug builds without audit still
/// assert; release builds without it keep the historical saturate-to-zero
/// behavior.
#[cold]
#[inline(never)]
fn underflow(op: &str, lhs_ns: u64, rhs_ns: u64) {
    if pert_core::Attach::current().audit {
        pert_core::audit::violation(
            "time",
            format_args!("{op} underflow: {rhs_ns} ns subtracted from {lhs_ns} ns"),
        );
    }
    debug_assert!(false, "{op} underflow: {lhs_ns} ns - {rhs_ns} ns");
}

/// Shared guard for the two `from_secs_f64` constructors.
fn checked_f64_nanos(secs: f64, what: &str) -> u64 {
    assert!(secs.is_finite() && secs >= 0.0, "invalid {what}: {secs}");
    let ns = (secs * NANOS_PER_SEC as f64).round();
    assert!(
        ns <= MAX_F64_EXACT_NANOS as f64,
        "{what} {secs}s exceeds 2^53 ns, where f64 seconds can no longer \
         address individual nanoseconds; use an integer constructor"
    );
    ns as u64
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Subtracting
/// a later time from an earlier one panics in debug builds (saturates in
/// release), which catches scheduling bugs early.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for idle timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from seconds expressed as `f64` (configuration helper).
    ///
    /// # Panics
    /// Panics if `secs` is negative, not finite, or larger than
    /// [`MAX_F64_EXACT_NANOS`] nanoseconds (where `f64` can no longer
    /// represent every nanosecond — use the integer constructors).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(checked_f64_nanos(secs, "time"))
    }

    /// This instant as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Elapsed time since `earlier`.
    ///
    /// `earlier` being actually *later* is a causality bug: with the
    /// audit layer enabled it is reported as an audit violation (counted,
    /// panicking); debug builds without it assert; release builds without
    /// it saturate to zero (see `underflow`).
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        if self.0 < earlier.0 {
            underflow("SimTime::duration_since", self.0, earlier.0);
        }
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, not finite, or larger than
    /// [`MAX_F64_EXACT_NANOS`] nanoseconds (where `f64` can no longer
    /// represent every nanosecond — use the integer constructors).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(checked_f64_nanos(secs, "duration"))
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Compute the serialization (transmission) delay of `bits` on a link of
/// `capacity_bps` bits per second, rounded up to whole nanoseconds so a
/// packet never finishes transmitting early.
///
/// # Panics
/// Panics if `capacity_bps` is zero.
#[inline]
pub fn transmission_delay(bits: u64, capacity_bps: u64) -> SimDuration {
    assert!(capacity_bps > 0, "link capacity must be positive");
    // `bits * 1e9` fits a u64 up to 18.4 Gbit — every packet — which keeps
    // the per-transmission division a machine instruction, not `__udivti3`.
    if let Some(scaled) = bits.checked_mul(NANOS_PER_SEC) {
        return SimDuration(scaled.div_ceil(capacity_bps));
    }
    let ns = (bits as u128 * NANOS_PER_SEC as u128).div_ceil(capacity_bps as u128);
    SimDuration(u64::try_from(ns).expect("transmission delay overflow"))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Checked like [`SimTime::duration_since`]: underflow is an audit
    /// violation / debug assertion, not a silent clamp. Use
    /// [`SimDuration::saturating_sub`] where clamping is intended.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        if self.0 < rhs.0 {
            underflow("SimDuration subtraction", self.0, rhs.0);
        }
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_through_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(5), SimDuration::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.020),
            SimDuration::from_millis(20)
        );
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!(
            t.duration_since(SimTime::from_nanos(100)),
            SimDuration::from_nanos(50)
        );
    }

    #[test]
    fn transmission_delay_rounds_up() {
        // 1000-byte packet on 10 Mbps: 8000 bits / 1e7 bps = 800 us exactly.
        let d = transmission_delay(8_000, 10_000_000);
        assert_eq!(d, SimDuration::from_micros(800));
        // 1 bit on 3 bps: 333333333.3 ns, must round *up*.
        let d = transmission_delay(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
    }

    #[test]
    fn transmission_delay_high_speed_no_overflow() {
        // 1500-byte packet on 1 Tbps.
        let d = transmission_delay(12_000, 1_000_000_000_000);
        assert_eq!(d.as_nanos(), 12);
    }

    #[test]
    fn transmission_delay_hands_over_to_u128_at_the_overflow_boundary() {
        let last_u64 = u64::MAX / NANOS_PER_SEC;
        for bits in [last_u64 - 1, last_u64, last_u64 + 1, last_u64 * 3] {
            for cap in [7, NANOS_PER_SEC, NANOS_PER_SEC + 1, u64::MAX] {
                let wide = (bits as u128 * NANOS_PER_SEC as u128).div_ceil(cap as u128);
                assert_eq!(
                    u128::from(transmission_delay(bits, cap).as_nanos()),
                    wide,
                    "{bits} bits at {cap} bps"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn time_integer_constructors_agree() {
        assert_eq!(SimTime::from_micros(5_000), SimTime::from_millis(5));
        assert_eq!(SimTime::from_millis(2_000), SimTime::from_secs(2));
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        const T: SimTime = SimTime::from_millis(250); // usable in const context
        assert_eq!(T, SimTime::from_secs_f64(0.25));
    }

    #[test]
    fn f64_seconds_accepted_up_to_precision_limit() {
        // 9e15 ns sits just under the 2^53 (≈ 9.007e15) limit and is
        // exactly representable, so the conversion must be lossless.
        assert_eq!(
            SimTime::from_secs_f64(9_000_000.0),
            SimTime::from_secs(9_000_000)
        );
        assert_eq!(
            SimDuration::from_secs_f64(9_000_000.0),
            SimDuration::from_secs(9_000_000)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 2^53 ns")]
    fn time_beyond_f64_precision_rejected() {
        // Twice the limit: f64 can only hit even nanosecond counts here.
        let _ = SimTime::from_secs_f64(2.0 * (1u64 << 53) as f64 / NANOS_PER_SEC as f64);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^53 ns")]
    fn duration_beyond_f64_precision_rejected() {
        let _ = SimDuration::from_secs_f64(2.0 * (1u64 << 53) as f64 / NANOS_PER_SEC as f64);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
    }

    /// Extract the panic message from a `catch_unwind` payload.
    #[cfg(debug_assertions)]
    fn panic_msg(err: &(dyn std::any::Any + Send)) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Audit on this thread, as a running audited simulator enters it.
    fn audited() -> pert_core::Entered<pert_core::Attach> {
        let attach = pert_core::Attach {
            telemetry: false,
            audit: true,
        };
        attach.enter()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn duration_since_underflow_is_reported() {
        let _audit = audited();
        let err = std::panic::catch_unwind(|| {
            let _ = SimTime::from_nanos(5).duration_since(SimTime::from_nanos(9));
        })
        .expect_err("underflow must panic, not clamp, when checks are on");
        let msg = panic_msg(&*err);
        assert!(msg.contains("underflow"), "unexpected panic: {msg}");
        assert!(
            msg.contains("audit violation [time]"),
            "underflow must surface through the audit layer: {msg}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn sim_time_sub_underflow_is_reported() {
        // `SimTime - SimTime` delegates to `duration_since`; make sure the
        // operator path is covered too.
        let err = std::panic::catch_unwind(|| {
            let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
        })
        .expect_err("operator underflow must panic when checks are on");
        assert!(panic_msg(&*err).contains("underflow"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn duration_sub_underflow_is_reported() {
        let _audit = audited();
        let err = std::panic::catch_unwind(|| {
            let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
        })
        .expect_err("underflow must panic, not clamp, when checks are on");
        let msg = panic_msg(&*err);
        assert!(msg.contains("underflow"), "unexpected panic: {msg}");
        assert!(
            msg.contains("audit violation [time]"),
            "underflow must surface through the audit layer: {msg}"
        );
    }

    #[test]
    fn underflow_counts_as_audit_violation() {
        let _audit = audited();
        let before = pert_core::audit::snapshot().violations;
        let _ = std::panic::catch_unwind(|| {
            let _ = SimTime::ZERO.duration_since(SimTime::from_nanos(1));
        });
        assert!(pert_core::audit::snapshot().violations > before);
    }
}
