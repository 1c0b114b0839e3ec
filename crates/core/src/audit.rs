//! Process-wide audit registry: check counters and the violation
//! reporter shared by every crate's invariant checks.
//!
//! Whether anything is audited is not decided here: a simulator's config
//! says so ([`crate::Attach::audit`]), on in debug/test builds and off in
//! release unless `experiments … --audit` is given. With it off every
//! check site is a branch on a flag or an `Option` that is `None`.
//!
//! Audited objects (queue ledgers, differential oracles, scoreboard
//! shadows) attach their shadow state **at construction time**, as the
//! simulator that builds them says. Checks count themselves into the
//! global counters below; a failed check calls [`violation`], which
//! records the violation and panics with a reproducer (the caller embeds
//! seed, event index, and a state dump).
//!
//! Counters are process-global atomics so the parallel experiment runner
//! can aggregate across worker threads; hot paths batch locally and flush
//! on drop rather than touching the atomics per check.

use std::sync::atomic::{AtomicU64, Ordering};

static QUEUE_CHECKS: AtomicU64 = AtomicU64::new(0);
static ORACLE_CHECKS: AtomicU64 = AtomicU64::new(0);
static TCP_CHECKS: AtomicU64 = AtomicU64::new(0);
static EVENT_CHECKS: AtomicU64 = AtomicU64::new(0);
static CALENDAR_CHECKS: AtomicU64 = AtomicU64::new(0);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Record `n` queue-ledger checks (conservation, byte accounting,
/// integral consistency).
pub fn count_queue_checks(n: u64) {
    QUEUE_CHECKS.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` differential-oracle comparisons (RED/PI/REM/PERT shadows).
pub fn count_oracle_checks(n: u64) {
    ORACLE_CHECKS.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` TCP sequence-space checks (scoreboard, interval set,
/// delivery-order invariants).
pub fn count_tcp_checks(n: u64) {
    TCP_CHECKS.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` event-loop checks (time monotonicity).
pub fn count_event_checks(n: u64) {
    EVENT_CHECKS.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` calendar-shadow comparisons (timing wheel vs. reference
/// heap `(time, seq)` pop equivalence).
pub fn count_calendar_checks(n: u64) {
    CALENDAR_CHECKS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of the global audit counters. Subtract two
/// snapshots ([`AuditSnapshot::since`]) to report per-target activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Queue-ledger checks run.
    pub queue_checks: u64,
    /// Differential-oracle comparisons run.
    pub oracle_checks: u64,
    /// TCP sequence-space checks run.
    pub tcp_checks: u64,
    /// Event-loop checks run.
    pub event_checks: u64,
    /// Calendar-shadow (wheel vs. heap) comparisons run.
    pub calendar_checks: u64,
    /// Violations recorded (each also panics, so a finished run always
    /// reports zero — the counter exists for reporting symmetry and for
    /// tests that catch the panic).
    pub violations: u64,
}

impl AuditSnapshot {
    /// The counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &AuditSnapshot) -> AuditSnapshot {
        AuditSnapshot {
            queue_checks: self.queue_checks - earlier.queue_checks,
            oracle_checks: self.oracle_checks - earlier.oracle_checks,
            tcp_checks: self.tcp_checks - earlier.tcp_checks,
            event_checks: self.event_checks - earlier.event_checks,
            calendar_checks: self.calendar_checks - earlier.calendar_checks,
            violations: self.violations - earlier.violations,
        }
    }

    /// Total checks of all kinds.
    pub fn total_checks(&self) -> u64 {
        self.queue_checks
            + self.oracle_checks
            + self.tcp_checks
            + self.event_checks
            + self.calendar_checks
    }
}

/// Read the global audit counters.
pub fn snapshot() -> AuditSnapshot {
    AuditSnapshot {
        queue_checks: QUEUE_CHECKS.load(Ordering::Relaxed),
        oracle_checks: ORACLE_CHECKS.load(Ordering::Relaxed),
        tcp_checks: TCP_CHECKS.load(Ordering::Relaxed),
        event_checks: EVENT_CHECKS.load(Ordering::Relaxed),
        calendar_checks: CALENDAR_CHECKS.load(Ordering::Relaxed),
        violations: VIOLATIONS.load(Ordering::Relaxed),
    }
}

/// Record an invariant violation and panic with the reproducer text.
///
/// Callers embed everything needed to replay the failure: the simulation
/// seed, the event index at which the check fired, and a dump of the
/// diverging state.
#[cold]
pub fn violation(subsystem: &str, detail: std::fmt::Arguments<'_>) -> ! {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    panic!("audit violation [{subsystem}]: {detail}");
}

/// Tolerant float comparison for differential oracles: the optimized and
/// reference implementations compute algebraically equal expressions that
/// differ in floating-point rounding, so exact equality is too strict.
/// The EWMA/integrator recursions under audit are contractive, keeping
/// the accumulated divergence far below this bound.
#[inline]
pub fn close(a: f64, b: f64) -> bool {
    if a == b {
        return true; // covers ±0 and exact matches
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// [`close`] lifted to optional values (`None` must match `None`).
#[inline]
pub fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => close(x, y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_accumulate() {
        let before = snapshot();
        count_queue_checks(3);
        count_oracle_checks(2);
        count_tcp_checks(1);
        count_event_checks(5);
        count_calendar_checks(4);
        let delta = snapshot().since(&before);
        // Other tests in the process may also count; deltas are at least
        // what we added.
        assert!(delta.queue_checks >= 3);
        assert!(delta.oracle_checks >= 2);
        assert!(delta.tcp_checks >= 1);
        assert!(delta.event_checks >= 5);
        assert!(delta.calendar_checks >= 4);
        assert!(delta.total_checks() >= 15);
    }

    #[test]
    fn violation_panics_and_counts() {
        let before = snapshot().violations;
        let caught = std::panic::catch_unwind(|| {
            violation("test", format_args!("seed=1 event=2"));
        });
        let err = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("audit violation [test]: seed=1 event=2"));
        assert!(snapshot().violations > before);
    }

    #[test]
    fn tolerant_comparison() {
        assert!(close(1.0, 1.0 + 1e-12));
        assert!(!close(1.0, 1.0 + 1e-6));
        assert!(close(0.0, 0.0));
        assert!(close(1e12, 1e12 * (1.0 + 1e-10)));
        assert!(close_opt(None, None));
        assert!(close_opt(Some(2.0), Some(2.0)));
        assert!(!close_opt(Some(2.0), None));
    }
}
