//! The parallel job runner: executes a scenario's independent points on
//! a `std::thread::scope` worker pool and hands the results back **in
//! declared order**, so parallel output is byte-identical to `--jobs 1`.
//!
//! Determinism contract: every [`Job`] is a self-contained closure that
//! seeds its own simulation; the pool only decides *when* a job runs,
//! never what it computes. Workers claim jobs through an atomic cursor
//! and deposit each result in the slot matching the job's declared
//! index, so assembly order is independent of completion order.
//!
//! Each job additionally runs under a telemetry *scope* equal to its
//! label (see [`pert_core::telemetry::scoped`]): any records a job's
//! simulations publish are tagged with the label, which is what lets the
//! trace writer group and sort them deterministically regardless of
//! which worker thread ran the job. With telemetry off this is a
//! thread-local string swap per job — nothing more.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::PointTiming;

/// A type-erased point result; scenarios downcast in `assemble`.
pub type PointResult = Box<dyn Any + Send>;

/// What a worker deposits for one job: the result, or the panic payload
/// caught from it.
type JobOutcome = Result<PointResult, Box<dyn Any + Send>>;

/// Re-raise a panic caught from a job, annotated with the job's label
/// when the payload is a plain message (the `panic!`/`expect` common
/// case; exotic `panic_any` payloads pass through untouched so callers
/// can still downcast them). `resume_unwind` deliberately skips the
/// panic hook — it already fired at the original panic site, where the
/// flight recorder dumped its window.
fn reraise_job_panic(label: &str, payload: Box<dyn Any + Send>) -> ! {
    let annotated: Box<dyn Any + Send> = if let Some(s) = payload.downcast_ref::<&str>() {
        Box::new(format!("job '{label}' panicked: {s}"))
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Box::new(format!("job '{label}' panicked: {s}"))
    } else {
        payload
    };
    if let Some(s) = annotated.downcast_ref::<String>() {
        // The hook printed the raw panic site; name the job for the log.
        eprintln!("{s}");
    }
    resume_unwind(annotated)
}

/// One independent unit of work (usually a single simulation run).
pub struct Job {
    /// Display label for timing diagnostics, e.g. `"fig6/5Mbps/PERT"`.
    pub label: String,
    /// The work. Must be self-seeding and side-effect free.
    pub run: Box<dyn FnOnce() -> PointResult + Send>,
}

impl Job {
    /// Build a job from any `Send` result type.
    pub fn new<T, F>(label: impl Into<String>, f: F) -> Self
    where
        T: Any + Send,
        F: FnOnce() -> T + Send + 'static,
    {
        Job {
            label: label.into(),
            run: Box::new(move || Box::new(f()) as PointResult),
        }
    }
}

/// Execute `jobs` on up to `workers` threads. Results come back in the
/// order the jobs were declared, with per-job wall-clock timings.
pub fn run_jobs(jobs: Vec<Job>, workers: usize) -> (Vec<PointResult>, Vec<PointTiming>) {
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));

    if workers <= 1 {
        // Sequential fast path: same code path the pool reduces to, no
        // thread overhead.
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        for job in jobs {
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| run_scoped(&job.label, job.run))) {
                Ok(result) => results.push(result),
                Err(payload) => reraise_job_panic(&job.label, payload),
            }
            timings.push(PointTiming {
                label: job.label,
                secs: t0.elapsed().as_secs_f64(),
            });
        }
        return (results, timings);
    }

    type WorkSlot = Mutex<Option<Box<dyn FnOnce() -> PointResult + Send>>>;

    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    // One slot per job: workers `take()` the closure, then write the
    // result back into the slot of the same index.
    let work: Vec<WorkSlot> = jobs.into_iter().map(|j| Mutex::new(Some(j.run))).collect();
    let done: Vec<Mutex<Option<(JobOutcome, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Raised by the first job that panics: workers stop claiming *new*
    // jobs but every claimed job still deposits its outcome, so the scope
    // joins cleanly and completed results drain through assembly below
    // instead of vanishing in a poisoned pool.
    let poisoned = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let f = work[i].lock().unwrap().take().expect("job claimed twice");
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| run_scoped(&labels[i], f)));
                if outcome.is_err() {
                    poisoned.store(true, Ordering::Relaxed);
                }
                *done[i].lock().unwrap() = Some((outcome, t0.elapsed().as_secs_f64()));
            });
        }
    });

    let mut results = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (slot, label) in done.into_iter().zip(labels) {
        // Claims happen in cursor order, so any panicked job sits at a
        // lower index than every unclaimed (`None`) slot: the re-raise
        // below always fires before a `None` can be reached.
        match slot.into_inner().unwrap() {
            Some((Ok(result), secs)) => {
                results.push(result);
                timings.push(PointTiming { label, secs });
            }
            Some((Err(payload), _)) => reraise_job_panic(&label, payload),
            None => unreachable!("job '{label}' unclaimed without an earlier panic"),
        }
    }
    (results, timings)
}

/// Run one job closure under a telemetry scope named after its label,
/// with a `job/<label>` profiler span (a no-op when telemetry is off).
fn run_scoped(label: &str, f: impl FnOnce() -> PointResult) -> PointResult {
    let _scope = pert_core::telemetry::scoped(label);
    let _span = pert_core::telemetry::enabled()
        .then(|| crate::spans::span(format!("job/{label}")))
        .flatten();
    let result = f();
    // Feed the stderr progress line (one relaxed atomic add; the
    // counters only tick while a progress ticker is running).
    if pert_core::telemetry::progress_enabled() {
        pert_core::telemetry::progress_job_done();
    }
    result
}

/// Downcast a [`PointResult`] back to its concrete type.
pub fn take<T: Any>(r: PointResult) -> T {
    *r.downcast::<T>()
        .expect("point result downcast to the wrong type")
}

/// The worker count used when `--jobs` is not given: one per available
/// core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(format!("job{i}"), move || i))
            .collect()
    }

    #[test]
    fn results_come_back_in_declared_order() {
        for workers in [1, 2, 8] {
            let (results, timings) = run_jobs(index_jobs(17), workers);
            let got: Vec<usize> = results.into_iter().map(take::<usize>).collect();
            assert_eq!(got, (0..17).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(timings.len(), 17);
            assert_eq!(timings[3].label, "job3");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let (results, timings) = run_jobs(Vec::new(), 8);
        assert!(results.is_empty());
        assert!(timings.is_empty());
    }

    #[test]
    fn oversubscribed_pool_clamps_to_job_count() {
        let (results, _) = run_jobs(index_jobs(2), 64);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn panicking_job_reraises_with_label_after_draining() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        for workers in [1, 2] {
            let completed = Arc::new(AtomicUsize::new(0));
            let mut jobs: Vec<Job> = (0..4)
                .map(|i| {
                    let c = Arc::clone(&completed);
                    Job::new(format!("ok{i}"), move || {
                        c.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            jobs.push(Job::new("boom", || -> usize { panic!("kaput") }));
            let err = catch_unwind(AssertUnwindSafe(|| run_jobs(jobs, workers))).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string payload>".into());
            assert!(
                msg.contains("job 'boom' panicked"),
                "workers={workers}: {msg}"
            );
            assert!(msg.contains("kaput"), "workers={workers}: {msg}");
            // "boom" is declared last, so the cursor claims every other
            // job first and each claimed job runs to completion.
            assert_eq!(completed.load(Ordering::Relaxed), 4, "workers={workers}");
        }
    }

    #[test]
    fn non_message_panic_payloads_pass_through() {
        let jobs = vec![Job::new("odd", || -> usize {
            std::panic::panic_any(42usize)
        })];
        let err = catch_unwind(AssertUnwindSafe(|| run_jobs(jobs, 1))).unwrap_err();
        assert_eq!(*err.downcast::<usize>().unwrap(), 42);
    }

    #[test]
    fn heterogeneous_result_types_downcast() {
        let jobs = vec![
            Job::new("s", || "hello".to_string()),
            Job::new("v", || vec![1u64, 2, 3]),
        ];
        let (mut results, _) = run_jobs(jobs, 2);
        let v: Vec<u64> = take(results.pop().unwrap());
        let s: String = take(results.pop().unwrap());
        assert_eq!(s, "hello");
        assert_eq!(v, [1, 2, 3]);
    }
}
