//! The host-speed reference: a small frozen discrete-event loop (binary
//! heap calendar, 64 flows with float window arithmetic and coin flips)
//! that the shared host slows down by the same factor as the real
//! simulator — measured over 150 s of alternating runs, `fig6 --quick`
//! swung 1.0–2.4 s (cv 24 %) while `fig6 / reference` kept the same mean
//! in the slow and the fast regime (0.106 vs 0.108). A dependent-chain
//! integer loop, a four-chain arithmetic loop and pointer chases over
//! 0.5–8 MiB all swing by less than half of what the simulator does and
//! leave a 25–35 % regime shift in the ratio, which is why the reference
//! looks like a simulator.
//!
//! Every child runs it right before and right after the timed region, on
//! as many threads as the region keeps busy; host-time metrics are
//! reported scaled by
//! `NOMINAL_MS / measured`, i.e. in seconds of a host on which this
//! kernel takes [`NOMINAL_MS`]. The kernel calls nothing in the library
//! crates, so a change there cannot move it; changing the kernel itself
//! re-bases every host-time metric and is a benchmark change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What one pass over the kernel takes on the reference host in its fast
/// regime (2-vCPU Xeon 2.1 GHz VM), milliseconds.
pub const NOMINAL_MS: f64 = 10.0;

/// Events per pass.
const STEPS: u64 = 300_000;

/// One flow's state, padded to two cache lines like a slab row.
#[derive(Clone, Copy)]
struct Flow {
    cwnd: f64,
    srtt: f64,
    acked: u64,
    _pad: [u64; 13],
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One pass: pop the earliest flow, update its smoothed RTT and window,
/// schedule its next event one pacing gap later.
fn pass() -> u64 {
    let mut flows = [Flow {
        cwnd: 2.0,
        srtt: 0.06,
        acked: 0,
        _pad: [0; 13],
    }; 64];
    let mut x = 99u64;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..flows.len() as u32)
        .map(|i| Reverse((xorshift(&mut x) % 100_000, i)))
        .collect();
    let mut odd = 0u64;
    for _ in 0..STEPS {
        let Reverse((t, id)) = heap.pop().expect("one event per flow is always pending");
        let f = &mut flows[id as usize];
        let rtt = 0.06 + (xorshift(&mut x) & 0xfff) as f64 * 1e-6;
        f.srtt = 0.99 * f.srtt + 0.01 * rtt;
        if f.srtt > 0.061 && (xorshift(&mut x) & 0xff) < 8 {
            f.cwnd *= 0.65;
        } else {
            f.cwnd += 1.0 / f.cwnd.max(1.0);
        }
        f.acked += 1;
        odd += f.acked & 1;
        let gap = (f.srtt / f.cwnd.max(1.0) * 1e9) as u64 + 1;
        heap.push(Reverse((t + gap, id)));
    }
    odd
}

/// Passes per probe and thread. The timed region between two probes
/// sees the host's average state, so a probe is the mean of a few passes
/// and not the fastest one.
const PASSES: usize = 3;

/// Mean milliseconds per pass right now on this thread.
fn probe_one() -> f64 {
    let t = Instant::now();
    for _ in 0..PASSES {
        black_box(pass());
    }
    t.elapsed().as_secs_f64() * 1e3 / PASSES as f64
}

/// How fast the cores a workload is about to use (or has just used) are:
/// milliseconds per pass with `threads` threads running the kernel at
/// once, the calling thread among them. The two vCPUs of the reference
/// host drift apart by up to ×2 for tens of seconds, so a workload that
/// keeps both busy is scaled by the speed the two offer together.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pace {
    /// The calling thread's time: paces whatever runs on it alone,
    /// set-up included.
    pub main: f64,
    /// Harmonic mean over all threads (speeds add, times do not): paces
    /// a region that keeps every thread busy. On 43 paired rounds of
    /// `dumbbell100k_shards2` it left wall cv 12.6 %, the slowest
    /// thread's time 14.7 % and the calling thread's 20 %.
    pub pooled: f64,
}

impl Pace {
    /// Probe now, on `threads` threads.
    pub fn probe(threads: usize) -> Pace {
        let times: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(probe_one)).collect();
            std::iter::once(probe_one())
                .chain(
                    others
                        .into_iter()
                        .map(|h| h.join().expect("reference kernel does not panic")),
                )
                .collect()
        });
        Pace::of(&times)
    }

    /// From per-thread times, the calling thread's first.
    pub fn of(times: &[f64]) -> Pace {
        Pace {
            main: times[0],
            pooled: times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>(),
        }
    }

    /// The pace over a region bracketed by two probes.
    pub fn between(before: Pace, after: Pace) -> Pace {
        Pace {
            main: (before.main + after.main) / 2.0,
            pooled: (before.pooled + after.pooled) / 2.0,
        }
    }
}

/// Scale factor from measured seconds to reference-host seconds.
pub fn scale(ref_ms: f64) -> f64 {
    NOMINAL_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_inverts_a_slowdown() {
        assert_eq!(pass(), pass());
        let one = Pace::probe(1);
        assert!(one.main > 0.0 && one.main == one.pooled);
        let two = Pace::probe(2);
        assert!(two.main > 0.0 && two.pooled > 0.0);
        // One core at 10 ms a pass and one at 20 do 3 passes in 20 ms.
        let p = Pace::of(&[10.0, 20.0]);
        assert!((p.pooled - 40.0 / 3.0).abs() < 1e-12 && p.main == 10.0);
        let mid = Pace::between(Pace::of(&[10.0]), Pace::of(&[20.0]));
        assert_eq!((mid.main, mid.pooled), (15.0, 15.0));
        // A host twice as slow as nominal: 4 measured seconds are 2.
        assert_eq!(4.0 * scale(2.0 * NOMINAL_MS), 2.0);
        assert_eq!(scale(NOMINAL_MS), 1.0);
    }
}
