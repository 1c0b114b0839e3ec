//! What the bench reads from the host: core count, CPU model, steal
//! time, the process's CPU clock and its peak resident set. Linux only,
//! like the `/proc` reads the sharded engine already does.

use std::fs;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    parse_cpu_line(fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

/// Parse the aggregate `cpu` line of `/proc/stat`: the eighth counter is
/// steal; guest time is already inside user/nice, so the total is the
/// first eight.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut it = line.split_whitespace();
    if it.next()? != "cpu" {
        return None;
    }
    let f: Vec<u64> = it.take(8).filter_map(|x| x.parse().ok()).collect();
    (f.len() == 8).then(|| (f[7], f.iter().sum()))
}

/// Steal time as a percentage of all CPU time between two readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, live or joined, in seconds. Nanosecond resolution, unlike
/// the 10 ms ticks of `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux, matching `Timespec`), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_parses_steal_and_total() {
        let line = "cpu  100 5 20 800 10 0 3 62 7 0";
        assert_eq!(parse_cpu_line(line), Some((62, 1000)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
        assert!((steal_pct(Some((10, 1000)), Some((60, 2000))) - 5.0).abs() < 1e-12);
        assert_eq!(steal_pct(None, Some((1, 2))), 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let a = process_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let b = process_cpu_s();
        assert!(b > a, "cpu clock did not advance: {a} -> {b}");
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
