//! The parent side: every repetition is a fresh child process, a derived
//! workload is timed right next to its base, and the order inside each
//! pair alternates between rounds. The parent itself only waits.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::def::{END_TO_END, PER_LAYER};
use crate::host;
use crate::refkernel::{self, Pace};
use crate::stats::{cv, paired_ratios, self_ratios, summarize, Summary};
use crate::workloads::{Mode, Workload};

/// Round-to-round variation of `wall_s` above which a run is flagged.
pub const NOISY_CV: f64 = 0.15;

/// What one child reported. `wall_s`, `cpu_s`, `setup_s` are as measured
/// on this host; the `*_ref_s` methods give them in reference-host
/// seconds.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Wall clock of the timed region, measured seconds.
    pub wall_s: f64,
    /// CPU time of the timed region, measured seconds.
    pub cpu_s: f64,
    /// Spawn to start of the timed region, measured seconds.
    pub setup_s: f64,
    /// Reference-kernel pace around the timed region, ms per pass.
    pub pace: Pace,
    /// `VmHWM` at child exit, MiB.
    pub peak_rss_mib: f64,
    /// Heap allocations in the timed region (counted passes).
    pub allocs: Option<u64>,
    /// Simulator events, where the workload can see them.
    pub events: Option<u64>,
    /// Output digest.
    pub digest: u64,
    /// Per-layer values (traced passes).
    pub layers: BTreeMap<String, f64>,
}

impl Sample {
    /// Wall clock of the timed region, reference-host seconds.
    pub fn wall_ref_s(&self) -> f64 {
        self.wall_s * refkernel::scale(self.pace.pooled)
    }

    /// CPU time of the timed region, reference-host seconds.
    pub fn cpu_ref_s(&self) -> f64 {
        self.cpu_s * refkernel::scale(self.pace.pooled)
    }

    /// Set-up time, reference-host seconds. Set-up runs on the child's
    /// main thread whatever the timed region does afterwards.
    pub fn setup_ref_s(&self) -> f64 {
        self.setup_s * refkernel::scale(self.pace.main)
    }
}

/// When to stop adding rounds.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Stay inside this many seconds, whole invocation.
    Seconds(f64),
    /// Exactly this many timed rounds.
    Rounds(usize),
}

fn mode_flag(mode: Mode) -> &'static str {
    match mode {
        Mode::Timed => "timed",
        Mode::Counted => "counted",
        Mode::Traced => "traced",
    }
}

/// Parse the `key value` lines a child prints.
pub fn parse_child(stdout: &str) -> Result<Sample, String> {
    let mut s = Sample {
        wall_s: 0.0,
        cpu_s: 0.0,
        setup_s: 0.0,
        pace: Pace::of(&[0.0]),
        peak_rss_mib: 0.0,
        allocs: None,
        events: None,
        digest: 0,
        layers: BTreeMap::new(),
    };
    let mut seen = 0;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |x: &str| x.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
        let int = |x: &str| x.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
        match f.as_slice() {
            ["wall_s", v] => s.wall_s = num(v)?,
            ["cpu_s", v] => s.cpu_s = num(v)?,
            ["setup_s", v] => s.setup_s = num(v)?,
            ["ref_ms", main, pooled] => {
                s.pace = Pace {
                    main: num(main)?,
                    pooled: num(pooled)?,
                }
            }
            ["peak_rss_mib", v] => s.peak_rss_mib = num(v)?,
            ["allocs", v] => s.allocs = Some(int(v)?),
            ["events", v] => s.events = Some(int(v)?),
            ["digest", v] => {
                s.digest = u64::from_str_radix(v, 16).map_err(|e| format!("{line:?}: {e}"))?
            }
            ["layer", name, v] => {
                s.layers.insert((*name).to_string(), num(v)?);
                continue;
            }
            _ => continue,
        }
        seen += 1;
    }
    if seen < 6 || s.wall_s <= 0.0 || s.pace.main.min(s.pace.pooled) <= 0.0 {
        return Err(format!("child output is incomplete: {stdout:?}"));
    }
    Ok(s)
}

/// Run `workload` once in a fresh child of this executable.
pub fn run_child(workload: Workload, seed: u64, mode: Mode) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock is past 1970")
        .as_nanos();
    let out = Command::new(exe)
        .args(["child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--mode", mode_flag(mode)])
        .args(["--spawned-at", &spawned_at.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} exited with {}",
            workload.name(),
            out.status
        ));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
}

/// Everything one measurement of one workload collected.
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// Timed samples of the workload, by round.
    pub timed: Vec<Sample>,
    /// Timed samples of its base from the same rounds (empty for a base).
    pub base: Vec<Sample>,
    /// Allocation counts of the counted passes.
    pub counted: Vec<u64>,
    /// Children launched.
    pub attempted: u64,
    /// Children that failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// Steal time over the measurement, percent of all CPU time.
    pub steal_pct: f64,
    /// Wall clock of the whole measurement, seconds.
    pub elapsed_s: f64,
}

/// Measure `workload`: a counted pass, timed rounds until `stop`, and a
/// second counted pass that must agree with the first.
pub fn measure(workload: Workload, seed: u64, stop: Stop) -> Measurement {
    let t0 = Instant::now();
    let jiffies0 = host::cpu_jiffies();
    let mut m = Measurement {
        workload,
        seed,
        timed: Vec::new(),
        base: Vec::new(),
        counted: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        steal_pct: 0.0,
        elapsed_s: 0.0,
    };
    // The digest every child of this measurement must reproduce: a base
    // and its derived workload compute the same outputs.
    let mut expect: Option<(u64, &'static str)> = None;
    let mut events: BTreeMap<&'static str, u64> = BTreeMap::new();

    let mut child = |m: &mut Measurement, w: Workload, mode: Mode| -> Option<Sample> {
        m.attempted += 1;
        let s = match run_child(w, seed, mode) {
            Ok(s) => s,
            Err(e) => {
                m.failed += 1;
                m.problems.push(e);
                return None;
            }
        };
        let mut bad = Vec::new();
        match expect {
            None => expect = Some((s.digest, w.name())),
            Some((d, from)) if d != s.digest => bad.push(format!(
                "{} digest {:016x} differs from {from}'s {d:016x}",
                w.name(),
                s.digest
            )),
            Some(_) => {}
        }
        if let Some(ev) = s.events {
            let first = *events.entry(w.name()).or_insert(ev);
            if first != ev {
                bad.push(format!(
                    "{} processed {ev} events, earlier {first}",
                    w.name()
                ));
            }
        }
        if bad.is_empty() {
            Some(s)
        } else {
            m.failed += 1;
            m.problems.extend(bad);
            None
        }
    };

    let counted_t = Instant::now();
    if let Some(s) = child(&mut m, workload, Mode::Counted) {
        m.counted.extend(s.allocs);
    }
    let counted_s = counted_t.elapsed().as_secs_f64();

    let pair: Vec<Workload> = workload.base().into_iter().chain([workload]).collect();
    let mut longest_round = counted_s * pair.len() as f64;
    for round in 0.. {
        match stop {
            Stop::Rounds(n) if round >= n => break,
            // One round always runs; after that a round starts only if it
            // and the closing counted pass still fit.
            Stop::Seconds(limit)
                if round > 0
                    && t0.elapsed().as_secs_f64() + 1.1 * (longest_round + counted_s) > limit =>
            {
                break
            }
            _ => {}
        }
        let round_t = Instant::now();
        let order: Vec<Workload> = if round % 2 == 0 {
            pair.clone()
        } else {
            pair.iter().rev().copied().collect()
        };
        let got: Vec<(Workload, Option<Sample>)> = order
            .into_iter()
            .map(|w| (w, child(&mut m, w, Mode::Timed)))
            .collect();
        // A round counts only when every run of it passed, so ratios
        // always divide runs that were adjacent.
        if got.iter().all(|(_, s)| s.is_some()) {
            for (w, s) in got {
                let s = s.expect("checked above");
                if w == workload {
                    m.timed.push(s);
                } else {
                    m.base.push(s);
                }
            }
        }
        longest_round = longest_round.max(round_t.elapsed().as_secs_f64());
    }

    let fits = match stop {
        Stop::Rounds(_) => true,
        Stop::Seconds(limit) => t0.elapsed().as_secs_f64() + 1.1 * counted_s <= limit,
    };
    if fits {
        if let Some(s) = child(&mut m, workload, Mode::Counted) {
            m.counted.extend(s.allocs);
        }
    }
    if let [a, b] = m.counted[..] {
        // One thread allocates the same every time; two threads race for
        // shared buffers' growth and may differ by a handful.
        let tolerance = if workload.threads() == 1 { 0.0 } else { 0.01 };
        if (a as f64 - b as f64).abs() > tolerance * a as f64 {
            m.failed += 1;
            m.problems
                .push(format!("counted passes disagree: {a} vs {b} allocations"));
        }
    }
    if m.timed.is_empty() && m.failed == 0 {
        m.failed += 1;
        m.problems.push("no timed round completed".to_string());
    }
    m.steal_pct = host::steal_pct(jiffies0, host::cpu_jiffies());
    m.elapsed_s = t0.elapsed().as_secs_f64();
    m
}

impl Measurement {
    fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        samples.iter().map(f).collect()
    }

    /// Per-round ratios to the base run of the same round; a base
    /// workload is paired with itself (see [`self_ratios`]).
    fn ratios(&self, f: impl Fn(&Sample) -> f64 + Copy) -> Vec<f64> {
        let own = Self::column(&self.timed, f);
        let r = if self.workload.base().is_some() {
            paired_ratios(&own, &Self::column(&self.base, f))
        } else {
            self_ratios(&own)
        };
        if r.is_empty() {
            vec![1.0]
        } else {
            r
        }
    }

    /// The samples behind each end-to-end metric, in `END_TO_END` order.
    fn end_to_end_samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        let t = &self.timed;
        let allocs: Vec<f64> = self.counted.iter().map(|a| *a as f64).collect();
        let all = vec![
            Self::column(t, Sample::wall_ref_s),
            Self::column(t, Sample::cpu_ref_s),
            // Raw seconds: the two runs of a pair share the host's state,
            // and scaling each by its own probes only adds their noise
            // (44 sweep pairs: ratio cv 13.8 % raw, 18.2 % scaled).
            self.ratios(|s| s.wall_s),
            self.ratios(|s| s.cpu_s),
            Self::column(t, Sample::setup_ref_s),
            Self::column(t, |s| s.peak_rss_mib),
            allocs,
        ];
        END_TO_END.iter().map(|m| m.name).zip(all).collect()
    }

    /// Each end-to-end metric's reported value: the median of its samples.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<Summary>)> {
        self.end_to_end_samples()
            .into_iter()
            .zip(&END_TO_END)
            .map(|((name, v), def)| (name, def.unit, (!v.is_empty()).then(|| summarize(&v))))
            .collect()
    }

    /// Round-to-round coefficient of variation of the measured (not
    /// reference-scaled) wall clock: how unsteady the host was.
    pub fn wall_cv(&self) -> f64 {
        cv(&Self::column(&self.timed, |s| s.wall_s))
    }

    /// True when this host was unsteady enough that even reference-scaled
    /// times deserve a second run; the counts still hold.
    pub fn noisy_host(&self) -> bool {
        self.wall_cv() > NOISY_CV
    }

    /// True when every child passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The host guard printed at the top of every output.
pub fn host_line() -> String {
    format!(
        "host: nproc={} cpu=\"{}\"",
        host::nproc(),
        host::cpu_model()
    )
}

/// Print one measurement for people: every end-to-end metric by name and
/// unit with median, quartiles, minimum and sample count, the digest and
/// event count, `failed/attempted` and the host guard.
pub fn print_measurement(m: &Measurement) {
    let w = m.workload.name();
    println!(
        "\n== {w} (seed {}, {} timed rounds, {:.1} s) ==",
        m.seed,
        m.timed.len(),
        m.elapsed_s
    );
    println!(
        "  {:<14} {:>6} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "min", "n"
    );
    for (name, unit, s) in m.end_to_end() {
        match s {
            Some(s) => println!(
                "  {name:<14} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
                s.median, s.q1, s.q3, s.min, s.n
            ),
            None => println!("  {name:<14} {unit:>6} {:>14}", "-"),
        }
    }
    for (r, s) in m.timed.iter().enumerate() {
        let base = m.base.get(r).map_or(String::new(), |b| {
            format!(
                "  base wall {:.4} cpu {:.4} ref_ms {:.2}",
                b.wall_s, b.cpu_s, b.pace.pooled
            )
        });
        println!(
            "  round {r:>2} measured: wall {:.4} cpu {:.4} setup {:.5} ref_ms {:.2}{base}",
            s.wall_s, s.cpu_s, s.setup_s, s.pace.pooled
        );
    }
    if let Some(s) = m.timed.first() {
        let events = s.events.map_or("-".to_string(), |e| e.to_string());
        println!("  digest {:016x}  events {events}", s.digest);
    }
    println!(
        "  failed/attempted {}/{}  steal {:.2} %  wall_s cv {:.1} %  noisy_host {}",
        m.failed,
        m.attempted,
        m.steal_pct,
        100.0 * m.wall_cv(),
        m.noisy_host()
    );
    for p in &m.problems {
        println!("  PROBLEM: {p}");
    }
}

/// The contract's last line for an end-to-end run.
pub fn result_json(m: &Measurement) -> String {
    let metrics: Vec<String> = m
        .end_to_end()
        .into_iter()
        .filter_map(|(name, unit, s)| {
            s.map(|s| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    s.median
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted.max(1),
        m.failed,
        metrics.join(", ")
    )
}

/// A traced measurement: one untraced run, then the traced run next to
/// it, whose ratio is the tracing overhead.
pub struct Traced {
    /// The workload traced.
    pub workload: Workload,
    /// Every per-layer metric, in `PER_LAYER` order; a layer the
    /// workload does not exercise reads 0.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Children launched.
    pub attempted: u64,
    /// Children that failed.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
}

/// Run the separate traced pass of `workload`.
pub fn trace(workload: Workload, seed: u64) -> Traced {
    let mut t = Traced {
        workload,
        layers: Vec::new(),
        attempted: 2,
        failed: 0,
        problems: Vec::new(),
    };
    let plain = run_child(workload, seed, Mode::Timed);
    let traced = run_child(workload, seed, Mode::Traced);
    let mut values = BTreeMap::new();
    match (plain, traced) {
        (Ok(p), Ok(tr)) => {
            if p.digest != tr.digest {
                t.failed += 1;
                t.problems.push(format!(
                    "traced digest {:016x} differs from untraced {:016x}",
                    tr.digest, p.digest
                ));
            }
            let overhead = tr.wall_ref_s() / p.wall_ref_s();
            values = tr.layers;
            values.insert("trace_overhead".to_string(), overhead);
        }
        (p, tr) => {
            for e in [p.err(), tr.err()].into_iter().flatten() {
                t.failed += 1;
                t.problems.push(e);
            }
        }
    }
    t.layers = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, values.get(*name).copied().unwrap_or(0.0)))
        .collect();
    t
}

/// Print a traced measurement for people.
pub fn print_traced(t: &Traced) {
    println!("\n== {} per-layer (traced run) ==", t.workload.name());
    for (name, unit, v) in &t.layers {
        println!("  {name:<40} {v:>16.4} {unit}");
    }
    println!("  failed/attempted {}/{}", t.failed, t.attempted);
    for p in &t.problems {
        println!("  PROBLEM: {p}");
    }
}

/// The contract's last line for a traced run.
pub fn traced_json(t: &Traced) -> String {
    let metrics: Vec<String> = t
        .layers
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    )
}

/// Median of a measurement's metric by name (for `aa`).
pub fn metric_median(m: &Measurement, name: &str) -> Option<f64> {
    m.end_to_end()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .and_then(|(_, _, s)| s.map(|s| s.median))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse_and_incomplete_output_is_an_error() {
        let out = "wall_s 1.5\ncpu_s 2.5\nsetup_s 0.002\nref_ms 10 12.5\npeak_rss_mib 33.5\n\
                   events 42\ndigest 00ff\nlayer netsim.sim.events 42\nnoise\n";
        let s = parse_child(out).unwrap();
        // The region goes with all threads' pooled pace, set-up with the
        // main thread's.
        assert!((s.wall_ref_s() - 1.2).abs() < 1e-12);
        assert!((s.cpu_ref_s() - 2.0).abs() < 1e-12);
        assert!((s.setup_ref_s() - 0.002).abs() < 1e-12);
        assert_eq!((s.wall_s, s.cpu_s, s.setup_s), (1.5, 2.5, 0.002));
        assert_eq!((s.events, s.allocs, s.digest), (Some(42), None, 0xff));
        assert_eq!(s.layers["netsim.sim.events"], 42.0);
        assert!(parse_child("wall_s 1.0\n").is_err());
        assert!(parse_child("wall_s x\n").is_err());
    }

    /// A sample on a host running at `1 / slowdown` of reference speed.
    fn sample_on(slowdown: f64, wall: f64, cpu: f64) -> Sample {
        Sample {
            wall_s: wall * slowdown,
            cpu_s: cpu * slowdown,
            setup_s: 0.1 * slowdown,
            pace: Pace::of(&[refkernel::NOMINAL_MS * slowdown]),
            peak_rss_mib: 10.0,
            allocs: None,
            events: None,
            digest: 0,
            layers: BTreeMap::new(),
        }
    }

    fn sample(wall: f64, cpu: f64) -> Sample {
        sample_on(1.0, wall, cpu)
    }

    fn measurement(workload: Workload, timed: Vec<Sample>, base: Vec<Sample>) -> Measurement {
        Measurement {
            workload,
            seed: 1,
            timed,
            base,
            counted: vec![100, 100],
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            steal_pct: 0.0,
            elapsed_s: 0.0,
        }
    }

    #[test]
    fn derived_workload_reports_ratio_to_adjacent_base_runs() {
        // The host halved its speed for round 1. The reference kernel saw
        // it, so reference-scaled times and their ratios stay put while
        // the measured wall clock trips the noise guard.
        let m = measurement(
            Workload::SweepAttached,
            vec![sample(1.2, 2.4), sample_on(2.0, 1.2, 2.4), sample(1.2, 2.4)],
            vec![sample(1.0, 2.0), sample_on(2.0, 1.0, 2.0), sample(1.0, 2.0)],
        );
        assert!((metric_median(&m, "wall_vs_base").unwrap() - 1.2).abs() < 1e-12);
        assert!((metric_median(&m, "cpu_vs_base").unwrap() - 1.2).abs() < 1e-12);
        assert!((metric_median(&m, "wall_s").unwrap() - 1.2).abs() < 1e-12);
        assert!((metric_median(&m, "setup_s").unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(metric_median(&m, "allocs"), Some(100.0));
        assert!(m.noisy_host());
        let json = result_json(&m);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for def in &END_TO_END {
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", def.name)));
        }
    }

    #[test]
    fn base_workload_is_paired_with_itself() {
        let m = measurement(
            Workload::Dumbbell100k,
            vec![
                sample(1.0, 1.0),
                sample(1.0, 1.0),
                sample(1.1, 1.1),
                sample(1.0, 1.0),
            ],
            Vec::new(),
        );
        assert!((metric_median(&m, "wall_vs_base").unwrap() - 1.05).abs() < 1e-12);
        assert!(!m.noisy_host());
        let one = measurement(Workload::Dumbbell100k, vec![sample(1.0, 1.0)], Vec::new());
        assert_eq!(metric_median(&one, "wall_vs_base"), Some(1.0));
    }
}
