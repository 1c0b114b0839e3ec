//! Command line of `pert-bench`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::def::{benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::layers;
use crate::measure::{
    host_line, measure, metric_median, print_measurement, print_traced, result_json, trace,
    traced_json, Stop,
};
use crate::spans::Tracer;
use crate::stats::{disagreement, summarize};
use crate::workloads::{self, Mode, Started, Workload};

/// Usage, printed on a bad command line.
pub const USAGE: &str = "\
usage:
  pert-bench --workload W --seed S --seconds T --trace 0|1
                            one workload, the benchmark contract's interface:
                            human-readable tables, then one JSON line
  pert-bench run   [--seed S] [--seconds T | --rounds N]
                            every workload in turn, every end-to-end metric
  pert-bench trace [--seed S] [--workload W]
                            the separate traced run: per-layer metrics
  pert-bench aa    [--seed S] [--seconds T] [--runs N]
                            two alternating sets of N runs of this build,
                            checked against the bounds; exit 1 on a breach
  pert-bench list  [--json] workload and metric names (--json: BENCHMARK.json)
workloads: sweep_detached sweep_attached dumbbell100k dumbbell100k_shards2";

/// Default seed of `run`, `trace` and `aa`.
const DEFAULT_SEED: u64 = 12;

/// Where the traced run leaves its spans (and, briefly, the fig6 trace).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            if name == "json" {
                map.insert(name.to_string(), String::new());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| v.parse::<T>().map_err(|_| format!("bad --{name} {v:?}")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.0
            .get("workload")
            .map(|v| Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}")))
            .transpose()
    }
}

/// Entry point; returns the process exit code.
pub fn main(entry: Instant) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "aa" | "list" | "child")) => (c, &args[1..]),
        _ => ("driver", &args[..]),
    };
    let result = match cmd {
        "child" => child(rest, entry),
        "run" => run(rest),
        "trace" => trace_cmd(rest),
        "aa" => aa(rest),
        "list" => list(rest),
        _ => driver(rest),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    }
}

/// One child: run the workload once and print `key value` lines.
fn child(args: &[String], entry: Instant) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "mode", "spawned-at"])?;
    let w = f.workload()?.ok_or("child needs --workload")?;
    let seed = f.num("seed")?.unwrap_or(DEFAULT_SEED);
    let mode = match f.0.get("mode").map(String::as_str) {
        None | Some("timed") => Mode::Timed,
        Some("counted") => Mode::Counted,
        Some("traced") => Mode::Traced,
        Some(m) => return Err(format!("bad --mode {m:?}")),
    };
    let started = match f.num::<u128>("spawned-at")? {
        Some(ns) => Started::SpawnedAt(ns),
        None => Started::MainEntry(entry),
    };
    let mut tracer = Tracer::new(w.name(), mode == Mode::Traced);
    let mut pass = workloads::run(w, seed, mode, started, &mut tracer);
    let peak = crate::host::peak_rss_mib();
    if mode == Mode::Traced {
        pass.layers.extend(layers::run_all(&out_dir(), seed));
        let path = out_dir().join(format!("spans-{}.json", w.name()));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    println!("wall_s {}", pass.wall_s);
    println!("cpu_s {}", pass.cpu_s);
    println!("setup_s {}", pass.setup_s);
    println!("ref_ms {} {}", pass.pace.main, pass.pace.pooled);
    println!("peak_rss_mib {peak}");
    println!("digest {:016x}", pass.digest);
    if let Some(a) = pass.allocs {
        println!("allocs {a}");
    }
    if let Some(e) = pass.events {
        println!("events {e}");
    }
    for (name, v) in &pass.layers {
        println!("layer {name} {v}");
    }
    Ok(0)
}

/// The contract's interface: one workload, one JSON line last.
fn driver(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let w = f.workload()?.ok_or("--workload is required")?;
    let seed = f.num("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = f.num("seconds")?.unwrap_or(RUN_SECONDS as f64);
    println!("{}", host_line());
    match f.num::<u8>("trace")?.unwrap_or(0) {
        0 => {
            let m = measure(w, seed, Stop::Seconds(seconds));
            print_measurement(&m);
            println!("{}", result_json(&m));
        }
        1 => {
            let t = trace(w, seed);
            print_traced(&t);
            println!("{}", traced_json(&t));
        }
        other => return Err(format!("bad --trace {other}")),
    }
    Ok(0)
}

fn stop_of(f: &Flags) -> Result<Stop, String> {
    Ok(
        match (f.num::<usize>("rounds")?, f.num::<f64>("seconds")?) {
            (Some(_), Some(_)) => return Err("--rounds and --seconds exclude each other".into()),
            (Some(n), None) => Stop::Rounds(n.max(1)),
            (None, s) => Stop::Seconds(s.unwrap_or(RUN_SECONDS as f64)),
        },
    )
}

/// Every workload in turn; exit 1 if any repetition failed.
fn run(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["seed", "seconds", "rounds"])?;
    let seed = f.num("seed")?.unwrap_or(DEFAULT_SEED);
    let stop = stop_of(&f)?;
    println!("{}", host_line());
    let mut failed = 0;
    for w in Workload::ALL {
        let m = measure(w, seed, stop);
        print_measurement(&m);
        failed += m.failed;
    }
    Ok(i32::from(failed > 0))
}

/// The traced run of one workload or of all.
fn trace_cmd(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["seed", "workload"])?;
    let seed = f.num("seed")?.unwrap_or(DEFAULT_SEED);
    let which = f.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    println!("{}", host_line());
    let mut failed = 0;
    for w in which {
        let t = trace(w, seed);
        print_traced(&t);
        failed += t.failed;
    }
    println!("\nspans: {}", out_dir().display());
    Ok(i32::from(failed > 0))
}

/// Two alternating sets of runs of the same build: per metric × workload
/// both set medians, their disagreement, each set's quartile spread and
/// the bound. A breach is a disagreement or (except for `setup_s`, as in
/// the contract) a spread above the bound, or any failed repetition.
fn aa(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["seed", "seconds", "runs"])?;
    let seed: u64 = f.num("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = f.num("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let runs: usize = f.num("runs")?.unwrap_or(5).max(2);
    println!("{}", host_line());
    // values[set][(workload, metric)] = one median per run
    let mut values: [BTreeMap<(usize, usize), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut failed = 0;
    for run in 0..runs {
        let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (wi, w) in Workload::ALL.into_iter().enumerate() {
                let m = measure(w, seed + (2 * run + set) as u64, Stop::Seconds(seconds));
                print_measurement(&m);
                failed += m.failed;
                for (mi, def) in END_TO_END.iter().enumerate() {
                    if let Some(v) = metric_median(&m, def.name) {
                        values[set].entry((wi, mi)).or_default().push(v);
                    }
                }
            }
        }
    }
    println!(
        "\n{:<22} {:<14} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "disagree", "spread A", "spread B", "bound"
    );
    let mut breaches = 0;
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (mi, def) in END_TO_END.iter().enumerate() {
            let (Some(a), Some(b)) = (values[0].get(&(wi, mi)), values[1].get(&(wi, mi))) else {
                println!("{:<22} {:<14} no samples", w.name(), def.name);
                breaches += 1;
                continue;
            };
            let (sa, sb) = (summarize(a), summarize(b));
            let dis = disagreement(sa.median, sb.median);
            let spread = sa.iqr_share().max(sb.iqr_share());
            let breach = dis > def.bound || (def.name != "setup_s" && spread > def.bound);
            breaches += usize::from(breach);
            println!(
                "{:<22} {:<14} {:>12.5} {:>12.5} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                w.name(),
                def.name,
                sa.median,
                sb.median,
                100.0 * dis,
                100.0 * sa.iqr_share(),
                100.0 * sb.iqr_share(),
                100.0 * def.bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!("\nbreaches {breaches}  failed repetitions {failed}");
    Ok(i32::from(breaches > 0 || failed > 0))
}

/// Names of workloads and metrics, or the text of `BENCHMARK.json`.
fn list(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["json"])?;
    if f.has("json") {
        print!("{}", benchmark_json());
        return Ok(0);
    }
    for w in Workload::ALL {
        println!("workload {}", w.name());
    }
    for m in &END_TO_END {
        println!("end_to_end {} {} {} {}", m.name, m.unit, m.better, m.bound);
    }
    for (name, unit, better) in &PER_LAYER {
        println!("per_layer {name} {unit} {better}");
    }
    Ok(0)
}
