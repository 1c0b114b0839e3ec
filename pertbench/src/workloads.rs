//! The four workloads, as one child process runs them: set-up, the timed
//! region, and the digest the parent compares. Everything here goes
//! through the library crates' public functions, the way
//! `experiments/src/main.rs` and the `shard_profile` example do.

use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use experiments::mix::{set_cc_axis, CcAxis};
use experiments::report::{PointTiming, Report};
use experiments::runner::{run_jobs, Job};
use experiments::scenario::{lookup, Scenario};
use experiments::Scale;
use netsim::ids::FlowId;
use netsim::queue::DropTail;
use netsim::time::{SimDuration, SimTime};
use netsim::{ShardedSim, Simulator};
use pert_core::telemetry;
use pert_tcp::{connect_with_source, sender_stats, Connection, ConnectionSpec, FnSource, Transfer};
use sim_stats::{MetricValue, MetricsSet};

use crate::alloc;
use crate::host;
use crate::refkernel::{self, Pace};
use crate::spans::Tracer;
use crate::stats::Fnv;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The quick-scale sweeps people type, telemetry off.
    SweepDetached,
    /// The same sweeps with telemetry attached.
    SweepAttached,
    /// 100 000 slab flows through one simulator thread.
    Dumbbell100k,
    /// The same simulator split into two shards.
    Dumbbell100kShards2,
}

impl Workload {
    /// Every workload, each base directly before the workload derived
    /// from it.
    pub const ALL: [Workload; 4] = [
        Workload::SweepDetached,
        Workload::SweepAttached,
        Workload::Dumbbell100k,
        Workload::Dumbbell100kShards2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDetached => "sweep_detached",
            Workload::SweepAttached => "sweep_attached",
            Workload::Dumbbell100k => "dumbbell100k",
            Workload::Dumbbell100kShards2 => "dumbbell100k_shards2",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload this one is the same inputs as, used differently;
    /// it is timed right next to it and reported as a ratio to it.
    pub fn base(self) -> Option<Workload> {
        match self {
            Workload::SweepAttached => Some(Workload::SweepDetached),
            Workload::Dumbbell100kShards2 => Some(Workload::Dumbbell100k),
            Workload::SweepDetached | Workload::Dumbbell100k => None,
        }
    }

    /// Threads the timed region keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::SweepDetached | Workload::SweepAttached => SWEEP_JOBS,
            Workload::Dumbbell100k => 1,
            Workload::Dumbbell100kShards2 => DUMBBELL_SHARDS,
        }
    }

    /// Why this workload is in the benchmark (one line, ≤ 200 chars).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepDetached => {
                "what people type: mix6 mix12 rem fig14 --quick --cc both --jobs 2, 14 small \
                 cache-resident sims over six CC schemes and DropTail/PI/REM; per-ACK work, \
                 queue maths and the shallow calendar dominate"
            }
            Workload::SweepAttached => {
                "same inputs with telemetry attached: record publish and derive ingest behind two \
                 global mutexes add the cost; paired with sweep_detached so a gain on one that \
                 taxes the other shows"
            }
            Workload::Dumbbell100k => {
                "100000 PERT slab flows on a 16-host dumbbell, one thread: calendar at 100k \
                 pending timers, slab footprint and cache misses dominate; AQM maths, runner and \
                 report do nothing; set-up is large"
            }
            Workload::Dumbbell100kShards2 => {
                "the identical simulator through ShardedSim split/run_until/merge on 2 threads: \
                 prices barrier epochs and mailboxes on real cores, paired with dumbbell100k for \
                 speed-up and CPU cost"
            }
        }
    }
}

/// How a child runs its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Timed region with counting and spans off: the end-to-end numbers.
    Timed,
    /// Allocation counting on; timings are discarded by the parent.
    Counted,
    /// Spans on, plus the extra passes the per-layer numbers need.
    Traced,
}

/// What one pass over a workload measured.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Wall clock of the timed region, seconds.
    pub wall_s: f64,
    /// CPU time (user + system, all threads) of the timed region, seconds.
    pub cpu_s: f64,
    /// Parent's `spawn` (or, run by hand, `main` entry) to the start of
    /// the timed region, seconds.
    pub setup_s: f64,
    /// Heap allocations inside the timed region (`Mode::Counted` only).
    pub allocs: Option<u64>,
    /// Simulator events processed, where the workload can see them.
    pub events: Option<u64>,
    /// Digest of the outputs; equal for a workload and its base.
    pub digest: u64,
    /// The reference kernel's pace around the timed region (mean of right
    /// before and right after).
    pub pace: Pace,
    /// Per-layer values (`Mode::Traced` only).
    pub layers: Vec<(&'static str, f64)>,
}

/// When the child was started, as the parent saw it.
#[derive(Clone, Copy, Debug)]
pub enum Started {
    /// The parent's wall clock just before `spawn`, ns since the epoch.
    SpawnedAt(u128),
    /// No parent: `main` entry of this process.
    MainEntry(Instant),
}

impl Started {
    fn elapsed_s(self) -> f64 {
        match self {
            Started::SpawnedAt(ns) => {
                let now = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .expect("clock is past 1970")
                    .as_nanos();
                now.saturating_sub(ns) as f64 / 1e9
            }
            Started::MainEntry(t) => t.elapsed().as_secs_f64(),
        }
    }
}

/// Brackets a timed region: the reference kernel right before and right
/// after, and between them wall clock, process CPU clock and, in a
/// counted pass, the allocation counter.
struct Region {
    counted: bool,
    threads: usize,
    before: Pace,
    t0: Instant,
    cpu0: f64,
    allocs0: u64,
}

/// What a [`Region`] measured.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    allocs: Option<u64>,
    pace: Pace,
}

impl Timed {
    /// Factor turning this region's measured seconds into
    /// reference-host seconds.
    fn scale(&self) -> f64 {
        refkernel::scale(self.pace.pooled)
    }
}

impl Region {
    fn start(counted: bool, threads: usize) -> Region {
        let before = Pace::probe(threads);
        alloc::set_counting(counted);
        Region {
            counted,
            threads,
            before,
            allocs0: alloc::count(),
            cpu0: host::process_cpu_s(),
            t0: Instant::now(),
        }
    }

    fn stop(self) -> Timed {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - self.cpu0;
        let allocs = alloc::count() - self.allocs0;
        alloc::set_counting(false);
        Timed {
            wall_s,
            cpu_s,
            allocs: self.counted.then_some(allocs),
            pace: Pace::between(self.before, Pace::probe(self.threads)),
        }
    }
}

/// Run `workload` once in this process.
pub fn run(workload: Workload, seed: u64, mode: Mode, started: Started, tr: &mut Tracer) -> Pass {
    let need = workload.threads();
    assert!(
        need <= host::nproc(),
        "{} keeps {need} threads busy but this host has {} core(s); refusing to time it",
        workload.name(),
        host::nproc()
    );
    match workload {
        Workload::SweepDetached => sweep(false, seed, mode, started, tr),
        Workload::SweepAttached => sweep(true, seed, mode, started, tr),
        Workload::Dumbbell100k => dumbbell(1, seed, mode, started, tr),
        Workload::Dumbbell100kShards2 => dumbbell(DUMBBELL_SHARDS, seed, mode, started, tr),
    }
}

// ---------------------------------------------------------------------
// The sweeps
// ---------------------------------------------------------------------

/// The targets of both sweep workloads, in the order they run. `fig6`
/// is left out on purpose: its four 50 Mbps points take as long as these
/// four targets together, and with them a detached/attached pair fits
/// into one 28 s contract run only two to four times — too few for the
/// median of their ratios to repeat on a host this unsteady.
const SWEEP_TARGETS: [&str; 4] = ["mix6", "mix12", "rem", "fig14"];

/// `--jobs` of both sweep workloads.
const SWEEP_JOBS: usize = 2;

/// What one pass over the sweep targets produced.
struct SweepOut {
    timed: Timed,
    reports: Vec<Report>,
    text_bytes: usize,
    /// Telemetry metrics accumulated over the pass (attached only).
    metrics: Option<MetricsSet>,
}

fn scenarios() -> Vec<Box<dyn Scenario>> {
    SWEEP_TARGETS
        .iter()
        .map(|t| lookup(t).expect("sweep targets are registered scenarios"))
        .collect()
}

fn sweep_points(scenarios: &[Box<dyn Scenario>], seed: u64) -> Vec<Vec<Job>> {
    scenarios
        .iter()
        .map(|s| s.points(Scale::Quick, seed))
        .collect()
}

/// `points → run_jobs → assemble → render_text` per target, as
/// `experiments/src/main.rs` does it; attached, also the per-target
/// derive reset, metrics delta and derived summary. Rendered text is
/// measured and dropped instead of printed.
fn sweep_pass(
    attached: bool,
    scenarios: &[Box<dyn Scenario>],
    points: Vec<Vec<Job>>,
    seed: u64,
    workers: usize,
    counted: bool,
    tr: &mut Tracer,
) -> SweepOut {
    let mut reports = Vec::with_capacity(scenarios.len());
    let mut text_bytes = 0;
    let pass_before = attached.then(telemetry::metrics_snapshot);
    let region = Region::start(counted, workers);
    for (sc, jobs) in scenarios.iter().zip(points) {
        let before = attached.then(telemetry::metrics_snapshot);
        if attached {
            telemetry::derive_reset();
        }
        let (results, timings) =
            tr.span("experiments.runner.run_jobs", |_| run_jobs(jobs, workers));
        let mut report = tr.span("experiments.report.assemble", |_| {
            sc.assemble(Scale::Quick, seed, results)
        });
        report.timings = timings;
        if let Some(b) = before {
            report.metrics = Some(telemetry::metrics_snapshot().since(&b));
            report.derived = tr.span("sim_stats.derive.summary", |_| telemetry::derive_summary());
        }
        let text = tr.span("experiments.report.render_text", |_| report.render_text());
        text_bytes += black_box(text).len();
        reports.push(report);
    }
    if attached {
        telemetry::derive_clear();
    }
    SweepOut {
        timed: region.stop(),
        reports,
        text_bytes,
        metrics: pass_before.map(|b| telemetry::metrics_snapshot().since(&b)),
    }
}

/// FNV of the rendered tables of every report, with the telemetry and
/// audit sections left out, so attached and detached runs must agree.
pub fn tables_digest(reports: &[Report]) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        let tables_only = Report {
            timings: Vec::new(),
            audit: None,
            metrics: None,
            derived: None,
            ..r.clone()
        };
        h.bytes(tables_only.render_text().as_bytes());
    }
    h.0
}

fn counter(m: &MetricsSet, name: &str) -> u64 {
    match m.get(name) {
        Some(MetricValue::Counter(c)) => *c,
        _ => 0,
    }
}

/// Seconds of the jobs whose label satisfies `pick`.
fn job_seconds(timings: &[&PointTiming], pick: impl Fn(&str) -> bool) -> f64 {
    timings
        .iter()
        .filter(|t| pick(&t.label))
        .map(|t| t.secs)
        .sum()
}

fn sweep(attached: bool, seed: u64, mode: Mode, started: Started, tr: &mut Tracer) -> Pass {
    set_cc_axis(CcAxis::Both);
    telemetry::set_enabled(attached);
    let scenarios = scenarios();
    let points = tr.span("workload.build", |_| sweep_points(&scenarios, seed));
    let setup_s = started.elapsed_s();
    let out = sweep_pass(
        attached,
        &scenarios,
        points,
        seed,
        SWEEP_JOBS,
        mode == Mode::Counted,
        tr,
    );
    let mut pass = Pass {
        wall_s: out.timed.wall_s,
        cpu_s: out.timed.cpu_s,
        setup_s,
        allocs: out.timed.allocs,
        events: out.metrics.as_ref().map(|m| counter(m, "sim/events")),
        digest: tables_digest(&out.reports),
        pace: out.timed.pace,
        layers: Vec::new(),
    };
    if mode != Mode::Traced {
        return pass;
    }

    // Event counts are only published with telemetry attached; they are
    // the same attached or not, so a detached trace reads them from one
    // extra attached pass.
    let mut off = Tracer::new("", false);
    let counts = match out.metrics {
        Some(m) => m,
        None => {
            telemetry::set_enabled(true);
            let again = sweep_pass(
                true,
                &scenarios,
                sweep_points(&scenarios, seed),
                seed,
                SWEEP_JOBS,
                false,
                &mut off,
            );
            telemetry::set_enabled(false);
            again.metrics.expect("attached pass has metrics")
        }
    };
    let events = counter(&counts, "sim/events");
    pass.events = Some(events);

    let j1 = sweep_pass(
        attached,
        &scenarios,
        sweep_points(&scenarios, seed),
        seed,
        1,
        false,
        &mut off,
    );

    let json_bytes: usize = tr.span("experiments.report.render_json", |_| {
        out.reports.iter().map(|r| r.render_json().len()).sum()
    });
    let timings: Vec<&PointTiming> = out.reports.iter().flat_map(|r| &r.timings).collect();
    // Layer seconds are reference-host seconds like the end-to-end ones.
    let k = out.timed.scale();
    let span_s = |name: &str| tr.total_s(name) * k;
    let job_s: f64 = timings.iter().map(|t| t.secs).sum::<f64>() * k;
    let run_jobs_s = span_s("experiments.runner.run_jobs");
    let l = &mut pass.layers;
    l.push(("workload.build_s", span_s("workload.build")));
    // A sweep's simulators live inside its jobs, out of the bench's
    // reach: the jobs' own seconds stand in for `run_until`.
    l.push(("netsim.sim.run_until_s", job_s));
    l.push(("netsim.sim.events", events as f64));
    l.push(("netsim.sim.ns_event", job_s * 1e9 / events.max(1) as f64));
    l.push((
        "netsim.sim.ev_arrival",
        counter(&counts, "sim/ev_arrival") as f64,
    ));
    l.push((
        "netsim.sim.ev_timer",
        counter(&counts, "sim/ev_timer") as f64,
    ));
    l.push((
        "netsim.sim.ev_departure",
        counter(&counts, "sim/ev_departure") as f64,
    ));
    type Pick = fn(&str) -> bool;
    let picks: [(&'static str, Pick); 6] = [
        ("experiments.job.cubic_s", |s| s.ends_with("/CUBIC")),
        ("experiments.job.bbr_s", |s| s.ends_with("/BBR")),
        ("experiments.job.pert_rem_s", |s| s.ends_with("/PERT-REM")),
        ("experiments.job.sack_rem_s", |s| {
            s.ends_with("SACK/REM-ECN")
        }),
        ("experiments.job.pert_pi_s", |s| s.ends_with("/PERT-PI")),
        ("experiments.job.sack_pi_s", |s| s.ends_with("SACK/PI-ECN")),
    ];
    for (name, pick) in picks {
        l.push((name, job_seconds(&timings, pick) * k));
    }
    l.push(("experiments.runner.run_jobs_s", run_jobs_s));
    l.push(("experiments.runner.jobs", timings.len() as f64));
    l.push((
        "experiments.runner.imbalance",
        job_s / (SWEEP_JOBS as f64 * run_jobs_s),
    ));
    l.push((
        "experiments.runner.j1_over_j2",
        (j1.timed.wall_s * j1.timed.scale()) / (out.timed.wall_s * k),
    ));
    for (name, span) in [
        (
            "experiments.report.assemble_s",
            "experiments.report.assemble",
        ),
        (
            "experiments.report.render_text_s",
            "experiments.report.render_text",
        ),
        (
            "experiments.report.render_json_s",
            "experiments.report.render_json",
        ),
    ] {
        l.push((name, span_s(span)));
    }
    l.push((
        "experiments.report.report_bytes",
        (out.text_bytes + json_bytes) as f64,
    ));
    pass
}

// ---------------------------------------------------------------------
// The 100k-flow dumbbell
// ---------------------------------------------------------------------

/// Hosts on each side of the two-router bottleneck.
const HOSTS_PER_SIDE: usize = 8;

/// Flows built during set-up; every one holds a slab row and a pending
/// start timer from time zero.
const DUMBBELL_FLOWS: usize = 100_000;

/// Flows whose start timer fires in each simulated millisecond.
const STARTS_PER_MS: usize = 100;

/// Simulated horizon. `shard_profile` runs 1.5 s (13 M events, 6 s on
/// this host); one repetition has to fit a pair of runs in a few
/// seconds, so the timed region covers the first 0.4 s: 40 000 flows
/// start and about 3.3 M events fire while the calendar still holds the
/// other 60 000 start timers and the slab all 100 000 rows.
const DUMBBELL_HORIZON_MS: u64 = 400;

/// Shards of `dumbbell100k_shards2`.
const DUMBBELL_SHARDS: usize = 2;

/// SplitMix64: the bench's input generator. The simulator never sees it,
/// only the pairing, start order and flow seeds drawn from it.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `shard_profile` topology — two routers joined by a 10 Gb/s, 10 ms
/// bottleneck, eight hosts a side on 40 Gb/s, 5 ms access links — with
/// 100 000 PERT slab flows doing 8-segment transfers separated by 1 s of
/// think time. From `seed`: which host pair a flow joins, where in the
/// start order the cohorts begin (a rotation, so the flows active at one
/// instant stay a contiguous slot range, the access pattern the slab is
/// laid out for), and each flow's RNG seed.
fn build_dumbbell(seed: u64) -> (Simulator, Vec<Connection>) {
    let mut rng = SplitMix(seed);
    let mut sim = Simulator::new(rng.next());
    let a = sim.add_node();
    let srcs: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    let z = sim.add_node();
    let dsts: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    sim.add_duplex_link(a, z, 10_000_000_000, SimDuration::from_millis(10), |_| {
        Box::new(DropTail::new(65_536))
    });
    for (&h, &r) in srcs
        .iter()
        .map(|h| (h, &a))
        .chain(dsts.iter().map(|h| (h, &z)))
    {
        sim.add_duplex_link(h, r, 40_000_000_000, SimDuration::from_millis(5), |_| {
            Box::new(DropTail::new(65_536))
        });
    }
    sim.compute_routes();
    let rotation = (rng.next() % DUMBBELL_FLOWS as u64) as usize;
    let mut conns = Vec::with_capacity(DUMBBELL_FLOWS);
    for i in 0..DUMBBELL_FLOWS {
        let mut started = false;
        let source = FnSource(move |_rng: &mut rand::rngs::SmallRng| {
            let think_secs = if started { 1.0 } else { 0.0 };
            started = true;
            Some(Transfer {
                think_secs,
                segments: 8,
            })
        });
        let pick = rng.next();
        let src = srcs[(pick % HOSTS_PER_SIDE as u64) as usize];
        let dst = dsts[((pick >> 32) % HOSTS_PER_SIDE as u64) as usize];
        let conn = connect_with_source(
            &mut sim,
            ConnectionSpec::pert(FlowId(i), src, dst, rng.next()),
            Box::new(source),
        );
        let order = (i + DUMBBELL_FLOWS - rotation) % DUMBBELL_FLOWS;
        let start = SimTime::from_millis((order / STARTS_PER_MS) as u64);
        sim.schedule_agent_timer(start, conn.sender, conn.start_token);
        conns.push(conn);
    }
    (sim, conns)
}

/// Events, drops, per-flow acked totals and per-link counters: what a
/// sharded run must reproduce exactly.
fn dumbbell_digest(sim: &Simulator, conns: &[Connection], events: u64) -> u64 {
    let mut h = Fnv::default();
    h.u64(events);
    h.u64(sim.trace.drops.len() as u64);
    for c in conns {
        h.u64(sender_stats(sim, c).acked_segments);
    }
    for i in 0..sim.num_links() {
        let link = sim.link(netsim::ids::LinkId(i));
        h.u64(link.delivered_pkts);
        h.u64(link.delivered_bits);
    }
    h.0
}

fn dumbbell(shards: usize, seed: u64, mode: Mode, started: Started, tr: &mut Tracer) -> Pass {
    telemetry::set_enabled(false);
    let (sim, conns) = tr.span("workload.build", |_| build_dumbbell(seed));
    let until = SimTime::from_millis(DUMBBELL_HORIZON_MS);
    let setup_s = started.elapsed_s();
    let region = Region::start(mode == Mode::Counted, shards);
    let mut share = 0.0;
    let (sim, events) = if shards == 1 {
        let mut sim = sim;
        tr.span("netsim.sim.run_until", |_| sim.run_until(until));
        let events = sim.events_processed();
        (sim, events)
    } else {
        let mut sharded = tr.span("netsim.shard.split", |_| {
            ShardedSim::split(sim, shards)
                .unwrap_or_else(|(_, reason)| panic!("partitioner refused the dumbbell: {reason}"))
        });
        assert_eq!(sharded.num_shards(), shards, "dumbbell cuts into {shards}");
        tr.span("netsim.shard.run_until", |_| sharded.run_until(until));
        let events = sharded.events_processed();
        let busiest = sharded.per_shard_events().into_iter().max().unwrap_or(0);
        share = busiest as f64 / events.max(1) as f64;
        (tr.span("netsim.shard.merge", |_| sharded.merge()), events)
    };
    let timed = region.stop();
    let mut pass = Pass {
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        setup_s,
        allocs: timed.allocs,
        events: Some(events),
        digest: dumbbell_digest(&sim, &conns, events),
        pace: timed.pace,
        layers: Vec::new(),
    };
    if mode == Mode::Traced {
        // Layer seconds are reference-host seconds like the end-to-end ones.
        let k = timed.scale();
        let span_s = |name: &str| tr.total_s(name) * k;
        let run_s = span_s("netsim.sim.run_until") + span_s("netsim.shard.run_until");
        let ev = sim.event_class_counts();
        let l = &mut pass.layers;
        l.push(("workload.build_s", span_s("workload.build")));
        l.push(("workload.flows", conns.len() as f64));
        l.push(("netsim.sim.run_until_s", run_s));
        l.push(("netsim.sim.events", events as f64));
        l.push(("netsim.sim.ns_event", run_s * 1e9 / events.max(1) as f64));
        l.push(("netsim.sim.ev_arrival", ev[0] as f64));
        l.push(("netsim.sim.ev_departure", ev[1] as f64));
        l.push(("netsim.sim.ev_timer", ev[2] as f64));
        if shards > 1 {
            l.push(("netsim.shard.split_s", span_s("netsim.shard.split")));
            l.push(("netsim.shard.run_until_s", run_s));
            l.push(("netsim.shard.merge_s", span_s("netsim.shard.merge")));
            l.push(("netsim.shard.max_event_share", share));
            l.push(("netsim.shard.cpu_over_wall", timed.cpu_s / timed.wall_s));
        }
    }
    // Tearing down 100 000 flows is not part of any metric; the child
    // exits right after reporting, so leave it to the kernel.
    std::mem::forget(sim);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_bases_precede_their_derived_workloads() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
            if let Some(b) = w.base() {
                assert_eq!(Workload::ALL[i - 1], b);
                assert_eq!(b.base(), None);
            }
        }
        assert_eq!(Workload::parse("fig6"), None);
    }

    #[test]
    fn input_generator_is_a_function_of_the_seed() {
        let draw = |s| {
            let mut r = SplitMix(s);
            [r.next(), r.next(), r.next()]
        };
        assert_eq!(draw(12), draw(12));
        assert_ne!(draw(12), draw(13));
        // First SplitMix64 output for seed 0 (reference implementation).
        assert_eq!(draw(0)[0], 0xe220_a839_7b1d_cdaf);
    }
}
