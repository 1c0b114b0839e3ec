//! Space-parallel sharding probe for a 100k-flow dumbbell.
//!
//! Builds a bounded-active-set population of 100 000 PERT slab flows
//! (cohorts of 100 per ms, 8-segment transfers, 1 s think) spread over 8
//! source and 8 sink hosts around a two-router bottleneck, so the
//! partitioner has positive-delay links to cut, then runs it through
//! `netsim::ShardedSim` at `--shards N` and prints wall time / events /
//! throughput. This is the topology `pert-bench`'s
//! `dumbbell100k` and `dumbbell100k_shards2` workloads time; `--shards 1`
//! is the monolithic baseline. The `SECS` env var overrides the 1.5 s
//! horizon.
//!
//! Like every experiment, the run warms up monolithically for
//! [`WARMUP_MS`] before the timed region and the split, so the
//! partitioner weighs each node by the events the warm-up attributed to
//! it. Before any event runs every node weighs the same, and the two
//! routers — every packet crosses both — would be sorted onto one shard.
use netsim::ids::FlowId;
use netsim::queue::DropTail;
use netsim::time::{SimDuration, SimTime};
use pert_tcp::{connect_with_source, ConnectionSpec, FnSource, Transfer};

const HOSTS_PER_SIDE: usize = 8;
const FLOWS: usize = 100_000;
/// Untimed monolithic warm-up whose event profile the split balances.
const WARMUP_MS: u64 = 100;

fn main() {
    let shards: usize = std::env::args()
        .skip_while(|a| a != "--shards")
        .nth(1)
        .map(|v| v.parse().expect("--shards N"))
        .unwrap_or(1);
    let t_build = std::time::Instant::now();
    let mut sim = netsim::Simulator::new(1);
    let a = sim.add_node();
    let srcs: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    let z = sim.add_node();
    let dsts: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    // 10 Gb/s bottleneck, 10 ms of propagation — the
    // natural 2-way cut. 40 Gb/s access links at 5 ms give the 4-way
    // partition its lookahead.
    sim.add_duplex_link(a, z, 10_000_000_000, SimDuration::from_millis(10), |_| {
        Box::new(DropTail::new(65_536))
    });
    for &h in &srcs {
        sim.add_duplex_link(h, a, 40_000_000_000, SimDuration::from_millis(5), |_| {
            Box::new(DropTail::new(65_536))
        });
    }
    for &h in &dsts {
        sim.add_duplex_link(h, z, 40_000_000_000, SimDuration::from_millis(5), |_| {
            Box::new(DropTail::new(65_536))
        });
    }
    sim.compute_routes();
    for i in 0..FLOWS {
        let mut started = false;
        let source = FnSource(move |_rng: &mut rand::rngs::SmallRng| {
            let think_secs = if started { 1.0 } else { 0.0 };
            started = true;
            Some(Transfer {
                think_secs,
                segments: 8,
            })
        });
        let pair = i % HOSTS_PER_SIDE;
        let conn = connect_with_source(
            &mut sim,
            ConnectionSpec::pert(FlowId(i), srcs[pair], dsts[pair], i as u64),
            Box::new(source),
        );
        let start = SimTime::from_millis((i / 100) as u64);
        sim.schedule_agent_timer(start, conn.sender, conn.start_token);
    }
    eprintln!("build: {:?}", t_build.elapsed());
    let until = SimTime::from_secs_f64(
        std::env::var("SECS")
            .map(|v| v.parse().unwrap())
            .unwrap_or(1.5),
    );
    sim.run_until(SimTime::from_millis(WARMUP_MS));
    let warm_events = sim.events_processed();
    let t0 = std::time::Instant::now();
    let (events, drops) = if shards > 1 {
        match netsim::ShardedSim::split(sim, shards) {
            Ok(mut sharded) => {
                eprintln!(
                    "shards: {}  lookahead: {:?}",
                    sharded.num_shards(),
                    sharded.lookahead()
                );
                sharded.run_until(until);
                let per_ev = sharded.per_shard_events();
                let ev: u64 = per_ev.iter().sum();
                let per_cpu = sharded.per_shard_cpu_ns();
                for (i, (e, c)) in per_ev.iter().zip(per_cpu).enumerate() {
                    eprintln!(
                        "  shard {i}: {e} events ({:.1}%), {:.2}s cpu, {:.2}M ev/s-cpu",
                        *e as f64 / ev.max(1) as f64 * 100.0,
                        *c as f64 / 1e9,
                        *e as f64 / (*c).max(1) as f64 * 1e3
                    );
                }
                if let Some(&max_ev) = per_ev.iter().max() {
                    eprintln!(
                        "  max-shard share: {:.1}%",
                        max_ev as f64 / ev.max(1) as f64 * 100.0
                    );
                }
                // Critical-path throughput: on a host with >= N free
                // cores, wall time converges to the busiest shard's CPU
                // time (barrier waits overlap), so this is the aggregate
                // rate the topology supports — and what wall-clock ev/s
                // cannot show when shard threads timeslice fewer cores.
                if let Some(&max_cpu) = per_cpu.iter().max() {
                    eprintln!(
                        "  critical-path: {:.2}M ev/s aggregate over {} shards",
                        ev as f64 / max_cpu.max(1) as f64 * 1e3,
                        per_cpu.len()
                    );
                }
                let merged = sharded.merge();
                (ev, merged.trace.drops.len())
            }
            Err((mut sim, reason)) => {
                eprintln!("split refused ({reason}); running monolithically");
                sim.run_until(until);
                (sim.events_processed() - warm_events, sim.trace.drops.len())
            }
        }
    } else {
        sim.run_until(until);
        let (pending, bytes) = sim.calendar_footprint();
        eprintln!(
            "calendar: {pending} pending events in {:.1} MiB",
            bytes as f64 / (1 << 20) as f64
        );
        (sim.events_processed() - warm_events, sim.trace.drops.len())
    };
    let wall = t0.elapsed();
    eprintln!(
        "run: {:?}  events: {}  ev/s: {:.2}M  drops: {}",
        wall,
        events,
        events as f64 / wall.as_secs_f64() / 1e6,
        drops
    );
}
