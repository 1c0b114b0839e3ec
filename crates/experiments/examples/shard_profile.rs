//! Space-parallel sharding probe for a 100k-flow dumbbell.
//!
//! Builds the same bounded-active-set slab population as `soa_profile`,
//! but spread over 8 source and 8 sink hosts around a two-router
//! bottleneck so the partitioner has positive-delay links to cut, then
//! runs it through `netsim::ShardedSim` at `--shards N` and prints wall
//! time / events / throughput. This is the topology `pert-bench`'s
//! `dumbbell100k` and `dumbbell100k_shards2` workloads time; `--shards 1`
//! is the monolithic baseline. The `SECS` env var overrides the 1.5 s
//! horizon.
//!
//! The profile → weights → re-partition loop: `--profile-out PATH`
//! writes the per-node event profile as a pert-shard-weights/v1 file,
//! and `--weights PATH` feeds one back into the partitioner, which then
//! balances observed event load instead of node count:
//!
//! ```text
//! shard_profile --shards 4 --profile-out w.json
//! shard_profile --shards 4 --weights w.json   # lower max-shard share
//! ```
use netsim::ids::FlowId;
use netsim::queue::DropTail;
use netsim::time::{SimDuration, SimTime};
use pert_tcp::{connect_with_source, ConnectionSpec, FnSource, Transfer};

const HOSTS_PER_SIDE: usize = 8;
const FLOWS: usize = 100_000;

fn main() {
    let shards: usize = std::env::args()
        .skip_while(|a| a != "--shards")
        .nth(1)
        .map(|v| v.parse().expect("--shards N"))
        .unwrap_or(1);
    let profile_out: Option<String> = std::env::args().skip_while(|a| a != "--profile-out").nth(1);
    let weights_in: Option<String> = std::env::args().skip_while(|a| a != "--weights").nth(1);
    netsim::profile::set_enabled(profile_out.is_some());
    if let Some(path) = &weights_in {
        let w = experiments::weights::load(path).expect("--weights file");
        eprintln!("weights: {} nodes from {path}", w.weights.len());
        netsim::set_partition_weights(Some(w.weights));
    }
    let t_build = std::time::Instant::now();
    let mut sim = netsim::Simulator::new(1);
    // Unweighted, the partitioner balances node *count* and sorts the
    // two heavy routers — every packet crosses both — adjacently, so
    // they land on one shard (72.1% of all events). A `--weights` file
    // from a profiled run tells it to balance event load instead, which
    // isolates each router on its own shard.
    let a = sim.add_node();
    let srcs: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    let z = sim.add_node();
    let dsts: Vec<_> = (0..HOSTS_PER_SIDE).map(|_| sim.add_node()).collect();
    // 10 Gb/s bottleneck as in soa_profile, 10 ms of propagation — the
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
                let ev = sharded.events_processed();
                let per_ev = sharded.per_shard_events();
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
                (sim.events_processed(), sim.trace.drops.len())
            }
        }
    } else {
        sim.run_until(until);
        let (pending, bytes) = sim.calendar_footprint();
        eprintln!(
            "calendar: {pending} pending events in {:.1} MiB",
            bytes as f64 / (1 << 20) as f64
        );
        (sim.events_processed(), sim.trace.drops.len())
    };
    let wall = t0.elapsed();
    eprintln!(
        "run: {:?}  events: {}  ev/s: {:.2}M  drops: {}",
        wall,
        events,
        events as f64 / wall.as_secs_f64() / 1e6,
        drops
    );
    if let Some(path) = &profile_out {
        // The simulator flushed its node profile into the registry when
        // it dropped above (merged and monolithic paths both end there).
        let counts = netsim::profile::snapshot();
        experiments::weights::write(path, &["shard_profile".to_string()], &counts)
            .expect("write profile");
        eprintln!("profile: wrote {path} ({} nodes)", counts.len());
    }
}
