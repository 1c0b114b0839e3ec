//! Quick timing probe for the 100k-flow slab scenario.
//!
//! Runs a bounded-active-set population of 100 000 PERT slab flows
//! (cohorts of 100 per ms, 8-segment transfers, 1 s think) over one fat
//! link once and prints wall time / events / throughput, so slab
//! hot-path changes can be timed in seconds (run it under a sampling
//! profiler to see where the time goes). `pert-bench`'s `dumbbell100k`
//! workload times the same population on the `shard_profile` topology.
//! The `SECS` env var overrides the 1.5 s horizon.
use netsim::ids::FlowId;
use netsim::queue::DropTail;
use netsim::time::{SimDuration, SimTime};
use pert_tcp::{connect_with_source, ConnectionSpec, FnSource, Transfer};

fn main() {
    let t_build = std::time::Instant::now();
    let mut sim = netsim::Simulator::new(1);
    let a = sim.add_node();
    let z = sim.add_node();
    sim.add_duplex_link(a, z, 10_000_000_000, SimDuration::from_millis(5), |_| {
        Box::new(DropTail::new(65_536))
    });
    sim.compute_routes();
    for i in 0..100_000 {
        let mut started = false;
        let source = FnSource(move |_rng: &mut rand::rngs::SmallRng| {
            let think_secs = if started { 1.0 } else { 0.0 };
            started = true;
            Some(Transfer {
                think_secs,
                segments: 8,
            })
        });
        let conn = connect_with_source(
            &mut sim,
            ConnectionSpec::pert(FlowId(i), a, z, i as u64),
            Box::new(source),
        );
        let start = SimTime::from_millis((i / 100) as u64);
        sim.schedule_agent_timer(start, conn.sender, conn.start_token);
    }
    eprintln!("build: {:?}", t_build.elapsed());
    let t0 = std::time::Instant::now();
    sim.run_until(SimTime::from_secs_f64(
        std::env::var("SECS")
            .map(|v| v.parse().unwrap())
            .unwrap_or(1.5),
    ));
    let wall = t0.elapsed();
    let ev = sim.events_processed();
    eprintln!(
        "run: {:?}  events: {}  ev/s: {:.2}M  drops: {}",
        wall,
        ev,
        ev as f64 / wall.as_secs_f64() / 1e6,
        sim.trace.drops.len()
    );
}
