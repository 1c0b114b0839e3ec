//! What SACK processing costs on a target's SACK/DropTail points.
//!
//! Runs every point of the named targets whose label contains
//! `SACK/DropTail`, one after another on this thread, and prints per
//! point the SACK blocks applied, the segments the scoreboard visited per
//! block, the segments a walk over every block whole would have visited
//! per block, and the wall time:
//!
//! ```text
//! cargo run --release -p experiments --example sack_walk -- fig6 fig8 --standard
//! ```
//!
//! `--quick` and `--full` pick the other scales; `--match TEXT` picks
//! other points by label.

use std::time::Instant;

use experiments::common::Scale;
use experiments::scenario::lookup;
use pert_tcp::scoreboard::sack_walk;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut pattern = "SACK/DropTail".to_string();
    let mut targets = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--standard" => scale = Scale::Standard,
            "--full" => scale = Scale::Full,
            "--match" => pattern = it.next().expect("--match TEXT").clone(),
            name => targets.push(name.to_string()),
        }
    }
    println!("point blocks visited/block spanned/block wall_s");
    for name in targets {
        let scenario = lookup(&name).unwrap_or_else(|| panic!("unknown target {name}"));
        let jobs = scenario.points(scale, scenario.default_seed());
        for job in jobs.into_iter().filter(|j| j.label.contains(&pattern)) {
            let (before, t) = (sack_walk(), Instant::now());
            drop((job.run)());
            let (after, wall) = (sack_walk(), t.elapsed().as_secs_f64());
            let blocks = after.blocks - before.blocks;
            let per = |n: u64| n as f64 / blocks.max(1) as f64;
            println!(
                "{} {blocks} {:.2} {:.1} {wall:.1}",
                job.label,
                per(after.segments - before.segments),
                per(after.spanned - before.spanned),
            );
        }
    }
}
