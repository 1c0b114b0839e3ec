//! CLI for the reproduction harness.
//!
//! ```text
//! experiments <target>... [--quick|--standard|--full] [--jobs N]
//!             [--shards N] [--seed S] [--json PATH] [--csv PATH] [--audit]
//!             [--telemetry] [--trace-out PATH] [--progress]
//!             [--cc cubic|bbr|both]
//! experiments trace summarize FILE [filters] | trace diff A B [--tol X]
//!                 | trace shards FILE
//!                 | trace fidelity FILE [--flow F] [--csv PATH]
//!
//! targets: fig2 fig3 fig4 fig234 fig5 fig6 fig7 fig8 fig9 table1
//!          fig11 fig12 fig13a fig13bcd fig14 mix6 mix12 reverse rem
//!          robustness ablations all
//! ```
//!
//! Every target is a [`Scenario`](experiments::scenario::Scenario): its
//! independent points run on a `--jobs`-sized worker pool and the results
//! are reassembled in declared order, so the rendered output is
//! byte-identical whatever the worker count. Tables go to stdout;
//! progress, per-point timings and the paper's claims (`[t claims k/n
//! hold]`, then a `FAIL` line per failing claim) go to stderr;
//! `--json`/`--csv` write the structured reports to files. Every output
//! file is opened before the first simulation, so a bad path exits 2 at
//! once.

use experiments::cli;
use experiments::report::{reports_to_csv, reports_to_json, AuditCounts};
use experiments::runner::run_jobs;
use experiments::scenario::lookup;
use experiments::{progress, spans, trace_cli};
use pert_core::telemetry;

/// Where the flight-recorder dump lands: next to the trace file when
/// `--trace-out` is given, else a fixed name in the system temporary
/// directory (`$TMPDIR`, or `/tmp`), so a run leaves nothing behind in
/// the working tree.
fn flight_path(trace_out: Option<&str>) -> String {
    match trace_out {
        Some(p) => beside(p, "flight.jsonl"),
        None => std::env::temp_dir()
            .join("pert-flight.jsonl")
            .display()
            .to_string(),
    }
}

/// `<stem>.<ext>` for a `--trace-out` path `<stem>[.jsonl]`.
fn beside(trace_out: &str, ext: &str) -> String {
    let stem = trace_out.strip_suffix(".jsonl").unwrap_or(trace_out);
    format!("{stem}.{ext}")
}

/// Open every output file before any simulator is built, so a bad path
/// fails at once instead of after the whole run. Opening appends and
/// truncates nothing; the files are written when the run is done.
fn check_outputs(cli: &cli::Cli) -> Result<(), String> {
    let chrome = cli.trace_out.as_deref().map(|p| beside(p, "chrome.json"));
    let paths = [
        cli.json.as_deref(),
        cli.csv.as_deref(),
        cli.trace_out.as_deref(),
        chrome.as_deref(),
    ];
    for path in paths.into_iter().flatten() {
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `experiments trace ...` is the offline analysis mode: it reads
    // trace files instead of running simulations.
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(trace_cli::run(&args[1..]));
    }
    let cli = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = check_outputs(&cli) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // Must happen before any simulator is built: audit shadows and
    // telemetry taps attach at construction time.
    netsim::set_default_shards(cli.shards);
    experiments::mix::set_cc_axis(cli.cc);
    netsim::audit::set_enabled(cli.audit);
    telemetry::set_enabled(cli.telemetry);
    let flight = flight_path(cli.trace_out.as_deref());
    if cli.telemetry {
        telemetry::set_full_trace(cli.trace_out.is_some());
        // An audit violation panics; leave the preceding telemetry
        // window on disk when one fires (or any scenario panics).
        telemetry::install_flight_dump_on_panic(flight.clone().into());
    }

    let progress_on = progress::should_enable(cli.progress, cli.json.is_some());

    println!("scale: {:?}", cli.scale);
    let mut reports = Vec::new();
    for t in &cli.targets {
        let scenario = lookup(t).expect("targets were validated by the parser");
        let seed = cli.seed.unwrap_or_else(|| scenario.default_seed());
        let t0 = std::time::Instant::now();
        let before = cli.audit.then(netsim::audit::snapshot);
        let metrics_before = cli.telemetry.then(telemetry::metrics_snapshot);
        if cli.telemetry {
            // Fresh derive state per target: each report summarizes only
            // its own records.
            telemetry::derive_reset();
        }
        let jobs = {
            let _span = spans::span(format!("{t}/points"));
            scenario.points(cli.scale, seed)
        };
        let ticker = progress_on.then(|| {
            telemetry::progress_start(jobs.len() as u64);
            progress::Ticker::start(t)
        });
        let (results, timings) = run_jobs(jobs, cli.jobs);
        if let Some(ticker) = ticker {
            ticker.finish();
        }
        let mut report = {
            let _span = spans::span(format!("{t}/assemble"));
            scenario.assemble(cli.scale, seed, results)
        };
        report.timings = timings;
        if let Some(b) = metrics_before {
            report.metrics = Some(telemetry::metrics_snapshot().since(&b));
        }
        if cli.telemetry {
            report.derived = telemetry::derive_summary();
        }
        if let Some(b) = before {
            let d = netsim::audit::snapshot().since(&b);
            report.audit = Some(AuditCounts {
                queue_checks: d.queue_checks,
                oracle_checks: d.oracle_checks,
                tcp_checks: d.tcp_checks,
                event_checks: d.event_checks,
                calendar_checks: d.calendar_checks,
                violations: d.violations,
            });
        }
        print!("{}", report.render_text());
        for tm in &report.timings {
            eprintln!("  [{} {:.2}s]", tm.label, tm.secs);
        }
        eprintln!("[{t} done in {:.1}s]", t0.elapsed().as_secs_f64());
        eprint!("{}", report.render_claims());
        reports.push(report);
    }
    if cli.telemetry {
        telemetry::derive_clear();
    }

    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, reports_to_json(&reports)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
    if let Some(path) = &cli.csv {
        if let Err(e) = std::fs::write(path, reports_to_csv(&reports)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }

    if let Some(path) = &cli.trace_out {
        let chrome = beside(path, "chrome.json");
        match telemetry::write_trace_jsonl(std::path::Path::new(path)) {
            Ok(n) => eprintln!("[wrote {path}: {n} records]"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
        match spans::write_chrome_trace(std::path::Path::new(&chrome)) {
            Ok(n) => eprintln!("[wrote {chrome}: {n} spans]"),
            Err(e) => {
                eprintln!("error: writing {chrome}: {e}");
                std::process::exit(1);
            }
        }
    }
    if cli.telemetry {
        // Always leave the final flight window on disk: CI archives it,
        // and a clean run's window is the baseline to diff a crashed
        // run's dump against.
        match telemetry::write_flight_jsonl(std::path::Path::new(&flight)) {
            Ok(n) => eprintln!("[wrote {flight}: {n} records]"),
            Err(e) => eprintln!("warning: writing {flight}: {e}"),
        }
    }
}
