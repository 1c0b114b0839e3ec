//! Argument parsing for the `experiments` binary.
//!
//! Kept dependency-free and separate from `main.rs` so the parsing rules
//! (flag validation, target validation, `all` expansion, deduplication)
//! are unit-testable.

use crate::common::Scale;
use crate::mix::CcAxis;
use crate::runner::default_workers;
use crate::scenario::{is_target, ALL_TARGETS};

/// The usage text printed on a parse error.
pub const USAGE: &str = "usage: experiments <target>... [--quick|--standard|--full] [--jobs N] \
[--shards N] [--seed S] [--json PATH] [--csv PATH] [--audit] [--telemetry] [--trace-out PATH] \
[--flight-window N] [--progress] [--shard-profile-out PATH] \
[--partition-weights PATH] [--cc cubic|bbr|both]\n\
\x20      experiments trace summarize|diff|shards|fidelity ... (see `experiments trace`)\n\
targets: fig2 fig3 fig4 fig234 fig5 fig6 fig7 fig8 fig9 table1\n\
\t fig11 fig12 fig13a fig13bcd fig14 mix6 mix12 reverse rem robustness ablations all\n\
--audit runs every simulation with the invariant-audit layer on (packet\n\
conservation, accounting ledgers, differential oracles) and reports the\n\
check/violation counts per target.\n\
--json, --csv, --trace-out and --shard-profile-out files are opened before\n\
the first simulation: a path that cannot be written exits 2 at once.\n\
--telemetry attaches signal taps and appends per-target metrics + derived\n\
sections to each report; --trace-out PATH (implies --telemetry) additionally\n\
writes the full per-series trace as JSONL to PATH plus a Chrome-trace\n\
profile of the harness phases and a flight-recorder dump alongside it.\n\
--flight-window N sets the flight-recorder ring size in records (default\n\
65536); without --trace-out the dump is pert-flight.jsonl in the system\n\
temporary directory. --progress forces the ~1 Hz stderr progress line on\n\
even when stderr is not a terminal.\n\
--shards N splits each simulation's measured phase into N space-parallel\n\
shards (cut at positive-delay links) run in deterministic barrier epochs.\n\
Reports are byte-identical at any N; scenarios that cannot be split fall\n\
back to one shard. Composes with --jobs (N threads per in-flight job).\n\
--cc selects the modern-competitor axes for the mixed-competition targets\n\
(mix6, mix12): CUBIC only, BBR only, or both (default). Other targets\n\
ignore it.\n\
--shard-profile-out PATH collects the always-on per-node event counts\n\
across the run and writes them as a pert-shard-weights/v1 file;\n\
--partition-weights PATH feeds such a file back so the shard partitioner\n\
balances event load instead of node count. Weights change only which\n\
shard hosts which node — reports stay byte-identical either way.";

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// Validated, deduplicated targets in execution order.
    pub targets: Vec<String>,
    /// Scale preset.
    pub scale: Scale,
    /// Worker threads for the runner.
    pub jobs: usize,
    /// Space-parallel shards per simulation (1 = monolithic).
    pub shards: usize,
    /// Base-seed override (`None` = each target's historical seed).
    pub seed: Option<u64>,
    /// Write all reports as a JSON array to this path.
    pub json: Option<String>,
    /// Write all reports as CSV sections to this path.
    pub csv: Option<String>,
    /// Run with the invariant-audit layer enabled.
    pub audit: bool,
    /// Run with telemetry taps attached and report per-target metrics.
    pub telemetry: bool,
    /// Write the full telemetry trace (JSONL) here; implies `telemetry`.
    pub trace_out: Option<String>,
    /// Flight-recorder ring size override, records (`None` = default).
    pub flight_window: Option<usize>,
    /// Force the stderr progress line on (otherwise it is shown only
    /// when stderr is a terminal).
    pub progress: bool,
    /// Write the per-node event profile as a partition-weight file here.
    pub shard_profile_out: Option<String>,
    /// Load partition weights from this file before any simulator runs.
    pub partition_weights: Option<String>,
    /// Competitor axes for the mixed-competition targets.
    pub cc: CcAxis,
}

fn flag_value<'a>(flag: &str, args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut scale = Scale::Standard;
    let mut jobs = default_workers();
    let mut shards = 1;
    let mut seed = None;
    let mut json = None;
    let mut csv = None;
    let mut audit = false;
    let mut telemetry = false;
    let mut trace_out = None;
    let mut flight_window = None;
    let mut progress = false;
    let mut shard_profile_out = None;
    let mut partition_weights = None;
    let mut cc = CcAxis::Both;
    let mut targets: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => scale = Scale::Quick,
            "--standard" => scale = Scale::Standard,
            "--full" => scale = Scale::Full,
            "--jobs" => {
                let v = flag_value(a, args, &mut i)?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a positive integer, got '{v}'"))?;
            }
            "--shards" => {
                let v = flag_value(a, args, &mut i)?;
                shards = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--shards wants a positive integer, got '{v}'"))?;
            }
            "--seed" => {
                let v = flag_value(a, args, &mut i)?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed wants an unsigned integer, got '{v}'"))?,
                );
            }
            "--json" => json = Some(flag_value(a, args, &mut i)?.to_string()),
            "--csv" => csv = Some(flag_value(a, args, &mut i)?.to_string()),
            "--audit" => audit = true,
            "--telemetry" => telemetry = true,
            "--trace-out" => trace_out = Some(flag_value(a, args, &mut i)?.to_string()),
            "--flight-window" => {
                use pert_core::telemetry::{FLIGHT_CAP_MAX, FLIGHT_CAP_MIN};
                let v = flag_value(a, args, &mut i)?;
                flight_window = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| (FLIGHT_CAP_MIN..=FLIGHT_CAP_MAX).contains(n))
                        .ok_or_else(|| {
                            format!(
                                "--flight-window wants an integer in \
                                 [{FLIGHT_CAP_MIN}, {FLIGHT_CAP_MAX}], got '{v}'"
                            )
                        })?,
                );
            }
            "--progress" => progress = true,
            "--shard-profile-out" => {
                shard_profile_out = Some(flag_value(a, args, &mut i)?.to_string())
            }
            "--partition-weights" => {
                partition_weights = Some(flag_value(a, args, &mut i)?.to_string())
            }
            "--cc" => {
                cc = match flag_value(a, args, &mut i)? {
                    "cubic" => CcAxis::Cubic,
                    "bbr" => CcAxis::Bbr,
                    "both" => CcAxis::Both,
                    v => return Err(format!("--cc wants 'cubic', 'bbr', or 'both', got '{v}'")),
                };
            }
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
            t => {
                if t == "all" {
                    targets.extend(ALL_TARGETS.iter().map(|s| s.to_string()));
                } else if is_target(t) {
                    targets.push(t.to_string());
                } else {
                    return Err(format!("unknown target '{t}'"));
                }
            }
        }
        i += 1;
    }

    if targets.is_empty() {
        return Err("no targets given".into());
    }
    // Dedupe, keeping the first occurrence's position.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|t| seen.insert(t.clone()));

    // A trace file is useless without collection, so --trace-out implies
    // --telemetry.
    let telemetry = telemetry || trace_out.is_some();

    Ok(Cli {
        targets,
        scale,
        jobs,
        shards,
        seed,
        json,
        csv,
        audit,
        telemetry,
        trace_out,
        flight_window,
        progress,
        shard_profile_out,
        partition_weights,
        cc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_targets_flags_and_values() {
        let c = p(&["fig6", "--quick", "--jobs", "4", "--seed", "9"]).unwrap();
        assert_eq!(c.targets, vec!["fig6"]);
        assert_eq!(c.scale, Scale::Quick);
        assert_eq!(c.jobs, 4);
        assert_eq!(c.seed, Some(9));
    }

    #[test]
    fn rejects_unknown_flags_and_targets() {
        assert!(p(&["fig6", "--frobnicate"])
            .unwrap_err()
            .contains("unknown flag '--frobnicate'"));
        assert!(p(&["fig99"])
            .unwrap_err()
            .contains("unknown target 'fig99'"));
    }

    #[test]
    fn shards_flag_defaults_to_one_and_is_validated() {
        assert_eq!(p(&["fig6"]).unwrap().shards, 1);
        assert_eq!(p(&["fig6", "--shards", "4"]).unwrap().shards, 4);
        assert!(p(&["fig6", "--shards", "0"])
            .unwrap_err()
            .contains("--shards"));
        assert!(p(&["fig6", "--shards", "x"])
            .unwrap_err()
            .contains("--shards"));
        assert!(p(&["fig6", "--shards"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn rejects_bad_flag_values() {
        assert!(p(&["fig6", "--jobs", "0"]).unwrap_err().contains("--jobs"));
        assert!(p(&["fig6", "--jobs"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(p(&["fig6", "--seed", "x"]).unwrap_err().contains("--seed"));
        assert!(p(&[]).unwrap_err().contains("no targets"));
    }

    #[test]
    fn all_expands_in_order_and_dedupes() {
        let c = p(&["fig6", "all"]).unwrap();
        assert_eq!(c.targets[0], "fig6");
        assert_eq!(c.targets.len(), ALL_TARGETS.len());
        let again = p(&["fig6", "fig6", "fig7"]).unwrap();
        assert_eq!(again.targets, vec!["fig6", "fig7"]);
    }

    #[test]
    fn output_paths_are_captured() {
        let c = p(&["fig5", "--json", "a.json", "--csv", "b.csv"]).unwrap();
        assert_eq!(c.json.as_deref(), Some("a.json"));
        assert_eq!(c.csv.as_deref(), Some("b.csv"));
    }

    #[test]
    fn audit_flag_is_off_by_default() {
        assert!(!p(&["fig5"]).unwrap().audit);
        assert!(p(&["fig5", "--audit"]).unwrap().audit);
    }

    #[test]
    fn telemetry_flags() {
        let off = p(&["fig5"]).unwrap();
        assert!(!off.telemetry);
        assert_eq!(off.trace_out, None);

        assert!(p(&["fig5", "--telemetry"]).unwrap().telemetry);

        // --trace-out implies telemetry collection.
        let traced = p(&["fig5", "--trace-out", "t.jsonl"]).unwrap();
        assert!(traced.telemetry);
        assert_eq!(traced.trace_out.as_deref(), Some("t.jsonl"));

        assert!(p(&["fig5", "--trace-out"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn flight_window_flag_is_bounds_checked() {
        use pert_core::telemetry::{FLIGHT_CAP_MAX, FLIGHT_CAP_MIN};
        assert_eq!(p(&["fig5"]).unwrap().flight_window, None);
        assert_eq!(
            p(&["fig5", "--flight-window", "1024"])
                .unwrap()
                .flight_window,
            Some(1024)
        );
        assert_eq!(
            p(&["fig5", "--flight-window", &FLIGHT_CAP_MIN.to_string()])
                .unwrap()
                .flight_window,
            Some(FLIGHT_CAP_MIN)
        );
        for bad in [
            "0",
            "-5",
            "x",
            &(FLIGHT_CAP_MIN - 1).to_string(),
            &(FLIGHT_CAP_MAX + 1).to_string(),
        ] {
            assert!(
                p(&["fig5", "--flight-window", bad])
                    .unwrap_err()
                    .contains("--flight-window"),
                "accepted {bad}"
            );
        }
        assert!(p(&["fig5", "--flight-window"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn progress_flag() {
        assert!(!p(&["fig5"]).unwrap().progress);
        assert!(p(&["fig5", "--progress"]).unwrap().progress);
    }

    #[test]
    fn shard_profile_and_weight_flags() {
        let off = p(&["fig6"]).unwrap();
        assert_eq!(off.shard_profile_out, None);
        assert_eq!(off.partition_weights, None);

        let c = p(&["fig6", "--shard-profile-out", "w.json"]).unwrap();
        assert_eq!(c.shard_profile_out.as_deref(), Some("w.json"));
        let c = p(&["fig6", "--partition-weights", "w.json"]).unwrap();
        assert_eq!(c.partition_weights.as_deref(), Some("w.json"));

        assert!(p(&["fig6", "--shard-profile-out"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(p(&["fig6", "--partition-weights"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn cc_flag() {
        assert_eq!(p(&["mix6"]).unwrap().cc, CcAxis::Both);
        assert_eq!(p(&["mix6", "--cc", "cubic"]).unwrap().cc, CcAxis::Cubic);
        assert_eq!(p(&["mix6", "--cc", "bbr"]).unwrap().cc, CcAxis::Bbr);
        assert_eq!(p(&["mix12", "--cc", "both"]).unwrap().cc, CcAxis::Both);
        assert!(p(&["mix6", "--cc", "reno"]).unwrap_err().contains("--cc"));
        assert!(p(&["mix6", "--cc"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn mix_targets_are_registered() {
        let c = p(&["mix6", "mix12"]).unwrap();
        assert_eq!(c.targets, vec!["mix6", "mix12"]);
        assert!(p(&["all"]).unwrap().targets.contains(&"mix6".to_string()));
    }

    /// The flow hosting is not a mode: every run uses the flow slab.
    #[test]
    fn legacy_agents_flag() {
        assert!(p(&["fig5", "--legacy-agents"])
            .unwrap_err()
            .contains("unknown flag '--legacy-agents'"));
    }

    /// The event calendar is not a mode: every run uses the timing wheel.
    #[test]
    fn calendar_flag() {
        assert!(p(&["fig5", "--calendar", "heap"])
            .unwrap_err()
            .contains("unknown flag '--calendar'"));
    }
}
