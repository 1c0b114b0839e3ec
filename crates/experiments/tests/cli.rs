//! The command line as users meet it: the commands the docs show still
//! parse, a bad output path fails before any simulation runs, and the
//! claims report on stderr without touching stdout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every command line inside a fenced block of `doc`, with `\`
/// continuations joined and anything from a comment, redirection or
/// pipe on cut off.
fn fenced_commands(doc: &str) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(repo_root().join(doc)).expect("doc readable");
    let mut out = Vec::new();
    let (mut fenced, mut line) = (false, String::new());
    for l in text.lines() {
        if l.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        match l.trim_end().strip_suffix('\\') {
            Some(head) => line.push_str(head),
            None => {
                line.push_str(l);
                let tokens = std::mem::take(&mut line)
                    .split_whitespace()
                    .take_while(|t| !t.starts_with(['#', '>', '|']) && *t != "&&")
                    .map(str::to_owned)
                    .collect();
                out.push(tokens);
            }
        }
    }
    out
}

/// The tokens after the first `--`, which cargo hands to the program.
fn program_args(tokens: &[String]) -> &[String] {
    let at = tokens.iter().position(|t| t == "--");
    at.map_or(&[], |i| &tokens[i + 1..])
}

#[test]
fn documented_commands_parse() {
    let (mut targets, mut traces, mut examples) = (0, 0, 0);
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        for tokens in fenced_commands(doc) {
            if tokens.len() < 2 || tokens[..2] != ["cargo", "run"] {
                continue;
            }
            let line = tokens.join(" ");
            let package = tokens.windows(2).find(|w| w[0] == "-p").map(|w| &w[1]);
            let args = program_args(&tokens);
            if let Some(w) = tokens.windows(2).find(|w| w[0] == "--example") {
                let dir = match package.map(String::as_str) {
                    Some("experiments") => "crates/experiments/examples",
                    None => "examples",
                    Some(p) => panic!("{doc}: example of unknown package {p}: {line}"),
                };
                let path = repo_root().join(dir).join(format!("{}.rs", w[1]));
                let source = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{doc}: `{line}`: {}: {e}", path.display()));
                for flag in args.iter().filter(|a| a.starts_with("--")) {
                    assert!(
                        source.contains(&format!("\"{flag}\"")),
                        "{doc}: `{line}`: example {} does not take {flag}",
                        w[1]
                    );
                }
                examples += 1;
            } else if package.map(String::as_str) == Some("experiments") {
                if args.iter().any(|a| a.contains('<')) {
                    continue;
                }
                let parsed = match args.split_first() {
                    Some((first, rest)) if first == "trace" => {
                        traces += 1;
                        experiments::trace_cli::parse(rest).map(drop)
                    }
                    _ => experiments::cli::parse(args).map(drop),
                };
                if let Err(e) = parsed {
                    panic!("{doc}: `{line}` does not parse: {e}");
                }
                targets += 1;
            }
        }
    }
    assert!(targets >= 10, "only {targets} documented runs found");
    assert!(traces >= 4, "only {traces} documented trace queries found");
    assert!(examples >= 3, "only {examples} documented examples found");
}

#[test]
fn unwritable_output_fails_before_any_simulation() {
    let dir = std::env::temp_dir().join(format!("pert-no-such-dir-{}", std::process::id()));
    let bad = dir.join("out.json");
    let bad = bad.to_str().expect("utf-8 temp path");
    for flag in ["--json", "--csv", "--trace-out"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig6", "--quick", flag, bad])
            .output()
            .expect("experiments runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag} ran anyway: {stdout}");
        assert!(stderr.contains(bad), "{flag}: {stderr}");
    }
    assert!(!dir.exists());
}

#[test]
fn claims_go_to_stderr_and_leave_stdout_alone() {
    let sc = experiments::scenario::lookup("fig5").expect("fig5 registered");
    let scale = experiments::Scale::Quick;
    let seed = sc.default_seed();
    let (results, _) = experiments::runner::run_jobs(sc.points(scale, seed), 1);
    let report = sc.assemble(scale, seed, results);
    let n = report.claims.len();
    assert!(n > 0, "fig5 records no claims");

    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig5", "--quick"])
        .output()
        .expect("experiments runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains(&format!("[fig5 claims {n}/{n} hold]\n")),
        "{stderr}"
    );
    assert!(!stderr.contains("FAIL"), "{stderr}");
    assert_eq!(stdout, format!("scale: Quick\n{}", report.render_text()));
}
