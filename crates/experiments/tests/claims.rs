//! The paper's claims, checked on the path users run: every target goes
//! `points` → `run_jobs` → `assemble`, and each `assemble` records the
//! claims it checks on its own typed results. One failure lists every
//! failing `target/claim: detail`.
//!
//! The claim counts below are for both competitors, `mix6` and `mix12`'s
//! default. In test builds the invariant audit is on, so every run is
//! audited too.

use experiments::common::Scale;
use experiments::report::Report;
use experiments::runner::run_jobs;
use experiments::scenario::{lookup, ALL_TARGETS};

/// Claims per target at quick scale, so that none vanishes silently.
/// Claims guarded by `scale >= Scale::Standard` are not counted.
const QUICK_CLAIMS: [(&str, usize); 18] = [
    ("fig234", 10),
    ("fig5", 3),
    ("fig6", 11),
    ("fig7", 1),
    ("fig8", 2),
    ("fig9", 1),
    ("table1", 3),
    ("fig11", 2),
    ("fig12", 4),
    ("fig13a", 3),
    ("fig13bcd", 5),
    ("fig14", 3),
    ("mix6", 5),
    ("mix12", 4),
    ("reverse", 3),
    ("rem", 4),
    ("robustness", 6),
    ("ablations", 2),
];

/// Every failing claim of `report`, one `target/claim: detail` line each.
fn failures(report: &Report) -> Vec<String> {
    let failing = report.claims.iter().filter(|c| !c.holds);
    failing
        .map(|c| format!("{}/{}: {}", report.target, c.name, c.detail))
        .collect()
}

#[test]
fn every_claim_holds_at_quick_scale() {
    let pinned: Vec<&str> = QUICK_CLAIMS.iter().map(|(t, _)| *t).collect();
    assert_eq!(pinned, ALL_TARGETS, "pin a claim count for every target");
    // One pool over every target's points keeps both workers busy; each
    // target then assembles its own slice of the ordered results.
    let scenarios: Vec<_> = ALL_TARGETS.iter().map(|t| lookup(t).unwrap()).collect();
    let mut jobs = Vec::new();
    let mut sizes = Vec::new();
    for sc in &scenarios {
        let points = sc.points(Scale::Quick, sc.default_seed());
        sizes.push(points.len());
        jobs.extend(points);
    }
    let (results, _) = run_jobs(jobs, 2);
    let mut results = results.into_iter();
    let mut problems = Vec::new();
    for ((sc, n), (target, want)) in scenarios.iter().zip(sizes).zip(QUICK_CLAIMS) {
        let mine = results.by_ref().take(n).collect();
        let report = sc.assemble(Scale::Quick, sc.default_seed(), mine);
        let got = report.claims.len();
        if got == 0 || got != want {
            problems.push(format!("{target}: {got} claims, pinned {want}"));
        }
        problems.extend(failures(&report));
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// Table 1's fairness ordering (PERT F > SACK/DropTail F) is claimed at
/// the paper's long windows only; run with
/// `cargo test -p experiments --test claims -- --ignored`. It fails today
/// (PERT F 0.743 vs SACK/DropTail 0.776; EXPERIMENTS.md, Table 1).
#[test]
#[ignore = "standard-scale windows"]
fn table1_claims_hold_at_standard_scale() {
    let sc = lookup("table1").unwrap();
    let seed = sc.default_seed();
    let (results, _) = run_jobs(sc.points(Scale::Standard, seed), 2);
    let report = sc.assemble(Scale::Standard, seed, results);
    assert!(report
        .claims
        .iter()
        .any(|c| c.name == "pert_f_above_sack_f"));
    let failing = failures(&report);
    assert!(failing.is_empty(), "\n{}", failing.join("\n"));
}
