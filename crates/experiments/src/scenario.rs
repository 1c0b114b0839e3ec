//! The `Scenario` abstraction every experiment target implements, plus
//! the name → scenario registry the CLI dispatches through.
//!
//! A scenario splits its work into independent, self-seeded [`Job`]s
//! (`points`), which the [`runner`](crate::runner) executes on a worker
//! pool, and then reassembles the ordered results into a structured
//! [`Report`] (`assemble`). The split is what makes the sweeps
//! embarrassingly parallel; the ordered reassembly is what keeps the
//! output byte-identical to a sequential run.

use crate::common::Scale;
use crate::report::Report;
use crate::runner::{Job, PointResult};

/// One experiment target (a figure, table, or study).
pub trait Scenario {
    /// The CLI name (`fig6`, `table1`, ...).
    fn name(&self) -> &'static str;

    /// The base seed this target has always used; `--seed` overrides it.
    fn default_seed(&self) -> u64;

    /// The independent points at `scale`, each seeded from `seed`.
    /// Job order defines result order in [`Scenario::assemble`].
    fn points(&self, scale: Scale, seed: u64) -> Vec<Job>;

    /// Reassemble the ordered point results into the target's report,
    /// recording the paper's claims about them in `Report::claims`.
    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report;
}

/// Every registered target, in `all` execution order.
pub const ALL_TARGETS: [&str; 18] = [
    "fig234",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "fig11",
    "fig12",
    "fig13a",
    "fig13bcd",
    "fig14",
    "mix6",
    "mix12",
    "reverse",
    "rem",
    "robustness",
    "ablations",
];

/// Names accepted by the CLI beyond [`ALL_TARGETS`] (the single-figure
/// views of the shared §2.2 case runs).
pub const EXTRA_TARGETS: [&str; 3] = ["fig2", "fig3", "fig4"];

/// Look up a target by CLI name.
pub fn lookup(name: &str) -> Option<Box<dyn Scenario>> {
    Some(match name {
        "fig2" => Box::new(crate::fig2::FIG2),
        "fig3" => Box::new(crate::fig3::FIG3),
        "fig4" => Box::new(crate::fig4::FIG4),
        "fig234" => Box::new(crate::cases::FIG234),
        "fig5" => Box::new(crate::fig5::Fig5Scenario),
        "fig6" => Box::new(crate::fig6::FIG6),
        "fig7" => Box::new(crate::fig7::FIG7),
        "fig8" => Box::new(crate::fig8::FIG8),
        "fig9" => Box::new(crate::fig9::FIG9),
        "table1" => Box::new(crate::table1::TABLE1),
        "fig11" => Box::new(crate::fig11::Fig11Scenario),
        "fig12" => Box::new(crate::fig12::Fig12Scenario),
        "fig13a" => Box::new(crate::fig13::Fig13aScenario),
        "fig13bcd" => Box::new(crate::fig13::Fig13bcdScenario),
        "fig14" => Box::new(crate::fig14::FIG14),
        "mix6" => Box::new(crate::mix::Mix6Scenario),
        "mix12" => Box::new(crate::mix::Mix12Scenario),
        "reverse" => Box::new(crate::reverse::ReverseScenario),
        "rem" => Box::new(crate::rem::REM),
        "robustness" => Box::new(crate::robustness::RobustnessScenario),
        "ablations" => Box::new(crate::ablations::AblationsScenario),
        _ => return None,
    })
}

/// Is `name` a registered target?
pub fn is_target(name: &str) -> bool {
    ALL_TARGETS.contains(&name) || EXTRA_TARGETS.contains(&name)
}

/// Test support: a target's claims, checked on the run path users take.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::runner::run_jobs;
    use std::sync::{Mutex, OnceLock};

    /// `target` at quick scale and its default seed, run once through
    /// `points` → `run_jobs` → `assemble` and shared by every test that
    /// asks for it.
    pub(crate) fn quick_report(target: &'static str) -> &'static Report {
        type Cells = Vec<(&'static str, &'static OnceLock<Report>)>;
        static CELLS: Mutex<Cells> = Mutex::new(Vec::new());
        let cell = {
            let mut cells = CELLS.lock().unwrap_or_else(|e| e.into_inner());
            match cells.iter().find(|(t, _)| *t == target) {
                Some(&(_, cell)) => cell,
                None => {
                    let cell: &'static OnceLock<Report> = Box::leak(Box::default());
                    cells.push((target, cell));
                    cell
                }
            }
        };
        cell.get_or_init(|| {
            let sc = lookup(target).expect("registered target");
            let seed = sc.default_seed();
            let (results, _) = run_jobs(sc.points(Scale::Quick, seed), 1);
            sc.assemble(Scale::Quick, seed, results)
        })
    }

    /// Assert that `target` records each of `names` at quick scale and
    /// that each holds.
    pub(crate) fn assert_claims_hold(target: &'static str, names: &[&str]) {
        let report = quick_report(target);
        for name in names {
            let claim = report.claims.iter().find(|c| c.name == *name);
            let claim = claim.unwrap_or_else(|| panic!("{target} records no claim {name}"));
            assert!(claim.holds, "{target}/{name}: {}", claim.detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves() {
        for name in ALL_TARGETS.iter().chain(EXTRA_TARGETS.iter()) {
            let sc = lookup(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(sc.name(), *name);
        }
        assert!(lookup("fig99").is_none());
    }

    #[test]
    fn every_scenario_declares_points_at_quick_scale() {
        for name in ALL_TARGETS.iter().chain(EXTRA_TARGETS.iter()) {
            let sc = lookup(name).unwrap();
            let jobs = sc.points(Scale::Quick, sc.default_seed());
            assert!(!jobs.is_empty(), "{name} declared no points");
            for j in &jobs {
                assert!(!j.label.is_empty(), "{name} has an unlabeled job");
            }
        }
    }
}
