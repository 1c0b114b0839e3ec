//! Shared machinery for the §4 comparison sweeps (Figures 6–9, Table 1,
//! Figure 14): run one dumbbell configuration under several schemes and
//! report the paper's four panels — average queue, drop rate, utilization,
//! and Jain fairness.

use sim_stats::jain_index;
use workload::{
    build_dumbbell, link_metrics, run_measured, snapshot_goodput, DumbbellConfig, Scheme,
};

use crate::common::Scale;
use crate::report::{Cell, Report, Table};
use crate::runner::{take, Job, PointResult};
use crate::scenario::Scenario;

/// The four panels for one (scheme, configuration) point.
#[derive(Clone, Debug)]
pub struct SchemePoint {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Time-weighted mean bottleneck queue, packets.
    pub queue_pkts: f64,
    /// Mean queue normalized by the buffer (`Q`).
    pub queue_norm: f64,
    /// Bottleneck drop rate (`p`).
    pub drop_rate: f64,
    /// Bottleneck ECN mark rate.
    pub mark_rate: f64,
    /// Bottleneck utilization percent (`U`).
    pub utilization: f64,
    /// Jain fairness index of the long-term flows' goodputs (`F`).
    pub jain: f64,
    /// Early (delay-triggered) window reductions across senders (PERT
    /// diagnostics; 0 for the baselines).
    pub early_reductions: u64,
}

/// `n` RTTs spread ±5 % around `center` (deterministic). The paper's
/// topology attaches flows through access links "of varying delay"; a
/// small spread also prevents the perfect phase synchronization a fully
/// deterministic simulator would otherwise produce among identical flows.
pub fn spread_rtts(n: usize, center: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let f = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            center * (0.95 + 0.10 * f)
        })
        .collect()
}

/// The scheme lineup of the §4 figures.
pub fn paper_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Pert,
        Scheme::SackDroptail,
        Scheme::SackRedEcn,
        Scheme::Vegas,
    ]
}

/// The point of scheme `name` in one grid point's group.
pub fn point<'a>(group: &'a [SchemePoint], name: &str) -> &'a SchemePoint {
    group
        .iter()
        .find(|s| s.scheme == name)
        .unwrap_or_else(|| panic!("no {name} point in the group"))
}

/// The paper's claims over an assembled sweep: `groups[i]` holds the
/// scheme points at grid key `keys[i]`. Each claim reads one panel per
/// point and must hold at every key; a failure lists `(key, values)`.
pub struct SweepClaims<'a, K> {
    /// The report the claims are recorded in.
    pub report: &'a mut Report,
    /// The grid keys (bandwidth, RTT, flow count, ...).
    pub keys: &'a [K],
    /// One group of scheme points per key, in scheme order.
    pub groups: &'a [Vec<SchemePoint>],
}

impl<K: Copy + std::fmt::Debug> SweepClaims<'_, K> {
    /// Claim `holds(panel(a), panel(b))` for schemes `a` and `b` at every
    /// key.
    pub fn vs(
        &mut self,
        name: &'static str,
        (a, b): (&str, &str),
        panel: impl Fn(&SchemePoint) -> f64,
        holds: impl Fn(f64, f64) -> bool,
    ) {
        let items = self
            .keys
            .iter()
            .zip(self.groups)
            .map(|(&k, g)| (k, panel(point(g, a)), panel(point(g, b))));
        self.report
            .claim_each(name, items, |&(_, x, y)| holds(x, y));
    }

    /// Claim `holds(panel(a))` for scheme `a` at every key.
    pub fn each(
        &mut self,
        name: &'static str,
        a: &str,
        panel: impl Fn(&SchemePoint) -> f64,
        holds: impl Fn(f64) -> bool,
    ) {
        let items = (self.keys.iter().zip(self.groups)).map(|(&k, g)| (k, panel(point(g, a))));
        self.report.claim_each(name, items, |&(_, x)| holds(x));
    }
}

/// A §4-style comparison sweep as a [`Scenario`]: one job per (grid key
/// × scheme) simulation, one table row per job, and the figure's claims
/// over the assembled points.
pub struct SweepScenario<K: 'static> {
    /// The CLI name, also the job-label prefix.
    pub name: &'static str,
    /// The base seed this target has always used.
    pub seed: u64,
    /// Table heading.
    pub title: &'static str,
    /// Table note (the paper's expectation).
    pub note: &'static str,
    /// Columns: the key columns, then scheme and the four panels.
    pub columns: &'static [&'static str],
    /// The grid keys at a scale.
    pub grid: fn(Scale) -> Vec<K>,
    /// The key's job-label segment, e.g. `5Mbps`.
    pub label: fn(K) -> String,
    /// The base configuration at a key (the seed is overridden).
    pub config: fn(K, Scale) -> DumbbellConfig,
    /// The schemes run at every key, in row order.
    pub schemes: fn() -> Vec<Scheme>,
    /// Push the key cells that lead each of the key's rows.
    pub key_cells: fn(K, &mut Vec<Cell>),
    /// Record the figure's claims.
    pub claims: fn(&mut SweepClaims<K>, Scale),
}

impl<K: Copy + std::fmt::Debug + Send + 'static> Scenario for SweepScenario<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn default_seed(&self) -> u64 {
        self.seed
    }

    /// Job order is keys × schemes, which `assemble` relies on.
    fn points(&self, scale: Scale, seed: u64) -> Vec<Job> {
        let schemes = (self.schemes)();
        let mut jobs = Vec::new();
        for key in (self.grid)(scale) {
            let mut cfg = (self.config)(key, scale);
            cfg.seed = seed;
            for scheme in &schemes {
                let label = format!("{}/{}/{}", self.name, (self.label)(key), scheme.name());
                let (cfg, scheme) = (cfg.clone(), scheme.clone());
                jobs.push(Job::new(label, move || run_one(&cfg, scheme, scale)));
            }
        }
        jobs
    }

    fn assemble(&self, scale: Scale, seed: u64, results: Vec<PointResult>) -> Report {
        let keys = (self.grid)(scale);
        let n_schemes = results.len() / keys.len();
        let mut points = results.into_iter().map(take::<SchemePoint>);
        let groups: Vec<Vec<SchemePoint>> = keys
            .iter()
            .map(|_| points.by_ref().take(n_schemes).collect())
            .collect();
        let mut table = Table::new(self.title, self.columns).with_note(self.note);
        for (&key, group) in keys.iter().zip(&groups) {
            for s in group {
                let mut row = Vec::with_capacity(self.columns.len());
                (self.key_cells)(key, &mut row);
                row.extend([
                    Cell::Str(s.scheme.to_string()),
                    Cell::Num(s.queue_norm),
                    Cell::Num(s.drop_rate),
                    Cell::Num(s.utilization),
                    Cell::Num(s.jain),
                ]);
                table.push(row);
            }
        }
        let mut report = Report::new(self.name, scale, seed);
        report.tables.push(table);
        let mut claims = SweepClaims {
            report: &mut report,
            keys: &keys,
            groups: &groups,
        };
        (self.claims)(&mut claims, scale);
        report
    }
}

/// Run one scheme point.
pub fn run_one(base: &DumbbellConfig, scheme: Scheme, scale: Scale) -> SchemePoint {
    let mut cfg = base.clone();
    cfg.scheme = scheme;
    cfg.start_window_secs = cfg.start_window_secs.min(scale.start_window());
    let d = build_dumbbell(&cfg);
    let mut sim = d.sim;

    // Warm up, snapshot, measure.
    sim.run_until(netsim::SimTime::from_secs_f64(scale.warmup()));
    let long_flows: Vec<_> = d.forward.iter().chain(&d.reverse).copied().collect();
    let before = snapshot_goodput(&sim, &long_flows);
    let (start, end) = run_measured(&mut sim, scale.warmup(), scale.end());
    let after = snapshot_goodput(&sim, &long_flows);

    let m = link_metrics(&sim, d.bottleneck_fwd, start, end);
    // Fairness over the *forward* long-term flows (the set competing for
    // the measured bottleneck direction).
    let fwd_rates = {
        let all = after.rates_since(&before);
        all[..d.forward.len()].to_vec()
    };
    let early: u64 = long_flows
        .iter()
        .map(|c| pert_tcp::sender_cc(&sim, c).early_reductions())
        .sum();

    SchemePoint {
        scheme: cfg.scheme.name(),
        queue_pkts: m.mean_queue_pkts,
        queue_norm: m.mean_queue_norm,
        drop_rate: m.drop_rate,
        mark_rate: m.mark_rate,
        utilization: m.utilization,
        jain: jain_index(&fwd_rates),
        early_reductions: early,
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::testing::assert_claims_hold;

    #[test]
    fn four_scheme_comparison_reproduces_headline_ordering() {
        // PERT's queue must undercut SACK/DropTail's, with comparable
        // utilization — the essence of Figures 6–9 — at fig6's points.
        assert_claims_hold(
            "fig6",
            &[
                "pert_q_below_sack_q",
                "pert_util_above_70",
                "pert_responds_early",
                "sack_never_responds_early",
                "pert_drop_le_sack_drop",
            ],
        );
    }
}
