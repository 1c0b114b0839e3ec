//! Property-based tests for the measurement utilities.

use proptest::prelude::*;
use sim_stats::metrics::BucketHistogram;
use sim_stats::transitions::{analyze, cluster_losses};
use sim_stats::{jain_index, Histogram, TimeSeries};

proptest! {
    /// Integer-bucket percentiles bracket the exact sorted quantile:
    /// the exact nearest-rank value lies in (previous edge, reported
    /// edge] — i.e. the histogram answer is within one bucket width.
    #[test]
    fn bucket_percentile_within_one_bucket(
        xs in proptest::collection::vec(0u64..6_000_000, 1..400),
        pct in 1u64..101,
    ) {
        let edges = sim_stats::derive::QDELAY_EDGES_US;
        let mut h = BucketHistogram::new(&edges);
        for &x in &xs {
            h.observe(x);
        }
        let upper = h.percentile_upper(pct).unwrap();

        // Exact nearest-rank quantile from the sorted samples.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let rank = ((xs.len() as u64 * pct).div_ceil(100)).max(1) as usize;
        let exact = sorted[rank - 1];

        prop_assert!(exact <= upper, "exact {exact} above reported edge {upper}");
        let lower = edges
            .iter()
            .rev()
            .find(|&&e| e < upper)
            .copied()
            .unwrap_or(0);
        prop_assert!(
            exact > lower || upper == edges[0],
            "exact {exact} not within bucket ({lower}, {upper}]"
        );
    }

    /// Jain's index lies in (1/n, 1] and is scale-invariant.
    #[test]
    fn jain_bounds_and_scale_invariance(
        xs in proptest::collection::vec(0.0f64..1e6, 1..50),
        k in 0.001f64..1e3,
    ) {
        let j = jain_index(&xs);
        prop_assert!(j <= 1.0 + 1e-12);
        if xs.iter().any(|&x| x > 0.0) {
            prop_assert!(j >= 1.0 / xs.len() as f64 - 1e-12);
            let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
            prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
        }
    }

    /// Histogram: total count preserved; PMF sums to one; CDF monotone.
    #[test]
    fn histogram_mass_conservation(
        xs in proptest::collection::vec(-0.5f64..1.5, 1..300),
        bins in 1usize..40,
    ) {
        let mut h = Histogram::unit(bins);
        for &x in &xs {
            h.add(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let s: f64 = h.pmf().iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        let cdf = h.cdf();
        prop_assert!(cdf.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    /// Loss clustering: output is sorted, no two events closer than the
    /// window, and every raw drop lands within some cluster's extent.
    #[test]
    fn clustering_invariants(
        mut drops in proptest::collection::vec(0.0f64..100.0, 1..200),
        window in 0.0f64..5.0,
    ) {
        drops.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let events = cluster_losses(&drops, window);
        prop_assert!(!events.is_empty());
        prop_assert!(events.windows(2).all(|w| w[1] - w[0] > window));
        prop_assert!(events.len() <= drops.len());
        // First drop is always the first event.
        prop_assert_eq!(events[0], drops[0]);
    }

    /// Transition analysis: every closed high episode is classified
    /// exactly once, and every loss event is attributed exactly once.
    #[test]
    fn transition_counts_are_a_partition(
        flips in proptest::collection::vec(any::<bool>(), 2..100),
        drops in proptest::collection::vec(0.0f64..100.0, 0..50),
    ) {
        let states: Vec<(f64, bool)> = flips
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as f64, h))
            .collect();
        let mut sorted = drops.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let c = analyze(&states, &sorted, 0.0);
        // Episodes: each is a success or a false positive.
        prop_assert_eq!(c.high_to_loss + c.high_to_low, c.low_to_high);
        // Loss events: attributed to an episode (≤ one per episode) or to
        // the low state.
        prop_assert!(c.high_to_loss + c.low_to_loss <= c.loss_events);
        prop_assert!(c.low_to_loss <= c.loss_events);
        prop_assert_eq!(c.false_positive_times.len() as u64, c.high_to_low);
        // Derived rates stay in [0, 1].
        for r in [c.efficiency(), c.false_positive_rate(), c.false_negative_rate()]
            .into_iter()
            .flatten()
        {
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }

    /// TimeSeries step lookup returns the latest sample ≤ t.
    #[test]
    fn timeseries_lookup_is_latest_before(
        vals in proptest::collection::vec(-10.0f64..10.0, 1..100),
        probe in 0.0f64..200.0,
    ) {
        let mut ts = TimeSeries::new();
        for (i, &v) in vals.iter().enumerate() {
            ts.push(i as f64, v);
        }
        let got = ts.value_at(probe);
        let idx = probe.floor() as usize;
        if probe < 0.0 {
            prop_assert_eq!(got, None);
        } else if idx < vals.len() {
            prop_assert_eq!(got, Some(vals[idx]));
        } else {
            prop_assert_eq!(got, Some(*vals.last().unwrap()));
        }
    }
}
