//! Property-based tests of the PERT algorithms.

use pert_core::buffer::{bdp_packets, max_decrease_for_buffer, min_buffer_for_decrease};
use pert_core::estimators::{Ewma, MovingAverage};
use pert_core::pert::{PertController, PertParams};
use pert_core::pi::PertPiParams;
use pert_core::response::ResponseCurve;
use proptest::prelude::*;

proptest! {
    /// The response curve is a total, monotone, continuous map into [0, 1]
    /// for any valid parameterization.
    #[test]
    fn response_curve_is_monotone_unit_valued(
        t_min in 0.001f64..0.05,
        spread in 0.001f64..0.05,
        p_max in 0.001f64..1.0,
        qds in proptest::collection::vec(0.0f64..0.5, 2..100),
    ) {
        let c = ResponseCurve::new(t_min, t_min + spread, p_max);
        let mut sorted = qds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = -1.0;
        for qd in sorted {
            let p = c.probability(qd);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
        // Continuity at the three joints.
        for x in [c.t_min, c.t_max, 2.0 * c.t_max] {
            let lo = c.probability(x - 1e-9);
            let hi = c.probability(x + 1e-9);
            prop_assert!((hi - lo).abs() < 1e-5, "jump at {x}: {lo} → {hi}");
        }
    }

    /// EWMA output always lies within the range of its inputs.
    #[test]
    fn ewma_stays_within_input_hull(
        alpha in 0.0f64..0.999,
        xs in proptest::collection::vec(0.001f64..10.0, 1..200),
    ) {
        let mut e = Ewma::new(alpha);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &xs {
            lo = lo.min(x);
            hi = hi.max(x);
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }

    /// The windowed moving average matches a naive recomputation.
    #[test]
    fn moving_average_matches_naive(
        window in 1usize..50,
        xs in proptest::collection::vec(-100.0f64..100.0, 1..300),
    ) {
        let mut ma = MovingAverage::new(window);
        for (i, &x) in xs.iter().enumerate() {
            let got = ma.update(x);
            let lo = i.saturating_sub(window - 1);
            let naive: f64 =
                xs[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64;
            prop_assert!((got - naive).abs() < 1e-9);
        }
    }

    /// PERT never responds twice within one smoothed RTT, for arbitrary
    /// RTT traces.
    #[test]
    fn pert_once_per_rtt(
        seed in any::<u64>(),
        rtts in proptest::collection::vec(0.01f64..0.5, 10..500),
    ) {
        let mut c = PertController::new(PertParams::default(), seed);
        let mut now = 0.0;
        let mut last: Option<(f64, f64)> = None;
        for rtt in rtts {
            now += 0.001;
            if c.on_ack(now, rtt).is_some() {
                let srtt = c.srtt().unwrap();
                if let Some((t_prev, srtt_prev)) = last {
                    prop_assert!(now - t_prev >= srtt_prev - 1e-9);
                }
                last = Some((now, srtt));
            }
        }
    }

    /// PERT's queuing-delay estimate is never negative and never exceeds
    /// the spread of the observed samples.
    #[test]
    fn pert_delay_estimate_bounded(
        rtts in proptest::collection::vec(0.01f64..1.0, 2..300),
    ) {
        let mut c = PertController::new(PertParams::default(), 7);
        let mut now = 0.0;
        for &rtt in &rtts {
            now += 0.01;
            let _ = c.on_ack(now, rtt);
            let qd = c.queuing_delay().unwrap();
            let lo = rtts.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = rtts.iter().cloned().fold(0.0, f64::max);
            prop_assert!(qd >= 0.0 && qd <= hi - lo + 1e-9);
        }
    }

    /// PERT/PI's probability stays in [0, 1] for arbitrary traces.
    #[test]
    fn pert_pi_probability_bounded(
        rtts in proptest::collection::vec(0.001f64..2.0, 2..300),
    ) {
        let params = PertPiParams::from_router_pi(1.822e-5, 1.816e-5, 10_000.0, 0.003);
        let mut c = PertController::pi(params, 3);
        let mut now = 0.0;
        for rtt in rtts {
            now += 0.001;
            let _ = c.on_ack(now, rtt);
            prop_assert!((0.0..=1.0).contains(&c.probability()));
        }
    }

    /// Buffer relation round-trips and is monotone in f.
    #[test]
    fn buffer_relation_roundtrip(f in 0.01f64..0.99, bdp in 0.1f64..10_000.0) {
        let b = min_buffer_for_decrease(f, bdp);
        let f2 = max_decrease_for_buffer(b, bdp);
        prop_assert!((f - f2).abs() < 1e-9);
        let b2 = min_buffer_for_decrease((f + 1.0) / 2.0, bdp);
        prop_assert!(b2 >= b);
    }

    /// BDP in packets is linear in capacity and RTT.
    #[test]
    fn bdp_linearity(c in 1e3f64..1e9, r in 0.001f64..2.0) {
        let one = bdp_packets(c, r, 1000.0);
        prop_assert!((bdp_packets(2.0 * c, r, 1000.0) - 2.0 * one).abs() < one * 1e-9 + 1e-9);
        prop_assert!((bdp_packets(c, 2.0 * r, 1000.0) - 2.0 * one).abs() < one * 1e-9 + 1e-9);
    }
}
