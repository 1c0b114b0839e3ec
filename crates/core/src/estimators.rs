//! RTT smoothing primitives.
//!
//! §2.4 of the paper compares congestion signals built from the same raw
//! per-ACK RTT samples: the instantaneous signal, a windowed moving average
//! sized to the bottleneck buffer, and exponentially weighted moving
//! averages with history weights 7/8 (TCP's RTO filter) and 0.99 (the
//! signal PERT adopts, written `srtt_0.99`).

use std::collections::VecDeque;

/// Exponentially weighted moving average:
/// `s ← α·s + (1 − α)·x` with history weight `α`.
///
/// `alpha = 0.99` gives the paper's `srtt_0.99`; `alpha = 7/8` gives the
/// classic TCP RTO smoother.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with history weight `alpha ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0,1)");
        Ewma { alpha, value: None }
    }

    /// The paper's `srtt_0.99` smoother.
    pub fn srtt_099() -> Self {
        Ewma::new(0.99)
    }

    /// Fold in a sample; the first sample initializes the filter.
    /// Returns the updated smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(s) => self.alpha * s + (1.0 - self.alpha) * x,
        };
        self.value = Some(v);
        v
    }

    /// The current smoothed value, if any sample has been folded in.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Fixed-window moving average over the last `window` samples
/// (the paper sizes it to the bottleneck buffer, 750 packets).
#[derive(Clone, Debug)]
pub struct MovingAverage {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Create with the given window length.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MovingAverage {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Fold in a sample and return the current mean.
    pub fn update(&mut self, x: f64) -> f64 {
        if self.buf.len() == self.window {
            self.sum -= self.buf.pop_front().expect("window non-empty");
        }
        self.buf.push_back(x);
        self.sum += x;
        self.mean().expect("just pushed")
    }

    /// Current mean, if any samples are present.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no samples have been folded in.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Running minimum (the flow's propagation-delay estimate `P`, taken as the
/// minimum observed RTT) and maximum (used by the DUAL predictor).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinMax {
    min: Option<f64>,
    max: Option<f64>,
}

impl MinMax {
    /// Create empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in a sample.
    pub fn update(&mut self, x: f64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Smallest sample seen.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Midpoint `(min + max)/2`, DUAL's threshold.
    pub fn midpoint(&self) -> Option<f64> {
        Some((self.min? + self.max?) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::srtt_099();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(0.1), 0.1);
        assert_eq!(e.value(), Some(0.1));
    }

    #[test]
    fn ewma_heavy_history_moves_slowly() {
        let mut e = Ewma::new(0.99);
        e.update(100.0);
        e.update(0.0);
        // One zero sample moves the estimate by only 1%.
        assert!((e.value().unwrap() - 99.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.9);
        e.update(0.0);
        for _ in 0..500 {
            e.update(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1)")]
    fn ewma_rejects_alpha_one() {
        let _ = Ewma::new(1.0);
    }

    #[test]
    fn moving_average_window_slides() {
        let mut m = MovingAverage::new(3);
        assert_eq!(m.update(1.0), 1.0);
        assert_eq!(m.update(2.0), 1.5);
        assert_eq!(m.update(3.0), 2.0);
        // Window full: 1.0 falls out.
        assert_eq!(m.update(4.0), 3.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn moving_average_handles_long_streams_stably() {
        let mut m = MovingAverage::new(100);
        for i in 0..10_000 {
            m.update((i % 7) as f64);
        }
        // Mean of 0..6 repeating is 3 (window is a multiple of 7 wrt drift);
        // just check it stays in range — guards against sum drift.
        let mean = m.mean().unwrap();
        assert!((0.0..=6.0).contains(&mean));
    }

    #[test]
    fn minmax_tracks_extremes_and_midpoint() {
        let mut mm = MinMax::new();
        assert_eq!(mm.midpoint(), None);
        for &x in &[0.05, 0.03, 0.09, 0.04] {
            mm.update(x);
        }
        assert_eq!(mm.min(), Some(0.03));
        assert_eq!(mm.max(), Some(0.09));
        assert!((mm.midpoint().unwrap() - 0.06).abs() < 1e-12);
    }
}
