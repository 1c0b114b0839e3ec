//! Time-indexed sample series with interpolation-free lookup — used to ask
//! "what was the queue length when this false positive fired?" (Figure 4)
//! and to build the aggregate-throughput traces of Figure 12.

/// A series of `(time, value)` samples, appended in non-decreasing time
/// order.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous sample.
    pub fn push(&mut self, t: f64, v: f64) {
        assert!(t.is_finite() && v.is_finite());
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "samples must be time-ordered");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The value in force at time `t`: the most recent sample at or before
    /// `t` (step interpolation). `None` before the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            None
        } else {
            Some(self.values[idx - 1])
        }
    }

    /// Mean of the values sampled in `[from, to]`.
    pub fn mean_in(&self, from: f64, to: f64) -> Option<f64> {
        let lo = self.times.partition_point(|&x| x < from);
        let hi = self.times.partition_point(|&x| x <= to);
        if hi <= lo {
            return None;
        }
        Some(self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64)
    }

    /// Iterate `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new();
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        s.push(4.0, 40.0);
        s
    }

    #[test]
    fn step_lookup_semantics() {
        let s = series();
        assert_eq!(s.value_at(0.5), None);
        assert_eq!(s.value_at(1.0), Some(10.0));
        assert_eq!(s.value_at(1.9), Some(10.0));
        assert_eq!(s.value_at(3.0), Some(20.0));
        assert_eq!(s.value_at(100.0), Some(40.0));
    }

    #[test]
    fn windowed_mean_and_max() {
        let s = series();
        assert_eq!(s.mean_in(1.0, 2.0), Some(15.0));
        assert_eq!(s.mean_in(5.0, 6.0), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut s = series();
        s.push(3.0, 0.0);
    }

    #[test]
    fn iteration_preserves_pairs() {
        let s = series();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(1.0, 10.0), (2.0, 20.0), (4.0, 40.0)]);
    }
}
