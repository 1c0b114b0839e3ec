//! Streaming summary statistics (Welford's online algorithm) — used by the
//! experiment harness to report means and dispersion without storing
//! every sample.

/// Online mean / variance / min / max accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one sample.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "sample must be finite");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (`None` with fewer than two samples).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // Population variance 4 → sample variance 32/7.
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_yields_none() {
        let s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn single_sample_has_no_variance() {
        let mut s = Summary::new();
        s.add(3.0);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        let mut s = Summary::new();
        for i in 0..1000 {
            s.add(1e9 + (i % 2) as f64);
        }
        assert!((s.variance().unwrap() - 0.2502502502).abs() < 1e-6);
    }
}
