//! The harness's own arithmetic: order statistics, paired ratios and the
//! spread measures the noise guard and `pert-bench aa` print.

/// Order statistics of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the benchmark contract bounds.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so what `aa` prints is what the contract's
/// checker computes. One sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs a sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let q = |i: usize| -> f64 {
        if len == 1 {
            return v[0];
        }
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: len,
        min: v[0],
        q1: q(1),
        median: q(2),
        q3: q(3),
        max: v[len - 1],
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// Per-round ratios of a derived workload to its base: `derived[r] /
/// base[r]`, both taken from adjacent runs of round `r`. Which of the
/// two ran first alternates between rounds, so a host that speeds up or
/// slows down across a pair pushes half the ratios up and half down and
/// the median stays put.
pub fn paired_ratios(derived: &[f64], base: &[f64]) -> Vec<f64> {
    derived.iter().zip(base).map(|(d, b)| d / b).collect()
}

/// A base workload has nothing to be divided by, so its `*_vs_base` is
/// the same statistic run on itself: consecutive timed runs `(2k, 2k+1)`
/// form a pair and the later one plays "derived" on even `k`, the
/// earlier one on odd `k`. It reads 1 up to the noise floor of the
/// pairing method on this host, which is what a derived workload's ratio
/// has to clear. With fewer than two runs it is exactly 1.
pub fn self_ratios(values: &[f64]) -> Vec<f64> {
    values
        .chunks_exact(2)
        .enumerate()
        .map(|(k, p)| if k % 2 == 0 { p[1] / p[0] } else { p[0] / p[1] })
        .collect()
}

/// Relative disagreement of two medians, against the first.
pub fn disagreement(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

/// 64-bit FNV-1a, the digest the correctness checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer (little-endian) into the digest.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[4.0, 4.0, 4.0]).iqr_share(), 0.0);
    }

    #[test]
    fn paired_ratio_median_survives_a_drifting_host() {
        // True ratio 1.2, and the host runs the second half of every pair
        // 10 % slower than the first.
        let slow = 1.1;
        let (mut derived, mut base) = (Vec::new(), Vec::new());
        for round in 0..6 {
            if round % 2 == 0 {
                base.push(10.0);
                derived.push(12.0 * slow);
            } else {
                derived.push(12.0);
                base.push(10.0 * slow);
            }
        }
        // Swapped, half the rounds read 1.32 and half 1.09; the median
        // lands within 1 % of the truth. Never swapped, all read 1.32.
        assert!((median(&paired_ratios(&derived, &base)) - 1.2).abs() < 0.012);
        let unswapped = paired_ratios(&[12.0 * slow; 6], &[10.0; 6]);
        assert!((median(&unswapped) - 1.32).abs() < 1e-12);
    }

    #[test]
    fn self_ratio_alternates_direction_and_reads_one_on_a_steady_host() {
        assert_eq!(self_ratios(&[2.0, 2.0, 2.0, 2.0, 2.0]), vec![1.0, 1.0]);
        // A monotone drift cancels: 1.1 then 1/1.1.
        let r = self_ratios(&[1.0, 1.1, 1.21, 1.331]);
        assert!((r[0] - 1.1).abs() < 1e-12 && (r[1] - 1.0 / 1.1).abs() < 1e-12);
        assert!(self_ratios(&[3.0]).is_empty());
    }

    #[test]
    fn cv_and_disagreement() {
        assert_eq!(cv(&[5.0]), 0.0);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert!((disagreement(2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!((disagreement(2.0, 1.9) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Published FNV-1a test vectors.
        let mut h = Fnv::default();
        assert_eq!(h.0, 0xcbf29ce484222325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }
}
