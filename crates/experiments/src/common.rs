//! Shared experiment plumbing: scale presets and number formatting.
//! (Table rendering lives in [`crate::report`] — scenarios build typed
//! tables instead of printing.)

/// How big to run an experiment.
///
/// The paper simulates 400 s (measuring 100–300 s) on sweeps up to 1 Gbps
/// and 1000 flows; that is minutes of wall-clock per point in this
/// simulator. The presets trade sweep breadth and window length for
/// turnaround while preserving every qualitative comparison:
///
/// * `Quick` — seconds; used by the claims test and the benchmark.
/// * `Standard` — the default for `cargo run -p experiments`; minutes for
///   the whole suite.
/// * `Full` — the paper's durations and sweep extents (`--full`).
///
/// Scales are ordered `Quick < Standard < Full`; a claim the paper makes
/// only at its own scale is checked at `scale >= Scale::Standard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// Tiny: for tests/benches.
    Quick,
    /// Default: full qualitative reproduction, reduced durations.
    Standard,
    /// Paper-scale durations and sweeps.
    Full,
}

impl Scale {
    /// Warm-up seconds before the measurement window.
    pub fn warmup(self) -> f64 {
        match self {
            Scale::Quick => 5.0,
            Scale::Standard => 30.0,
            Scale::Full => 100.0,
        }
    }

    /// End of the measurement window (absolute seconds).
    pub fn end(self) -> f64 {
        match self {
            Scale::Quick => 15.0,
            Scale::Standard => 90.0,
            Scale::Full => 300.0,
        }
    }

    /// Window for random flow-start staggering.
    pub fn start_window(self) -> f64 {
        match self {
            Scale::Quick => 2.0,
            Scale::Standard => 10.0,
            Scale::Full => 50.0,
        }
    }
}

/// Format a floating-point cell compactly (3 significant-ish digits).
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else if x.abs() >= 0.001 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.end() < Scale::Standard.end());
        assert!(Scale::Standard.end() < Scale::Full.end());
        assert!(Scale::Quick.warmup() < Scale::Quick.end());
        assert!(Scale::Full.warmup() < Scale::Full.end());
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(3.17159), "3.17");
        assert_eq!(fmt(0.0123), "0.0123");
        assert_eq!(fmt(1.0e-6), "1.00e-6");
    }
}
