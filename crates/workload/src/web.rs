//! The web-session traffic model (paper §4.4: "parameters chosen based on
//! the guidelines in \[11\]" — Feldmann et al., *Dynamics of IP traffic*).
//!
//! Each session is an on/off source: it downloads a *page* (heavy-tailed,
//! Pareto with tail index 1.2, mean 12 kB — the well-documented web-object
//! regime), thinks for an exponentially distributed period (mean 1 s), and
//! repeats. Pages ride the session's single TCP connection, restarting
//! from a fresh initial window (modelling successive short connections of
//! the same user).

use pert_tcp::{Source, Transfer};
use rand::rngs::SmallRng;

use crate::dist::{Exponential, Pareto};

/// Parameters of a web session.
#[derive(Clone, Copy, Debug)]
pub struct WebParams {
    /// Pareto tail index of the page size (default 1.2).
    pub page_shape: f64,
    /// Mean page size in segments (default 12 ≈ 12 kB with 1 kB segments).
    pub page_mean_segments: f64,
    /// Cap on a single page, segments (keeps one monster page from
    /// occupying the whole run; default 10 000).
    pub page_cap_segments: u64,
    /// Mean exponential think time between pages, seconds (default 1.0).
    pub think_mean_secs: f64,
}

impl Default for WebParams {
    fn default() -> Self {
        WebParams {
            page_shape: 1.2,
            page_mean_segments: 12.0,
            page_cap_segments: 10_000,
            think_mean_secs: 1.0,
        }
    }
}

/// An endless think/download web session (implements
/// [`pert_tcp::Source`]).
#[derive(Clone, Debug)]
pub struct WebSession {
    pages: Pareto,
    think: Exponential,
    cap: u64,
    pages_generated: u64,
}

impl WebSession {
    /// Create from `params`.
    pub fn new(params: WebParams) -> Self {
        WebSession {
            pages: Pareto::with_mean(params.page_mean_segments, params.page_shape),
            think: Exponential::new(params.think_mean_secs),
            cap: params.page_cap_segments,
            pages_generated: 0,
        }
    }

    /// Pages generated so far.
    pub fn pages_generated(&self) -> u64 {
        self.pages_generated
    }
}

impl Source for WebSession {
    fn next_transfer(&mut self, rng: &mut SmallRng) -> Option<Transfer> {
        let think_secs = self.think.sample(rng);
        let raw = self.pages.sample(rng).ceil() as u64;
        let segments = raw.clamp(1, self.cap);
        self.pages_generated += 1;
        Some(Transfer {
            think_secs,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pages_are_positive_and_capped() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = WebSession::new(WebParams {
            page_cap_segments: 100,
            ..Default::default()
        });
        for _ in 0..10_000 {
            let t = s.next_transfer(&mut rng).unwrap();
            assert!(t.segments >= 1 && t.segments <= 100);
            assert!(t.think_secs > 0.0);
        }
        assert_eq!(s.pages_generated(), 10_000);
    }

    #[test]
    fn mean_page_size_in_the_right_ballpark() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut s = WebSession::new(WebParams::default());
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| s.next_transfer(&mut rng).unwrap().segments)
            .sum();
        let mean = total as f64 / n as f64;
        // Pareto(1.2) sample means converge slowly; accept a broad band
        // around the configured 12 segments (+1 for the ceil).
        assert!((8.0..25.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn think_times_average_to_configured_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = WebSession::new(WebParams::default());
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| s.next_transfer(&mut rng).unwrap().think_secs)
            .sum();
        assert!((total / n as f64 - 1.0).abs() < 0.05);
    }

    #[test]
    fn session_never_ends() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut s = WebSession::new(WebParams::default());
        assert!((0..1000).all(|_| s.next_transfer(&mut rng).is_some()));
    }
}
