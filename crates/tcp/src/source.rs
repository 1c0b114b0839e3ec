//! Traffic sources: what a sender transmits and when.
//!
//! A [`Source`] feeds a TCP sender ([`crate::sender`]) a sequence of
//! transfers separated by think times. [`Greedy`] models the paper's
//! "long-term" (FTP) flows; finite and on/off sources underpin the
//! web-session workload built in the `workload` crate.

use rand::rngs::SmallRng;

/// The next thing a sender should transmit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transfer {
    /// Idle (think) time before the transfer begins, seconds.
    pub think_secs: f64,
    /// Transfer length in segments.
    pub segments: u64,
}

/// Supplies a sender with successive transfers.
pub trait Source: Send {
    /// Called at start-up and whenever the previous transfer completes.
    /// `None` ends the flow permanently.
    fn next_transfer(&mut self, rng: &mut SmallRng) -> Option<Transfer>;
}

/// An infinite transfer: the long-lived FTP flow of the evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl Source for Greedy {
    fn next_transfer(&mut self, _rng: &mut SmallRng) -> Option<Transfer> {
        Some(Transfer {
            think_secs: 0.0,
            segments: u64::MAX / 2, // effectively unbounded
        })
    }
}

/// A single fixed-size transfer, then silence.
#[derive(Clone, Copy, Debug)]
pub struct Finite {
    remaining: Option<u64>,
}

impl Finite {
    /// Transfer exactly `segments` segments once.
    pub fn new(segments: u64) -> Self {
        assert!(segments > 0, "transfer must be non-empty");
        Finite {
            remaining: Some(segments),
        }
    }
}

impl Source for Finite {
    fn next_transfer(&mut self, _rng: &mut SmallRng) -> Option<Transfer> {
        self.remaining.take().map(|segments| Transfer {
            think_secs: 0.0,
            segments,
        })
    }
}

/// A source driven by a boxed closure — used by the `workload` crate to
/// express web sessions (Pareto object sizes, exponential think times)
/// without a circular crate dependency.
pub struct FnSource<F>(pub F);

impl<F> Source for FnSource<F>
where
    F: FnMut(&mut SmallRng) -> Option<Transfer> + Send,
{
    fn next_transfer(&mut self, rng: &mut SmallRng) -> Option<Transfer> {
        (self.0)(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn greedy_never_ends() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = Greedy;
        for _ in 0..3 {
            let t = g.next_transfer(&mut rng).unwrap();
            assert_eq!(t.think_secs, 0.0);
            assert!(t.segments > u64::MAX / 4);
        }
    }

    #[test]
    fn finite_yields_once() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut f = Finite::new(50);
        assert_eq!(
            f.next_transfer(&mut rng),
            Some(Transfer {
                think_secs: 0.0,
                segments: 50
            })
        );
        assert_eq!(f.next_transfer(&mut rng), None);
    }

    #[test]
    fn fn_source_delegates() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut calls = 0;
        let mut s = FnSource(move |_rng: &mut SmallRng| {
            calls += 1;
            if calls <= 2 {
                Some(Transfer {
                    think_secs: 1.0,
                    segments: calls,
                })
            } else {
                None
            }
        });
        assert_eq!(s.next_transfer(&mut rng).unwrap().segments, 1);
        assert_eq!(s.next_transfer(&mut rng).unwrap().segments, 2);
        assert_eq!(s.next_transfer(&mut rng), None);
    }
}
