//! A set of disjoint half-open `u64` intervals with O(log n) insertion and
//! merging — the receiver's out-of-order store and the basis of efficient
//! SACK-block generation.

use std::collections::BTreeMap;

use pert_core::audit;

/// Differential shadow: the same set held as a plain `BTreeSet<u64>`,
/// the obviously-correct O(n) structure the interval map optimizes.
/// Attached at construction when audited; every mutation is
/// replayed on it and cheap invariants compared per-op, with a full
/// structural comparison every 64th operation.
#[derive(Clone, Debug, Default)]
struct Shadow {
    set: std::collections::BTreeSet<u64>,
    ops: u64,
}

/// Disjoint, maximally-merged set of half-open intervals `[start, end)`.
#[derive(Clone, Debug)]
pub struct IntervalSet {
    /// start → end, disjoint and non-adjacent.
    map: BTreeMap<u64, u64>,
    len: u64,
    shadow: Option<Box<Shadow>>,
}

impl IntervalSet {
    /// Empty set, shadowed when `audited`.
    pub fn new(audited: bool) -> Self {
        IntervalSet {
            map: BTreeMap::new(),
            len: 0,
            shadow: audited.then(Box::<Shadow>::default),
        }
    }

    /// Number of integers covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of disjoint intervals.
    pub fn interval_count(&self) -> usize {
        self.map.len()
    }

    /// True if `x` is covered.
    pub fn contains(&self, x: u64) -> bool {
        self.map
            .range(..=x)
            .next_back()
            .is_some_and(|(_, &end)| x < end)
    }

    /// Insert the single integer `x`, merging with neighbours.
    /// Returns the (possibly merged) containing interval, and whether `x`
    /// was newly added (`false` = duplicate).
    pub fn insert(&mut self, x: u64) -> ((u64, u64), bool) {
        let res = self.insert_inner(x);
        self.shadow_check_insert(x, res);
        res
    }

    fn insert_inner(&mut self, x: u64) -> ((u64, u64), bool) {
        // Find a predecessor interval that touches or covers x.
        let mut start = x;
        let mut end = x + 1;
        if let Some((&s, &e)) = self.map.range(..=x).next_back() {
            if x < e {
                return ((s, e), false); // already covered
            }
            if e == x {
                // adjacent on the left: merge
                start = s;
                self.map.remove(&s);
            }
        }
        // Successor interval adjacent on the right?
        if let Some((&s, &e)) = self.map.range(x + 1..).next() {
            if s == x + 1 {
                end = e;
                self.map.remove(&s);
            }
        }
        self.map.insert(start, end);
        self.len += 1;
        ((start, end), true)
    }

    /// Remove everything below `cut` (exclusive upper bound `cut`).
    pub fn remove_below(&mut self, cut: u64) {
        // Intervals fully below cut: remove; one straddling: trim.
        let to_remove: Vec<u64> = self.map.range(..cut).map(|(&s, _)| s).collect();
        for s in to_remove {
            let e = self.map.remove(&s).expect("present");
            if e > cut {
                self.map.insert(cut, e);
                self.len -= cut - s;
            } else {
                self.len -= e - s;
            }
        }
        self.shadow_check_remove_below(cut);
    }

    fn shadow_check_insert(&mut self, x: u64, ((start, end), fresh): ((u64, u64), bool)) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        let naive_fresh = shadow.set.insert(x);
        shadow.ops += 1;
        let structural = shadow.ops.is_multiple_of(64);
        let naive_len = shadow.set.len() as u64;
        audit::count_tcp_checks(1);
        if naive_fresh != fresh || self.len != naive_len || !(start <= x && x < end) {
            audit::violation(
                "interval-set",
                format_args!(
                    "insert({x}) diverged from the BTreeSet shadow: \
                     fresh={fresh} naive={naive_fresh}, len={} naive={naive_len}, \
                     interval=[{start},{end})",
                    self.len,
                ),
            );
        }
        if structural {
            self.verify_structure();
        }
    }

    fn shadow_check_remove_below(&mut self, cut: u64) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        shadow.set = shadow.set.split_off(&cut);
        shadow.ops += 1;
        let structural = shadow.ops.is_multiple_of(64);
        let naive_len = shadow.set.len() as u64;
        audit::count_tcp_checks(1);
        if self.len != naive_len {
            audit::violation(
                "interval-set",
                format_args!(
                    "remove_below({cut}) diverged from the BTreeSet shadow: \
                     len={} naive={naive_len}",
                    self.len,
                ),
            );
        }
        if structural {
            self.verify_structure();
        }
    }

    /// Full structural comparison: rebuild maximal runs from the shadow
    /// and demand the interval map matches exactly.
    fn verify_structure(&self) {
        let Some(shadow) = &self.shadow else { return };
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &v in &shadow.set {
            match runs.last_mut() {
                Some((_, end)) if *end == v => *end = v + 1,
                _ => runs.push((v, v + 1)),
            }
        }
        let ours: Vec<(u64, u64)> = self.iter().collect();
        audit::count_tcp_checks(1);
        if ours != runs {
            audit::violation(
                "interval-set",
                format_args!(
                    "intervals diverged from the BTreeSet shadow: \
                     ours={ours:?} naive={runs:?}"
                ),
            );
        }
    }

    /// The first (lowest) interval.
    pub fn first(&self) -> Option<(u64, u64)> {
        self.map.iter().next().map(|(&s, &e)| (s, e))
    }

    /// The last (highest) interval.
    pub fn last(&self) -> Option<(u64, u64)> {
        self.map.iter().next_back().map(|(&s, &e)| (s, e))
    }

    /// Iterate all intervals in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&s, &e)| (s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_merge_adjacent_runs() {
        let mut s = IntervalSet::new(true);
        assert_eq!(s.insert(5), ((5, 6), true));
        assert_eq!(s.insert(7), ((7, 8), true));
        assert_eq!(s.interval_count(), 2);
        // 6 bridges them.
        assert_eq!(s.insert(6), ((5, 8), true));
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_insert_reports_existing_interval() {
        let mut s = IntervalSet::new(true);
        s.insert(3);
        s.insert(4);
        let ((a, b), fresh) = s.insert(3);
        assert!(!fresh);
        assert_eq!((a, b), (3, 5));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contains_checks_coverage() {
        let mut s = IntervalSet::new(true);
        for x in [1u64, 2, 3, 10] {
            s.insert(x);
        }
        assert!(s.contains(2));
        assert!(!s.contains(4));
        assert!(s.contains(10));
        assert!(!s.contains(0));
    }

    #[test]
    fn remove_below_trims_straddlers() {
        let mut s = IntervalSet::new(true);
        for x in 0..10u64 {
            s.insert(x);
        }
        s.insert(20);
        s.remove_below(5);
        assert_eq!(s.first(), Some((5, 10)));
        assert_eq!(s.len(), 6);
        s.remove_below(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn first_and_last() {
        let mut s = IntervalSet::new(true);
        s.insert(100);
        s.insert(3);
        s.insert(4);
        assert_eq!(s.first(), Some((3, 5)));
        assert_eq!(s.last(), Some((100, 101)));
    }

    #[test]
    fn many_random_inserts_stay_consistent() {
        let mut s = IntervalSet::new(true);
        let mut naive = std::collections::BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 500;
            s.insert(v);
            naive.insert(v);
        }
        assert_eq!(s.len() as usize, naive.len());
        for v in 0..500u64 {
            assert_eq!(s.contains(v), naive.contains(&v), "mismatch at {v}");
        }
        // Intervals are disjoint, sorted and maximal.
        let ints: Vec<_> = s.iter().collect();
        for w in ints.windows(2) {
            assert!(w[0].1 < w[1].0, "overlap/adjacency: {w:?}");
        }
    }
}
