//! Sets of intervals with subsumption pruning.

use std::fmt;

use crate::Interval;

/// A set of closed intervals kept sorted by lower endpoint, with no interval
/// subsuming another.
///
/// This is the per-node label of the compressed closure: one *tree* interval
/// plus zero or more *non-tree* intervals (§3.2). Insertion implements the
/// paper's rule "at the time of adding an interval to the interval set
/// associated with a node, if one interval is subsumed by another, discard
/// the subsumed interval".
///
/// # Invariants
///
/// Because no member subsumes another, sorting by `lo` also strictly sorts by
/// `hi`; membership queries are therefore a single binary search.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted by `lo` ascending; `hi` is strictly ascending too.
    items: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding a single interval.
    pub fn singleton(iv: Interval) -> Self {
        IntervalSet { items: vec![iv] }
    }

    /// Number of intervals stored. The paper's storage metric is
    /// `2 * count()` (both endpoints of every interval).
    #[inline]
    pub fn count(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Storage units as counted in §3.3: "twice the number of intervals".
    #[inline]
    pub fn storage_units(&self) -> usize {
        2 * self.items.len()
    }

    /// Inserts an interval, discarding subsumed intervals per the paper's
    /// rule. Returns `true` if the set changed (i.e. the new interval was not
    /// already subsumed by an existing one).
    pub fn insert(&mut self, iv: Interval) -> bool {
        // Find the first existing interval with lo >= iv.lo.
        let pos = self.items.partition_point(|e| e.lo() < iv.lo());

        // An existing subsumer must have lo <= iv.lo, i.e. be at pos-1 …
        // except for the equal-lo case at `pos` itself.
        if pos > 0 && self.items[pos - 1].subsumes(iv) {
            return false;
        }
        if pos < self.items.len() && self.items[pos].subsumes(iv) {
            return false;
        }

        // Remove existing intervals subsumed by iv: they all have
        // lo >= iv.lo, so they form a prefix of items[pos..] (hi ascending).
        let end = pos
            + self.items[pos..]
                .iter()
                .take_while(|e| iv.subsumes(**e))
                .count();
        self.items.splice(pos..end, [iv]);
        debug_assert!(self.check_invariants());
        true
    }

    /// Unions `other` — intervals sorted by `lo`, not necessarily an
    /// antichain — into the set in one linear merge, discarding subsumed
    /// intervals. The result is exactly what inserting each interval of
    /// `other` in turn would leave: the maximal antichain of a family does
    /// not depend on insertion order. `tail` is scratch space.
    ///
    /// Members starting before `other[0]` can neither be subsumed by it nor
    /// move, so they stay in place; only the rest is re-merged, and once
    /// `other` is exhausted the surviving rest is copied back in one block.
    /// A union that only appends (the common case at a hub whose successors
    /// arrive in postorder) therefore costs O(log n + |other|).
    pub fn union_sorted(&mut self, other: &[Interval], tail: &mut Vec<Interval>) {
        debug_assert!(other.windows(2).all(|w| w[0].lo() <= w[1].lo()), "unsorted: {other:?}");
        // A leading run of `other` that members already subsume cannot
        // change the set; in a sweep that is most inherited intervals.
        let Some(skip) = other.iter().position(|&iv| !self.subsumes(iv)) else { return };
        let other = &other[skip..];
        let start = self.items.partition_point(|e| e.lo() < other[0].lo());
        tail.clear();
        tail.extend_from_slice(&self.items[start..]);
        self.items.truncate(start);
        let mut rest = &tail[..];
        for &iv in other {
            while let Some((&e, more)) = rest.split_first() {
                if e.lo() > iv.lo() {
                    break;
                }
                self.push_maximal(e);
                rest = more;
            }
            self.push_maximal(iv);
        }
        // `rest` is an antichain, so the members the last pushed interval
        // subsumes form a prefix, and everything after the first survivor
        // survives too.
        let last_hi = self.items.last().map(|l| l.hi());
        let skip = rest.partition_point(|e| last_hi.is_some_and(|hi| hi >= e.hi()));
        if let Some((&e, more)) = rest[skip..].split_first() {
            self.push_maximal(e);
            self.items.extend_from_slice(more);
        }
        debug_assert!(self.check_invariants());
    }

    /// Appends `iv` (whose `lo` is at least the last member's) unless the
    /// last member subsumes it; replaces that member when `iv` subsumes it,
    /// which with a nondecreasing `lo` needs an equal `lo`.
    #[inline]
    fn push_maximal(&mut self, iv: Interval) {
        match self.items.last_mut() {
            Some(last) if last.hi() >= iv.hi() => {}
            Some(last) if last.lo() == iv.lo() => *last = iv,
            _ => self.items.push(iv),
        }
    }

    /// Whether some interval contains `n` — the reachability test.
    #[inline]
    pub fn contains_point(&self, n: u64) -> bool {
        // Last interval with lo <= n; since hi is ascending, it is the only
        // candidate that could cover n.
        let pos = self.items.partition_point(|e| e.lo() <= n);
        pos > 0 && self.items[pos - 1].hi() >= n
    }

    /// Whether some *member* subsumes `iv` entirely (used by incremental
    /// update pruning: "if the new interval is subsumed by an interval
    /// already associated with the node, this interval need not be added").
    pub fn subsumes(&self, iv: Interval) -> bool {
        let pos = self.items.partition_point(|e| e.lo() <= iv.lo());
        pos > 0 && self.items[pos - 1].hi() >= iv.hi()
    }

    /// Iterates over the intervals in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Interval> + '_ {
        self.items.iter().copied()
    }

    /// Read-only view of the underlying sorted intervals.
    pub fn as_slice(&self) -> &[Interval] {
        &self.items
    }

    /// Inserts every interval of `other` into `self` (with subsumption
    /// pruning). Returns `true` if anything changed.
    pub fn insert_all(&mut self, other: &IntervalSet) -> bool {
        let mut changed = false;
        for iv in other.iter() {
            changed |= self.insert(iv);
        }
        changed
    }

    /// Merges adjacent and overlapping intervals in place (§3.2
    /// "Improvements": "if the two intervals `[i1,i2]` and `[j1,j2]` are such
    /// that j1 = i2 + 1, then create one `[i1,j2]`"). Returns the number of
    /// intervals eliminated.
    pub fn merge_adjacent(&mut self) -> usize {
        if self.items.len() < 2 {
            return 0;
        }
        let before = self.items.len();
        let mut merged: Vec<Interval> = Vec::with_capacity(before);
        for &iv in &self.items {
            match merged.last_mut() {
                Some(last) if last.mergeable(iv) => *last = last.merge(iv),
                _ => merged.push(iv),
            }
        }
        self.items = merged;
        debug_assert!(self.check_invariants());
        before - self.items.len()
    }

    /// Releases the spare capacity that growth left behind.
    pub fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
    }

    /// Removes all intervals, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Total count of integers covered by the set (the decoded successor
    /// count upper bound, before mapping numbers back to live nodes).
    pub fn covered(&self) -> u64 {
        self.items.iter().map(|iv| iv.width()).sum()
    }

    /// Validates the sorted / non-subsuming invariants.
    pub fn check_invariants(&self) -> bool {
        self.items.windows(2).all(|w| {
            w[0].lo() < w[1].lo() && w[0].hi() < w[1].hi()
        })
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut set = IntervalSet::new();
        for iv in iter {
            set.insert(iv);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = IntervalSet::new();
        assert!(s.insert(iv(10, 12)));
        assert!(s.insert(iv(1, 3)));
        assert!(s.insert(iv(5, 7)));
        assert_eq!(s.as_slice(), &[iv(1, 3), iv(5, 7), iv(10, 12)]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.storage_units(), 6);
    }

    #[test]
    fn subsumed_insert_is_rejected() {
        let mut s = IntervalSet::singleton(iv(1, 10));
        assert!(!s.insert(iv(3, 7)));
        assert!(!s.insert(iv(1, 10)), "duplicate is subsumed by itself");
        assert!(!s.insert(iv(1, 5)));
        assert!(!s.insert(iv(5, 10)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn inserting_subsumer_removes_subsumed() {
        let mut s: IntervalSet = [iv(2, 3), iv(5, 6), iv(8, 9)].into_iter().collect();
        assert!(s.insert(iv(1, 7)));
        assert_eq!(s.as_slice(), &[iv(1, 7), iv(8, 9)]);
    }

    #[test]
    fn equal_lo_cases() {
        let mut s = IntervalSet::singleton(iv(5, 6));
        assert!(s.insert(iv(5, 9)), "wider interval with equal lo replaces");
        assert_eq!(s.as_slice(), &[iv(5, 9)]);
        assert!(!s.insert(iv(5, 7)), "narrower with equal lo rejected");
    }

    #[test]
    fn overlapping_non_nested_both_kept() {
        let mut s = IntervalSet::singleton(iv(1, 5));
        assert!(s.insert(iv(4, 9)));
        assert_eq!(s.count(), 2);
        assert!(s.check_invariants());
    }

    #[test]
    fn contains_point_binary_search() {
        let s: IntervalSet = [iv(1, 3), iv(7, 9), iv(20, 20)].into_iter().collect();
        for n in [1, 2, 3, 7, 9, 20] {
            assert!(s.contains_point(n), "{n} should be covered");
        }
        for n in [0, 4, 6, 10, 19, 21] {
            assert!(!s.contains_point(n), "{n} should not be covered");
        }
        assert!(!IntervalSet::new().contains_point(5));
    }

    #[test]
    fn set_subsumes_query() {
        let s: IntervalSet = [iv(1, 5), iv(8, 12)].into_iter().collect();
        assert!(s.subsumes(iv(2, 4)));
        assert!(s.subsumes(iv(8, 12)));
        assert!(!s.subsumes(iv(4, 9)));
        assert!(!s.subsumes(iv(13, 14)));
    }

    #[test]
    fn merge_adjacent_coalesces() {
        let mut s: IntervalSet = [iv(1, 3), iv(4, 6), iv(8, 9)].into_iter().collect();
        assert_eq!(s.merge_adjacent(), 1);
        assert_eq!(s.as_slice(), &[iv(1, 6), iv(8, 9)]);
        assert_eq!(s.merge_adjacent(), 0, "idempotent");
    }

    #[test]
    fn merge_adjacent_chains() {
        let mut s: IntervalSet = [iv(1, 1), iv(2, 2), iv(3, 3), iv(4, 4)].into_iter().collect();
        assert_eq!(s.merge_adjacent(), 3);
        assert_eq!(s.as_slice(), &[iv(1, 4)]);
    }

    #[test]
    fn merge_adjacent_merges_overlaps_too() {
        // Overlapping intervals can arise after merging (§3.2: "It now
        // becomes possible to generate overlapping intervals: merge two
        // intervals ... if i1 <= j1 <= i2 <= j2").
        let mut s: IntervalSet = [iv(1, 5), iv(4, 9)].into_iter().collect();
        assert_eq!(s.merge_adjacent(), 1);
        assert_eq!(s.as_slice(), &[iv(1, 9)]);
    }

    #[test]
    fn insert_all_unions() {
        let mut a: IntervalSet = [iv(1, 3)].into_iter().collect();
        let b: IntervalSet = [iv(2, 2), iv(5, 6)].into_iter().collect();
        assert!(a.insert_all(&b));
        assert_eq!(a.as_slice(), &[iv(1, 3), iv(5, 6)]);
        assert!(!a.insert_all(&b), "second union is a no-op");
    }

    #[test]
    fn union_sorted_merges_like_insert() {
        let mut tail = Vec::new();
        let mut s: IntervalSet = [iv(1, 3), iv(5, 7), iv(10, 12)].into_iter().collect();
        // Equal lo in either order, a subsumer of a member, a duplicate.
        s.union_sorted(&[iv(5, 6), iv(5, 9), iv(10, 12), iv(11, 20)], &mut tail);
        assert_eq!(s.as_slice(), &[iv(1, 3), iv(5, 9), iv(10, 12), iv(11, 20)]);
        // Appending past the end leaves the prefix alone.
        s.union_sorted(&[iv(30, 31), iv(40, 40)], &mut tail);
        assert_eq!(s.count(), 6);
        // A wide interval swallows a run in the middle; the rest survives.
        s.union_sorted(&[iv(4, 25)], &mut tail);
        assert_eq!(s.as_slice(), &[iv(1, 3), iv(4, 25), iv(30, 31), iv(40, 40)]);
        s.union_sorted(&[], &mut tail);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn covered_counts_integers() {
        let s: IntervalSet = [iv(1, 3), iv(10, 10)].into_iter().collect();
        assert_eq!(s.covered(), 4);
    }

    #[test]
    fn display() {
        let s: IntervalSet = [iv(1, 3), iv(5, 5)].into_iter().collect();
        assert_eq!(s.to_string(), "{[1,3] [5,5]}");
    }

    #[test]
    fn clear_empties() {
        let mut s = IntervalSet::singleton(iv(1, 2));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.storage_units(), 0);
    }
}
