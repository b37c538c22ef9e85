//! Property tests for interval sets and the number line.

use proptest::prelude::*;
use tc_interval::{Interval, IntervalSet, NumberLine, RankIndex};

proptest! {
    /// An interval set behaves exactly like the union of its inputs under
    /// any insertion order (set semantics despite subsumption pruning).
    #[test]
    fn insertion_order_is_irrelevant(
        mut ivs in proptest::collection::vec((0u64..100, 0u64..30), 1..25),
        rotate in 0usize..25,
    ) {
        let a: IntervalSet = ivs.iter().map(|&(lo, w)| Interval::new(lo, lo + w)).collect();
        let r = rotate % ivs.len();
        ivs.rotate_left(r);
        let b: IntervalSet = ivs.iter().map(|&(lo, w)| Interval::new(lo, lo + w)).collect();
        for p in 0..140 {
            prop_assert_eq!(a.contains_point(p), b.contains_point(p), "point {}", p);
        }
    }

    /// `subsumes` agrees with full containment of the interval's points.
    #[test]
    fn set_subsumes_matches_pointwise(
        ivs in proptest::collection::vec((0u64..60, 0u64..20), 0..15),
        probe in (0u64..80, 0u64..20),
    ) {
        let set: IntervalSet = ivs.iter().map(|&(lo, w)| Interval::new(lo, lo + w)).collect();
        let probe = Interval::new(probe.0, probe.0 + probe.1);
        if set.subsumes(probe) {
            // Subsumption is single-member containment, stronger than
            // point coverage; verify the implied coverage.
            for p in probe.lo()..=probe.hi() {
                prop_assert!(set.contains_point(p));
            }
        }
    }

    /// The number line's prev/next/max agree with a sorted model.
    #[test]
    fn number_line_matches_model(
        nums in proptest::collection::btree_set(0u64..1000, 1..40),
        probes in proptest::collection::vec(0u64..1100, 10),
    ) {
        let mut line = NumberLine::new();
        for (ix, &n) in nums.iter().enumerate() {
            line.assign(n, ix as u32);
        }
        let model: Vec<u64> = nums.iter().copied().collect();
        prop_assert_eq!(line.max_used(), model.last().copied());
        for &p in &probes {
            let prev = model.iter().rev().find(|&&m| m < p).copied();
            let next = model.iter().find(|&&m| m > p).copied();
            prop_assert_eq!(line.prev_used(p), prev, "prev of {}", p);
            prop_assert_eq!(line.next_used(p), next, "next of {}", p);
        }
        prop_assert_eq!(line.live_count(), model.len());
    }

    /// Tombstoning keeps positions occupied but removes them from decoding;
    /// a renumber plan then drops them while preserving relative order.
    #[test]
    fn tombstone_then_renumber(
        nums in proptest::collection::btree_set(0u64..500, 2..30),
        kill_ix in 0usize..30,
        gap in 1u64..50,
    ) {
        let mut line = NumberLine::new();
        for (ix, &n) in nums.iter().enumerate() {
            line.assign(n, ix as u32);
        }
        let model: Vec<u64> = nums.iter().copied().collect();
        let victim = model[kill_ix % model.len()];
        line.tombstone(victim);
        prop_assert!(line.is_used(victim));
        prop_assert_eq!(line.node_at(victim), None);
        prop_assert_eq!(line.live_count(), model.len() - 1);

        let plan = line.renumber_plan(gap);
        prop_assert_eq!(plan.map_used(victim), None, "tombstones leave the plan");
        let fresh = line.apply_plan(&plan);
        prop_assert_eq!(fresh.live_count(), model.len() - 1);
        prop_assert_eq!(fresh.total_count(), model.len() - 1);
        // Order preservation: survivors map to ascending new numbers.
        let mut last_new = 0u64;
        for &old in model.iter().filter(|&&m| m != victim) {
            let new = plan.map_used(old).unwrap();
            prop_assert!(new > last_new);
            last_new = new;
        }
    }

    /// Midpoint allocation always lands strictly inside an empty region.
    #[test]
    fn midpoint_is_interior(lo in 0u64..1000, width in 0u64..100) {
        let line = NumberLine::new();
        let hi = lo + width;
        prop_assume!(lo < hi);
        match line.midpoint_in(lo, hi) {
            Some(mid) => {
                prop_assert!(lo < mid && mid < hi);
            }
            None => prop_assert!(hi - lo < 2),
        }
    }
}

/// `lower`/`upper` against `partition_point` on `nums`, at every number,
/// its neighbours, the extremes of the key space, and `extra`.
fn check_ranks(nums: &[u64], extra: &[u64]) {
    let index = RankIndex::new(nums.to_vec());
    let probes = nums
        .iter()
        .flat_map(|&x| [x.saturating_sub(1), x, x.saturating_add(1)])
        .chain([0, 1, u64::MAX - 1, u64::MAX])
        .chain(extra.iter().copied());
    for t in probes {
        assert_eq!(index.lower(t), nums.partition_point(|&x| x < t), "lower({t}) on {nums:?}");
        assert_eq!(index.upper(t), nums.partition_point(|&x| x <= t), "upper({t}) on {nums:?}");
    }
}

#[test]
fn rank_index_edge_lines() {
    check_ranks(&[], &[7]);
    check_ranks(&[0], &[]);
    check_ranks(&[5], &[]);
    check_ranks(&[u64::MAX], &[1 << 63]);
    check_ranks(&[0, u64::MAX], &[1 << 32, 1 << 63]);
    check_ranks(&[0, 1, 2, 3, u64::MAX - 1, u64::MAX], &[1 << 40]);
    check_ranks(&[10, 20, 30, 1 << 50, (1 << 50) + 1], &[1 << 49, 25]);
}

/// The sorted antichain `insert` leaves for `ivs`, as intervals.
fn antichain(ivs: &[(u64, u64)]) -> IntervalSet {
    ivs.iter().map(|&(lo, w)| Interval::new(lo, lo + w)).collect()
}

proptest! {
    /// The bucketed rank index against `partition_point` on random
    /// strictly increasing lines: dense runs, gapped runs and huge jumps
    /// mixed, so buckets range from empty to crowded.
    #[test]
    fn rank_index_matches_partition_point(
        steps in proptest::collection::vec((0u8..8, any::<u64>()), 0..200),
        probes in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut nums: Vec<u64> = Vec::new();
        for (kind, r) in steps {
            let step = match kind {
                0..=2 => 1 + r % 2,
                3..=5 => 1 + r % 1000,
                6 => 1 + r % (1 << 40),
                _ => 1 + r % (u64::MAX / 8),
            };
            let next = match nums.last() {
                None => r % 1000,
                Some(prev) => match prev.checked_add(step) {
                    Some(v) => v,
                    None => break,
                },
            };
            nums.push(next);
        }
        check_ranks(&nums, &probes);
    }

    /// `union_sorted` leaves exactly the set the `insert` loop leaves, on
    /// random antichains unioned with lo-sorted lists that hold equal-lo
    /// intervals, duplicates of members, nested intervals and a widened
    /// ("advertised") copy of a member, as the §3.2 sweep hands over.
    #[test]
    fn union_sorted_matches_insert_loop(
        base in proptest::collection::vec((0u64..80, 0u64..12), 0..20),
        extra in proptest::collection::vec((0u64..90, 0u64..15), 0..12),
        copies in proptest::collection::vec(0usize..20, 0..4),
        widen in (0usize..20, 0u64..6),
    ) {
        let set = antichain(&base);
        let mut other: Vec<Interval> =
            extra.iter().map(|&(lo, w)| Interval::new(lo, lo + w)).collect();
        let members = set.as_slice();
        if !members.is_empty() {
            for &c in &copies {
                other.push(members[c % members.len()]);
            }
            let m = members[widen.0 % members.len()];
            other.push(Interval::new(m.lo(), m.hi() + widen.1));
        }
        other.sort_by_key(|iv| iv.lo());
        let mut want = set.clone();
        for &iv in &other {
            want.insert(iv);
        }
        let mut got = set;
        let mut tail = vec![Interval::point(999)];
        got.union_sorted(&other, &mut tail);
        prop_assert_eq!(got.as_slice(), want.as_slice(), "other {:?}", other);
        prop_assert!(got.check_invariants());
    }
}
