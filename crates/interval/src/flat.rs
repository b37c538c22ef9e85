//! Rank flattening for the frozen query plane.
//!
//! [`IntervalSet`] is the right structure for a closure under churn — each
//! node owns a small, independently growable `Vec<Interval>` — but a frozen
//! snapshot wants every label in one dense coordinate system. The helpers
//! here *rank compress* a labeling: each endpoint becomes its index in the
//! sorted array of live postorder numbers, which narrows every element to a
//! `u32` (or `u16`) key and lets adjacent intervals merge whenever only dead
//! numbers separate them.
//!
//! * [`RankIndex`] — the number-to-rank map itself: a bucketed index over
//!   the live numbers, so mapping an endpoint searches one bucket instead
//!   of the whole line.
//! * [`merged_row_into`] — one label set as merged, ascending rank
//!   intervals: the single merge rule behind every frozen row, the hybrid
//!   row selection, and the stats histogram.
//!
//! The byte layout the rows are stored in lives in [`crate::paged`].

use crate::IntervalSet;

/// Exact rank queries over the sorted live postorder numbers — the map
/// from raw interval endpoints to ranks that every freeze applies twice per
/// interval. The span `[base, max]` is cut into about one bucket per
/// number, `bucket(t) = (t - base) >> shift`, and `starts[b]` is the first
/// index whose number falls in bucket `b` or later; a query then searches
/// only its own bucket — a handful of numbers on an evenly gapped line, a
/// binary search over a crowded bucket otherwise. Exact for any probe and
/// any strictly increasing line, gaps and tombstones included.
#[derive(Debug)]
pub struct RankIndex {
    nums: Vec<u64>,
    base: u64,
    shift: u32,
    /// `buckets + 1` entries; the last is `nums.len()`.
    starts: Vec<u32>,
}

impl RankIndex {
    /// Indexes `nums`, which must be strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `nums` holds more than `u32::MAX` numbers (ranks are
    /// `u32`).
    pub fn new(nums: Vec<u64>) -> RankIndex {
        assert!(nums.len() <= u32::MAX as usize, "rank index over {} numbers", nums.len());
        debug_assert!(nums.windows(2).all(|w| w[0] < w[1]), "line not strictly increasing");
        let (base, span) = match (nums.first(), nums.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi - lo),
            _ => (0, 0),
        };
        // Smallest shift leaving at most one bucket per number.
        let mut shift = 0;
        while (span >> shift) >= nums.len().max(1) as u64 {
            shift += 1;
        }
        let buckets = (span >> shift) as usize + 1;
        let mut starts = Vec::with_capacity(buckets + 1);
        for (i, &x) in nums.iter().enumerate() {
            let b = ((x - base) >> shift) as usize;
            starts.resize(starts.len().max(b + 1), i as u32);
        }
        starts.resize(buckets + 1, nums.len() as u32);
        RankIndex { nums, base, shift, starts }
    }

    /// The number of indexed numbers `x` with `below(x)`, where `below`
    /// is `x < t` or `x <= t`: everything in earlier buckets, plus a search
    /// of `t`'s own bucket.
    #[inline]
    fn rank(&self, t: u64, below: impl Fn(u64) -> bool) -> usize {
        let Some(off) = t.checked_sub(self.base) else { return 0 };
        let b = (off >> self.shift) as usize;
        match self.starts.get(b..).and_then(|s| s.get(..2)) {
            Some(&[lo, hi]) => {
                let (lo, hi) = (lo as usize, hi as usize);
                lo + self.nums[lo..hi].partition_point(|&x| below(x))
            }
            _ => self.nums.len(),
        }
    }

    /// The number of indexed numbers `< t`.
    #[inline]
    pub fn lower(&self, t: u64) -> usize {
        self.rank(t, |x| x < t)
    }

    /// The number of indexed numbers `<= t`.
    #[inline]
    pub fn upper(&self, t: u64) -> usize {
        self.rank(t, |x| x <= t)
    }
}

/// Appends rank interval `[lo, hi]` to a row under construction, fusing it
/// into the previous interval when the two overlap or touch in rank space.
/// Calls must arrive with nondecreasing `lo`.
#[inline]
fn push_merged(row: &mut Vec<(u32, u32)>, lo: u32, hi: u32) {
    debug_assert!(lo <= hi, "rank interval [{lo}, {hi}]");
    if let Some((plo, phi)) = row.last_mut() {
        debug_assert!(*plo <= lo, "rank intervals regress: [{plo}, {phi}] then [{lo}, {hi}]");
        if lo <= phi.saturating_add(1) {
            *phi = (*phi).max(hi);
            return;
        }
    }
    row.push((lo, hi));
}

/// Rank-compresses one label set into merged rank intervals (`out` is
/// cleared first): each endpoint becomes its rank among `line`, the
/// sorted live postorder numbers, and intervals left adjacent or
/// overlapping in rank space fuse. An interval covering only dead numbers
/// maps to nothing and is dropped — every query key is a live number.
pub fn merged_row_into(line: &RankIndex, set: &IntervalSet, out: &mut Vec<(u32, u32)>) {
    out.clear();
    for iv in set.iter() {
        let rlo = line.lower(iv.lo());
        let rhi = line.upper(iv.hi());
        if rlo < rhi {
            push_merged(out, rlo as u32, (rhi - 1) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::{
        count_le, encode_boundaries, encode_head, padded_boundary_keys, probe_head, HeadProbe,
        KeyWidth,
    };

    /// Merges each raw row with [`push_merged`] and encodes it through the
    /// byte codec at one key width: heads, spill, and a probe closure.
    struct Rows {
        kw: KeyWidth,
        merged: Vec<Vec<(u32, u32)>>,
        heads: Vec<u8>,
        spill: Vec<u8>,
    }

    impl Rows {
        fn build(kw: KeyWidth, raw: &[&[(u32, u32)]]) -> Rows {
            let (mut heads, mut spill, mut merged) = (Vec::new(), Vec::new(), Vec::new());
            let mut keys = 0u32;
            for row in raw {
                let mut m = Vec::new();
                for &(lo, hi) in *row {
                    push_merged(&mut m, lo, hi);
                }
                let base = heads.len();
                heads.resize(base + kw.head_bytes(), 0);
                encode_head(&mut heads[base..], kw, &m, keys);
                encode_boundaries(&mut spill, kw, &m);
                keys += padded_boundary_keys(m.len(), kw) as u32;
                merged.push(m);
            }
            Rows { kw, merged, heads, spill }
        }

        fn contains(&self, row: usize, t: u32) -> bool {
            let (kw, hb, kb) = (self.kw, self.kw.head_bytes(), self.kw.key_bytes());
            match probe_head(&self.heads[row * hb..(row + 1) * hb], kw, t) {
                HeadProbe::Hit(ans) => ans,
                HeadProbe::Scan { key_start, key_count } => {
                    let a = key_start as usize * kb;
                    count_le(&self.spill[a..a + key_count as usize * kb], kw, t) % 2 == 1
                }
            }
        }
    }

    fn naive(row: &[(u32, u32)], t: u32) -> bool {
        row.iter().any(|&(lo, hi)| lo <= t && t <= hi)
    }

    /// Stamps the shared rank-row tests for one key width; the two widths
    /// must behave identically up to the key type.
    macro_rules! rank_rows_tests {
        ($mod:ident, $kw:expr) => {
            mod $mod {
                use super::*;

                #[test]
                fn flat_index_mirrors_rows() {
                    let raw: &[&[(u32, u32)]] =
                        &[&[(1, 3), (7, 9)], &[], &[(2, 2)], &[(1, 5), (4, 9), (20, 30)]];
                    let rows = Rows::build($kw, raw);
                    // Row 3's overlapping [1,5] + [4,9] merged into [1,9].
                    assert_eq!(rows.merged[3], vec![(1, 9), (20, 30)]);
                    for (row, intervals) in raw.iter().enumerate() {
                        for t in 0..35 {
                            assert_eq!(
                                rows.contains(row, t),
                                naive(intervals, t),
                                "row {row}, t {t}"
                            );
                        }
                    }
                }

                #[test]
                fn adjacent_intervals_merge() {
                    let rows = Rows::build($kw, &[&[(0, 2), (3, 4), (6, 8)]]);
                    assert_eq!(rows.merged[0], vec![(0, 4), (6, 8)]);
                    assert!(rows.contains(0, 3));
                    assert!(!rows.contains(0, 5));
                }

                #[test]
                fn contains_matches_naive_on_dense_random_rows() {
                    // Rows big enough to spread across many fence slices,
                    // including sizes around the slice-count boundary.
                    let mut state = 0x0123_4567_89ab_cdefu64;
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 52) as u32
                    };
                    for m in [1usize, 2, 14, 15, 28, 29, 30, 57, 58, 59, 177, 307, 538] {
                        let mut row = Vec::new();
                        let mut lo = next() % 3;
                        for _ in 0..m {
                            let hi = lo + next() % 9;
                            row.push((lo, hi));
                            // Keep at least one dead rank between intervals
                            // so nothing merges and the row keeps m intervals.
                            lo = hi + 2 + next() % 7;
                        }
                        let rows = Rows::build($kw, &[&row]);
                        assert_eq!(rows.merged[0].len(), m, "merge changed m={m}");
                        let top = row.last().unwrap().1 + 3;
                        for t in 0..top.min(6000) {
                            assert_eq!(rows.contains(0, t), naive(&row, t), "m {m}, t {t}");
                        }
                    }
                }

                #[test]
                fn empty_index() {
                    let rows = Rows::build($kw, &[]);
                    assert!(rows.heads.is_empty() && rows.spill.is_empty());
                    let empty = Rows::build($kw, &[&[]]);
                    assert!(empty.spill.is_empty(), "an empty row spills nothing");
                    assert!((0..4).all(|t| !empty.contains(0, t)));
                }
            }
        };
    }

    rank_rows_tests!(wide_rows, KeyWidth::Wide);
    rank_rows_tests!(narrow_rows, KeyWidth::Narrow);
}
