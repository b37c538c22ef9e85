//! A fixed log-linear latency histogram in nanoseconds.
//!
//! Values below 128 ns get one bucket each; above that every power of two
//! is split into 128 equal buckets, so a bucket is at most 1/128 (0.78 %)
//! of its lower bound wide, and a percentile read inside a bucket is within
//! that of every sample in it. The bucket array has a fixed size (7,424
//! counters, 58 KiB) whatever the sample count, so recording millions of
//! requests does not grow the process and inflate `rss_mb`.

/// Sub-bucket bits per power of two: 2^7 = 128 buckets per octave.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..128`, then 128 buckets for each shift `0..=56`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A percentile read off a [`Histogram`], with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at the percentile, in the histogram's unit (ns).
    pub value: f64,
    /// How many samples the histogram held.
    pub samples: u64,
}

/// Log-linear histogram of `u64` samples (nanoseconds by convention).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    (((shift + 1) as usize) << SUB_BITS) + sub as usize
}

/// The smallest value and the width of bucket `ix`.
fn bucket_range(ix: usize) -> (u64, u64) {
    if ix < SUB as usize {
        return (ix as u64, 1);
    }
    let shift = (ix >> SUB_BITS) as u32 - 1;
    let sub = (ix as u64) & (SUB - 1);
    ((SUB + sub) << shift, 1u64 << shift)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records the nanoseconds in a duration (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the samples (exact), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), reported only when at
    /// least ten samples lie beyond it: with fewer, the tail is too thin
    /// for the number to repeat. The value is interpolated within its
    /// bucket by rank, and clamped to the smallest and largest sample seen.
    pub fn percentile(&self, q: f64) -> Option<Quantile> {
        assert!(q > 0.0 && q < 1.0, "percentile {q} out of (0, 1)");
        let n = self.total;
        let rank = ((q * n as f64).ceil() as u64).max(1);
        if n < rank + 10 {
            return None;
        }
        let mut before = 0u64;
        for (ix, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                // Place the rank within its bucket as if the bucket's
                // samples were spread evenly across it.
                let (lo, width) = bucket_range(ix);
                let within = ((rank - before) as f64 - 0.5) / c as f64;
                let value = (lo as f64 + within * (width - 1) as f64)
                    .clamp(self.min as f64, self.max as f64);
                return Some(Quantile { value, samples: n });
            }
            before += c;
        }
        unreachable!("rank {rank} <= total {n} is inside the buckets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_whole_range() {
        let mut next = 0u64;
        for ix in 0..BUCKETS {
            let (lo, width) = bucket_range(ix);
            assert_eq!(
                lo,
                next,
                "bucket {ix} starts where {} ended",
                ix.saturating_sub(1)
            );
            assert_eq!(bucket_of(lo), ix);
            assert_eq!(bucket_of(lo + (width - 1)), ix);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_width_stays_under_one_percent() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let mut h = Histogram::new();
            for _ in 0..20 {
                h.record(v);
            }
            // Clamping to min/max makes a single-valued histogram exact.
            assert_eq!(h.percentile(0.5).unwrap().value, v as f64);
            let (lo, width) = bucket_range(bucket_of(v));
            assert!(
                (width - 1) as f64 / lo.max(1) as f64 <= 1.0 / 128.0,
                "v={v} lo={lo} width={width}"
            );
            v = v * 3 + 1;
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), None, "empty");
        for v in 1..=19 {
            h.record(v);
        }
        // n = 19: the median is rank 10, with 9 beyond it.
        assert_eq!(h.percentile(0.5), None);
        h.record(20);
        let q = h.percentile(0.5).unwrap();
        assert_eq!((q.value, q.samples), (10.0, 20));
        // p99 needs n >= 1000.
        for v in 0..979 {
            h.record(v);
        }
        assert_eq!(h.count(), 999);
        assert_eq!(h.percentile(0.99), None);
        h.record(5);
        assert!(h.percentile(0.99).is_some());
    }

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in 1000..1100 {
            h.record(v * 1000);
        }
        for q in [0.1, 0.3, 0.5, 0.7, 0.89] {
            let got = h.percentile(q).unwrap().value;
            let want = 1_000_000.0 + (q * 100.0).ceil() * 1000.0 - 1000.0;
            assert!(
                (got - want).abs() / want < 1.0 / 128.0,
                "q={q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn nearest_rank_on_exact_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5).unwrap().value, 50.0);
        assert_eq!(h.percentile(0.9).unwrap().value, 90.0);
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn merge_adds_counts_and_extremes() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for v in 0..50 {
            a.record(v);
            b.record(1000 + v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.max(), Some(1049));
        let med = a.percentile(0.5).unwrap().value;
        assert_eq!(med, 49.0);
        assert_eq!(Histogram::new().mean(), None);
        assert_eq!(Histogram::new().max(), None);
    }

    #[test]
    fn large_values_land_within_their_bucket() {
        let mut h = Histogram::new();
        for _ in 0..11 {
            h.record(10_000_000);
        }
        h.record(10_000_001);
        h.record(u64::MAX);
        assert!(h.percentile(0.01).unwrap().value >= 10_000_000.0);
        assert_eq!(h.max(), Some(u64::MAX));
    }
}
