//! Medians and quartiles across segments and runs.

/// Median and quartiles of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The median of `xs`, or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs)?;
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median and quartiles, the quartiles computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method),
/// so the numbers match that common tool to the last digit. A single
/// value is its own quartiles; `None` when empty.
pub fn spread(xs: &[f64]) -> Option<Spread> {
    let v = sorted(xs)?;
    let med = median(&v)?;
    if v.len() == 1 {
        return Some(Spread {
            q1: v[0],
            median: med,
            q3: v[0],
        });
    }
    let quartile = |i: usize| -> f64 {
        let n = 4usize;
        let m = v.len() + 1;
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some(Spread {
        q1: quartile(1),
        median: med,
        q3: quartile(3),
    })
}

fn sorted(xs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = spread(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(s.iqr(), 3.0);
    }

    #[test]
    fn degenerate_spreads() {
        assert_eq!(spread(&[]), None);
        let s = spread(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(s.iqr(), 0.0);
    }
}
