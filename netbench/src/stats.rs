//! Order statistics over per-pass samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs` (empty input gives all zeros). Quartiles follow
    /// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method),
    /// so the spreads printed here are the ones a reader recomputes.
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            };
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Summary { median, q1, q3, n }
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(v, n=4)`
/// over sorted `v` (`v.len() >= 2`).
fn quartile(v: &[f64], i: usize) -> f64 {
    let (ld, n) = (v.len() as i64, 4i64);
    let (i, m) = (i as i64, ld + 1);
    let j = (i * m / n).clamp(1, ld - 1);
    // Negative for two samples, as in Python: the cut extrapolates.
    let delta = (i * m - j * n) as f64;
    let j = j as usize;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// Nearest-rank percentile `p` in `(0, 100]` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
