//! Latency summaries: the median, nearest-rank percentiles, and the rule
//! that a tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles [`Summary::of`] considers for the tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// A summary of one timing series.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for even `n`).
    pub p50: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`; `None`
    /// when the sample is too small for any of them.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order).  `None` for an empty series.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let tail = TAIL_LADDER
            .iter()
            .find_map(|&q| percentile_sorted(&sorted, q).map(|v| (q, v)));
        Some(Summary {
            n: sorted.len(),
            p50: median_sorted(&sorted),
            tail,
        })
    }
}

/// The median of `samples` (any order); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| median_sorted(&sorted(samples)))
}

/// The nearest-rank `q`-th percentile of `samples` (any order), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    percentile_sorted(&sorted(samples), q)
}

/// Whether a series of `n` samples supports the `q`-th percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The 1-based nearest rank of the `q`-th percentile among `n` samples
/// (the epsilon keeps an exact product such as 99.9% of 10 000 from
/// rounding up a rank).
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    supports(sorted.len(), q).then(|| sorted[rank(sorted.len(), q) - 1])
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // 1..=n in a scrambled order, so sorting is exercised.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th value with exactly 10 beyond.
        assert_eq!(percentile(&series(100), 90.0), Some(90.0));
        // 99 samples leave only 9 beyond the 90th-percentile rank.
        assert_eq!(percentile(&series(99), 90.0), None);
        assert_eq!(percentile(&series(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&series(999), 99.0), None);
        assert!(supports(40, 75.0) && !supports(39, 75.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn summary_reports_the_highest_supported_tail() {
        let s = Summary::of(&series(100)).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));

        let s = Summary::of(&series(2000)).unwrap();
        assert_eq!(s.tail, Some((99.0, 1980.0)));

        let s = Summary::of(&series(10_000)).unwrap();
        assert_eq!(s.tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn too_small_a_series_omits_the_tail() {
        let s = Summary::of(&series(39)).unwrap();
        assert_eq!(s.n, 39);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail, None);
        assert_eq!(Summary::of(&[]), None);
    }
}
