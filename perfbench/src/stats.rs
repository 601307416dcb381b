//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p·n/100)`. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly beyond that rank, so a single outlier can never be the tail.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle samples for an even count).
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic in per-mille keeps p = 99 exact (no 0.99·n
    // rounding drift).
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count for which the `p`-th percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The `p`-th percentile of `values`; `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[rank(values.len(), p) - 1])
}

/// The `p`-th percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    if beyond(values.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(values, p)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(rank(100, 50.0), 50);
        assert_eq!(rank(100, 99.0), 99);
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(rank(999, 99.0), 990);
        assert_eq!(rank(1, 99.0), 1);
        assert_eq!(rank(10, 0.0), 1);
    }

    #[test]
    fn low_percentiles_have_no_sample_floor() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 5.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&[], 5.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn tail_refuses_thin_tails() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&few, 99.0), None);
        let enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        // Rank 990 of 0..=999 is the value 989; ten samples (990..=999)
        // lie beyond it.
        assert_eq!(tail(&enough, 99.0), Some(989.0));
        let n_beyond = enough.iter().filter(|&&v| v > 989.0).count();
        assert_eq!(n_beyond, MIN_BEYOND);
    }
}
