//! Percentiles a sample can support.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: p50 needs 20 samples, p90 needs 100, p99 needs 1,000. A
//! tail percentile read off fewer samples is one or two outliers, not a
//! property of the system.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank index (0-based) of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9% of 10,000 is 9990.000000000002)
    // from bumping an exact rank to the next sample.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `p` of `sorted` (ascending) by nearest rank, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile {p} outside [0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), p);
    (sorted.len() - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// The highest percentile on [`LADDER`] a sample of `n` supports.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Percentile `p` of a non-empty ascending sample by nearest rank, with
/// no minimum sample size: for summarising a handful of per-slice values.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 90.0), Some(900.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    }

    #[test]
    fn refuses_empty_and_tiny_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(5), 50.0), None);
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn highest_supported_climbs_the_ladder() {
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn highest_supported_agrees_with_percentile() {
        for n in 0..2_100 {
            let sample = ramp(n);
            for p in LADDER {
                let supported = highest_supported(n).is_some_and(|h| p <= h);
                assert_eq!(percentile(&sample, p).is_some(), supported, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_needs_no_minimum_sample() {
        assert_eq!(nearest_rank(&[7.0], 25.0), 7.0);
        assert_eq!(nearest_rank(&ramp(4), 25.0), 1.0);
        assert_eq!(nearest_rank(&ramp(20), 25.0), 5.0);
        assert_eq!(nearest_rank(&ramp(20), 50.0), 10.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }
}
