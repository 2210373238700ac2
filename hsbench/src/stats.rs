//! Order statistics: every timing is reported as a median plus a tail
//! percentile, with its sample count.

/// Candidate tail percentiles, in thousandths, highest first.
const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A timing distribution: median, tail percentile and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// The highest ladder percentile with at least [`TAIL_BEYOND`]
    /// samples beyond it (nearest rank); with fewer than
    /// `2 * TAIL_BEYOND` samples none qualifies, and the tail is the
    /// median itself with `tail_pct` 50.
    pub tail_pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// 1-based nearest rank of the `permille`-th per-mille point of `n`
/// samples: `ceil(permille * n / 1000)`, clamped to `1..=n`.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Median of `values` (panics on an empty slice: a metric without
/// samples is a bug in the benchmark).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Summarises `samples` as a [`Dist`].
pub fn summarize(samples: &[f64]) -> Dist {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = median(&sorted);
    match TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&p| n - nearest_rank(n, p) >= TAIL_BEYOND)
    {
        Some(permille) => Dist {
            p50,
            tail: sorted[nearest_rank(n, permille) - 1],
            tail_pct: permille as f64 / 10.0,
            n,
        },
        None => Dist {
            p50,
            tail: p50,
            tail_pct: 50.0,
            n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
        let d = summarize(&ramp(100));
        assert_eq!((d.tail_pct, d.tail, d.n), (90.0, 90.0, 100));
        assert_eq!(d.p50, 50.5);
        // 1000 samples: p99 is rank 990 with 10 beyond.
        let d = summarize(&ramp(1000));
        assert_eq!((d.tail_pct, d.tail), (99.0, 990.0));
        // 10000 samples: p99.9 is rank 9990 with 10 beyond.
        let d = summarize(&ramp(10_000));
        assert_eq!((d.tail_pct, d.tail), (99.9, 9990.0));
        // 40 samples: p90 leaves 4, p75 (rank 30) leaves 10.
        let d = summarize(&ramp(40));
        assert_eq!((d.tail_pct, d.tail), (75.0, 30.0));
        // 199 samples: p95 is rank ceil(189.05) = 190, leaving 9; p90 is
        // rank ceil(179.1) = 180, leaving 19.
        let d = summarize(&ramp(199));
        assert_eq!((d.tail_pct, d.tail), (90.0, 180.0));
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let d = summarize(&ramp(19));
        assert_eq!((d.tail_pct, d.tail, d.p50), (50.0, 10.0, 10.0));
        let d = summarize(&ramp(18));
        assert_eq!((d.tail_pct, d.tail, d.p50), (50.0, 9.5, 9.5));
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let d = summarize(&ramp(20));
        assert_eq!((d.tail_pct, d.tail, d.p50), (50.0, 10.0, 10.5));
    }

    #[test]
    fn nearest_rank_is_exact_integer_arithmetic() {
        assert_eq!(nearest_rank(100, 900), 90);
        assert_eq!(nearest_rank(101, 900), 91);
        assert_eq!(nearest_rank(1, 500), 1);
        assert_eq!(nearest_rank(3, 999), 3);
    }
}
