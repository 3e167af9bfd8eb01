//! Cross-run aggregate statistics.
//!
//! The campaign engine replicates every grid point across seeds; this
//! module turns the per-run scalars (mean Π*_s, per-run quantiles,
//! bound-violation rates, fault counts, …) into cross-seed aggregates:
//! mean/std/min/max plus nearest-rank p50/p95/p99.

/// Aggregate statistics of a sample of scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl SampleSummary {
    /// Summarizes the finite values of a sample. Non-finite inputs (NaN,
    /// ±∞) are filtered out rather than poisoning the moments — a single
    /// infinity would turn `mean` and `std` into NaN, and NaN breaks the
    /// ordering entirely. Returns `None` when no finite value remains;
    /// `count` reports the finite values actually summarized, so a
    /// caller can detect filtering by comparing it to `values.len()`.
    pub fn from_values(values: &[f64]) -> Option<SampleSummary> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        sorted.sort_by(f64::total_cmp);
        Some(SampleSummary {
            count: sorted.len(),
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
            p99: nearest_rank(&sorted, 0.99),
        })
    }
}

/// The nearest-rank `q`-quantile of an ascending-sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let s = SampleSummary::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.p99, 4.0);
    }

    #[test]
    fn quantiles_match_series_convention() {
        // Same nearest-rank convention as PrecisionSeries::quantile.
        let sorted: Vec<f64> = (1..=100).map(|i| (i * 10) as f64).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 500.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 990.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 10.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 1000.0);
    }

    #[test]
    fn degenerate_samples() {
        assert!(SampleSummary::from_values(&[]).is_none());
        let s = SampleSummary::from_values(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p99, 7.0);
    }

    /// Regression: non-finite inputs used to slip past the NaN check
    /// (±∞ did) or reject the whole sample (NaN did); either way no
    /// summary of the finite values was produced. They are filtered
    /// now, visible through `count`.
    #[test]
    fn non_finite_values_are_filtered_not_fatal() {
        // Pre-fix: `[1.0, NaN]` returned None (whole sample rejected).
        let s = SampleSummary::from_values(&[1.0, f64::NAN]).expect("finite value summarized");
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 1.0);
        // Pre-fix: ±∞ passed the NaN check and made mean/std NaN.
        let s = SampleSummary::from_values(&[1.0, 3.0, f64::INFINITY, f64::NEG_INFINITY])
            .expect("finite values summarized");
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
        assert!(s.std.is_finite());
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        // Nothing finite at all: still None, never a NaN-filled summary.
        assert!(SampleSummary::from_values(&[f64::NAN, f64::INFINITY]).is_none());
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let s = SampleSummary::from_values(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p50, 5.0);
    }
}
