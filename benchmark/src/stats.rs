//! The sample reducer: every timing the benchmark reports is the median
//! of the samples one run collected, with min, max and the count beside
//! it. A run has too few samples for any percentile to have ten samples
//! beyond it, so none is reported.

/// Median, minimum, maximum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Reduces `samples`; `None` when there are none. The median of an even
/// count is the mean of the two middle values.
pub fn reduce(samples: &[f64]) -> Option<Reduced> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Reduced {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    })
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice: every caller has run at least one batch.
pub fn median(samples: &[f64]) -> f64 {
    reduce(samples).expect("at least one sample").median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_odd_even_and_empty() {
        assert_eq!(reduce(&[]), None);
        let r = reduce(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((r.median, r.min, r.max, r.n), (2.0, 1.0, 3.0, 3));
        let r = reduce(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((r.median, r.min, r.max, r.n), (2.5, 1.0, 4.0, 4));
        let r = reduce(&[7.5]).unwrap();
        assert_eq!((r.median, r.min, r.max, r.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn median_ignores_an_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }
}
