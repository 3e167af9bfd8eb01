//! Histograms of measured precision (paper Fig. 4b).

use tsn_time::Nanos;

/// A fixed-bin-width histogram over non-negative nanosecond values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    counts: Vec<u64>,
    /// Values above the last bin (the paper's Fig. 4b x-axis stops at
    /// 1000 ns while the maximum was 10 080 ns).
    pub overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero or `bins` is zero.
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Records a value (negative values clamp to bin 0).
    pub fn record(&mut self, value: Nanos) {
        let v = value.as_nanos().max(0) as u64;
        let idx = (v / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// The bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bin width in nanoseconds.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Total recorded values (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The inclusive lower edge of bin `i`.
    pub fn bin_start(&self, i: usize) -> u64 {
        i as u64 * self.bin_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_bins() {
        let mut h = Histogram::new(100, 10);
        h.record(Nanos::from_nanos(0));
        h.record(Nanos::from_nanos(99));
        h.record(Nanos::from_nanos(100));
        h.record(Nanos::from_nanos(950));
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_start(9), 900);
    }

    #[test]
    fn overflow_counted() {
        let mut h = Histogram::new(100, 10);
        h.record(Nanos::from_nanos(10_080));
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 1);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn negative_values_clamp_to_first_bin() {
        let mut h = Histogram::new(100, 10);
        h.record(Nanos::from_nanos(-5));
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        Histogram::new(0, 10);
    }
}
