//! Clock-synchronization precision measurement (paper §III-A2).
//!
//! A dedicated measurement VM multicasts a probe every second; each
//! receiving clock-synchronization VM timestamps the reception with its
//! node's `CLOCK_SYNCTIME` and returns the timestamp. The measured
//! precision of interval `s` is the largest pairwise difference
//!
//! ```text
//! Π*_s = max_{c,c'} |tn_c(rx_ps) − tn_c'(rx_ps)|          (Eq. 3.1)
//! ```
//!
//! Receivers reached over asymmetric paths are excluded (the paper omits
//! the VM co-located with the measurement VM) so the measurement error γ
//! stays small.

use tsn_time::{ClockTime, Nanos, SimTime};

/// Computes Eq. 3.1 over one probe's receiver timestamps.
///
/// Returns `None` when fewer than two receivers replied.
pub fn precision_of(readings: &[ClockTime]) -> Option<Nanos> {
    if readings.len() < 2 {
        return None;
    }
    let min = readings.iter().min()?;
    let max = readings.iter().max()?;
    Some(*max - *min)
}

/// One precision measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionSample {
    /// True time of the probe (series x-axis).
    pub at: SimTime,
    /// Measured precision Π*_s.
    pub value: Nanos,
    /// Number of receivers that replied.
    pub receivers: usize,
}

/// The measured precision time series of one experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrecisionSeries {
    samples: Vec<PrecisionSample>,
}

/// Aggregate of one fixed-length window (the paper plots 120 s windows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Window start time.
    pub start: SimTime,
    /// Average of the window's samples.
    pub avg: Nanos,
    /// Minimum sample.
    pub min: Nanos,
    /// Maximum sample.
    pub max: Nanos,
    /// Number of samples in the window.
    pub count: usize,
}

/// Moments of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub std: f64,
    /// Minimum.
    pub min: Nanos,
    /// Maximum.
    pub max: Nanos,
    /// Sample count.
    pub count: usize,
}

impl PrecisionSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if samples are pushed out of time order.
    pub fn push(&mut self, sample: PrecisionSample) {
        if let Some(last) = self.samples.last() {
            assert!(sample.at >= last.at, "samples must be time-ordered");
        }
        self.samples.push(sample);
    }

    /// The raw samples.
    pub fn samples(&self) -> &[PrecisionSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The largest sample, if any.
    pub fn max(&self) -> Option<PrecisionSample> {
        self.samples.iter().max_by_key(|s| s.value).copied()
    }

    /// Fraction of samples with `value ≤ bound`.
    pub fn fraction_within(&self, bound: Nanos) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let ok = self.samples.iter().filter(|s| s.value <= bound).count();
        ok as f64 / self.samples.len() as f64
    }

    /// Sub-series restricted to `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> PrecisionSeries {
        PrecisionSeries {
            samples: self
                .samples
                .iter()
                .filter(|s| s.at >= from && s.at < to)
                .copied()
                .collect(),
        }
    }

    /// Aggregates the series into fixed-length windows (the paper's
    /// Fig. 4a uses 120 s windows with avg/min/max).
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn aggregate(&self, window: Nanos) -> Vec<WindowStat> {
        assert!(window.as_nanos() > 0, "window must be positive");
        let w = window.as_nanos() as u64;
        let mut out: Vec<WindowStat> = Vec::new();
        for s in &self.samples {
            let start = SimTime::from_nanos(s.at.as_nanos() / w * w);
            match out.last_mut() {
                Some(stat) if stat.start == start => {
                    let n = stat.count as i64;
                    // Running average without overflow.
                    let avg = (stat.avg * n + s.value) / (n + 1);
                    stat.avg = avg;
                    stat.min = stat.min.min(s.value);
                    stat.max = stat.max.max(s.value);
                    stat.count += 1;
                }
                _ => out.push(WindowStat {
                    start,
                    avg: s.value,
                    min: s.value,
                    max: s.value,
                    count: 1,
                }),
            }
        }
        out
    }

    /// The `q`-quantile of the series (0 ≤ q ≤ 1, nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Nanos> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        let mut values: Vec<Nanos> = self.samples.iter().map(|s| s.value).collect();
        values.sort_unstable();
        let idx = ((q * values.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(values.len() - 1);
        Some(values[idx])
    }

    /// Moments of the series.
    pub fn stats(&self) -> Option<SeriesStats> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len() as f64;
        let mean = self
            .samples
            .iter()
            .map(|s| s.value.as_nanos() as f64)
            .sum::<f64>()
            / n;
        let var = self
            .samples
            .iter()
            .map(|s| (s.value.as_nanos() as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        Some(SeriesStats {
            mean,
            std: var.sqrt(),
            min: self
                .samples
                .iter()
                .map(|s| s.value)
                .min()
                .expect("nonempty"),
            max: self
                .samples
                .iter()
                .map(|s| s.value)
                .max()
                .expect("nonempty"),
            count: self.samples.len(),
        })
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_series() -> impl Strategy<Value = PrecisionSeries> {
        proptest::collection::vec((0u64..100_000, 0i64..1_000_000), 0..200).prop_map(|mut v| {
            v.sort_by_key(|(t, _)| *t);
            let mut s = PrecisionSeries::new();
            for (t, val) in v {
                s.push(PrecisionSample {
                    at: SimTime::from_nanos(t * 1_000_000_000),
                    value: Nanos::from_nanos(val),
                    receivers: 6,
                });
            }
            s
        })
    }

    proptest! {
        /// Window aggregation conserves the sample count and brackets
        /// every window's average between its min and max.
        #[test]
        fn aggregation_conserves_and_brackets(series in arb_series(), window_s in 1i64..600) {
            let windows = series.aggregate(Nanos::from_secs(window_s));
            let total: usize = windows.iter().map(|w| w.count).sum();
            prop_assert_eq!(total, series.len());
            for w in &windows {
                prop_assert!(w.min <= w.avg && w.avg <= w.max);
            }
            // Windows are strictly increasing in start time.
            for pair in windows.windows(2) {
                prop_assert!(pair[0].start < pair[1].start);
            }
        }

        /// Stats bracket: min ≤ mean ≤ max, and fraction_within is
        /// monotone in the bound.
        #[test]
        fn stats_consistent(series in arb_series(), bound in 0i64..1_000_000) {
            if let Some(stats) = series.stats() {
                prop_assert!(stats.min.as_nanos() as f64 <= stats.mean + 1e-9);
                prop_assert!(stats.mean <= stats.max.as_nanos() as f64 + 1e-9);
                let f1 = series.fraction_within(Nanos::from_nanos(bound));
                let f2 = series.fraction_within(Nanos::from_nanos(bound * 2));
                prop_assert!(f2 >= f1);
            }
        }

        /// `precision_of` equals max minus min and is permutation
        /// invariant.
        #[test]
        fn precision_of_properties(mut readings in proptest::collection::vec(-1_000_000i64..1_000_000, 2..20)) {
            let ct: Vec<ClockTime> = readings.iter().map(|&r| ClockTime::from_nanos(r)).collect();
            let p = precision_of(&ct).unwrap();
            readings.sort_unstable();
            prop_assert_eq!(p.as_nanos(), readings[readings.len() - 1] - readings[0]);
            prop_assert!(p >= Nanos::ZERO);
        }
    }
}

use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};

tsn_snapshot::snap_struct!(PrecisionSample {
    at,
    value,
    receivers
});

// Hand-written: time order is checked.
impl SnapState for PrecisionSeries {
    fn save_state(&self, w: &mut Writer) {
        self.samples.put(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let samples: Vec<PrecisionSample> = Snap::get(r)?;
        if samples.windows(2).any(|p| p[0].at > p[1].at) {
            return Err(SnapError::Malformed("precision series out of time order"));
        }
        self.samples = samples;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: u64, ns: i64) -> PrecisionSample {
        PrecisionSample {
            at: SimTime::from_secs(at_s),
            value: Nanos::from_nanos(ns),
            receivers: 6,
        }
    }

    #[test]
    fn precision_is_max_pairwise_spread() {
        let readings = vec![
            ClockTime::from_nanos(1_000),
            ClockTime::from_nanos(1_322),
            ClockTime::from_nanos(980),
        ];
        assert_eq!(precision_of(&readings), Some(Nanos::from_nanos(342)));
    }

    #[test]
    fn single_reading_has_no_precision() {
        assert_eq!(precision_of(&[ClockTime::ZERO]), None);
        assert_eq!(precision_of(&[]), None);
    }

    #[test]
    fn aggregate_windows_avg_min_max() {
        let mut series = PrecisionSeries::new();
        for (t, v) in [(0, 100), (60, 300), (120, 50), (180, 150)] {
            series.push(sample(t, v));
        }
        let windows = series.aggregate(Nanos::from_secs(120));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].avg, Nanos::from_nanos(200));
        assert_eq!(windows[0].min, Nanos::from_nanos(100));
        assert_eq!(windows[0].max, Nanos::from_nanos(300));
        assert_eq!(windows[0].count, 2);
        assert_eq!(windows[1].start, SimTime::from_secs(120));
    }

    #[test]
    fn stats_match_hand_computation() {
        let mut series = PrecisionSeries::new();
        for (t, v) in [(0, 100), (1, 200), (2, 300)] {
            series.push(sample(t, v));
        }
        let stats = series.stats().unwrap();
        assert_eq!(stats.mean, 200.0);
        assert!((stats.std - (20000.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(stats.min, Nanos::from_nanos(100));
        assert_eq!(stats.max, Nanos::from_nanos(300));
    }

    #[test]
    fn fraction_within_bound() {
        let mut series = PrecisionSeries::new();
        for (t, v) in [(0, 100), (1, 200), (2, 30_000)] {
            series.push(sample(t, v));
        }
        let f = series.fraction_within(Nanos::from_micros(12));
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn window_filters_by_time() {
        let mut series = PrecisionSeries::new();
        for t in 0..10 {
            series.push(sample(t, 1));
        }
        let w = series.window(SimTime::from_secs(3), SimTime::from_secs(6));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut series = PrecisionSeries::new();
        for (t, v) in (0..100u64).map(|i| (i, (i as i64 + 1) * 10)) {
            series.push(sample(t, v));
        }
        assert_eq!(series.quantile(0.5), Some(Nanos::from_nanos(500)));
        assert_eq!(series.quantile(0.99), Some(Nanos::from_nanos(990)));
        assert_eq!(series.quantile(1.0), Some(Nanos::from_nanos(1000)));
        assert_eq!(series.quantile(0.0), Some(Nanos::from_nanos(10)));
        assert_eq!(PrecisionSeries::new().quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_range_checked() {
        let mut series = PrecisionSeries::new();
        series.push(sample(0, 1));
        series.quantile(1.5);
    }

    #[test]
    fn max_sample_located() {
        let mut series = PrecisionSeries::new();
        series.push(sample(0, 10));
        series.push(sample(1, 10_080));
        series.push(sample(2, 12));
        let m = series.max().unwrap();
        assert_eq!(m.at, SimTime::from_secs(1));
        assert_eq!(m.value, Nanos::from_nanos(10_080));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut series = PrecisionSeries::new();
        series.push(sample(5, 1));
        series.push(sample(4, 1));
    }
}
