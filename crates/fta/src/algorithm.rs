//! Fault-tolerant average and alternative aggregation functions.
//!
//! The fault-tolerant average (FTA) of Kopetz and Ochsenreiter (*Clock
//! Synchronization in Distributed Real-Time Systems*, IEEE ToC 1987 — the
//! paper's reference [3]): sort the `N` clock readings, discard the `f`
//! largest and `f` smallest, and average the remaining `N − 2f`. With
//! `N ≥ 3f + 1` readings the result is guaranteed to lie within the range
//! of correct clocks even when up to `f` readings are Byzantine.
//!
//! `Mean` and `Median` are provided as ablation baselines: the mean is
//! what a non-fault-tolerant multi-domain aggregation would compute, and
//! the median is FTA's limiting case.

use tsn_time::Nanos;

/// Values a round's scratch buffer holds on the stack: four times the
/// paper's `M = 4` domains.
const STACK_VALUES: usize = 16;

/// Calls `f` with a default-filled scratch buffer of `len` values — on
/// the stack up to [`STACK_VALUES`], so an aggregation round allocates
/// nothing for its temporaries; a longer one comes from the heap.
pub(crate) fn with_scratch<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut stack = [T::default(); STACK_VALUES];
    match stack.get_mut(..len) {
        Some(scratch) => f(scratch),
        None => f(&mut vec![T::default(); len]),
    }
}

/// Writes `values` into the front of `scratch` and returns the part
/// written.
pub(crate) fn fill<T>(scratch: &mut [T], values: impl Iterator<Item = T>) -> &mut [T] {
    let mut n = 0;
    for (slot, v) in scratch.iter_mut().zip(values) {
        *slot = v;
        n += 1;
    }
    &mut scratch[..n]
}

/// Calls `f` with the offsets in ascending order, as plain nanoseconds.
fn with_sorted<R>(offsets: &[Nanos], f: impl FnOnce(&[i64]) -> R) -> R {
    with_scratch(offsets.len(), |scratch| {
        let sorted = fill(scratch, offsets.iter().map(|o| o.as_nanos()));
        sorted.sort_unstable();
        f(sorted)
    })
}

/// The aggregation function applied to the per-domain GM offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMethod {
    /// Kopetz–Ochsenreiter FTA discarding `f` extremes on each side.
    FaultTolerantAverage {
        /// Number of Byzantine values to tolerate.
        f: usize,
    },
    /// Welch–Lynch fault-tolerant midpoint: discard `f` extremes per
    /// side, then take the midpoint of the remaining range.
    FaultTolerantMidpoint {
        /// Number of Byzantine values to tolerate.
        f: usize,
    },
    /// Plain arithmetic mean (no fault tolerance).
    Mean,
    /// Median of the values.
    Median,
}

impl AggregationMethod {
    /// Minimum number of inputs this method needs to produce a value.
    pub fn min_inputs(&self) -> usize {
        self.f().map_or(1, |f| 2 * f + 1)
    }

    /// The Byzantine values the method tolerates, which is also the
    /// extreme values it discards per side: `Some(f)` for the two
    /// fault-tolerant methods, `None` for mean and median. Every reader
    /// of a run's `f` (the bounds, the oracle, the trace's trim
    /// accounting, the frontier) derives it from here.
    pub fn f(&self) -> Option<usize> {
        match self {
            AggregationMethod::FaultTolerantAverage { f }
            | AggregationMethod::FaultTolerantMidpoint { f } => Some(*f),
            AggregationMethod::Mean | AggregationMethod::Median => None,
        }
    }

    /// Aggregates `offsets`, returning `None` if there are too few inputs.
    pub fn aggregate(&self, offsets: &[Nanos]) -> Option<Nanos> {
        match self {
            AggregationMethod::FaultTolerantAverage { f } => fault_tolerant_average(offsets, *f),
            AggregationMethod::FaultTolerantMidpoint { f } => fault_tolerant_midpoint(offsets, *f),
            AggregationMethod::Mean => mean(offsets),
            AggregationMethod::Median => median(offsets),
        }
    }
}

/// The fault-tolerant average: sorts, discards the `f` lowest and `f`
/// highest values, and averages the rest.
///
/// Returns `None` when fewer than `2f + 1` values are supplied (nothing
/// would remain, or the result could be dominated by faulty values).
///
/// # Examples
///
/// ```
/// use tsn_fta::fault_tolerant_average;
/// use tsn_time::Nanos;
///
/// let offsets: Vec<Nanos> = [10, -24_000, 20, 30] // one Byzantine value
///     .iter().map(|&n| Nanos::from_nanos(n)).collect();
/// let fta = fault_tolerant_average(&offsets, 1).unwrap();
/// assert_eq!(fta, Nanos::from_nanos(15)); // (10 + 20) / 2
/// ```
pub fn fault_tolerant_average(offsets: &[Nanos], f: usize) -> Option<Nanos> {
    if offsets.len() < 2 * f + 1 {
        return None;
    }
    let avg = with_sorted(offsets, |sorted| {
        let kept = &sorted[f..sorted.len() - f];
        let sum: i128 = kept.iter().map(|&v| i128::from(v)).sum();
        // Round-half-away-from-zero division keeps the average unbiased.
        let n = kept.len() as i128;
        (sum + if sum >= 0 { n / 2 } else { -(n / 2) }) / n
    });
    Some(Nanos::from_nanos(avg as i64))
}

/// The Welch–Lynch fault-tolerant midpoint: discard the `f` lowest and
/// `f` highest values, then return the midpoint of the smallest and
/// largest survivors. Converges like the FTA but weighs only the extreme
/// survivors, which gives it a slightly worse noise floor and the same
/// Byzantine tolerance.
///
/// Returns `None` when fewer than `2f + 1` values are supplied.
pub fn fault_tolerant_midpoint(offsets: &[Nanos], f: usize) -> Option<Nanos> {
    if offsets.len() < 2 * f + 1 {
        return None;
    }
    let mid = with_sorted(offsets, |sorted| {
        let kept = &sorted[f..sorted.len() - f];
        (i128::from(kept[0]) + i128::from(kept[kept.len() - 1])) / 2
    });
    Some(Nanos::from_nanos(mid as i64))
}

/// Indices of the values a trim-`f` aggregation discards: the `f`
/// smallest and `f` largest (ties broken by index, matching a stable
/// sort). Empty when `f == 0` or there are too few values to aggregate.
///
/// This mirrors the discard step of [`fault_tolerant_average`] /
/// [`fault_tolerant_midpoint`] so observers (tracing) can report *which*
/// domains were trimmed, not just the surviving average.
pub fn trimmed_indices(offsets: &[Nanos], f: usize) -> Vec<usize> {
    if f == 0 || offsets.len() < 2 * f + 1 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..offsets.len()).collect();
    order.sort_by_key(|&i| (offsets[i].as_nanos(), i));
    let mut trimmed: Vec<usize> = order[..f]
        .iter()
        .chain(&order[order.len() - f..])
        .copied()
        .collect();
    trimmed.sort_unstable();
    trimmed
}

/// Arithmetic mean of the offsets. `None` on empty input.
pub fn mean(offsets: &[Nanos]) -> Option<Nanos> {
    if offsets.is_empty() {
        return None;
    }
    let sum: i128 = offsets.iter().map(|o| i128::from(o.as_nanos())).sum();
    let n = offsets.len() as i128;
    let avg = (sum + if sum >= 0 { n / 2 } else { -(n / 2) }) / n;
    Some(Nanos::from_nanos(avg as i64))
}

/// Median of the offsets (lower-middle for even counts). `None` on empty
/// input.
pub fn median(offsets: &[Nanos]) -> Option<Nanos> {
    if offsets.is_empty() {
        return None;
    }
    let m = with_sorted(offsets, |sorted| {
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2
        }
    });
    Some(Nanos::from_nanos(m))
}

/// Validity flags per the paper's `FTSHMEM` layout: "an array of M
/// booleans indicating whether the corresponding GM clock's offset from
/// the remaining GM clocks is within a configurable threshold".
///
/// A GM's offset is flagged valid when its distance from the median of
/// all offsets is at most `threshold`. Missing (stale/down) domains are
/// flagged invalid.
pub fn validity_flags(offsets: &[Option<Nanos>], threshold: Nanos) -> Vec<bool> {
    let present = offsets.iter().flatten().copied();
    let Some(med) = with_scratch(offsets.len(), |scratch| median(fill(scratch, present))) else {
        return vec![false; offsets.len()];
    };
    offsets
        .iter()
        .map(|o| match o {
            Some(v) => (*v - med).abs() <= threshold,
            None => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(values: &[i64]) -> Vec<Nanos> {
        values.iter().map(|&v| Nanos::from_nanos(v)).collect()
    }

    #[test]
    fn fta_drops_extremes() {
        // Paper's scenario: one GM shifted by −24 µs among 4.
        let offsets = ns(&[100, 200, 300, -24_000]);
        assert_eq!(
            fault_tolerant_average(&offsets, 1),
            Some(Nanos::from_nanos(150))
        );
    }

    #[test]
    fn fta_requires_2f_plus_1() {
        assert_eq!(fault_tolerant_average(&ns(&[1, 2]), 1), None);
        assert!(fault_tolerant_average(&ns(&[1, 2, 3]), 1).is_some());
        assert_eq!(fault_tolerant_average(&ns(&[]), 0), None);
    }

    #[test]
    fn fta_of_three_is_median() {
        let offsets = ns(&[5, -1000, 42]);
        assert_eq!(
            fault_tolerant_average(&offsets, 1),
            Some(Nanos::from_nanos(5))
        );
    }

    #[test]
    fn fta_with_f_zero_is_mean() {
        let offsets = ns(&[10, 20, 30]);
        assert_eq!(fault_tolerant_average(&offsets, 0), mean(&offsets));
    }

    #[test]
    fn two_byzantine_values_break_f1() {
        // The paper's second exploit: two GMs shifted by −24 µs. FTA with
        // f = 1 keeps one of them — the aggregate is dragged far outside
        // the correct clocks' range.
        let offsets = ns(&[100, 200, -24_000, -24_000]);
        let fta = fault_tolerant_average(&offsets, 1).unwrap();
        assert!(
            fta < Nanos::from_nanos(-10_000),
            "aggregate {fta} not dragged"
        );
    }

    #[test]
    fn mean_is_not_fault_tolerant() {
        let offsets = ns(&[100, 200, 300, -24_000]);
        let m = mean(&offsets).unwrap();
        assert!(m < Nanos::from_nanos(-5_000));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&ns(&[3, 1, 2])), Some(Nanos::from_nanos(2)));
        assert_eq!(median(&ns(&[4, 1, 2, 3])), Some(Nanos::from_nanos(2)));
        assert_eq!(median(&ns(&[])), None);
    }

    #[test]
    fn rounding_is_symmetric() {
        assert_eq!(mean(&ns(&[1, 2])), Some(Nanos::from_nanos(2))); // 1.5 → 2
        assert_eq!(mean(&ns(&[-1, -2])), Some(Nanos::from_nanos(-2))); // −1.5 → −2
    }

    #[test]
    fn validity_flags_mark_outliers_and_missing() {
        let offsets = vec![
            Some(Nanos::from_nanos(100)),
            Some(Nanos::from_nanos(-24_000)),
            None,
            Some(Nanos::from_nanos(150)),
        ];
        let flags = validity_flags(&offsets, Nanos::from_micros(1));
        assert_eq!(flags, vec![true, false, false, true]);
    }

    #[test]
    fn validity_flags_all_false_when_empty() {
        let flags = validity_flags(&[None, None], Nanos::from_micros(1));
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn midpoint_masks_extremes() {
        let offsets = ns(&[100, 200, 300, -24_000]);
        // Survivors after trimming 1/side: {100, 200} → midpoint 150.
        assert_eq!(
            fault_tolerant_midpoint(&offsets, 1),
            Some(Nanos::from_nanos(150))
        );
        assert_eq!(fault_tolerant_midpoint(&ns(&[1, 2]), 1), None);
    }

    #[test]
    fn midpoint_vs_average_on_skewed_survivors() {
        // Survivors {0, 10, 1000}: average 337, midpoint 500.
        let offsets = ns(&[-9_999, 0, 10, 1_000, 99_999]);
        assert_eq!(
            fault_tolerant_average(&offsets, 1),
            Some(Nanos::from_nanos(337))
        );
        assert_eq!(
            fault_tolerant_midpoint(&offsets, 1),
            Some(Nanos::from_nanos(500))
        );
    }

    #[test]
    fn method_dispatch() {
        let offsets = ns(&[100, 200, 300, -24_000]);
        let fta = AggregationMethod::FaultTolerantAverage { f: 1 };
        assert_eq!(fta.aggregate(&offsets), Some(Nanos::from_nanos(150)));
        assert_eq!(fta.min_inputs(), 3);
        assert_eq!(fta.f(), Some(1));
        assert_eq!(AggregationMethod::Median.f(), None);
        assert_eq!(
            AggregationMethod::Median.aggregate(&offsets),
            Some(Nanos::from_nanos(150))
        );
        assert_eq!(AggregationMethod::Mean.min_inputs(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn nanos_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Nanos>> {
        proptest::collection::vec(
            (-1_000_000_000i64..1_000_000_000).prop_map(Nanos::from_nanos),
            len,
        )
    }

    proptest! {
        /// FTA always lies within [min, max] of the kept (non-extreme)
        /// values — hence within the range of correct clocks when at most
        /// f are faulty.
        #[test]
        fn fta_bounded_by_inner_values(values in nanos_vec(3..20), f in 0usize..3) {
            prop_assume!(values.len() > 2 * f);
            let result = fault_tolerant_average(&values, f).unwrap();
            let mut sorted: Vec<i64> = values.iter().map(|v| v.as_nanos()).collect();
            sorted.sort_unstable();
            let inner = &sorted[f..sorted.len() - f];
            prop_assert!(result.as_nanos() >= inner[0] - 1);
            prop_assert!(result.as_nanos() <= inner[inner.len() - 1] + 1);
        }

        /// Byzantine masking: replacing up to f honest values with
        /// arbitrary outliers moves the FTA by at most the spread of the
        /// honest values.
        #[test]
        fn fta_masks_f_outliers(
            honest in nanos_vec(3..10),
            outlier in -1_000_000_000_000i64..1_000_000_000_000,
        ) {
            let f = 1usize;
            prop_assume!(honest.len() > 2 * f);
            let hmin = honest.iter().map(|v| v.as_nanos()).min().unwrap();
            let hmax = honest.iter().map(|v| v.as_nanos()).max().unwrap();
            let mut attacked = honest.clone();
            attacked.push(Nanos::from_nanos(outlier));
            let result = fault_tolerant_average(&attacked, f).unwrap();
            prop_assert!(result.as_nanos() >= hmin - 1, "dragged below honest range");
            prop_assert!(result.as_nanos() <= hmax + 1, "dragged above honest range");
        }

        /// FTA is permutation-invariant.
        #[test]
        fn fta_permutation_invariant(values in nanos_vec(3..12)) {
            let f = 1usize;
            prop_assume!(values.len() > 2 * f);
            let a = fault_tolerant_average(&values, f);
            let mut rev = values.clone();
            rev.reverse();
            prop_assert_eq!(a, fault_tolerant_average(&rev, f));
        }

        /// FTA is monotone: increasing any single input never decreases
        /// the output.
        #[test]
        fn fta_monotone(values in nanos_vec(3..10), idx in 0usize..10, bump in 0i64..1_000_000) {
            let f = 1usize;
            prop_assume!(values.len() > 2 * f);
            let idx = idx % values.len();
            let before = fault_tolerant_average(&values, f).unwrap();
            let mut bumped = values.clone();
            bumped[idx] = Nanos::from_nanos(bumped[idx].as_nanos() + bump);
            let after = fault_tolerant_average(&bumped, f).unwrap();
            prop_assert!(after >= before);
        }

        /// Translation equivariance: shifting all inputs by c shifts the
        /// output by c (within rounding).
        #[test]
        fn fta_translation_equivariant(values in nanos_vec(3..10), shift in -1_000_000i64..1_000_000) {
            let f = 1usize;
            prop_assume!(values.len() > 2 * f);
            let base = fault_tolerant_average(&values, f).unwrap();
            let shifted: Vec<Nanos> =
                values.iter().map(|v| Nanos::from_nanos(v.as_nanos() + shift)).collect();
            let res = fault_tolerant_average(&shifted, f).unwrap();
            let diff = (res.as_nanos() - base.as_nanos() - shift).abs();
            prop_assert!(diff <= 1);
        }

        /// Median and mean agree with FTA's limits.
        #[test]
        fn fta_full_trim_is_median(values in nanos_vec(3..4)) {
            // For 3 values and f = 1 the FTA is exactly the median.
            prop_assert_eq!(
                fault_tolerant_average(&values, 1),
                median(&values)
            );
        }

        /// The Welch–Lynch midpoint shares the FTA's containment
        /// guarantee: it lies within [min, max] of the kept values.
        #[test]
        fn midpoint_bounded_by_inner_values(values in nanos_vec(3..20), f in 0usize..3) {
            prop_assume!(values.len() > 2 * f);
            let result = fault_tolerant_midpoint(&values, f).unwrap();
            let mut sorted: Vec<i64> = values.iter().map(|v| v.as_nanos()).collect();
            sorted.sort_unstable();
            let inner = &sorted[f..sorted.len() - f];
            prop_assert!(result.as_nanos() >= inner[0] - 1);
            prop_assert!(result.as_nanos() <= inner[inner.len() - 1] + 1);
        }

        /// Byzantine masking holds for the midpoint too: one arbitrary
        /// outlier cannot drag it outside the honest range.
        #[test]
        fn midpoint_masks_f_outliers(
            honest in nanos_vec(3..10),
            outlier in -1_000_000_000_000i64..1_000_000_000_000,
        ) {
            let f = 1usize;
            prop_assume!(honest.len() > 2 * f);
            let hmin = honest.iter().map(|v| v.as_nanos()).min().unwrap();
            let hmax = honest.iter().map(|v| v.as_nanos()).max().unwrap();
            let mut attacked = honest.clone();
            attacked.push(Nanos::from_nanos(outlier));
            let result = fault_tolerant_midpoint(&attacked, f).unwrap();
            prop_assert!(result.as_nanos() >= hmin - 1, "dragged below honest range");
            prop_assert!(result.as_nanos() <= hmax + 1, "dragged above honest range");
        }

        /// The median always lies within [min, max] of its inputs.
        #[test]
        fn median_bounded_by_inputs(values in nanos_vec(1..20)) {
            let result = median(&values).unwrap();
            let min = values.iter().min().unwrap().as_nanos();
            let max = values.iter().max().unwrap().as_nanos();
            prop_assert!(result.as_nanos() >= min);
            prop_assert!(result.as_nanos() <= max);
        }

        /// `aggregate` succeeds exactly when `min_inputs` is met, for
        /// every method — the two must never drift apart (the aggregator
        /// uses `min_inputs` to gate startup, the oracle to gate its
        /// containment check).
        #[test]
        fn aggregate_some_iff_min_inputs(values in nanos_vec(0..12), f in 0usize..4) {
            let methods = [
                AggregationMethod::FaultTolerantAverage { f },
                AggregationMethod::FaultTolerantMidpoint { f },
                AggregationMethod::Mean,
                AggregationMethod::Median,
            ];
            for method in methods {
                prop_assert_eq!(
                    method.aggregate(&values).is_some(),
                    values.len() >= method.min_inputs(),
                    "method {:?} with {} inputs",
                    method,
                    values.len()
                );
            }
        }
    }

    /// The empty slice is deterministic for every method: always `None`,
    /// never a panic (proptest rarely generates the boundary itself).
    #[test]
    fn empty_slice_aggregates_to_none() {
        for method in [
            AggregationMethod::FaultTolerantAverage { f: 0 },
            AggregationMethod::FaultTolerantAverage { f: 1 },
            AggregationMethod::FaultTolerantMidpoint { f: 0 },
            AggregationMethod::FaultTolerantMidpoint { f: 2 },
            AggregationMethod::Mean,
            AggregationMethod::Median,
        ] {
            assert_eq!(method.aggregate(&[]), None, "{method:?} on empty input");
        }
    }
}
