//! Bounded-memory streaming summarization.
//!
//! [`SampleSummary::from_values`] needs the whole sample in memory to
//! sort it for the nearest-rank quantiles — fine for cross-seed
//! aggregates (a handful of runs per group), hostile to fleet-scale
//! campaigns where one group can hold 10⁵⁺ records. [`StreamingSummary`]
//! accepts values one at a time and holds memory bounded by a fixed
//! cap:
//!
//! * **Exact mode** — up to [`StreamingSummary::EXACT_CAP`] values are
//!   buffered verbatim and finalized through
//!   [`SampleSummary::from_values`], so every campaign small enough to
//!   have fit the old in-memory path produces *byte-identical*
//!   summaries (same moments, same nearest-rank quantiles, same
//!   accumulation order — committed golden fixtures keep their hashes).
//! * **Sketch mode** — past the cap the buffered values are folded into
//!   a logarithmic-bucket histogram (HDR-style: ~0.8 % relative error
//!   per bucket, split by sign, exact zero bucket) plus exact running
//!   moments (count/sum/sum-of-squares/min/max). Quantiles come from
//!   the bucket midpoints; min/max/mean/std stay exact. The fold is
//!   order-independent, so 1-thread and N-thread campaign enumerations
//!   summarize identically.
//!
//! Non-finite values are filtered at `push`, mirroring `from_values`.

use crate::summary::SampleSummary;

/// Buckets per power of two in sketch mode (2⁷ sub-buckets ≈ 0.8 %
/// worst-case relative error on reconstructed quantiles).
const SUBBUCKET_BITS: u32 = 7;

/// An online [`SampleSummary`] builder with bounded memory.
#[derive(Debug, Clone, Default)]
pub struct StreamingSummary {
    /// Exact-mode buffer (first [`StreamingSummary::EXACT_CAP`] values).
    exact: Vec<f64>,
    /// Sketch-mode buckets: `(key, count)` sorted by key. Empty while
    /// exact. A push into a bucket that exists is a binary search.
    buckets: Vec<(i64, u64)>,
    /// Keys of sketch-mode pushes whose bucket is not in `buckets` yet,
    /// one entry per push. They are sorted and merged into `buckets` in
    /// one pass once there are as many as there are buckets, so a new
    /// bucket costs O(log n) amortized, however many there are.
    pending: Vec<i64>,
    /// Running count of finite values (both modes).
    count: usize,
    /// Running sum (same left-to-right accumulation order as
    /// `from_values`' `iter().sum()` for the exact prefix).
    sum: f64,
    /// Running sum of squares (sketch-mode std via E[x²] − E[x]²).
    sum_sq: f64,
    /// Exact minimum.
    min: f64,
    /// Exact maximum.
    max: f64,
}

impl StreamingSummary {
    /// Values buffered exactly before degrading to the sketch. Sized so
    /// every pre-fleet campaign (≤ thousands of runs per group) stays
    /// on the byte-identical exact path.
    pub const EXACT_CAP: usize = 4096;

    /// An empty summarizer.
    pub fn new() -> StreamingSummary {
        StreamingSummary::default()
    }

    /// Number of finite values pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the summarizer degraded to the logarithmic sketch.
    pub fn is_sketching(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// Pushes one value. Non-finite values are dropped (the same
    /// filtering [`SampleSummary::from_values`] applies).
    #[inline]
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if self.is_sketching() {
            let key = bucket_key(v);
            match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.buckets[i].1 += 1,
                Err(_) => {
                    self.pending.push(key);
                    if self.pending.len() >= self.buckets.len() {
                        self.fold_pending();
                    }
                }
            }
        } else {
            self.exact.push(v);
            if self.exact.len() > Self::EXACT_CAP {
                // Degrade: fold the buffer into buckets and drop it.
                self.pending = self.exact.iter().map(|&x| bucket_key(x)).collect();
                self.exact = Vec::new();
                self.fold_pending();
            }
        }
    }

    /// Merges the pending keys into `buckets`: one sort of the keys,
    /// then one pass over both sorted lists (a pending key is never in
    /// `buckets` already).
    #[cold]
    fn fold_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        let runs = pending.chunk_by(|a, b| a == b);
        let mut merged = Vec::with_capacity(self.buckets.len() + runs.clone().count());
        let mut old = self.buckets.iter().copied().peekable();
        for run in runs {
            merged.extend(std::iter::from_fn(|| old.next_if(|&(k, _)| k < run[0])));
            merged.push((run[0], run.len() as u64));
        }
        merged.extend(old);
        self.buckets = merged;
    }

    /// Finalizes into a [`SampleSummary`]; `None` when no finite value
    /// was pushed. Exact mode returns precisely what
    /// [`SampleSummary::from_values`] would for the same sequence.
    pub fn finalize(&self) -> Option<SampleSummary> {
        if self.count == 0 {
            return None;
        }
        if !self.is_sketching() {
            return SampleSummary::from_values(&self.exact);
        }
        if !self.pending.is_empty() {
            let mut folded = self.clone();
            folded.fold_pending();
            return folded.finalize();
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        Some(SampleSummary {
            count: self.count,
            mean,
            std: var.sqrt(),
            min: self.min,
            max: self.max,
            p50: self.sketch_quantile(0.50),
            p95: self.sketch_quantile(0.95),
            p99: self.sketch_quantile(0.99),
        })
    }

    /// Nearest-rank quantile from the bucket histogram: walk buckets in
    /// ascending value order until the rank is covered, then report the
    /// bucket's representative midpoint clamped into `[min, max]`.
    fn sketch_quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count as u64);
        let mut seen = 0u64;
        for &(key, cnt) in &self.buckets {
            seen += cnt;
            if seen >= rank {
                return bucket_midpoint(key).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Maps a finite value to its logarithmic bucket key. Keys order the
/// same way the values do (negative < zero < positive), so a walk of the
/// key-sorted buckets visits them in ascending value order.
fn bucket_key(v: f64) -> i64 {
    if v == 0.0 {
        return 0;
    }
    let magnitude = v.abs();
    // Exponent-scaled index: floor(log2 · 2^SUBBUCKET_BITS) over the
    // f64 bit pattern — monotone in |v|, no transcendental calls.
    let bits = magnitude.to_bits();
    let idx = (bits >> (52 - SUBBUCKET_BITS)) as i64; // sign bit is 0
    if v > 0.0 {
        idx + 1
    } else {
        -(idx + 1)
    }
}

/// The representative value of a bucket: the geometric center of the
/// bucket's value range (midpoint of the truncated mantissa interval).
fn bucket_midpoint(key: i64) -> f64 {
    if key == 0 {
        return 0.0;
    }
    let idx = (key.abs() - 1) as u64;
    let low_bits = idx << (52 - SUBBUCKET_BITS);
    let half_step = 1u64 << (52 - SUBBUCKET_BITS - 1);
    let mid = f64::from_bits(low_bits + half_step);
    if key > 0 {
        mid
    } else {
        -mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_matches_from_values_bit_for_bit() {
        let values: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 991) as f64 * 1.5 - 200.0)
            .collect();
        let mut s = StreamingSummary::new();
        for &v in &values {
            s.push(v);
        }
        assert!(!s.is_sketching());
        let a = s.finalize().unwrap();
        let b = SampleSummary::from_values(&values).unwrap();
        assert_eq!(a, b, "exact mode must be indistinguishable");
    }

    #[test]
    fn non_finite_values_are_filtered_like_from_values() {
        let mut s = StreamingSummary::new();
        for v in [1.0, f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY] {
            s.push(v);
        }
        let a = s.finalize().unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.mean, 2.0);
        let mut empty = StreamingSummary::new();
        empty.push(f64::NAN);
        assert!(empty.finalize().is_none());
        assert!(StreamingSummary::new().finalize().is_none());
    }

    #[test]
    fn sketch_mode_bounds_memory_and_stays_close() {
        let n = 200_000usize;
        let mut s = StreamingSummary::new();
        for i in 0..n {
            // A deterministic spread over ~3 decades with both signs.
            let v = (((i * 2654435761) % 100_000) as f64) - 20_000.0;
            s.push(v);
        }
        assert!(s.is_sketching());
        assert!(
            s.buckets.len() < 8192,
            "bucket count must stay bounded, got {}",
            s.buckets.len()
        );
        let got = s.finalize().unwrap();
        assert_eq!(got.count, n);
        // Moments and extremes are exact.
        assert_eq!(got.min, -20_000.0);
        assert_eq!(got.max, 79_999.0);
        assert!((got.mean - 29_999.5).abs() < 1.0);
        // Quantiles are sketched: within the ~0.8 % bucket error.
        let p50_exact = 30_000.0;
        assert!(
            (got.p50 - p50_exact).abs() / p50_exact < 0.01,
            "p50 {} vs exact {p50_exact}",
            got.p50
        );
        let p95_exact = 75_000.0;
        assert!((got.p95 - p95_exact).abs() / p95_exact < 0.01);
    }

    #[test]
    fn sketch_fold_is_order_independent() {
        let values: Vec<f64> = (0..(StreamingSummary::EXACT_CAP * 2))
            .map(|i| ((i * 48271) % 65_536) as f64 / 7.0)
            .collect();
        let mut fwd = StreamingSummary::new();
        for &v in &values {
            fwd.push(v);
        }
        let mut rev = StreamingSummary::new();
        for &v in values.iter().rev() {
            rev.push(v);
        }
        let a = fwd.finalize().unwrap();
        let b = rev.finalize().unwrap();
        assert_eq!(a.count, b.count);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p95, b.p95);
        assert_eq!(a.p99, b.p99);
        assert!((a.mean - b.mean).abs() < 1e-9 * a.mean.abs().max(1.0));
    }

    #[test]
    fn bucket_key_orders_like_values() {
        let samples = [
            -1e9, -5.0, -1.0, -1e-6, 0.0, 1e-6, 0.5, 1.0, 1.004, 2.0, 1e9,
        ];
        for w in samples.windows(2) {
            assert!(
                bucket_key(w[0]) <= bucket_key(w[1]),
                "keys must be monotone: {} vs {}",
                w[0],
                w[1]
            );
        }
        // The midpoint lands inside the bucket's value range.
        for v in [0.37, 1.0, 123.456, 9.9e7] {
            let mid = bucket_midpoint(bucket_key(v));
            assert!((mid - v).abs() / v < 0.01, "midpoint {mid} far from {v}");
        }
    }
}
