//! `StreamingSummary`'s sketch against the sketch it replaced.
//!
//! The sketch keeps its buckets in a key-sorted vector (binary search)
//! and batches the keys of new buckets, merging them in one pass.
//! [`ReferenceSummary`] below is the `BTreeMap` version it replaced,
//! verbatim but for its name: the specification of every summary byte,
//! kept here because this comparison is its only caller (the role
//! `oracle_decode` plays for the artifact decoder).
//!
//! Each case draws a stream of more than three times
//! [`StreamingSummary::EXACT_CAP`] values over 40 octaves of both signs,
//! with ±0, subnormals, NaN and ±∞ mixed in, pushes it into both in two
//! orders, and requires `finalize()` to agree bit for bit — at the end
//! and every [`CHECK_EVERY`] pushes on the way, so a summary is also
//! finalized while new buckets are still waiting to be merged. One more
//! stream spans every exponent, so nearly every push opens a bucket.

use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tsn_metrics::{SampleSummary, StreamingSummary};

const SUBBUCKET_BITS: u32 = 7;

/// The `BTreeMap` sketch `StreamingSummary` had until its buckets became
/// a sorted vector.
#[derive(Default)]
struct ReferenceSummary {
    exact: Vec<f64>,
    buckets: BTreeMap<i64, u64>,
    count: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl ReferenceSummary {
    fn is_sketching(&self) -> bool {
        !self.buckets.is_empty()
    }

    fn push(&mut self, v: f64) {
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
            *self.buckets.entry(bucket_key(v)).or_insert(0) += 1;
        } else {
            self.exact.push(v);
            if self.exact.len() > StreamingSummary::EXACT_CAP {
                for &x in &self.exact {
                    *self.buckets.entry(bucket_key(x)).or_insert(0) += 1;
                }
                self.exact = Vec::new();
            }
        }
    }

    fn finalize(&self) -> Option<SampleSummary> {
        if self.count == 0 {
            return None;
        }
        if !self.is_sketching() {
            return SampleSummary::from_values(&self.exact);
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

    fn sketch_quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count as u64);
        let mut seen = 0u64;
        for (&key, &cnt) in &self.buckets {
            seen += cnt;
            if seen >= rank {
                return bucket_midpoint(key).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

fn bucket_key(v: f64) -> i64 {
    if v == 0.0 {
        return 0;
    }
    let magnitude = v.abs();
    let bits = magnitude.to_bits();
    let idx = (bits >> (52 - SUBBUCKET_BITS)) as i64;
    if v > 0.0 {
        idx + 1
    } else {
        -(idx + 1)
    }
}

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

/// One value: usually a normal number of either sign whose exponent
/// spans 40 octaves, sometimes one of the edges.
fn gen_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..64) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        // Subnormal: a zero exponent field and a non-zero mantissa.
        5 => {
            let v = f64::from_bits(rng.gen_range(1..1u64 << 52));
            if rng.gen() {
                -v
            } else {
                v
            }
        }
        _ => {
            let v: f64 = rng.gen_range(1.0..2.0) * 2f64.powi(rng.gen_range(-20..20));
            if rng.gen_range(0..3) == 0 {
                -v
            } else {
                v
            }
        }
    }
}

/// Pushes between two intermediate comparisons in [`agree`].
const CHECK_EVERY: usize = 997;

/// Both summaries of `values` pushed in order: equal, bit for bit,
/// after every [`CHECK_EVERY`] pushes and at the end.
fn agree(values: &[f64]) -> Result<(), String> {
    let mut sketch = StreamingSummary::new();
    let mut reference = ReferenceSummary::default();
    let bits = |s: Option<SampleSummary>| {
        s.map(|s| {
            (
                s.count,
                [s.mean, s.std, s.min, s.max, s.p50, s.p95, s.p99].map(f64::to_bits),
            )
        })
    };
    for (i, &v) in values.iter().enumerate() {
        sketch.push(v);
        reference.push(v);
        if (i + 1) % CHECK_EVERY == 0 || i + 1 == values.len() {
            let (got, expected) = (sketch.finalize(), reference.finalize());
            if bits(got) != bits(expected) {
                return Err(format!(
                    "summaries differ after {} values:\n vector   {got:?}\n BTreeMap {expected:?}",
                    i + 1
                ));
            }
        }
    }
    if !sketch.is_sketching() {
        return Err(format!("{} values did not reach the sketch", values.len()));
    }
    Ok(())
}

/// Every finite magnitude from the smallest subnormal to `f64::MAX`, of
/// both signs: a stream where almost every push opens a new bucket.
#[test]
fn a_stream_over_every_exponent_agrees() -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(26);
    let values: Vec<f64> = (0..40_000)
        .map(|_| {
            let v = f64::from_bits(rng.gen_range(1..f64::MAX.to_bits()));
            if rng.gen() {
                -v
            } else {
                v
            }
        })
        .collect();
    agree(&values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward and shuffled, the vector sketch summarizes every stream
    /// exactly as the `BTreeMap` sketch does.
    #[test]
    fn vector_sketch_agrees_with_the_btreemap_sketch(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * StreamingSummary::EXACT_CAP + rng.gen_range(1..4096usize);
        let mut values: Vec<f64> = (0..n).map(|_| gen_value(&mut rng)).collect();
        agree(&values)?;
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        agree(&values)?;
    }
}
