//! Hardware timestamping error model.
//!
//! Real NICs timestamp frames at the MAC/PHY boundary with a granularity
//! set by the timestamping counter (8 ns on the Intel I210's 125 MHz SYSTIM
//! clock) plus PHY latency variation. `ptp4l` sees those errors directly;
//! they bound the achievable precision together with path-delay asymmetry.

use crate::units::Nanos;
use rand::Rng;

/// Configuration of the timestamping error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// Standard deviation of Gaussian timestamp noise, in ns.
    pub sigma_ns: f64,
    /// Timestamp counter granularity in ns (readings are quantized to a
    /// multiple of this). 8 ns models the I210.
    pub granularity_ns: u32,
}

impl Default for JitterConfig {
    fn default() -> Self {
        JitterConfig {
            sigma_ns: 8.0,
            granularity_ns: 8,
        }
    }
}

impl JitterConfig {
    /// A noiseless model (for tests that need exact timestamps).
    pub fn none() -> Self {
        JitterConfig {
            sigma_ns: 0.0,
            granularity_ns: 1,
        }
    }
}

/// Samples a timestamp error for one timestamping operation.
///
/// # Examples
///
/// ```
/// use tsn_time::{JitterConfig, sample_timestamp_error};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let e = sample_timestamp_error(&JitterConfig::default(), &mut rng);
/// assert!(e.abs().as_nanos() < 1_000);
/// ```
pub fn sample_timestamp_error<R: Rng + ?Sized>(config: &JitterConfig, rng: &mut R) -> Nanos {
    let noise = if config.sigma_ns > 0.0 {
        // Irwin-Hall approximation of a standard normal.
        let mut z = -6.0;
        for _ in 0..12 {
            z += rng.gen::<f64>();
        }
        z * config.sigma_ns
    } else {
        0.0
    };
    let g = config.granularity_ns.max(1) as f64;
    let quantized = round_to_i64(noise / g) as f64 * g;
    Nanos::from_nanos(quantized as i64)
}

/// `x.round() as i64`, bit for bit, without the call: on baseline x86-64
/// `f64::round` is an out-of-line libm routine, and the simulation
/// rounds one noise sample per hardware timestamp.
///
/// Below 2^52 in magnitude, truncation (`as i64`) and the remainder are
/// both exact, so comparing the remainder against ±0.5 is the
/// round-half-away-from-zero rule itself; larger values are integers
/// already and, with NaN, take the library path.
#[inline]
pub fn round_to_i64(x: f64) -> i64 {
    const EXACT_BELOW: f64 = 4_503_599_627_370_496.0; // 2^52
    if x.abs() < EXACT_BELOW {
        let whole = x as i64;
        let rem = x - whole as f64;
        // Arithmetic, not `if`: the fraction of a clock reading is as
        // good as random, so a branch on it mispredicts every other call.
        whole + i64::from(rem >= 0.5) - i64::from(rem <= -0.5)
    } else {
        x.round() as i64
    }
}

/// Quantizes an exact timestamp value to the counter granularity.
pub fn quantize(ts_ns: i64, config: &JitterConfig) -> i64 {
    let g = i64::from(config.granularity_ns.max(1));
    ts_ns.div_euclid(g) * g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_model_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                sample_timestamp_error(&JitterConfig::none(), &mut rng),
                Nanos::ZERO
            );
        }
    }

    #[test]
    fn errors_quantized_to_granularity() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = JitterConfig::default();
        for _ in 0..1000 {
            let e = sample_timestamp_error(&cfg, &mut rng);
            assert_eq!(e.as_nanos() % 8, 0, "unquantized error {e}");
        }
    }

    #[test]
    fn error_distribution_is_centered_and_scaled() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = JitterConfig {
            sigma_ns: 20.0,
            granularity_ns: 1,
        };
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_timestamp_error(&cfg, &mut rng).as_nanos() as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 20.0).abs() < 1.0, "std {}", var.sqrt());
    }

    #[test]
    fn round_to_i64_edge_cases() {
        let below_half = 0.499_999_999_999_999_94; // largest f64 < 0.5
        let two_52 = 4_503_599_627_370_496.0;
        let cases = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            below_half,
            -below_half,
            two_52 - 0.5,
            0.5 - two_52,
            two_52,
            -two_52,
            two_52 + 1.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::EPSILON - 0.5,
        ];
        for x in cases {
            assert_eq!(round_to_i64(x), x.round() as i64, "x = {x:e}");
        }
        assert_eq!(round_to_i64(below_half), 0);
        assert_eq!(round_to_i64(-2.5), -3);
    }

    #[test]
    fn quantize_floors_to_counter_tick() {
        let cfg = JitterConfig::default();
        assert_eq!(quantize(15, &cfg), 8);
        assert_eq!(quantize(16, &cfg), 16);
        assert_eq!(quantize(-3, &cfg), -8);
    }
}

#[cfg(test)]
mod proptests {
    use super::round_to_i64;
    use proptest::prelude::*;

    proptest! {
        /// Bit-exact with the library rounding on every bit pattern, on
        /// noise-sized values, and on and next to every half-way point.
        #[test]
        fn round_to_i64_matches_library_round(
            bits in any::<u64>(),
            noise in -1.0e6f64..1.0e6,
            k in -(1i64 << 52)..(1i64 << 52),
        ) {
            let half = k as f64 + 0.5;
            let (above, below) = (half.to_bits() + 1, half.to_bits() - 1);
            let neighbours = [f64::from_bits(above), f64::from_bits(below)];
            for x in [f64::from_bits(bits), noise, half, -half].into_iter().chain(neighbours) {
                prop_assert_eq!(round_to_i64(x), x.round() as i64, "x = {:e}", x);
            }
        }
    }
}
