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
    let quantized = (noise / g).round() * g;
    Nanos::from_nanos(quantized as i64)
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
    fn quantize_floors_to_counter_tick() {
        let cfg = JitterConfig::default();
        assert_eq!(quantize(15, &cfg), 8);
        assert_eq!(quantize(16, &cfg), 16);
        assert_eq!(quantize(-3, &cfg), -8);
    }
}
