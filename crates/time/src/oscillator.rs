//! Free-running oscillator model.
//!
//! Every clock in the testbed — NIC PTP hardware clocks, host TSC-derived
//! system clocks, switch local clocks — is ultimately driven by a crystal
//! oscillator with a static frequency deviation (manufacturing tolerance)
//! plus slow stochastic *wander* (temperature, aging). IEEE 802.1AS assumes
//! a maximum drift rate of ±5 ppm for time-aware systems, which is the
//! bound the paper uses to derive the drift offset Γ = 2·r_max·S.

use crate::units::Ppb;
use rand::Rng;

/// Configuration for an [`Oscillator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillatorConfig {
    /// Maximum absolute static frequency deviation, in ppb. The initial
    /// deviation is drawn uniformly from `[-max_static_ppb, max_static_ppb]`.
    ///
    /// IEEE 802.1AS-2020 clause B.1.1 bounds this at ±100 ppm for
    /// conformance but assumes ±5 ppm ("5 ppm max drift rate referenced in
    /// the literature") when deriving synchronization bounds; the paper
    /// uses r_max = 5 ppm.
    pub max_static_ppb: Ppb,
    /// Standard deviation of each random-walk wander step, in ppb.
    pub wander_step_ppb: Ppb,
    /// Wander never moves the total deviation beyond
    /// `±(max_static_ppb + max_wander_excursion_ppb)`.
    pub max_wander_excursion_ppb: Ppb,
}

impl Default for OscillatorConfig {
    fn default() -> Self {
        OscillatorConfig {
            max_static_ppb: 5_000.0, // ±5 ppm
            wander_step_ppb: 5.0,
            max_wander_excursion_ppb: 200.0,
        }
    }
}

impl OscillatorConfig {
    /// An ideal oscillator with zero deviation and no wander. Useful as a
    /// reference clock in tests.
    pub fn ideal() -> Self {
        OscillatorConfig {
            max_static_ppb: 0.0,
            wander_step_ppb: 0.0,
            max_wander_excursion_ppb: 0.0,
        }
    }
}

/// A free-running oscillator: static deviation plus random-walk wander.
///
/// The oscillator's *rate* is the ratio of oscillator seconds to true
/// seconds minus one, expressed in ppb. A rate of +5000 ppb means the
/// oscillator gains 5 µs per true second.
///
/// Wander evolves only when [`Oscillator::step_wander`] is called; the
/// simulation schedules those steps at a fixed true-time cadence so runs
/// are deterministic for a given seed.
///
/// # Examples
///
/// ```
/// use tsn_time::{Oscillator, OscillatorConfig};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let osc = Oscillator::new(OscillatorConfig::default(), &mut rng);
/// assert!(osc.deviation_ppb().abs() <= 5_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Oscillator {
    config: OscillatorConfig,
    static_ppb: Ppb,
    wander_ppb: Ppb,
}

impl Oscillator {
    /// Creates an oscillator with a random static deviation drawn from the
    /// configured tolerance.
    pub fn new<R: Rng + ?Sized>(config: OscillatorConfig, rng: &mut R) -> Self {
        let static_ppb = if config.max_static_ppb > 0.0 {
            rng.gen_range(-config.max_static_ppb..=config.max_static_ppb)
        } else {
            0.0
        };
        Oscillator {
            config,
            static_ppb,
            wander_ppb: 0.0,
        }
    }

    /// Creates an oscillator with an exact static deviation (for tests and
    /// calibrated scenarios).
    pub fn with_deviation(config: OscillatorConfig, static_ppb: Ppb) -> Self {
        Oscillator {
            config,
            static_ppb,
            wander_ppb: 0.0,
        }
    }

    /// Current total frequency deviation from nominal, in ppb.
    pub fn deviation_ppb(&self) -> Ppb {
        self.static_ppb + self.wander_ppb
    }

    /// Current rate multiplier: oscillator seconds per true second.
    pub fn rate(&self) -> f64 {
        1.0 + self.deviation_ppb() * 1e-9
    }

    /// Advances the random-walk wander by one step. Returns the new total
    /// deviation in ppb.
    pub fn step_wander<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Ppb {
        if self.config.wander_step_ppb > 0.0 {
            // Box-Muller style normal sample from two uniforms; rand's
            // Standard distribution lacks normals without rand_distr, so we
            // synthesize one (sum of 12 uniforms, Irwin-Hall ~ N(0,1)).
            let mut z = -6.0;
            for _ in 0..12 {
                z += rng.gen::<f64>();
            }
            self.wander_ppb += z * self.config.wander_step_ppb;
            let lim = self.config.max_wander_excursion_ppb;
            self.wander_ppb = self.wander_ppb.clamp(-lim, lim);
        }
        self.deviation_ppb()
    }
}

tsn_snapshot::snap_state!(Oscillator {
    static_ppb,
    wander_ppb,
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_oscillator_has_unit_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let osc = Oscillator::new(OscillatorConfig::ideal(), &mut rng);
        assert_eq!(osc.deviation_ppb(), 0.0);
        assert_eq!(osc.rate(), 1.0);
    }

    #[test]
    fn static_deviation_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let osc = Oscillator::new(OscillatorConfig::default(), &mut rng);
            assert!(osc.deviation_ppb().abs() <= 5_000.0);
        }
    }

    #[test]
    fn wander_stays_within_excursion_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = OscillatorConfig {
            max_static_ppb: 0.0,
            wander_step_ppb: 50.0,
            max_wander_excursion_ppb: 100.0,
        };
        let mut osc = Oscillator::new(cfg, &mut rng);
        for _ in 0..10_000 {
            let dev = osc.step_wander(&mut rng);
            assert!(dev.abs() <= 100.0, "wander escaped: {dev}");
        }
    }

    #[test]
    fn wander_actually_moves() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = OscillatorConfig {
            max_static_ppb: 0.0,
            wander_step_ppb: 10.0,
            max_wander_excursion_ppb: 1000.0,
        };
        let mut osc = Oscillator::new(cfg, &mut rng);
        let mut moved = false;
        for _ in 0..100 {
            if osc.step_wander(&mut rng).abs() > 1.0 {
                moved = true;
            }
        }
        assert!(moved);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut osc = Oscillator::new(OscillatorConfig::default(), &mut rng);
            (0..50)
                .map(|_| osc.step_wander(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn with_deviation_is_exact() {
        let osc = Oscillator::with_deviation(OscillatorConfig::default(), 2_500.0);
        assert_eq!(osc.deviation_ppb(), 2_500.0);
        assert!((osc.rate() - 1.000_002_5).abs() < 1e-12);
    }
}
