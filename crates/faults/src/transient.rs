//! Transient software-stack fault models.
//!
//! Paper §III-C: "unintended protocol or software faults resulting from
//! the software stack could occur independently at any time. For example,
//! we occasionally observed missed transmission deadlines of Sync packets
//! or timeouts when ptp4l attempted to retrieve transmission timestamps
//! from the Linux kernel." Over 24 h the paper counted 2992 transmit
//! timestamp timeouts (an igb-driver issue with the Intel i210) and 347
//! transmission deadline misses.
//!
//! We model both as independent per-transmission Bernoulli faults whose
//! default probabilities are calibrated to the paper's observed rates
//! given the experiment's ≈2.76 M Sync transmissions
//! (4 GMs · 8 Sync/s · 86 400 s).

use rand::Rng;

/// Configuration of the transient fault models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientFaultConfig {
    /// Probability a Sync's hardware transmit timestamp retrieval times
    /// out (no Follow_Up is sent).
    pub tx_timestamp_timeout_prob: f64,
    /// Probability a Sync misses its ETF launch deadline (dropped by the
    /// qdisc).
    pub deadline_miss_prob: f64,
}

impl Default for TransientFaultConfig {
    fn default() -> Self {
        // 2992 / 2.76 M ≈ 1.08e-3; 347 / 2.76 M ≈ 1.26e-4.
        TransientFaultConfig {
            tx_timestamp_timeout_prob: 1.08e-3,
            deadline_miss_prob: 1.26e-4,
        }
    }
}

impl TransientFaultConfig {
    /// No transient faults (for clean-room tests).
    pub fn none() -> Self {
        TransientFaultConfig {
            tx_timestamp_timeout_prob: 0.0,
            deadline_miss_prob: 0.0,
        }
    }
}

/// Stateful transient fault sampler with occurrence counters.
#[derive(Debug, Clone)]
pub struct TransientFaults<R> {
    config: TransientFaultConfig,
    rng: R,
    /// Realized transmit-timestamp timeouts.
    pub tx_timestamp_timeouts: u64,
    /// Realized deadline misses.
    pub deadline_misses: u64,
}

impl<R: Rng> TransientFaults<R> {
    /// Creates a sampler over its own RNG stream.
    pub fn new(config: TransientFaultConfig, rng: R) -> Self {
        TransientFaults {
            config,
            rng,
            tx_timestamp_timeouts: 0,
            deadline_misses: 0,
        }
    }

    /// Draws whether this transmission's timestamp retrieval times out.
    pub fn tx_timestamp_times_out(&mut self) -> bool {
        let hit = self.config.tx_timestamp_timeout_prob > 0.0
            && self.rng.gen::<f64>() < self.config.tx_timestamp_timeout_prob;
        if hit {
            self.tx_timestamp_timeouts += 1;
        }
        hit
    }

    /// Draws whether this transmission misses its launch deadline.
    pub fn deadline_missed(&mut self) -> bool {
        let hit = self.config.deadline_miss_prob > 0.0
            && self.rng.gen::<f64>() < self.config.deadline_miss_prob;
        if hit {
            self.deadline_misses += 1;
        }
        hit
    }
}

// `config` is static; the RNG stream and realized-fault counters are the
// mutable state.
tsn_snapshot::snap_state!(impl[R: tsn_snapshot::Snap] TransientFaults<R> {
    rng,
    tx_timestamp_timeouts,
    deadline_misses,
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_config_never_faults() {
        let mut t = TransientFaults::new(TransientFaultConfig::none(), StdRng::seed_from_u64(1));
        for _ in 0..10_000 {
            assert!(!t.tx_timestamp_times_out());
            assert!(!t.deadline_missed());
        }
        assert_eq!(t.tx_timestamp_timeouts, 0);
        assert_eq!(t.deadline_misses, 0);
    }

    #[test]
    fn default_rates_land_near_paper_counts() {
        let mut t = TransientFaults::new(TransientFaultConfig::default(), StdRng::seed_from_u64(2));
        // Simulate the paper's ≈2.76 M Sync transmissions.
        let n = 2_764_800u64;
        for _ in 0..n {
            t.tx_timestamp_times_out();
            t.deadline_missed();
        }
        assert!(
            (2400..=3600).contains(&t.tx_timestamp_timeouts),
            "timeouts {}",
            t.tx_timestamp_timeouts
        );
        assert!(
            (250..=450).contains(&t.deadline_misses),
            "misses {}",
            t.deadline_misses
        );
    }

    #[test]
    fn counters_track_occurrences() {
        let cfg = TransientFaultConfig {
            tx_timestamp_timeout_prob: 1.0,
            deadline_miss_prob: 1.0,
        };
        let mut t = TransientFaults::new(cfg, StdRng::seed_from_u64(3));
        for _ in 0..5 {
            assert!(t.tx_timestamp_times_out());
            assert!(t.deadline_missed());
        }
        assert_eq!(t.tx_timestamp_timeouts, 5);
        assert_eq!(t.deadline_misses, 5);
    }
}
