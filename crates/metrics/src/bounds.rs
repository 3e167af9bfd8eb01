//! The upper bound on clock-synchronization precision (paper §III-A3).
//!
//! The paper instantiates the Kopetz–Ochsenreiter convergence function
//! for the fault-tolerant average:
//!
//! ```text
//! Π(N, f, E, Γ) = u(N, f) · (E + Γ),   u(N, f) = (N − 2f) / (N − 3f)
//! ```
//!
//! with reading error `E = d_max − d_min` (the spread of network path
//! delays between any two nodes) and drift offset `Γ = 2 · r_max · S`.
//! For N = 4 domains and f = 1 the factor is 2, giving the paper's
//! `Π = 2(E + Γ)`. The measurement error γ (Eq. 3.2) is the delay spread
//! over the *measurement* paths only.

use tsn_time::{Nanos, Ppb};

/// Drift offset `Γ = 2 · r_max · S`.
///
/// With the literature's r_max = 5 ppm and the paper's S = 125 ms this is
/// 1.25 µs.
pub fn drift_offset(r_max_ppb: Ppb, sync_interval: Nanos) -> Nanos {
    let gamma = 2.0 * r_max_ppb * 1e-9 * sync_interval.as_nanos() as f64;
    Nanos::from_nanos(gamma.round() as i64)
}

/// The FTA convergence factor `u(N, f) = (N − 2f)/(N − 3f)`.
///
/// # Panics
///
/// Panics unless `N > 3f` (the FTA's Byzantine-tolerance requirement).
pub fn u_factor(n: usize, f: usize) -> f64 {
    assert!(n > 3 * f, "FTA requires N > 3f (got N={n}, f={f})");
    (n - 2 * f) as f64 / (n - 3 * f) as f64
}

/// The precision bound `Π(N, f, E, Γ)`.
pub fn precision_bound(n: usize, f: usize, reading_error: Nanos, drift_offset: Nanos) -> Nanos {
    let u = u_factor(n, f);
    Nanos::from_nanos(
        (u * (reading_error.as_nanos() + drift_offset.as_nanos()) as f64).round() as i64,
    )
}

/// The derived bounds of one experiment, as the paper reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsReport {
    /// Minimum path delay between any two nodes (`d_min`).
    pub d_min: Nanos,
    /// Maximum path delay between any two nodes (`d_max`).
    pub d_max: Nanos,
    /// Reading error `E = d_max − d_min`.
    pub reading_error: Nanos,
    /// Drift offset `Γ`.
    pub drift_offset: Nanos,
    /// The precision bound `Π`.
    pub pi: Nanos,
    /// Measurement error `γ` (Eq. 3.2) over the measurement paths.
    pub gamma: Nanos,
    /// The fault count `f` that `Π` was derived with.
    pub f: usize,
}

impl BoundsReport {
    /// Derives the report from per-path delay bounds.
    ///
    /// `all_paths` are `(d_min, d_max)` bounds for every ordered node
    /// pair considered by `ptp4l`'s delay data; `measurement_paths` are
    /// the bounds for the probe paths from the measurement VM (Eq. 3.2).
    ///
    /// # Panics
    ///
    /// Panics if either path set is empty or `n ≤ 3f`.
    pub fn derive(
        n: usize,
        f: usize,
        r_max_ppb: Ppb,
        sync_interval: Nanos,
        all_paths: &[(Nanos, Nanos)],
        measurement_paths: &[(Nanos, Nanos)],
    ) -> BoundsReport {
        assert!(!all_paths.is_empty(), "need at least one path");
        assert!(
            !measurement_paths.is_empty(),
            "need at least one measurement path"
        );
        let d_min = all_paths.iter().map(|p| p.0).min().expect("nonempty");
        let d_max = all_paths.iter().map(|p| p.1).max().expect("nonempty");
        let reading_error = d_max - d_min;
        let gamma_max = measurement_paths
            .iter()
            .map(|p| p.1)
            .max()
            .expect("nonempty");
        let gamma_min = measurement_paths
            .iter()
            .map(|p| p.0)
            .min()
            .expect("nonempty");
        let gamma = gamma_max - gamma_min;
        let gam = drift_offset(r_max_ppb, sync_interval);
        BoundsReport {
            d_min,
            d_max,
            reading_error,
            drift_offset: gam,
            pi: precision_bound(n, f, reading_error, gam),
            gamma,
            f,
        }
    }

    /// The plotted threshold `Π + γ` (measured precision must stay
    /// below it; paper Eq. 3.3 rearranged).
    pub fn pi_plus_gamma(&self) -> Nanos {
        self.pi + self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_drift_offset() {
        // Γ = 2 · 5 ppm · 125 ms = 1.25 µs.
        assert_eq!(
            drift_offset(5_000.0, Nanos::from_millis(125)),
            Nanos::from_nanos(1_250)
        );
    }

    #[test]
    fn paper_u_factor() {
        assert_eq!(u_factor(4, 1), 2.0);
        assert_eq!(u_factor(4, 0), 1.0);
        assert_eq!(u_factor(7, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "N > 3f")]
    fn u_factor_requires_byzantine_quorum() {
        u_factor(3, 1);
    }

    #[test]
    fn paper_experiment_one_bound() {
        // d_min = 4120 ns, d_max = 9188 ns → E = 5068 ns;
        // Π = 2(E + Γ) = 2(5068 + 1250) = 12636 ns = 12.636 µs.
        let e = Nanos::from_nanos(9_188) - Nanos::from_nanos(4_120);
        let gamma = drift_offset(5_000.0, Nanos::from_millis(125));
        let pi = precision_bound(4, 1, e, gamma);
        assert_eq!(pi, Nanos::from_nanos(12_636));
    }

    #[test]
    fn derive_report_from_paths() {
        let all = vec![
            (Nanos::from_nanos(4_120), Nanos::from_nanos(5_000)),
            (Nanos::from_nanos(6_000), Nanos::from_nanos(9_188)),
        ];
        let meas = vec![
            (Nanos::from_nanos(7_000), Nanos::from_nanos(7_800)),
            (Nanos::from_nanos(7_100), Nanos::from_nanos(8_313)),
        ];
        let r = BoundsReport::derive(4, 1, 5_000.0, Nanos::from_millis(125), &all, &meas);
        assert_eq!(r.d_min, Nanos::from_nanos(4_120));
        assert_eq!(r.d_max, Nanos::from_nanos(9_188));
        assert_eq!(r.reading_error, Nanos::from_nanos(5_068));
        assert_eq!(r.pi, Nanos::from_nanos(12_636));
        assert_eq!(r.gamma, Nanos::from_nanos(1_313));
        assert_eq!(r.pi_plus_gamma(), Nanos::from_nanos(13_949));
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_paths_rejected() {
        BoundsReport::derive(4, 1, 5_000.0, Nanos::from_millis(125), &[], &[]);
    }
}
