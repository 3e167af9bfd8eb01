//! Analytical containment bounds for trim-`f` aggregation under
//! colluding Byzantine grandmasters.
//!
//! Jiang et al. (*Resilience Bounds of Network Clock Synchronization
//! with Fault Correction*, arXiv:2006.15832) derive how far a
//! fault-corrected synchronization algorithm can be steered as a
//! function of the number of faulty inputs and the correction's trim
//! degree. This module specializes that analysis to the repo's
//! operating point — the Kopetz–Ochsenreiter FTA (and the Welch–Lynch
//! midpoint, which shares the trim step) over `M` domain offsets with
//! `f` extremes discarded per side — and produces the *analytical
//! frontier* that a frontier spec's run compares against the empirically
//! bisected one.
//!
//! # Model
//!
//! Let `live = M − partitioned` be the domains that still reach the
//! aggregating node, `kept = live − 2f` the values that survive the
//! trim, and `c` the compromised domains, all commanding a shift of
//! magnitude `T` (the worst case per arXiv:2006.15832 §IV is
//! *colluding* faults: distinct values waste trim capacity on each
//! other). Sorting puts the `c` faulty values at one extreme, the trim
//! removes `f` of them, and
//!
//! ```text
//! s = min(c − f, kept)        faulty values surviving into the average
//! shift(T) = s · T / kept     worst-case aggregate displacement
//! ```
//!
//! A monitored offset sample is the aggregate displacement plus the
//! benign synchronization error, which the repo's bound algebra (paper
//! §III) confines to `[−Π, +Π]` with reading error `γ`; the empirical
//! break predicate is a sample exceeding `Π + γ`. Inverting `shift`
//! against the three interesting sample values gives the frontier in
//! magnitude space:
//!
//! * **contained below** `T_lo = γ·kept/s` — even a worst-phase benign
//!   error (`+Π`) plus the shift stays within `Π + γ`; containment
//!   cannot break for magnitudes strictly below this;
//! * **break point** `T_pt = (Π+γ)·kept/s` — the zero-benign-error
//!   crossing, the analytical point estimate of the frontier;
//! * **broken above** `T_hi = (2Π+γ)·kept/s` — the shift alone exceeds
//!   `Π + γ` by more than any opposing benign error can cancel; a
//!   sustained attack at or above this magnitude must break containment.
//!
//! With `c ≤ f` the trim absorbs every faulty value (`s = 0`): the cell
//! is *unbreakable* and all three thresholds are `None` — the FTA
//! guarantee the paper's experiment (ii) demonstrates at its fixed
//! point, here parameterized over the whole grid.

use tsn_time::Nanos;

/// One configuration cell of the resilience frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceParams {
    /// Number of gPTP domains `M` feeding the aggregation.
    pub domains: usize,
    /// Trim degree `f` of the aggregation method.
    pub f: usize,
    /// Compromised (colluding) domains `c`.
    pub compromised: usize,
    /// Domains starved away from the aggregating node (partition window
    /// or fail-silent GMs) — they never reach the sort.
    pub partitioned: usize,
    /// Synchronization precision bound `Π` of the benign system.
    pub pi: Nanos,
    /// Clock reading error `γ`.
    pub gamma: Nanos,
}

/// The analytical containment frontier for one [`ResilienceParams`]
/// cell, in attack-magnitude space (see module docs for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceBound {
    /// `live ≥ 2f + 1` and at least one value survives the trim: the
    /// aggregation can form a quorum at all. Without it the cell
    /// degrades through Holdover/Freerun regardless of the adversary.
    pub quorum: bool,
    /// Values surviving the trim (`live − 2f`, 0 when starved).
    pub kept: usize,
    /// Faulty values surviving into the average (`min(c − f, kept)`).
    pub steered: usize,
    /// Magnitudes strictly below this cannot break containment.
    /// `None` when the cell is unbreakable (`steered == 0`).
    pub contained_below: Option<Nanos>,
    /// Analytical point estimate of the frontier.
    pub break_point: Option<Nanos>,
    /// Magnitudes at or above this are guaranteed to break containment
    /// under a sustained attack.
    pub broken_above: Option<Nanos>,
}

impl ResilienceBound {
    /// `true` when no attack magnitude can break containment in this
    /// cell — `c ≤ f` (the FTA guarantee) or no quorum to steer.
    pub fn unbreakable(&self) -> bool {
        self.steered == 0
    }
}

/// Computes the analytical containment frontier for one cell.
///
/// All arithmetic is exact integer nanoseconds (`i128` internally), so
/// the bound is deterministic across platforms — a requirement for the
/// byte-identical `frontier.json` artifact.
pub fn containment_bound(p: &ResilienceParams) -> ResilienceBound {
    let live = p.domains.saturating_sub(p.partitioned);
    let kept = live.saturating_sub(2 * p.f);
    let quorum = live > 2 * p.f && kept >= 1;
    let steered = p.compromised.saturating_sub(p.f).min(kept);
    if !quorum || steered == 0 {
        return ResilienceBound {
            quorum,
            kept,
            steered: if quorum { steered } else { 0 },
            contained_below: None,
            break_point: None,
            broken_above: None,
        };
    }
    let scale = |shift: i128| -> Nanos {
        let t = shift * kept as i128 / steered as i128;
        Nanos::from_nanos(t.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
    };
    let pi = i128::from(p.pi.as_nanos());
    let gamma = i128::from(p.gamma.as_nanos());
    ResilienceBound {
        quorum,
        kept,
        steered,
        contained_below: Some(scale(gamma)),
        break_point: Some(scale(pi + gamma)),
        broken_above: Some(scale(2 * pi + gamma)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(compromised: usize) -> ResilienceParams {
        ResilienceParams {
            domains: 4,
            f: 1,
            compromised,
            partitioned: 0,
            pi: Nanos::from_micros(12),
            gamma: Nanos::from_nanos(1_500),
        }
    }

    #[test]
    fn within_trim_capacity_is_unbreakable() {
        for c in 0..=1 {
            let b = containment_bound(&params(c));
            assert!(b.quorum);
            assert!(b.unbreakable(), "c = {c} must be masked");
            assert_eq!(b.contained_below, None);
            assert_eq!(b.broken_above, None);
        }
    }

    #[test]
    fn one_colluder_past_f_scales_by_kept() {
        // M = 4, f = 1: kept = 2, one faulty survivor → shift = T/2.
        let b = containment_bound(&params(2));
        assert_eq!((b.kept, b.steered), (2, 1));
        assert_eq!(b.contained_below, Some(Nanos::from_nanos(3_000)));
        assert_eq!(b.break_point, Some(Nanos::from_nanos(27_000)));
        assert_eq!(b.broken_above, Some(Nanos::from_nanos(51_000)));
    }

    #[test]
    fn saturated_collusion_steers_at_unit_gain() {
        // c = 3 of 4 with f = 1: both kept values are faulty — the
        // aggregate tracks the target directly.
        let b = containment_bound(&params(3));
        assert_eq!(b.steered, 2);
        assert_eq!(b.break_point, Some(Nanos::from_nanos(13_500)));
        // c = 4 cannot steer harder than "all kept values faulty".
        assert_eq!(containment_bound(&params(4)).steered, 2);
    }

    #[test]
    fn thresholds_are_ordered() {
        for c in 2..=4 {
            let b = containment_bound(&params(c));
            assert!(b.contained_below < b.break_point);
            assert!(b.break_point < b.broken_above);
        }
    }

    #[test]
    fn partition_starves_the_quorum() {
        let p = ResilienceParams {
            partitioned: 2,
            ..params(2)
        };
        let b = containment_bound(&p);
        assert!(!b.quorum, "2 live domains cannot form a 2f+1 quorum");
        assert!(b.unbreakable());
    }

    #[test]
    fn more_colluders_lower_the_frontier() {
        let b2 = containment_bound(&params(2)).break_point.unwrap();
        let b3 = containment_bound(&params(3)).break_point.unwrap();
        assert!(b3 < b2, "extra colluders must weaken the cell");
    }
}
