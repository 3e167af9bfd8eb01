//! Explicit degradation state of a disciplined clock.
//!
//! The paper's aggregator silently *skips* the adjustment when fewer
//! than `min_inputs` fresh valid offsets are available. Telecom-profile
//! clocks (ITU-T G.8262 holdover, IEEE 1588 §9.2 free-run) make that
//! degradation explicit instead: the clock first *holds over* on its
//! last frequency estimate, then — once the holdover budget is spent —
//! is declared free-running until synchronization is re-acquired. This
//! module provides the shared three-state vocabulary; `tsn-fta` drives
//! the transitions.

use std::fmt;

/// Degradation state of the aggregated `CLOCK_SYNCTIME` discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncState {
    /// Fresh valid offsets ≥ `min_inputs`: the clock is actively
    /// disciplined by the fault-tolerant aggregate.
    Synchronized,
    /// Inputs ran dry; the clock coasts on the last PI frequency
    /// estimate within a bounded holdover budget.
    Holdover,
    /// The holdover budget expired; the clock is free-running and its
    /// error is no longer bounded by the paper's Π algebra.
    Freerun,
}

impl SyncState {
    /// Stable lower-case name used in artifacts and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyncState::Synchronized => "synchronized",
            SyncState::Holdover => "holdover",
            SyncState::Freerun => "freerun",
        }
    }

    /// Parses the stable name produced by [`SyncState::name`].
    pub fn parse(s: &str) -> Option<SyncState> {
        match s {
            "synchronized" => Some(SyncState::Synchronized),
            "holdover" => Some(SyncState::Holdover),
            "freerun" => Some(SyncState::Freerun),
            _ => None,
        }
    }

    /// `true` in any state other than [`SyncState::Synchronized`].
    pub fn is_degraded(&self) -> bool {
        !matches!(self, SyncState::Synchronized)
    }

    /// `true` when `self → to` is a legal transition of the degradation
    /// machine: Synchronized → Holdover, Holdover → Freerun, and
    /// re-acquisition from either degraded state back to Synchronized.
    pub fn can_transition_to(&self, to: SyncState) -> bool {
        matches!(
            (self, to),
            (SyncState::Synchronized, SyncState::Holdover)
                | (SyncState::Holdover, SyncState::Freerun)
                | (SyncState::Holdover, SyncState::Synchronized)
                | (SyncState::Freerun, SyncState::Synchronized)
        )
    }
}

impl fmt::Display for SyncState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

tsn_snapshot::snap_enum!(SyncState {
    0 => Synchronized,
    1 => Holdover,
    2 => Freerun,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for s in [
            SyncState::Synchronized,
            SyncState::Holdover,
            SyncState::Freerun,
        ] {
            assert_eq!(SyncState::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(SyncState::parse("locked"), None);
    }

    #[test]
    fn degradation_edges() {
        use SyncState::*;
        assert!(Synchronized.can_transition_to(Holdover));
        assert!(Holdover.can_transition_to(Freerun));
        assert!(Holdover.can_transition_to(Synchronized));
        assert!(Freerun.can_transition_to(Synchronized));
        // The machine never degrades straight to free-run and never
        // re-enters holdover from free-run.
        assert!(!Synchronized.can_transition_to(Freerun));
        assert!(!Freerun.can_transition_to(Holdover));
        assert!(!Synchronized.can_transition_to(Synchronized));
    }

    #[test]
    fn degraded_predicate() {
        assert!(!SyncState::Synchronized.is_degraded());
        assert!(SyncState::Holdover.is_degraded());
        assert!(SyncState::Freerun.is_degraded());
    }

    #[test]
    fn snap_roundtrip() {
        use tsn_snapshot::{Reader, Snap, Writer};
        for s in [
            SyncState::Synchronized,
            SyncState::Holdover,
            SyncState::Freerun,
        ] {
            let mut w = Writer::new();
            s.put(&mut w);
            let bytes = w.into_bytes();
            let got = SyncState::get(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(got, s);
        }
    }
}
