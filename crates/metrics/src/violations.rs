//! Structured invariant-violation records.
//!
//! The runtime oracle (`tsn-oracle`) checks conformance invariants while
//! the simulation steps — FTA containment (paper §II), bound algebra
//! (§III-A3), `CLOCK_SYNCTIME` continuity (§III-B) — and reports
//! violations as structured records: simulation time, the invariant that
//! failed, the component it failed on, and the witness values that prove
//! it. The record type lives here so campaign tooling can surface
//! violations without depending on the oracle itself.

use tsn_time::SimTime;

/// One invariant violation: where, what, and the witness that proves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Simulation time at which the violation was detected.
    pub at: SimTime,
    /// Name of the violated invariant (e.g. `fta-containment`).
    pub invariant: String,
    /// The component the invariant failed on (e.g. `node2.aggregator`).
    pub component: String,
    /// Human-readable witness values (offsets, ranges, counts).
    pub witness: String,
}

impl std::fmt::Display for ViolationRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[t={}ns] {} violated at {}: {}",
            self.at.as_nanos(),
            self.invariant,
            self.component,
            self.witness
        )
    }
}

/// An append-only log of invariant violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationLog {
    records: Vec<ViolationRecord>,
}

impl ViolationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a violation.
    pub fn record(
        &mut self,
        at: SimTime,
        invariant: impl Into<String>,
        component: impl Into<String>,
        witness: impl Into<String>,
    ) {
        self.records.push(ViolationRecord {
            at,
            invariant: invariant.into(),
            component: component.into(),
            witness: witness.into(),
        });
    }

    /// The recorded violations, in detection order.
    pub fn records(&self) -> &[ViolationRecord] {
        &self.records
    }

    /// Number of violations recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no violation was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Consumes the log, yielding the records.
    pub fn into_records(self) -> Vec<ViolationRecord> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order() {
        let mut log = ViolationLog::new();
        assert!(log.is_empty());
        log.record(SimTime::from_secs(1), "a", "x", "w1");
        log.record(SimTime::from_secs(2), "b", "y", "w2");
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].invariant, "a");
        assert_eq!(log.records()[1].component, "y");
        let recs = log.into_records();
        assert_eq!(recs[1].witness, "w2");
    }

    #[test]
    fn display_includes_witness() {
        let rec = ViolationRecord {
            at: SimTime::from_nanos(42),
            invariant: "fta-containment".into(),
            component: "node0.aggregator".into(),
            witness: "offset=9 outside [1, 3]".into(),
        };
        let s = rec.to_string();
        assert!(s.contains("t=42ns"));
        assert!(s.contains("fta-containment"));
        assert!(s.contains("node0.aggregator"));
        assert!(s.contains("offset=9"));
    }
}
