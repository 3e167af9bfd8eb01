//! # tsn-oracle
//!
//! Runtime invariant checking for the `clocksync` simulation of
//! *IEEE 802.1AS Multi-Domain Aggregation for Virtualized Distributed
//! Real-Time Systems* (DSN-S 2023).
//!
//! The paper's argument rests on containment invariants: the
//! fault-tolerant average must land inside the range of correct grand
//! masters (§II, Kopetz–Ochsenreiter), the precision bound Π must follow
//! the §III-A3 algebra, and the virtualized `CLOCK_SYNCTIME` must stay
//! monotonic and continuous across VM takeovers (§III-B). This crate
//! turns those one-shot test assertions into a reusable conformance
//! layer: an [`Invariant`] trait plus an [`OracleRegistry`] of standard
//! checkers that the simulation [feeds observations] while stepping.
//!
//! [feeds observations]: Observation
//!
//! The oracle is strictly passive — it draws no randomness, schedules no
//! events, and holds no simulation state, so enabling it cannot perturb
//! the deterministic run (state hashes and artifacts are byte-identical
//! with the oracle on or off). Violations are reported as structured
//! [`ViolationRecord`]s (simulation time, component, invariant, witness
//! values) through `tsn-metrics`.
//!
//! ```
//! use tsn_oracle::{Observation, OracleConfig, OracleRegistry};
//! use tsn_time::{Nanos, SimTime};
//!
//! let mut oracle = OracleRegistry::standard(OracleConfig::default());
//! // An event dispatched before an earlier one breaks causality.
//! oracle.observe(&Observation::Event { at: SimTime::from_secs(2) });
//! oracle.observe(&Observation::Event { at: SimTime::from_secs(1) });
//! oracle.finish();
//! assert_eq!(oracle.violations().len(), 1);
//! assert_eq!(oracle.violations()[0].invariant, "event-causality");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod invariants;

pub use invariants::{
    AtMostOneActingMaster, BoundAlgebra, ElectionConvergence, EventCausality, FabricConservation,
    FrameConservation, FtaContainment, HoldoverDrift, ServoClamp, SyncStateLegality,
    SynctimeContinuity,
};
pub use tsn_metrics::{ViolationLog, ViolationRecord};

use tsn_time::{Nanos, Ppb, SimTime, SyncState};

/// Parameters the standard invariants need from the simulation config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// Warm-up horizon; `CLOCK_SYNCTIME` continuity is only judged after
    /// it (the servo may legitimately step while converging).
    pub warmup: SimTime,
    /// The phc2sys step threshold (paper: 20 µs) — the largest
    /// discontinuity a disciplined clock may legitimately exhibit.
    pub step_threshold: Nanos,
    /// The servo's frequency clamp (paper: ±900 ppm).
    pub max_frequency_ppb: Ppb,
    /// FTA trim degree `f` of the active aggregation method, or `None`
    /// when the method provides no Byzantine masking (Mean/Median
    /// ablations) and containment is not claimed.
    pub f: Option<usize>,
    /// Bound on grandmaster-election settling (election mode): after a
    /// GM failure a replacement must act within this window, and two
    /// acting masters may overlap on one domain for at most this long.
    pub election_convergence: Nanos,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            warmup: SimTime::ZERO,
            step_threshold: Nanos::from_micros(20),
            max_frequency_ppb: 900_000.0,
            f: Some(1),
            election_convergence: Nanos::from_millis(2_000),
        }
    }
}

/// One observation the simulation reports to the oracle.
///
/// Observations are borrowed views into simulation state; invariants
/// copy what they need and never hold references past the call.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation<'a> {
    /// An event was popped from the queue and is about to be handled.
    Event {
        /// Dispatch time.
        at: SimTime,
    },
    /// A periodic noise-free `CLOCK_SYNCTIME` reading on one node.
    Synctime {
        /// True (simulation) time of the reading.
        at: SimTime,
        /// Node the clock belongs to.
        node: usize,
        /// The virtual clock reading, in nanoseconds.
        synctime_ns: i64,
    },
    /// The multi-domain aggregator produced a new aggregate offset.
    Aggregated {
        /// Aggregation time.
        at: SimTime,
        /// Node whose aggregator fired.
        node: usize,
        /// The aggregate offset handed to the servo.
        offset: Nanos,
        /// `true` when the aggregator ran its fault-tolerant mode (the
        /// startup mode follows a single domain and claims nothing).
        fault_tolerant: bool,
        /// The `(domain, offset)` inputs the aggregation considered.
        used: &'a [(usize, Nanos)],
        /// Per-domain Byzantine marks from the active scenario
        /// (indexed by domain id).
        byzantine: &'a [bool],
    },
    /// The PHC servo issued a frequency correction.
    ServoFrequency {
        /// Correction time.
        at: SimTime,
        /// Node the servo belongs to.
        node: usize,
        /// Clock-sync VM slot on that node.
        slot: usize,
        /// The commanded frequency adjustment.
        freq_adj_ppb: Ppb,
    },
    /// A frame entered an egress queue (port busy or backlogged).
    FrameEnqueued {
        /// Enqueue time.
        at: SimTime,
    },
    /// A frame was popped from an egress queue for transmission.
    FramePopped {
        /// Pop time.
        at: SimTime,
    },
    /// A frame departed onto the wire.
    FrameDelivered {
        /// Departure time.
        at: SimTime,
        /// `true` when the frame had waited in an egress queue.
        from_queue: bool,
    },
    /// A frame was explicitly dropped (e.g. its source VM died).
    FrameDropped {
        /// Drop time.
        at: SimTime,
        /// `true` when the frame had waited in an egress queue.
        from_queue: bool,
    },
    /// A protected frame crossed the multi-hop switch fabric (or was
    /// dropped at a saturated fabric hop).
    FabricCrossing {
        /// Crossing (departure) time.
        at: SimTime,
        /// `true` when the fabric dropped the frame instead of
        /// forwarding it.
        dropped: bool,
    },
    /// End-of-run fabric forwarding totals, for conservation across the
    /// switch queues.
    FabricTotals {
        /// End-of-run time.
        at: SimTime,
        /// Frames the fabric forwarded end to end.
        forwarded: u64,
        /// Frames the fabric dropped at a saturated hop.
        dropped: u64,
    },
    /// The derived bounds report of the finished run (§III-A3 algebra).
    Bounds {
        /// Report time (end of run).
        at: SimTime,
        /// Number of gPTP domains N.
        n: usize,
        /// Fault-tolerance degree f.
        f: usize,
        /// Maximum oscillator drift rate used for Γ.
        r_max_ppb: Ppb,
        /// Synchronization interval S used for Γ.
        sync_interval: Nanos,
        /// Reported minimum path delay.
        d_min: Nanos,
        /// Reported maximum path delay.
        d_max: Nanos,
        /// Reported reading error E.
        reading_error: Nanos,
        /// Reported drift offset Γ.
        drift_offset: Nanos,
        /// Reported precision bound Π.
        pi: Nanos,
    },
    /// The run ended; queue residuals are reported for conservation.
    RunEnd {
        /// End-of-run time.
        at: SimTime,
        /// Frames still waiting in egress queues at the end.
        residual_frames: u64,
        /// Of those, frames waiting on a port whose wire is idle at the
        /// end: their wake-up was lost, so nothing would ever send them.
        stalled_frames: u64,
    },
    /// A node's acting-grandmaster status changed on a domain (election
    /// mode): `true` when it started emitting Sync/Announce as master,
    /// `false` when it ceded the role.
    ElectionActing {
        /// Transition time.
        at: SimTime,
        /// gPTP domain concerned.
        domain: usize,
        /// Node whose role changed.
        node: usize,
        /// New acting-master status.
        acting: bool,
    },
    /// The scenario killed the acting grandmaster of a domain (the
    /// re-election stopwatch starts here).
    GmKilled {
        /// Kill time.
        at: SimTime,
        /// gPTP domain that lost its grandmaster.
        domain: usize,
    },
    /// A clock-sync VM's aggregator changed degradation state.
    SyncTransition {
        /// Transition time.
        at: SimTime,
        /// Node the aggregator belongs to.
        node: usize,
        /// Clock-sync VM slot on that node.
        slot: usize,
        /// State left.
        from: SyncState,
        /// State entered.
        to: SyncState,
    },
}

/// A runtime conformance checker.
///
/// Invariants accumulate state from [`Observation`]s and report
/// violations into the shared [`ViolationLog`]; whole-run properties
/// (conservation totals) are judged in [`Invariant::finish`].
pub trait Invariant {
    /// Stable invariant name used in violation records.
    fn name(&self) -> &'static str;
    /// Feeds one observation.
    fn observe(&mut self, obs: &Observation<'_>, log: &mut ViolationLog);
    /// Judges end-of-run properties after the last observation.
    fn finish(&mut self, log: &mut ViolationLog) {
        let _ = log;
    }
}

/// The set of invariants active for one run, plus the violation log.
pub struct OracleRegistry {
    invariants: Vec<Box<dyn Invariant>>,
    log: ViolationLog,
}

impl std::fmt::Debug for OracleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&'static str> = self.invariants.iter().map(|i| i.name()).collect();
        f.debug_struct("OracleRegistry")
            .field("invariants", &names)
            .field("violations", &self.log.len())
            .finish()
    }
}

impl OracleRegistry {
    /// The standard registry: all eleven conformance invariants.
    pub fn standard(cfg: OracleConfig) -> Self {
        OracleRegistry::with_invariants(vec![
            Box::new(EventCausality::new()),
            Box::new(SynctimeContinuity::new(
                cfg.warmup,
                cfg.step_threshold,
                cfg.max_frequency_ppb,
            )),
            Box::new(FrameConservation::new()),
            Box::new(FabricConservation::new()),
            Box::new(FtaContainment::new(cfg.f)),
            Box::new(ServoClamp::new(cfg.max_frequency_ppb)),
            Box::new(BoundAlgebra::new()),
            Box::new(SyncStateLegality::new()),
            Box::new(HoldoverDrift::new(
                cfg.warmup,
                cfg.step_threshold,
                cfg.max_frequency_ppb,
            )),
            Box::new(AtMostOneActingMaster::new(cfg.election_convergence)),
            Box::new(ElectionConvergence::new(cfg.election_convergence)),
        ])
    }

    /// A registry over a custom invariant set.
    pub fn with_invariants(invariants: Vec<Box<dyn Invariant>>) -> Self {
        OracleRegistry {
            invariants,
            log: ViolationLog::new(),
        }
    }

    /// Feeds one observation to every invariant.
    pub fn observe(&mut self, obs: &Observation<'_>) {
        for inv in &mut self.invariants {
            inv.observe(obs, &mut self.log);
        }
    }

    /// Judges end-of-run properties.
    pub fn finish(&mut self) {
        for inv in &mut self.invariants {
            inv.finish(&mut self.log);
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[ViolationRecord] {
        self.log.records()
    }

    /// Drains the recorded violations.
    pub fn take_violations(&mut self) -> Vec<ViolationRecord> {
        std::mem::take(&mut self.log).into_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_silent_on_no_observations() {
        let mut oracle = OracleRegistry::standard(OracleConfig::default());
        oracle.finish();
        assert!(oracle.violations().is_empty());
    }

    #[test]
    fn registry_fans_observations_to_all_invariants() {
        let mut oracle = OracleRegistry::standard(OracleConfig::default());
        oracle.observe(&Observation::Event {
            at: SimTime::from_secs(5),
        });
        oracle.observe(&Observation::Event {
            at: SimTime::from_secs(4),
        });
        oracle.observe(&Observation::ServoFrequency {
            at: SimTime::from_secs(5),
            node: 0,
            slot: 0,
            freq_adj_ppb: 1_000_000.0,
        });
        oracle.finish();
        let names: Vec<&str> = oracle
            .violations()
            .iter()
            .map(|v| v.invariant.as_str())
            .collect();
        assert_eq!(names, vec!["event-causality", "servo-clamp"]);
        let drained = oracle.take_violations();
        assert_eq!(drained.len(), 2);
        assert!(oracle.violations().is_empty());
    }

    #[test]
    fn debug_lists_invariant_names() {
        let oracle = OracleRegistry::standard(OracleConfig::default());
        let dbg = format!("{oracle:?}");
        assert!(dbg.contains("event-causality"));
        assert!(dbg.contains("fta-containment"));
    }
}
