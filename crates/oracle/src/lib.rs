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
//! [`Observation`] is the run's one passive vocabulary, not the
//! oracle's alone: the simulation builds each observation once, at the
//! site where it happens, and hands the same value to every armed
//! observer — this registry and the `tsn-trace` sink, which records its
//! own reading of it. An invariant matches the variants it judges and
//! ignores the rest.
//!
//! The oracle is strictly passive — it draws no randomness, schedules no
//! events, and holds no simulation state, so enabling it cannot perturb
//! the deterministic run (state hashes and artifacts are byte-identical
//! with the oracle on or off). Violations are reported as structured
//! [`ViolationRecord`]s (simulation time, component, invariant, witness
//! values) through `tsn-metrics`.
//!
//! ```
//! use tsn_oracle::{Observation, OracleConfig, OracleRegistry, Subsystem};
//! use tsn_time::{Nanos, SimTime};
//!
//! let mut oracle = OracleRegistry::standard(OracleConfig::default());
//! let pop = |s| Observation::Event {
//!     at: SimTime::from_secs(s),
//!     kind: "transmit",
//!     sub: Subsystem::Netsim,
//! };
//! // An event dispatched before an earlier one breaks causality.
//! oracle.observe(&pop(2));
//! oracle.observe(&pop(1));
//! oracle.finish();
//! let violations = oracle.take_violations();
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].invariant, "event-causality");
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
pub use tsn_trace::Subsystem;

use tsn_metrics::ExperimentEvent;
use tsn_time::{Nanos, Ppb, ServoOutput, SimTime};

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
        /// Stable name of the event kind.
        kind: &'static str,
        /// Subsystem that owns the event kind.
        sub: Subsystem,
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
    /// An FTA round: the aggregate offset and the servo's command.
    Aggregated {
        /// Aggregation time.
        at: SimTime,
        /// Node whose aggregator fired.
        node: usize,
        /// Clock-sync VM slot on that node.
        slot: usize,
        /// The aggregate offset handed to the servo.
        offset: Nanos,
        /// The servo's command to the clock.
        servo: ServoOutput,
        /// `true` when the aggregator ran its fault-tolerant mode (the
        /// startup mode follows a single domain and claims nothing).
        fault_tolerant: bool,
        /// The `(domain, offset)` inputs the aggregation considered.
        used: &'a [(usize, Nanos)],
        /// Per-domain Byzantine marks from the active scenario
        /// (indexed by domain id).
        byzantine: &'a [bool],
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
        /// `(node, slot)` of the sending station; `None` for a switch.
        station: Option<(usize, usize)>,
        /// The frame's EtherType.
        ethertype: u16,
        /// The frame's payload.
        payload: &'a [u8],
    },
    /// A frame arrived at a port.
    FrameArrived {
        /// Arrival time.
        at: SimTime,
        /// `(node, slot)` of the receiving station; `None` for a switch.
        station: Option<(usize, usize)>,
        /// The frame's EtherType.
        ethertype: u16,
        /// The frame's payload.
        payload: &'a [u8],
    },
    /// An egress port was woken to send its next queued frame.
    PortWoken {
        /// Wake-up time.
        at: SimTime,
        /// `true` when the wake-up found nothing to send.
        idle: bool,
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
        /// Switch the frame entered the fabric at.
        from_sw: usize,
        /// Switch the frame left the fabric at.
        to_sw: usize,
        /// `true` for a Sync or Follow_Up, which transparent clocks correct.
        sync: bool,
        /// `true` when the fabric dropped the frame instead of
        /// forwarding it.
        dropped: bool,
        /// Extra one-way delay of the crossing.
        delay: Nanos,
        /// Residence time the crossing accumulated, in nanoseconds.
        residence_ns: i64,
    },
    /// A link-down window opened (`down`) or closed.
    LinkWindow {
        /// Edge time.
        at: SimTime,
        /// Index of the window in the link-fault plan.
        window: usize,
        /// `true` when the window opens.
        down: bool,
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
    /// A node's view of a domain's elected grandmaster changed.
    Elected {
        /// Decision time.
        at: SimTime,
        /// Node whose view changed.
        node: usize,
        /// gPTP domain concerned.
        domain: usize,
        /// Newly elected node.
        winner: usize,
        /// Previously elected node.
        prev: usize,
    },
    /// An annotated experiment event entered the run's event log.
    Logged {
        /// Event time.
        at: SimTime,
        /// The log entry.
        event: ExperimentEvent,
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
    invariants: Standard,
    log: ViolationLog,
}

/// The standard invariants, in report order, held by value so that an
/// observation reaches each one through a direct call.
struct Standard(
    EventCausality,
    SynctimeContinuity,
    FrameConservation,
    FabricConservation,
    FtaContainment,
    ServoClamp,
    BoundAlgebra,
    SyncStateLegality,
    HoldoverDrift,
    AtMostOneActingMaster,
    ElectionConvergence,
);

impl OracleRegistry {
    /// The standard registry: all eleven conformance invariants.
    pub fn standard(cfg: OracleConfig) -> Self {
        let invariants = Standard(
            EventCausality::new(),
            SynctimeContinuity::new(cfg.warmup, cfg.step_threshold, cfg.max_frequency_ppb),
            FrameConservation::new(),
            FabricConservation::new(),
            FtaContainment::new(cfg.f),
            ServoClamp::new(cfg.max_frequency_ppb),
            BoundAlgebra::new(),
            SyncStateLegality::new(),
            HoldoverDrift::new(cfg.warmup, cfg.step_threshold, cfg.max_frequency_ppb),
            AtMostOneActingMaster::new(cfg.election_convergence),
            ElectionConvergence::new(cfg.election_convergence),
        );
        OracleRegistry {
            invariants,
            log: ViolationLog::new(),
        }
    }

    /// Feeds one observation to every invariant.
    pub fn observe(&mut self, obs: &Observation<'_>) {
        self.each(|inv, log| inv.observe(obs, log));
    }

    /// Judges end-of-run properties.
    pub fn finish(&mut self) {
        self.each(|inv, log| inv.finish(log));
    }

    /// Calls `f` on every invariant, in report order.
    #[inline]
    fn each(&mut self, mut f: impl FnMut(&mut dyn Invariant, &mut ViolationLog)) {
        let Standard(a, b, c, d, e, g, h, i, j, k, l) = &mut self.invariants;
        let all: [&mut dyn Invariant; 11] = [a, b, c, d, e, g, h, i, j, k, l];
        for inv in all {
            f(inv, &mut self.log);
        }
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
        assert!(oracle.take_violations().is_empty());
    }

    #[test]
    fn registry_fans_observations_to_all_invariants() {
        let mut oracle = OracleRegistry::standard(OracleConfig::default());
        for s in [5, 4] {
            oracle.observe(&Observation::Event {
                at: SimTime::from_secs(s),
                kind: "transmit",
                sub: Subsystem::Netsim,
            });
        }
        oracle.observe(&Observation::Aggregated {
            at: SimTime::from_secs(5),
            node: 0,
            slot: 0,
            offset: Nanos::ZERO,
            servo: ServoOutput::Adjust {
                freq_adj_ppb: 1_000_000.0,
            },
            fault_tolerant: false,
            used: &[],
            byzantine: &[],
        });
        oracle.finish();
        let drained = oracle.take_violations();
        let names: Vec<&str> = drained.iter().map(|v| v.invariant.as_str()).collect();
        assert_eq!(names, vec!["event-causality", "servo-clamp"]);
        assert!(oracle.take_violations().is_empty());
    }
}
