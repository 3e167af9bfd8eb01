//! Experiment event log (the annotations of the paper's Fig. 5).
//!
//! Fig. 5 plots, for a 1 h window, clock-sync VM failures (triangles),
//! redundant VMs taking over `CLOCK_SYNCTIME` (stars), and transient
//! `ptp4l` application faults (crosses), color-coded by gPTP domain. The
//! experiment world records these as [`ExperimentEvent`]s; the figure
//! regenerator filters and renders them.

use std::fmt;
use tsn_time::{SimTime, SyncState};

/// Kinds of transient `ptp4l` application faults (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// `tx_timeout` retrieving the hardware transmit timestamp.
    TxTimestampTimeout,
    /// Sync transmission launch-deadline miss.
    DeadlineMiss,
}

/// One annotated experiment event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentEvent {
    /// A clock-synchronization VM failed silently.
    VmFailure {
        /// Node (ECD index, also the gPTP domain of its GM).
        node: usize,
        /// `true` if the failed VM was the node's grandmaster VM.
        grandmaster: bool,
    },
    /// A VM finished rebooting and rejoined.
    VmReboot {
        /// Node index.
        node: usize,
        /// `true` if the rebooted VM is the node's grandmaster VM.
        grandmaster: bool,
    },
    /// The redundant clock-sync VM took over maintaining
    /// `CLOCK_SYNCTIME`.
    Takeover {
        /// Node index.
        node: usize,
    },
    /// A transient `ptp4l` fault.
    Transient {
        /// Node index.
        node: usize,
        /// Fault kind.
        kind: TransientKind,
    },
    /// The attacker ran an exploit.
    Strike {
        /// Targeted node.
        node: usize,
        /// `true` if root was obtained (the GM turned Byzantine).
        succeeded: bool,
    },
    /// A rebooted grandmaster resumed serving its domain.
    GmResumed {
        /// Node index.
        node: usize,
    },
    /// A clock-sync VM's aggregator changed degradation state
    /// (Synchronized / Holdover / Freerun).
    SyncStateChange {
        /// Node index.
        node: usize,
        /// VM slot on the node (0 = GM VM, 1 = redundant VM).
        slot: usize,
        /// State left.
        from: SyncState,
        /// State entered.
        to: SyncState,
    },
}

impl ExperimentEvent {
    /// The node the event concerns.
    pub fn node(&self) -> usize {
        match *self {
            ExperimentEvent::VmFailure { node, .. }
            | ExperimentEvent::VmReboot { node, .. }
            | ExperimentEvent::Takeover { node }
            | ExperimentEvent::Transient { node, .. }
            | ExperimentEvent::Strike { node, .. }
            | ExperimentEvent::GmResumed { node }
            | ExperimentEvent::SyncStateChange { node, .. } => node,
        }
    }

    /// Marker used in the Fig. 5 style rendering.
    pub fn marker(&self) -> char {
        match self {
            ExperimentEvent::VmFailure { .. } => 'v', // triangle
            ExperimentEvent::Takeover { .. } => '*',  // star
            ExperimentEvent::Transient { .. } => 'x', // cross
            ExperimentEvent::VmReboot { .. } => '^',
            ExperimentEvent::Strike { .. } => '!',
            ExperimentEvent::GmResumed { .. } => '+',
            ExperimentEvent::SyncStateChange { .. } => '~',
        }
    }
}

impl fmt::Display for ExperimentEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentEvent::VmFailure { node, grandmaster } => {
                let what = if *grandmaster { "GM" } else { "redundant" };
                write!(f, "{what} clock-sync VM failure on dev{}", node + 1)
            }
            ExperimentEvent::VmReboot { node, grandmaster } => {
                let what = if *grandmaster { "GM" } else { "redundant" };
                write!(f, "{what} clock-sync VM rebooted on dev{}", node + 1)
            }
            ExperimentEvent::Takeover { node } => {
                write!(f, "takeover of CLOCK_SYNCTIME on dev{}", node + 1)
            }
            ExperimentEvent::Transient { node, kind } => match kind {
                TransientKind::TxTimestampTimeout => {
                    write!(f, "tx timestamp timeout on dev{}", node + 1)
                }
                TransientKind::DeadlineMiss => {
                    write!(f, "Sync deadline miss on dev{}", node + 1)
                }
            },
            ExperimentEvent::Strike { node, succeeded } => {
                let o = if *succeeded { "rooted" } else { "failed" };
                write!(f, "exploit against dev{} GM: {o}", node + 1)
            }
            ExperimentEvent::GmResumed { node } => {
                write!(f, "GM of dom{} resumed", node + 1)
            }
            ExperimentEvent::SyncStateChange {
                node,
                slot,
                from,
                to,
            } => {
                write!(f, "dev{} vm{slot} sync state: {from} -> {to}", node + 1)
            }
        }
    }
}

/// Time-ordered event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    entries: Vec<(SimTime, ExperimentEvent)>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (must be time-ordered).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded event.
    pub fn record(&mut self, at: SimTime, event: ExperimentEvent) {
        if let Some((last, _)) = self.entries.last() {
            assert!(at >= *last, "events must be time-ordered");
        }
        self.entries.push((at, event));
    }

    /// All entries.
    pub fn entries(&self) -> &[(SimTime, ExperimentEvent)] {
        &self.entries
    }

    /// Entries within `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, ExperimentEvent)> {
        self.entries
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .copied()
            .collect()
    }

    /// Counts entries matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&ExperimentEvent) -> bool) -> usize {
        self.entries.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Total time spent in each degraded state, summed over all
    /// `(node, slot)` aggregators, as `(holdover_ns, freerun_ns)`.
    ///
    /// Derived from the [`ExperimentEvent::SyncStateChange`] entries;
    /// states still open when the run ends are closed at `end`.
    pub fn degradation_dwell(&self, end: SimTime) -> (u64, u64) {
        let mut open: std::collections::BTreeMap<(usize, usize), (SyncState, SimTime)> =
            std::collections::BTreeMap::new();
        let mut holdover = 0u64;
        let mut freerun = 0u64;
        let mut close = |state: SyncState, since: SimTime, until: SimTime| {
            let dt = (until - since).as_nanos().max(0) as u64;
            match state {
                SyncState::Holdover => holdover += dt,
                SyncState::Freerun => freerun += dt,
                SyncState::Synchronized => {}
            }
        };
        for (at, ev) in &self.entries {
            if let ExperimentEvent::SyncStateChange { node, slot, to, .. } = ev {
                if let Some((prev, since)) = open.insert((*node, *slot), (*to, *at)) {
                    close(prev, since, *at);
                }
            }
        }
        for ((_, _), (state, since)) in open {
            close(state, since, end.max(since));
        }
        (holdover, freerun)
    }
}

use tsn_snapshot::{snap_enum, Reader, Snap, SnapError, SnapState, Writer};

snap_enum!(TransientKind {
    0 => TxTimestampTimeout,
    1 => DeadlineMiss,
});

snap_enum!(ExperimentEvent {
    0 => VmFailure { node, grandmaster },
    1 => VmReboot { node, grandmaster },
    2 => Takeover { node },
    3 => Transient { node, kind },
    4 => Strike { node, succeeded },
    5 => GmResumed { node },
    6 => SyncStateChange { node, slot, from, to },
});

// Hand-written: time order is checked.
impl SnapState for EventLog {
    fn save_state(&self, w: &mut Writer) {
        self.entries.put(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let entries: Vec<(SimTime, ExperimentEvent)> = Snap::get(r)?;
        if entries.windows(2).any(|p| p[0].0 > p[1].0) {
            return Err(SnapError::Malformed("event log out of time order"));
        }
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_orders_and_windows() {
        let mut log = EventLog::new();
        log.record(
            SimTime::from_secs(10),
            ExperimentEvent::VmFailure {
                node: 0,
                grandmaster: true,
            },
        );
        log.record(
            SimTime::from_secs(11),
            ExperimentEvent::Takeover { node: 0 },
        );
        log.record(
            SimTime::from_secs(30),
            ExperimentEvent::Transient {
                node: 2,
                kind: TransientKind::DeadlineMiss,
            },
        );
        assert_eq!(log.entries().len(), 3);
        let w = log.window(SimTime::from_secs(10), SimTime::from_secs(12));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn counting_by_kind() {
        let mut log = EventLog::new();
        for node in 0..4 {
            log.record(
                SimTime::from_secs(node as u64),
                ExperimentEvent::VmFailure {
                    node,
                    grandmaster: node % 2 == 0,
                },
            );
        }
        let gm = log.count(|e| {
            matches!(
                e,
                ExperimentEvent::VmFailure {
                    grandmaster: true,
                    ..
                }
            )
        });
        assert_eq!(gm, 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut log = EventLog::new();
        log.record(SimTime::from_secs(5), ExperimentEvent::Takeover { node: 0 });
        log.record(SimTime::from_secs(4), ExperimentEvent::Takeover { node: 0 });
    }

    #[test]
    fn degradation_dwell_sums_open_and_closed_spans() {
        let mut log = EventLog::new();
        let change = |node, from, to| ExperimentEvent::SyncStateChange {
            node,
            slot: 0,
            from,
            to,
        };
        // Node 0: holdover 10 s..13 s, freerun 13 s..15 s, resync at 15 s.
        log.record(
            SimTime::from_secs(10),
            change(0, SyncState::Synchronized, SyncState::Holdover),
        );
        log.record(
            SimTime::from_secs(13),
            change(0, SyncState::Holdover, SyncState::Freerun),
        );
        log.record(
            SimTime::from_secs(15),
            change(0, SyncState::Freerun, SyncState::Synchronized),
        );
        // Node 1: holdover from 18 s, still open at the 20 s run end.
        log.record(
            SimTime::from_secs(18),
            change(1, SyncState::Synchronized, SyncState::Holdover),
        );
        let (holdover, freerun) = log.degradation_dwell(SimTime::from_secs(20));
        assert_eq!(holdover, 5_000_000_000); // 3 s (node 0) + 2 s (node 1)
        assert_eq!(freerun, 2_000_000_000);
        assert_eq!(
            log.entries()[0].1.to_string(),
            "dev1 vm0 sync state: synchronized -> holdover"
        );
        assert_eq!(log.entries()[0].1.marker(), '~');
    }

    #[test]
    fn sync_state_change_snap_roundtrip() {
        use tsn_snapshot::{Reader, Writer};
        let e = ExperimentEvent::SyncStateChange {
            node: 2,
            slot: 1,
            from: SyncState::Holdover,
            to: SyncState::Freerun,
        };
        let mut w = Writer::new();
        e.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ExperimentEvent::get(&mut r).unwrap(), e);
        r.finish().unwrap();
    }

    #[test]
    fn markers_and_display() {
        let e = ExperimentEvent::Takeover { node: 1 };
        assert_eq!(e.marker(), '*');
        assert_eq!(e.to_string(), "takeover of CLOCK_SYNCTIME on dev2");
        assert_eq!(e.node(), 1);
        let s = ExperimentEvent::Strike {
            node: 3,
            succeeded: true,
        };
        assert_eq!(s.to_string(), "exploit against dev4 GM: rooted");
    }
}
