//! The measurement plane and the run's own account of itself: the
//! precision probes of paper §III-A2 (send, collect, finalize), the
//! annotated event log, the mirror of frames and FTA rounds into the
//! structured tracer, and the ground-truth readers tests and examples
//! use. Nothing here feeds back into the simulated system.

use crate::counters::RunCounters;
use crate::testbed::{VmState, MEASUREMENT_VID};
use crate::world::{Ev, World};
use std::collections::HashMap;
use tsn_fta::{Aggregation, AggregationMethod, AggregationMode};
use tsn_gptp::msg::MessageType;
use tsn_metrics::{
    precision_of, BoundsReport, EventLog, ExperimentEvent, PrecisionSample, PrecisionSeries,
    TransientKind,
};
use tsn_netsim::{ethertype, DeviceId, EthernetFrame, MacAddr, PortAddr, VlanTag};
use tsn_oracle::{Observation, OracleConfig, OracleRegistry};
use tsn_time::{ClockTime, Nanos, ServoOutput, SimTime};
use tsn_trace::{node_pid, Subsystem as TraceSub, TraceSink, DEFAULT_MAX_EVENTS, SIM_PID};

/// The result of one experiment run.
pub struct RunResult {
    /// Measured precision series (raw sim timestamps; subtract `warmup`
    /// for paper-style runtime axes).
    pub series: PrecisionSeries,
    /// Ground-truth time error of node 0's `CLOCK_SYNCTIME` (ns, one
    /// sample per probe interval) for stability analysis.
    pub ground_truth: tsn_metrics::TimeErrorSeries,
    /// `CLOCK_SYNCTIME` minus the maintaining VM's PHC on node 0 — the
    /// dependent-clock discipline error, free of ensemble common-mode
    /// wander.
    pub discipline_error: tsn_metrics::TimeErrorSeries,
    /// Annotated experiment events.
    pub events: EventLog,
    /// Derived bounds (Π, E, γ, …).
    pub bounds: BoundsReport,
    /// Aggregate counters.
    pub counters: RunCounters,
    /// Warm-up offset of the series timestamps.
    pub warmup: Nanos,
    /// Invariant violations detected by the runtime oracle; always empty
    /// unless [`World::enable_oracle`] was called before the run.
    pub violations: Vec<tsn_metrics::ViolationRecord>,
    /// Sealed execution trace; always `None` unless
    /// [`World::enable_trace`] was called before the run.
    pub trace: Option<tsn_trace::TraceReport>,
}

/// The measurement plane's state: probes in flight by sequence number,
/// and the three series of [`RunResult`] as they grow.
#[derive(Default)]
pub(crate) struct Measurement {
    /// `CLOCK_SYNCTIME` readings of the receivers, per probe.
    pub(crate) probes: HashMap<u64, Vec<ClockTime>>,
    probe_sent_at: HashMap<u64, SimTime>,
    ground_truth_ns: Vec<f64>,
    discipline_error_ns: Vec<f64>,
    series: PrecisionSeries,
}

tsn_snapshot::snap_state!(Measurement {
    probes,
    probe_sent_at,
    ground_truth_ns,
    discipline_error_ns,
    series: state,
});

impl World {
    /// Enables the runtime invariant oracle (`tsn-oracle`) for this run.
    ///
    /// The standard registry checks event-queue causality,
    /// `CLOCK_SYNCTIME` monotonicity/continuity, frame conservation, FTA
    /// containment, servo clamp respect and bound-algebra consistency.
    /// The oracle is strictly passive: it draws no randomness and
    /// schedules no events, so the run — state hashes, snapshots,
    /// artifacts — is byte-identical with it on or off. Violations are
    /// returned in [`RunResult::violations`].
    pub fn enable_oracle(&mut self) {
        let f = match self.cfg.aggregation.method {
            AggregationMethod::FaultTolerantAverage { f }
            | AggregationMethod::FaultTolerantMidpoint { f } => Some(f),
            AggregationMethod::Mean | AggregationMethod::Median => None,
        };
        let step_threshold = self
            .cfg
            .servo
            .step_threshold
            .max(self.cfg.servo.first_step_threshold)
            .max(Nanos::from_micros(20));
        self.oracle = Some(OracleRegistry::standard(OracleConfig {
            warmup: SimTime::ZERO + self.cfg.warmup,
            step_threshold,
            max_frequency_ppb: self.cfg.servo.max_frequency_ppb,
            f,
            election_convergence: self
                .cfg
                .election
                .map(|el| el.convergence_bound())
                .unwrap_or(Nanos::from_millis(2_000)),
        }));
    }

    /// `true` when [`World::enable_oracle`] was called.
    pub fn oracle_enabled(&self) -> bool {
        self.oracle.is_some()
    }

    /// Enables structured execution tracing (`tsn-trace`) for this run.
    ///
    /// The tracer records queue-pop accounting, gPTP message tx/rx, FTA
    /// rounds with trim decisions, servo updates, `SyncState`
    /// transitions, fault injections and link-down windows, all stamped
    /// with simulated time. Like the oracle it is strictly passive — it
    /// draws no randomness and schedules no events, so state hashes,
    /// snapshots and artifacts stay byte-identical with it on or off.
    /// The sealed trace is returned in [`RunResult::trace`].
    pub fn enable_trace(&mut self) {
        self.enable_trace_capped(DEFAULT_MAX_EVENTS);
    }

    /// [`World::enable_trace`] with an explicit bounded-sink event cap
    /// (the default is 2^20). Long fleet-scale runs overflow the
    /// default cap; raising it trades memory for completeness, and the
    /// sink's drop counter reports any truncation either way.
    pub fn enable_trace_capped(&mut self, max_events: usize) {
        self.tracer = Some(TraceSink::new(max_events));
    }

    /// `true` when [`World::enable_trace`] was called.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Feeds the oracle, if armed; `obs` is not built otherwise.
    #[inline]
    pub(crate) fn observe<'a>(&mut self, obs: impl FnOnce() -> Observation<'a>) {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.observe(&obs());
        }
    }

    /// Consumes the world and produces the result (what [`World::run`]
    /// returns; call it directly after [`World::run_until`]).
    pub fn into_result(mut self) -> RunResult {
        // Gather counters.
        for node in &mut self.tb.nodes {
            for vm in &mut node.vms {
                let (timeouts, misses) = vm.ptp.master_faults();
                self.counters.tx_timestamp_timeouts += timeouts;
                self.counters.deadline_misses += misses;
                self.counters.aggregations += vm.ptp.shmem().aggregations;
                self.counters.no_quorum += vm.ptp.shmem().no_quorum;
            }
            self.counters.takeovers += node.hyp.device().takeovers;
            self.counters.uncovered_failures += node.hyp.device().uncovered_failures;
        }
        for port in self.egress.values() {
            self.counters.frames_queued += port.queued_frames;
        }
        let (holdover_ns, freerun_ns) = self.events.degradation_dwell(self.end);
        self.counters.holdover_ns = holdover_ns;
        self.counters.freerun_ns = freerun_ns;
        if let Some(fab) = &self.tb.fabric {
            self.counters.fabric_frames_forwarded = fab.frames_forwarded();
            self.counters.fabric_frames_dropped = fab.frames_dropped();
            self.counters.max_residence_ns = fab.max_residence_ns();
            self.counters.path_asymmetry_ns = fab.path_asymmetry_ns();
        }
        let bounds = self.tb.bounds(&self.cfg);
        let violations = match self.oracle.take() {
            Some(mut oracle) => {
                let residual: u64 = self.egress.values().map(|p| p.len() as u64).sum();
                let stalled: u64 = self
                    .egress
                    .values()
                    .filter(|p| !p.is_busy(self.end))
                    .map(|p| p.len() as u64)
                    .sum();
                oracle.observe(&Observation::RunEnd {
                    at: self.end,
                    residual_frames: residual,
                    stalled_frames: stalled,
                });
                if self.tb.fabric.is_some() {
                    oracle.observe(&Observation::FabricTotals {
                        at: self.end,
                        forwarded: self.counters.fabric_frames_forwarded,
                        dropped: self.counters.fabric_frames_dropped,
                    });
                }
                oracle.observe(&Observation::Bounds {
                    at: self.end,
                    n: self.cfg.nodes,
                    f: 1,
                    r_max_ppb: self.cfg.r_max_ppb,
                    sync_interval: self.cfg.sync_interval,
                    d_min: bounds.d_min,
                    d_max: bounds.d_max,
                    reading_error: bounds.reading_error,
                    drift_offset: bounds.drift_offset,
                    pi: bounds.pi,
                });
                oracle.finish();
                oracle.take_violations()
            }
            None => Vec::new(),
        };
        let trace = self.tracer.take().map(|sink| sink.finish(self.end));
        let tau0 = self.cfg.probe_interval.as_secs_f64();
        RunResult {
            ground_truth: tsn_metrics::TimeErrorSeries::new(tau0, self.meas.ground_truth_ns),
            discipline_error: tsn_metrics::TimeErrorSeries::new(
                tau0,
                self.meas.discipline_error_ns,
            ),
            series: self.meas.series,
            events: self.events,
            bounds,
            counters: self.counters,
            warmup: self.cfg.warmup,
            violations,
            trace,
        }
    }

    pub(crate) fn on_probe_tick(&mut self, t: SimTime, seq: u64) {
        self.queue
            .schedule_at(t + self.cfg.probe_interval, Ev::ProbeTick { seq: seq + 1 });
        // Finalize the previous probe.
        if seq > 0 {
            self.finalize_probe(seq - 1);
        }
        let m = self.cfg.measurement_node;
        if !self.tb.nodes[m].vms[1].running {
            return;
        }
        self.meas.probe_sent_at.insert(seq, t);
        let host_now = self.tb.nodes[0].host_phc.now(t);
        let sync = self.tb.nodes[0].hyp.device().synctime(host_now).as_nanos();
        self.meas
            .ground_truth_ns
            .push((sync - t.as_nanos() as i64) as f64);
        let active = self.tb.nodes[0].hyp.device().active().0;
        let phc = self.tb.nodes[0].vms[active].nic.phc.now(t).as_nanos();
        self.meas.discipline_error_ns.push((sync - phc) as f64);
        let vm = &self.tb.nodes[m].vms[1];
        let frame = EthernetFrame {
            dst: MacAddr::PTP_MULTICAST,
            src: vm.nic.mac,
            vlan: Some(VlanTag::new(6, MEASUREMENT_VID)),
            ethertype: ethertype::MEASUREMENT,
            payload: bytes::Bytes::copy_from_slice(&seq.to_be_bytes()),
        };
        let from = PortAddr::new(vm.nic_device, 0);
        self.send_general(t, from, frame);
    }

    pub(crate) fn finalize_probe(&mut self, seq: u64) {
        let Some(at) = self.meas.probe_sent_at.remove(&seq) else {
            return;
        };
        let Some(readings) = self.meas.probes.remove(&seq) else {
            return;
        };
        if let Some(value) = precision_of(&readings) {
            self.meas.series.push(PrecisionSample {
                at,
                value,
                receivers: readings.len(),
            });
        }
    }

    /// Records an annotated experiment event, mirrored into the tracer
    /// as an instant on the lane of the VM it concerns.
    pub(crate) fn log(&mut self, t: SimTime, e: ExperimentEvent) {
        use ExperimentEvent as E;
        if let Some(tracer) = self.tracer.as_mut() {
            let vm = |grandmaster: bool| u32::from(!grandmaster);
            let (name, sub, node, tid) = match e {
                E::VmFailure { node, grandmaster } => {
                    ("vm_failure", TraceSub::Faults, node, vm(grandmaster))
                }
                E::VmReboot { node, grandmaster } => {
                    ("vm_reboot", TraceSub::Faults, node, vm(grandmaster))
                }
                E::Takeover { node } => ("takeover", TraceSub::Hyp, node, 0),
                E::Transient { node, .. } => ("transient", TraceSub::Faults, node, 0),
                E::Strike { node, .. } => ("strike", TraceSub::Faults, node, 0),
                E::GmResumed { node } => ("gm_resumed", TraceSub::Gptp, node, 0),
                E::SyncStateChange { node, slot, .. } => {
                    ("sync_state", TraceSub::Hyp, node, slot as u32)
                }
            };
            let ev = tracer.instant(t, name, sub, node_pid(node), tid);
            match e {
                E::Transient { kind, .. } => {
                    let kind = match kind {
                        TransientKind::TxTimestampTimeout => "tx_timestamp_timeout",
                        TransientKind::DeadlineMiss => "deadline_miss",
                    };
                    ev.arg_str("kind", kind);
                }
                E::Strike { succeeded, .. } => {
                    ev.arg_bool("succeeded", succeeded);
                }
                E::SyncStateChange { from, to, .. } => {
                    ev.arg_str("from", from.name()).arg_str("to", to.name());
                }
                _ => {}
            }
        }
        self.events.record(t, e);
    }

    /// Mirrors a gPTP or measurement frame tx/rx into the structured
    /// tracer as an instant on the owning station's (or the fabric's)
    /// lane. Classification peeks the wire bytes allocation-free.
    pub(crate) fn trace_frame_event(
        &mut self,
        t: SimTime,
        dev: DeviceId,
        tx: bool,
        frame: &EthernetFrame,
    ) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let (pid, tid) = match self.tb.station_map.get(dev) {
            Some((node, slot)) => (node_pid(node), slot as u32),
            None => (SIM_PID, TraceSub::Gptp.lane()),
        };
        match frame.ethertype {
            ethertype::PTP => {
                let Some(mt) = MessageType::peek(&frame.payload) else {
                    return;
                };
                let domain = frame.payload.get(4).copied().unwrap_or(0);
                let name = if tx { "ptp_tx" } else { "ptp_rx" };
                tracer
                    .instant(t, name, TraceSub::Gptp, pid, tid)
                    .arg_str("type", mt.name())
                    .arg_u64("domain", u64::from(domain));
            }
            ethertype::MEASUREMENT => {
                let name = if tx { "probe_tx" } else { "probe_rx" };
                tracer.instant(t, name, TraceSub::Measure, pid, tid);
            }
            _ => {}
        }
    }

    /// Mirrors one FTA round — inputs, trim decision, servo command —
    /// into the structured tracer, if armed.
    pub(crate) fn trace_aggregation(
        &mut self,
        t: SimTime,
        node: usize,
        slot: usize,
        a: &Aggregation,
    ) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let f = self.cfg.aggregation.method.trim_degree();
        let inputs: Vec<Nanos> = a.used.iter().map(|&(_, o)| o).collect();
        let trimmed = tsn_fta::trimmed_indices(&inputs, f);
        let used: Vec<String> = a
            .used
            .iter()
            .map(|(d, o)| format!("{d}:{:+}", o.as_nanos()))
            .collect();
        let trimmed: Vec<String> = trimmed.iter().map(|&i| a.used[i].0.to_string()).collect();
        let mode = match a.mode {
            AggregationMode::Startup => "startup",
            AggregationMode::FaultTolerant => "fault_tolerant",
        };
        tracer
            .instant(t, "fta_round", TraceSub::Fta, node_pid(node), slot as u32)
            .arg_i64("offset_ns", a.offset.as_nanos())
            .arg_str("mode", mode)
            .arg_str("used", used.join(","))
            .arg_str("trimmed", trimmed.join(","))
            .arg_str("servo", a.servo.kind_name());
        if let Some(ppb) = a.servo.freq_adj_ppb() {
            let ev = tracer
                .instant(t, "servo", TraceSub::Servo, node_pid(node), slot as u32)
                .arg_f64("freq_adj_ppb", ppb);
            if let ServoOutput::Step { delta, .. } = a.servo {
                ev.arg_i64("step_ns", delta.as_nanos());
            }
        }
    }

    // ----- introspection (tests, examples) ------------------------------

    /// Nodes currently acting as grandmaster for `domain` (running
    /// clock-sync VMs only). With the election disabled this is the
    /// static home assignment; with it enabled, whatever BMCA decided.
    pub fn acting_masters(&self, domain: u8) -> Vec<usize> {
        let gms = self.tb.nodes.iter().map(|node| &node.vms[0]).enumerate();
        gms.filter(|(_, vm)| vm.running && vm.ptp.acting(domain))
            .map(|(node, _)| node)
            .collect()
    }

    /// Ground truth: the spread of the clock-sync VMs' PHCs at true time
    /// `t` (running VMs only). Not available to any simulated component.
    pub fn phc_spread(&mut self, t: SimTime) -> Nanos {
        phc_spread_of(self.tb.nodes.iter_mut().flat_map(|n| &mut n.vms), t)
    }

    /// Ground truth: spread of the grandmaster VMs' PHCs at true time
    /// `t` — the quantity whose boundedness separates the paper's design
    /// from the prior-work baseline.
    pub fn gm_spread(&mut self, t: SimTime) -> Nanos {
        phc_spread_of(self.tb.nodes.iter_mut().map(|n| &mut n.vms[0]), t)
    }

    /// Ground truth: the spread of the nodes' `CLOCK_SYNCTIME` readings
    /// at true time `t`.
    pub fn synctime_spread(&mut self, t: SimTime) -> Nanos {
        spread(self.tb.nodes.iter_mut().map(|node| {
            let host_now = node.host_phc.now(t);
            node.hyp.device().synctime(host_now)
        }))
    }
}

/// Spread of the PHC readings of the running VMs among `vms`.
fn phc_spread_of<'a>(vms: impl Iterator<Item = &'a mut VmState>, t: SimTime) -> Nanos {
    spread(vms.filter(|vm| vm.running).map(|vm| vm.nic.phc.now(t)))
}

/// Largest minus smallest reading (zero for none).
fn spread(readings: impl Iterator<Item = ClockTime>) -> Nanos {
    let readings: Vec<ClockTime> = readings.collect();
    let min = readings.iter().min().copied().unwrap_or(ClockTime::ZERO);
    let max = readings.iter().max().copied().unwrap_or(ClockTime::ZERO);
    max - min
}
