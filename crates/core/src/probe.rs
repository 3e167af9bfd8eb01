//! The measurement plane and the run's own account of itself: the
//! precision probes of paper §III-A2 (send, collect, finalize), the
//! annotated event log, the one passive channel ([`Observers`], fed
//! through [`observe`]) with the trace's reading of it, and the
//! ground-truth readers tests and examples use. Nothing here feeds back
//! into the simulated system.

use crate::counters::RunCounters;
use crate::testbed::{VmState, MEASUREMENT_VID};
use crate::world::{Ev, World};
use std::collections::{BTreeMap, HashMap};
use std::ops::RangeBounds;
use tsn_gptp::msg::MessageType;
use tsn_metrics::{
    precision_of, BoundsReport, EventLog, ExperimentEvent, PrecisionSample, PrecisionSeries,
    TransientKind,
};
use tsn_netsim::{ethertype, EthernetFrame, MacAddr, PortAddr, VlanTag};
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
    /// Per-domain FTA accounting; `None` unless
    /// [`World::enable_fta_accounting`] (or the oracle) armed it.
    pub fta: Option<FtaAccounting>,
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

/// The run's passive observers, each off until armed: the invariant
/// oracle, the per-domain FTA accounting and the trace sink. All read
/// the one stream of [`Observation`]s the world feeds through
/// [`observe`]. None draws randomness or schedules events, so any set
/// of them leaves state hashes, snapshots and artifacts byte-identical.
#[derive(Default)]
pub(crate) struct Observers {
    oracle: Option<OracleRegistry>,
    fta: Option<FtaAccounting>,
    /// The trace sink, with the FTA trim degree `f` that tells which
    /// inputs a traced round trimmed.
    trace: Option<(TraceSink, usize)>,
}

/// Feeds one observation to the armed observers; `obs` is not built
/// when none is armed. Takes the field, not the world, so `obs` may
/// borrow the rest of the world.
#[inline]
pub(crate) fn observe<'a>(set: &mut Option<Observers>, obs: impl FnOnce() -> Observation<'a>) {
    if let Some(observers) = set {
        feed(observers, obs);
    }
}

/// [`observe`]'s armed path, kept cold and out of line so that building
/// and dispatching an observation stays out of the event handlers.
#[cold]
#[inline(never)]
fn feed<'a>(observers: &mut Observers, obs: impl FnOnce() -> Observation<'a>) {
    let obs = obs();
    if let Some(oracle) = &mut observers.oracle {
        oracle.observe(&obs);
    }
    if let Some(fta) = &mut observers.fta {
        fta.observe(&obs);
    }
    if let Some((sink, fta_trim)) = &mut observers.trace {
        trace(sink, *fta_trim, &obs);
    }
}

/// Which fault-tolerant rounds trimmed each domain, as the honest nodes
/// saw them (paper §II-B: the FTA discards the `f` lowest and `f`
/// highest offsets). The strikes split a run into phases: phase `k`
/// follows the `k`-th. A compromised GM's first lie leaves on the S
/// boundary after its next Sync tick, so for 2S after its strike lands
/// a node may still hold the domain's last honest offset: a round that
/// keeps it then is `in_flight`, not `kept`.
#[derive(Debug, Default)]
pub struct FtaAccounting {
    f: usize,
    in_flight: Nanos,
    landed: BTreeMap<usize, SimTime>,
    /// The strikes seen so far: the phase of the next round.
    pub strikes: usize,
    /// Rounds by `(phase, node, domain)`, honest nodes only.
    pub rounds: BTreeMap<(usize, usize, usize), TrimCounts>,
    /// The first [`FtaAccounting::LISTED`] rounds that kept a
    /// compromised domain, as `(phase, at, node, slot, domain)`.
    pub kept_compromised: Vec<(usize, SimTime, usize, usize, usize)>,
}

/// One node's fault-tolerant rounds that saw one domain's offset.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimCounts {
    /// A round marked the domain Byzantine.
    pub compromised: bool,
    /// Trimmed as one of the `f` lowest.
    pub low: u64,
    /// Trimmed as one of the `f` highest.
    pub high: u64,
    /// Kept in the average.
    pub kept: u64,
    /// Kept while its lie was in flight (see [`FtaAccounting`]).
    pub in_flight: u64,
    /// Fewer than `2f + 1` offsets: nothing trimmed.
    pub below_quorum: u64,
    /// The most consecutive rounds that trimmed it.
    pub longest_trimmed_streak: u64,
    streak: u64,
}

impl FtaAccounting {
    /// How many rounds that kept a compromised domain are listed.
    pub const LISTED: usize = 8;

    /// Counts one round through [`tsn_fta::trimmed_indices`], the trim
    /// rule the trace reports; a strike opens the next phase.
    fn observe(&mut self, obs: &Observation<'_>) {
        let (at, node, slot, used, byzantine) = match *obs {
            Observation::Logged {
                at,
                event: ExperimentEvent::Strike { node, succeeded },
            } => {
                self.strikes += 1;
                if succeeded {
                    self.landed.entry(node).or_insert(at);
                }
                return;
            }
            Observation::Aggregated {
                at,
                node,
                slot,
                fault_tolerant: true,
                used,
                byzantine,
                ..
            } => (at, node, slot, used, byzantine),
            _ => return,
        };
        let marked = |d: usize| byzantine.get(d) == Some(&true);
        if marked(node) {
            return;
        }
        let offsets: Vec<Nanos> = used.iter().map(|&(_, o)| o).collect();
        let trimmed = tsn_fta::trimmed_indices(&offsets, self.f);
        // The rule orders by (offset, index): a trimmed input before a
        // kept one is one of the `f` lowest.
        let kept = (0..used.len()).find(|i| !trimmed.contains(i));
        for (i, &(domain, offset)) in used.iter().enumerate() {
            let c = self.rounds.entry((self.strikes, node, domain)).or_default();
            c.compromised |= marked(domain);
            c.streak = if trimmed.contains(&i) {
                c.streak + 1
            } else {
                0
            };
            c.longest_trimmed_streak = c.longest_trimmed_streak.max(c.streak);
            let landed = self.landed.get(&domain);
            *if used.len() <= 2 * self.f {
                &mut c.below_quorum
            } else if trimmed.contains(&i) {
                match kept.is_some_and(|k| (offset, i) < (offsets[k], k)) {
                    true => &mut c.low,
                    false => &mut c.high,
                }
            } else if !marked(domain) {
                &mut c.kept
            } else if landed.is_some_and(|&t| at <= t + self.in_flight) {
                &mut c.in_flight
            } else {
                if self.kept_compromised.len() < Self::LISTED {
                    let round = (self.strikes, at, node, slot, domain);
                    self.kept_compromised.push(round);
                }
                &mut c.kept
            } += 1;
        }
    }

    /// The compromised domains' rounds in `phases`, summed over the
    /// honest nodes.
    pub fn compromised_rounds(&self, phases: impl RangeBounds<usize>) -> TrimCounts {
        let rounds = self
            .rounds
            .iter()
            .filter(|(k, c)| c.compromised && phases.contains(&k.0));
        rounds.fold(TrimCounts::default(), |s, (_, c)| TrimCounts {
            low: s.low + c.low,
            high: s.high + c.high,
            kept: s.kept + c.kept,
            in_flight: s.in_flight + c.in_flight,
            below_quorum: s.below_quorum + c.below_quorum,
            longest_trimmed_streak: s.longest_trimmed_streak.max(c.longest_trimmed_streak),
            ..s
        })
    }
}

/// The trace's reading of one observation: its lane (`pid`, `tid`), the
/// instant or span it records, and the arguments; nothing for the
/// observations it has no reading of.
fn trace(sink: &mut TraceSink, fta_trim: usize, obs: &Observation<'_>) {
    match *obs {
        Observation::Event { at, kind, sub } => sink.pop(at, kind, sub),
        Observation::FrameDelivered {
            at,
            station,
            ethertype,
            payload,
            ..
        } => trace_frame(sink, at, station, true, ethertype, payload),
        Observation::FrameArrived {
            at,
            station,
            ethertype,
            payload,
        } => trace_frame(sink, at, station, false, ethertype, payload),
        // Ports ask to be woken only behind a waiting frame; a wake-up
        // that finds the wire free and nothing queued was wasted, and
        // worth a mark.
        Observation::PortWoken { at, idle: true } => {
            let lane = TraceSub::Netsim.lane();
            sink.instant(at, "port_free_idle", TraceSub::Netsim, SIM_PID, lane);
        }
        Observation::LinkWindow { at, window, down } => {
            if down {
                let (sub, lane) = (TraceSub::Netsim, TraceSub::Netsim.lane());
                sink.begin_span(window as u64, at, "link_down", sub, SIM_PID, lane);
            } else {
                sink.end_span(window as u64, at);
            }
        }
        Observation::FabricCrossing {
            at,
            from_sw,
            to_sw,
            sync,
            dropped,
            delay,
            residence_ns,
        } if dropped || sync => {
            let name = if dropped {
                "fabric_drop"
            } else {
                "fabric_sync"
            };
            let lane = TraceSub::Fabric.lane();
            let ev = sink
                .instant(at, name, TraceSub::Fabric, SIM_PID, lane)
                .arg_u64("from_sw", from_sw as u64)
                .arg_u64("to_sw", to_sw as u64);
            if !dropped {
                ev.arg_i64("delay_ns", delay.as_nanos())
                    .arg_i64("residence_ns", residence_ns);
            }
        }
        Observation::Aggregated {
            at,
            node,
            slot,
            offset,
            servo,
            fault_tolerant,
            used,
            ..
        } => {
            let inputs: Vec<Nanos> = used.iter().map(|&(_, o)| o).collect();
            let trimmed = tsn_fta::trimmed_indices(&inputs, fta_trim).into_iter();
            let trimmed: Vec<String> = trimmed.map(|i| used[i].0.to_string()).collect();
            let used_arg: Vec<String> = used
                .iter()
                .map(|(d, o)| format!("{d}:{:+}", o.as_nanos()))
                .collect();
            let mode = if fault_tolerant {
                "fault_tolerant"
            } else {
                "startup"
            };
            let (pid, tid) = (node_pid(node), slot as u32);
            sink.instant(at, "fta_round", TraceSub::Fta, pid, tid)
                .arg_i64("offset_ns", offset.as_nanos())
                .arg_str("mode", mode)
                .arg_str("used", used_arg.join(","))
                .arg_str("trimmed", trimmed.join(","))
                .arg_str("servo", servo.kind_name());
            if let Some(ppb) = servo.freq_adj_ppb() {
                let ev = sink
                    .instant(at, "servo", TraceSub::Servo, pid, tid)
                    .arg_f64("freq_adj_ppb", ppb);
                if let ServoOutput::Step { delta, .. } = servo {
                    ev.arg_i64("step_ns", delta.as_nanos());
                }
            }
        }
        Observation::ElectionActing {
            at,
            domain,
            node,
            acting,
        } => {
            let name = if acting { "promoted" } else { "demoted" };
            sink.instant(at, name, TraceSub::Election, node_pid(node), 0)
                .arg_u64("domain", domain as u64);
        }
        Observation::Elected {
            at,
            node,
            domain,
            winner,
            prev,
        } => {
            sink.instant(at, "elected", TraceSub::Election, node_pid(node), 0)
                .arg_u64("domain", domain as u64)
                .arg_u64("winner", winner as u64)
                .arg_u64("prev", prev as u64);
        }
        Observation::Logged { at, event } => trace_logged(sink, at, event),
        _ => {}
    }
}

/// A gPTP or measurement frame's departure (`tx`) or arrival as an
/// instant on the station's lane (a switch's go to the gPTP lane).
/// Classification peeks the wire bytes allocation-free; other frames
/// record nothing.
fn trace_frame(
    sink: &mut TraceSink,
    at: SimTime,
    station: Option<(usize, usize)>,
    tx: bool,
    ethertype: u16,
    payload: &[u8],
) {
    let (pid, tid) = match station {
        Some((node, slot)) => (node_pid(node), slot as u32),
        None => (SIM_PID, TraceSub::Gptp.lane()),
    };
    match ethertype {
        ethertype::PTP => {
            let Some(mt) = MessageType::peek(payload) else {
                return;
            };
            let domain = payload.get(4).copied().unwrap_or(0);
            let name = if tx { "ptp_tx" } else { "ptp_rx" };
            sink.instant(at, name, TraceSub::Gptp, pid, tid)
                .arg_str("type", mt.name())
                .arg_u64("domain", u64::from(domain));
        }
        ethertype::MEASUREMENT => {
            let name = if tx { "probe_tx" } else { "probe_rx" };
            sink.instant(at, name, TraceSub::Measure, pid, tid);
        }
        _ => {}
    }
}

/// A log entry as an instant on the lane of the VM it concerns.
fn trace_logged(sink: &mut TraceSink, at: SimTime, e: ExperimentEvent) {
    use ExperimentEvent as E;
    let vm = |grandmaster: bool| u32::from(!grandmaster);
    let (name, sub, node, tid) = match e {
        E::VmFailure {
            node,
            grandmaster: gm,
        } => ("vm_failure", TraceSub::Faults, node, vm(gm)),
        E::VmReboot {
            node,
            grandmaster: gm,
        } => ("vm_reboot", TraceSub::Faults, node, vm(gm)),
        E::Takeover { node } => ("takeover", TraceSub::Hyp, node, 0),
        E::Transient { node, .. } => ("transient", TraceSub::Faults, node, 0),
        E::Strike { node, .. } => ("strike", TraceSub::Faults, node, 0),
        E::GmResumed { node } => ("gm_resumed", TraceSub::Gptp, node, 0),
        E::SyncStateChange { node, slot, .. } => ("sync_state", TraceSub::Hyp, node, slot as u32),
    };
    let ev = sink.instant(at, name, sub, node_pid(node), tid);
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

impl World {
    /// Enables the runtime invariant oracle (`tsn-oracle`) for this run.
    ///
    /// The standard registry checks event-queue causality,
    /// `CLOCK_SYNCTIME` monotonicity/continuity, frame conservation, FTA
    /// containment, servo clamp respect, bound-algebra consistency and
    /// the election's safety and liveness. Like every observer it is
    /// strictly passive. Violations are returned in
    /// [`RunResult::violations`].
    pub fn enable_oracle(&mut self) {
        let step_threshold = self
            .cfg
            .servo
            .step_threshold
            .max(self.cfg.servo.first_step_threshold)
            .max(Nanos::from_micros(20));
        self.enable_fta_accounting();
        let observers = self.observers.get_or_insert_with(Observers::default);
        observers.oracle = Some(OracleRegistry::standard(OracleConfig {
            warmup: SimTime::ZERO + self.cfg.warmup,
            step_threshold,
            max_frequency_ppb: self.cfg.servo.max_frequency_ppb,
            f: self.cfg.aggregation.method.f(),
            election_convergence: self
                .cfg
                .election
                .map(|el| el.convergence_bound())
                .unwrap_or(Nanos::from_millis(2_000)),
        }));
    }

    /// Enables the per-domain FTA accounting ([`FtaAccounting`]) for
    /// this run; the oracle arms it too. Like every observer it is
    /// strictly passive. The accounting is returned in [`RunResult::fta`].
    pub fn enable_fta_accounting(&mut self) {
        let f = self.cfg.aggregation.method.f().unwrap_or(0);
        let s = self.cfg.sync_interval;
        let observers = self.observers.get_or_insert_with(Observers::default);
        observers.fta = Some(FtaAccounting {
            f,
            in_flight: s + s,
            ..FtaAccounting::default()
        });
    }

    /// Enables structured execution tracing (`tsn-trace`) for this run.
    ///
    /// The trace records queue-pop accounting, gPTP message tx/rx, FTA
    /// rounds with trim decisions, servo updates, election role changes,
    /// logged events and link-down windows, all stamped with simulated
    /// time. Like every observer it is strictly passive. The sealed
    /// trace is returned in [`RunResult::trace`].
    pub fn enable_trace(&mut self) {
        self.enable_trace_capped(DEFAULT_MAX_EVENTS);
    }

    /// [`World::enable_trace`] with an explicit bounded-sink event cap
    /// (the default is 2^20). Long or deep-fabric runs overflow the
    /// default cap; raising it trades memory for completeness, and the
    /// sink's drop counter reports any truncation either way.
    pub fn enable_trace_capped(&mut self, max_events: usize) {
        let fta_trim = self.cfg.aggregation.method.f().unwrap_or(0);
        let observers = self.observers.get_or_insert_with(Observers::default);
        observers.trace = Some((TraceSink::new(max_events), fta_trim));
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
        let end = self.end;
        if let Some(fab) = &self.tb.fabric {
            self.counters.fabric_frames_forwarded = fab.frames_forwarded();
            self.counters.fabric_frames_dropped = fab.frames_dropped();
            self.counters.max_residence_ns = fab.max_residence_ns();
            self.counters.path_asymmetry_ns = fab.path_asymmetry_ns();
            observe(&mut self.observers, || Observation::FabricTotals {
                at: end,
                forwarded: self.counters.fabric_frames_forwarded,
                dropped: self.counters.fabric_frames_dropped,
            });
        }
        let bounds = self.tb.bounds(&self.cfg);
        observe(&mut self.observers, || Observation::RunEnd {
            at: end,
            residual_frames: self.egress.values().map(|p| p.len() as u64).sum(),
            stalled_frames: self
                .egress
                .values()
                .filter(|p| !p.is_busy(end))
                .map(|p| p.len() as u64)
                .sum(),
        });
        observe(&mut self.observers, || Observation::Bounds {
            at: end,
            n: self.cfg.nodes,
            f: bounds.f,
            r_max_ppb: self.cfg.r_max_ppb,
            sync_interval: self.cfg.sync_interval,
            d_min: bounds.d_min,
            d_max: bounds.d_max,
            reading_error: bounds.reading_error,
            drift_offset: bounds.drift_offset,
            pi: bounds.pi,
        });
        let Observers { oracle, fta, trace } = self.observers.take().unwrap_or_default();
        let violations = oracle.map_or_else(Vec::new, |mut oracle| {
            oracle.finish();
            oracle.take_violations()
        });
        let trace = trace.map(|(sink, _)| sink.finish(end));
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
            fta,
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
            payload: Box::from(seq.to_be_bytes()),
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

    /// Records an annotated experiment event, and feeds it to the
    /// observers.
    pub(crate) fn log(&mut self, t: SimTime, e: ExperimentEvent) {
        observe(&mut self.observers, || Observation::Logged {
            at: t,
            event: e,
        });
        self.events.record(t, e);
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
