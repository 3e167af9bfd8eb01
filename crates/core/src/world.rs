//! The experiment world: a deterministic discrete-event simulation of the
//! paper's virtualized distributed real-time system (Fig. 2).
//!
//! The world is a scheduler plus wiring. [`Testbed::build`] makes every
//! simulated entity — host clocks, clock-sync VMs with passthrough NICs,
//! TSN switches, gPTP engines, FTSHMEM aggregators, hypervisor nodes, the
//! link layer, the fault schedule — each an engine that is handed
//! instants, frames and RNG draws and answers what should happen next.
//! The world owns the event queue, pops one event at a time, calls the
//! engine it is for, and turns the answer into further events: real
//! Ethernet frames moving between devices. Each thing that happens is
//! also reported once, as an [`Observation`] on the one passive channel
//! ([`observe`]), to whichever observers are armed: the runtime oracle,
//! the trace sink. They observe and never act.

use crate::config::TestbedConfig;
pub use crate::counters::RunCounters;
use crate::densemap::PortTable;
use crate::node::NodeOutput;
use crate::probe::{observe, Measurement, Observers, RunResult};
use crate::testbed::Testbed;
use rand::Rng;
use tsn_election::ElectionEvent;
use tsn_fta::{Aggregation, AggregationMode};
use tsn_gptp::{msg::MessageType, Transmission, TxTiming, TxToken};
use tsn_hyp::VmId;
use tsn_metrics::{EventLog, ExperimentEvent, TransientKind};
use tsn_netsim::{
    ethertype, Crossing, DeviceId, EthernetFrame, EventQueue, LaunchOutcome, MacAddr, PortAddr,
    PortNo, WakeUp,
};
use tsn_oracle::{Observation, Subsystem};
use tsn_time::{ClockTime, Nanos, SimTime};

/// Minimum lead time between scheduling a Sync and its launch boundary.
const LAUNCH_LEAD: Nanos = Nanos::from_millis(20);

/// World events.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// Frame departs `from`, then crosses the link. An event message
    /// carries the issuing engine's token, handed back to it with the
    /// egress timestamp.
    Transmit {
        from: PortAddr,
        frame: EthernetFrame,
        token: Option<TxToken>,
    },
    /// Frame arrives at `to`.
    Arrive { to: PortAddr, frame: EthernetFrame },
    /// A grandmaster VM prepares its next Sync.
    GmSyncTick { node: usize },
    /// Peer-delay measurement round on one port.
    PdelayTick { port: PortAddr },
    /// phc2sys updates STSHMEM parameters.
    Phc2sysTick { node: usize, slot: usize },
    /// Hypervisor monitor tick.
    MonitorTick { node: usize },
    /// Oscillator wander step (all clocks).
    WanderTick,
    /// Measurement probe emission.
    ProbeTick { seq: u64 },
    /// Fault-injection shutdown event `i` of the schedule.
    FaultAt(usize),
    /// Reboot completion of schedule event `i`.
    RebootAt(usize),
    /// Attacker strike `i` of the plan.
    StrikeAt(usize),
    /// An egress port finished serializing its in-flight frame and a
    /// frame is waiting behind it (the port asked for this wake-up).
    PortFree { from: PortAddr },
    /// Best-effort background traffic generator tick for one port.
    BackgroundTick { port: PortAddr },
    /// Edge of link-down window `i` (`down = true` opens it).
    LinkWindow { i: usize, down: bool },
    /// Election round on one node: expire claims, decide, announce.
    ElectionTick { node: usize },
    /// Scheduled permanent grandmaster kill (election failover scenario).
    GmKill,
}

impl Ev {
    /// Stable name and owning subsystem of this event kind, for the
    /// observers' pop accounting.
    fn kind(&self) -> (&'static str, Subsystem) {
        match self {
            Ev::Transmit { .. } => ("transmit", Subsystem::Netsim),
            Ev::Arrive { .. } => ("arrive", Subsystem::Netsim),
            Ev::GmSyncTick { .. } => ("gm_sync_tick", Subsystem::Gptp),
            Ev::PdelayTick { .. } => ("pdelay_tick", Subsystem::Gptp),
            Ev::Phc2sysTick { .. } => ("phc2sys_tick", Subsystem::Hyp),
            Ev::MonitorTick { .. } => ("monitor_tick", Subsystem::Hyp),
            Ev::WanderTick => ("wander_tick", Subsystem::Time),
            Ev::ProbeTick { .. } => ("probe_tick", Subsystem::Measure),
            Ev::FaultAt(_) => ("fault", Subsystem::Faults),
            Ev::RebootAt(_) => ("reboot", Subsystem::Faults),
            Ev::StrikeAt(_) => ("strike", Subsystem::Faults),
            Ev::PortFree { .. } => ("port_free", Subsystem::Netsim),
            Ev::BackgroundTick { .. } => ("background_tick", Subsystem::Netsim),
            Ev::LinkWindow { .. } => ("link_window", Subsystem::Faults),
            Ev::ElectionTick { .. } => ("election_tick", Subsystem::Election),
            Ev::GmKill => ("gm_kill", Subsystem::Election),
        }
    }
}

/// The simulation world. Construct with [`World::new`], then call
/// [`World::run`].
pub struct World {
    pub(crate) cfg: TestbedConfig,
    pub(crate) queue: EventQueue<Ev>,
    /// Everything simulated: devices, clocks, engines, links, the fault
    /// schedule and the RNG streams (see [`Testbed`]).
    pub(crate) tb: Testbed,
    pub(crate) egress: PortTable<(EthernetFrame, Option<TxToken>)>,
    /// Buffers the protocol engines write their outputs into; drained
    /// within the event that filled them, kept for their capacity.
    node_out: Vec<NodeOutput>,
    bridge_out: Vec<Transmission>,
    /// Per-domain Byzantine marks for the oracle, rebuilt per armed FTA
    /// round; kept for its capacity like the two above.
    byzantine: Vec<bool>,
    /// Current relay-tree root of each domain (initially the static
    /// assignment `domain d → node d`; changed by election handoffs).
    domain_roots: Vec<usize>,
    /// The scheduled GM kill once it fired: `(kill time, killed node)` —
    /// the re-election stopwatch for `reconvergence_ns`.
    pub(crate) gm_kill: Option<(SimTime, u8)>,
    /// Probes in flight and the series they produced.
    pub(crate) meas: Measurement,
    pub(crate) events: EventLog,
    pub(crate) counters: RunCounters,
    pub(crate) end: SimTime,
    /// The passive observers, none armed by default (see
    /// [`World::enable_oracle`], [`World::enable_trace`]). Deliberately
    /// excluded from [`SnapState`] so arming them cannot perturb state
    /// hashes, snapshots, or artifacts.
    pub(crate) observers: Option<Observers>,
}

impl World {
    /// Builds the testbed from a configuration and arms the periodic
    /// activities and the interventions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TestbedConfig::validate`]).
    pub fn new(cfg: TestbedConfig) -> Self {
        let tb = Testbed::build(&cfg);
        let (devices, port_stride) = tb.links.port_space();
        let mut world = World {
            queue: EventQueue::new(),
            egress: PortTable::new(devices, port_stride),
            node_out: Vec::new(),
            bridge_out: Vec::new(),
            byzantine: Vec::new(),
            domain_roots: (0..cfg.nodes).collect(),
            gm_kill: None,
            meas: Measurement::default(),
            events: EventLog::new(),
            counters: RunCounters::default(),
            end: SimTime::ZERO + cfg.warmup + cfg.duration,
            observers: None,
            tb,
            cfg,
        };
        world.schedule_initial();
        world
    }

    fn schedule_initial(&mut self) {
        let n = self.cfg.nodes;
        // Stagger periodic activities so same-time ties are rare.
        for node in 0..n {
            let jitter = Nanos::from_nanos((node as i64) * 1_371);
            self.queue
                .schedule_at(SimTime::from_millis(50) + jitter, Ev::GmSyncTick { node });
            self.queue
                .schedule_at(SimTime::from_millis(10) + jitter, Ev::MonitorTick { node });
            for slot in 0..self.cfg.vms_per_node {
                self.queue.schedule_at(
                    SimTime::from_millis(20) + jitter + Nanos::from_nanos(slot as i64 * 977),
                    Ev::Phc2sysTick { node, slot },
                );
            }
            if self.cfg.election.is_some() {
                self.queue
                    .schedule_at(SimTime::from_millis(60) + jitter, Ev::ElectionTick { node });
            }
        }
        // The election failover scenario's GM kill is a post-warmup
        // intervention like faults and strikes: control sequence space,
        // offset by the warm-up (and stripped from the warm prefix).
        if let Some(el) = &self.cfg.election {
            if let Some(at) = el.gm_failure_at {
                self.queue
                    .schedule_ctl_at(SimTime::ZERO + self.cfg.warmup + at, Ev::GmKill);
            }
        }
        // Pdelay on every wired port of every device.
        let mut ports: Vec<PortAddr> = Vec::new();
        for dev in self.tb.topo.devices() {
            ports.extend(self.tb.topo.wired_ports(dev));
        }
        for (i, &port) in ports.iter().enumerate() {
            let offset = Nanos::from_nanos(5_000_000 + (i as i64) * 33_333_333 % 1_000_000_000);
            self.queue
                .schedule_at(SimTime::ZERO + offset, Ev::PdelayTick { port });
        }
        self.queue
            .schedule_at(SimTime::ZERO + self.cfg.wander_interval, Ev::WanderTick);
        if self.cfg.background.is_some() {
            for (i, port) in ports.into_iter().enumerate() {
                let offset = Nanos::from_nanos(1_000_000 + (i as i64) * 13_337);
                self.queue
                    .schedule_at(SimTime::ZERO + offset, Ev::BackgroundTick { port });
            }
        }
        // Probes start after warm-up, phase-shifted to the middle of the
        // synchronization interval: the probe period is a multiple of S,
        // so an unshifted schedule would collide with the synchronized
        // Sync bursts on every hop, every probe, inflating the measured
        // precision with queuing jitter.
        self.queue.schedule_at(
            SimTime::ZERO + self.cfg.warmup + self.cfg.sync_interval / 2,
            Ev::ProbeTick { seq: 0 },
        );
        // Faults and strikes are offset by the warm-up so their paper
        // times (e.g. 00:21:42) land on the measured axis. They use the
        // control sequence space so that configurations differing only
        // in post-warmup interventions stay byte-identical through the
        // warm-up (the fork-based campaign invariant, see
        // `tsn_netsim::CTL_SEQ_BASE`).
        for (i, f) in self.tb.schedule.iter().enumerate() {
            self.queue
                .schedule_ctl_at(f.at + self.cfg.warmup, Ev::FaultAt(i));
        }
        for (i, s) in self.cfg.attack.strikes().iter().enumerate() {
            self.queue
                .schedule_ctl_at(s.at + self.cfg.warmup, Ev::StrikeAt(i));
        }
        // Link-down windows toggle through the control space too, so
        // forked continuations re-arm them alongside faults and strikes.
        for (i, w) in self.tb.links.windows().iter().enumerate() {
            self.queue.schedule_ctl_at(
                SimTime::ZERO + self.cfg.warmup + w.from,
                Ev::LinkWindow { i, down: true },
            );
            self.queue.schedule_ctl_at(
                SimTime::ZERO + self.cfg.warmup + w.until,
                Ev::LinkWindow { i, down: false },
            );
        }
    }

    /// Runs the experiment to completion and returns the result.
    ///
    /// Events are handled one at a time in exact `(time, seq)` order
    /// ([`EventQueue::pop_until`]).
    pub fn run(mut self) -> RunResult {
        self.run_until(self.end);
        self.into_result()
    }

    // ----- event dispatch --------------------------------------------

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Transmit { from, frame, token } => self.on_transmit(t, from, frame, token),
            Ev::Arrive { to, frame } => self.on_arrive(t, to, &frame),
            Ev::GmSyncTick { node } => self.on_gm_sync_tick(t, node),
            Ev::PdelayTick { port } => self.on_pdelay_tick(t, port),
            Ev::Phc2sysTick { node, slot } => self.on_phc2sys_tick(t, node, slot),
            Ev::MonitorTick { node } => self.on_monitor_tick(t, node),
            Ev::WanderTick => self.on_wander_tick(t),
            Ev::ProbeTick { seq } => self.on_probe_tick(t, seq),
            Ev::FaultAt(i) => self.on_fault(t, i),
            Ev::RebootAt(i) => self.on_reboot(t, i),
            Ev::StrikeAt(i) => self.on_strike(t, i),
            Ev::PortFree { from } => self.on_port_free(t, from),
            Ev::BackgroundTick { port } => self.on_background_tick(t, port),
            Ev::LinkWindow { i, down } => self.on_link_window(t, i, down),
            Ev::ElectionTick { node } => self.on_election_tick(t, node),
            Ev::GmKill => self.on_gm_kill(t),
        }
    }

    fn on_link_window(&mut self, t: SimTime, i: usize, down: bool) {
        observe(&mut self.observers, || Observation::LinkWindow {
            at: t,
            window: i,
            down,
        });
        self.tb.links.set_window(i, down);
    }

    /// Egress traffic class of a frame. With priority isolation disabled
    /// (ablation), everything is best-effort.
    fn priority_of(&self, frame: &EthernetFrame) -> u8 {
        match &self.cfg.background {
            Some(bg) if !bg.priority_isolation => 0,
            _ => frame.traffic_class(),
        }
    }

    /// Schedules the wake-up an egress port asked for (see
    /// [`tsn_netsim::WakeUp`]): at the sequence number reserved when its
    /// in-flight frame departed, so the event pops exactly where an
    /// eagerly scheduled one would have.
    fn schedule_wake(&mut self, from: PortAddr, wake: Option<WakeUp>) {
        if let Some(WakeUp { at, seq }) = wake {
            self.queue.insert_raw(at, seq, Ev::PortFree { from });
        }
    }

    /// The wake-up `from` asked for: its in-flight frame is done.
    fn on_port_free(&mut self, t: SimTime, from: PortAddr) {
        let port = self.egress.get(from);
        observe(&mut self.observers, || Observation::PortWoken {
            at: t,
            idle: port.is_none_or(|p| !p.is_busy(t) && p.is_empty()),
        });
        self.send_next_queued(t, from);
    }

    /// Starts the best queued frame of `from`, if the wire is free.
    fn send_next_queued(&mut self, t: SimTime, from: PortAddr) {
        // A same-instant transmission may have grabbed the wire already;
        // its own wake-up will drain the queue.
        let Some(port) = self.egress.get_mut(from) else {
            return;
        };
        if port.is_busy(t) {
            return;
        }
        if let Some((_, (frame, token))) = port.pop_ready() {
            observe(&mut self.observers, || Observation::FramePopped { at: t });
            self.depart(t, from, frame, token, true);
        }
    }

    fn on_background_tick(&mut self, t: SimTime, port: PortAddr) {
        let Some(bg) = self.cfg.background else {
            return;
        };
        // Interarrival: frame service time / load, jittered ±50 %.
        let payload = vec![0u8; bg.frame_bytes];
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::for_nic(port.device.0 as u32),
            vlan: None,
            ethertype: ethertype::BACKGROUND,
            payload: bytes::Bytes::from(payload),
        };
        let service = frame.serialization_ns(1_000_000_000).as_nanos() as f64;
        let mean_gap = (service / bg.load.clamp(0.01, 0.95)).max(1.0);
        let gap = mean_gap * self.tb.frame_rng.gen_range(0.5..1.5);
        self.queue.schedule_at(
            t + Nanos::from_nanos(gap as i64),
            Ev::BackgroundTick { port },
        );
        self.on_transmit(t, port, frame, None);
    }

    // ----- transmission ----------------------------------------------

    /// Queues a general (not launch-timed) transmission after a small
    /// driver latency.
    pub(crate) fn send_general(&mut self, t: SimTime, from: PortAddr, frame: EthernetFrame) {
        let latency = Nanos::from_nanos(self.tb.frame_rng.gen_range(1_000..20_000));
        let token = None;
        self.queue
            .schedule_at(t + latency, Ev::Transmit { from, frame, token });
    }

    /// Queues a transmission of the protocol engine on device `dev`, as
    /// a frame from `src`. When it leaves is the simulation's to model:
    /// driver latency, responder turnaround or bridge residence, one
    /// `frame_rng` draw each.
    /// (Launch-timed Syncs go through [`World::launch_sync`] instead.)
    fn transmit(&mut self, t: SimTime, dev: DeviceId, src: MacAddr, tx: Transmission) {
        let delay = match tx.timing {
            TxTiming::Driver => Nanos::from_nanos(self.tb.frame_rng.gen_range(1_000..20_000)),
            TxTiming::Launch => unreachable!("launch-timed Syncs go through launch_sync"),
            TxTiming::Turnaround => Nanos::from_nanos(self.tb.frame_rng.gen_range(50_000..300_000)),
            TxTiming::Residence => {
                // Unreachable: only `drain_bridge_out` passes `Residence`, with a switch's `dev`.
                let sw = self.tb.switch_map.get(dev).expect("only bridges relay");
                self.tb.switches[sw]
                    .fabric
                    .residence
                    .sample(&mut self.tb.frame_rng)
            }
        };
        self.queue.schedule_at(
            t + delay,
            Ev::Transmit {
                from: PortAddr::new(dev, tx.port),
                frame: Self::ptp_frame(src, tx.bytes),
                token: tx.token,
            },
        );
    }

    /// Carries out what station `(node, slot)`'s engine left in
    /// `node_out`: transmissions, clock commands, log entries,
    /// observations. Returns the launch-timed Sync, if the engine
    /// emitted one, for [`World::launch_sync`].
    fn drain_node_out(&mut self, t: SimTime, node: usize, slot: usize) -> Option<Transmission> {
        if self.node_out.is_empty() {
            return None;
        }
        let vm = &self.tb.nodes[node].vms[slot];
        let (dev, src) = (vm.nic_device, vm.nic.mac);
        let mut launch = None;
        let mut out = std::mem::take(&mut self.node_out);
        for o in out.drain(..) {
            match o {
                NodeOutput::Send(tx) if tx.timing == TxTiming::Launch => launch = Some(tx),
                NodeOutput::Send(tx) => self.transmit(t, dev, src, tx),
                NodeOutput::Aggregated(a) => self.apply_aggregation(t, node, slot, a),
                NodeOutput::SyncState { from, to } => {
                    self.counters.sync_transitions += 1;
                    let change = ExperimentEvent::SyncStateChange {
                        node,
                        slot,
                        from,
                        to,
                    };
                    self.log(t, change);
                }
                NodeOutput::GmResumed => {
                    if t > SimTime::ZERO + self.cfg.warmup {
                        self.log(t, ExperimentEvent::GmResumed { node });
                    }
                }
                NodeOutput::Election(ev) => self.on_election_event(t, node, ev),
                NodeOutput::Unhandled => self.counters.unhandled_frames += 1,
            }
        }
        self.node_out = out;
        launch
    }

    /// [`World::drain_node_out`]'s counterpart for switch `sw`.
    fn drain_bridge_out(&mut self, t: SimTime, sw: usize, src: MacAddr) {
        if self.bridge_out.is_empty() {
            return;
        }
        let dev = self.tb.switches[sw].device;
        let mut out = std::mem::take(&mut self.bridge_out);
        for tx in out.drain(..) {
            self.transmit(t, dev, src, tx);
        }
        self.bridge_out = out;
    }

    fn ptp_frame(src: MacAddr, payload: bytes::Bytes) -> EthernetFrame {
        EthernetFrame {
            dst: MacAddr::GPTP_MULTICAST,
            src,
            vlan: None,
            ethertype: ethertype::PTP,
            payload,
        }
    }

    fn on_transmit(
        &mut self,
        t: SimTime,
        from: PortAddr,
        frame: EthernetFrame,
        token: Option<TxToken>,
    ) {
        // Strict-priority egress queuing: if the port is serializing
        // another frame — or higher/earlier frames are already queued —
        // join the queue rather than jumping it.
        let prio = self.priority_of(&frame);
        let (busy, backlog) = self
            .egress
            .get(from)
            .map(|p| (p.is_busy(t), !p.is_empty()))
            .unwrap_or((false, false));
        if busy || backlog {
            let wake = self.egress.materialize(from).enqueue(prio, (frame, token));
            self.schedule_wake(from, wake);
            observe(&mut self.observers, || Observation::FrameEnqueued { at: t });
            if !busy {
                // Port idle with a backlog (possible when a departure was
                // dropped): drain it now in priority order.
                self.send_next_queued(t, from);
            }
            return;
        }
        self.depart(t, from, frame, token, false);
    }

    fn depart(
        &mut self,
        t: SimTime,
        from: PortAddr,
        frame: EthernetFrame,
        token: Option<TxToken>,
        queued: bool,
    ) {
        // A VM that died between queuing and departure transmits nothing;
        // drain whatever else is queued on the port.
        let station = self.tb.station_map.get(from.device);
        if let Some((node, slot)) = station {
            if !self.tb.nodes[node].vms[slot].running {
                observe(&mut self.observers, || Observation::FrameDropped {
                    at: t,
                    from_queue: queued,
                });
                self.send_next_queued(t, from);
                return;
            }
        }
        observe(&mut self.observers, || Observation::FrameDelivered {
            at: t,
            from_queue: queued,
            station,
            ethertype: frame.ethertype,
            payload: &frame.payload,
        });
        let duration = frame.serialization_ns(1_000_000_000);
        // Occupy the wire for the frame's serialization time. The
        // completion's place in the event order is fixed now; the event
        // itself exists only if a frame comes to wait for it.
        let wake_seq = self.queue.reserve_seq();
        let port = self.egress.materialize(from);
        let wake = port.begin_transmission(t, duration, wake_seq);
        self.schedule_wake(from, wake);

        // An event message: its hardware egress timestamp goes back to
        // the engine that sent it (a bridge's follow-up leaves from the
        // address its event message left from).
        if let Some(token) = token {
            if let Some((node, slot)) = station {
                if matches!(token, TxToken::Sync { .. })
                    && self.tb.transient.tx_timestamp_times_out()
                {
                    self.tb.nodes[node].vms[slot]
                        .ptp
                        .on_tx_timestamp_timeout(token);
                    let kind = TransientKind::TxTimestampTimeout;
                    self.log(t, ExperimentEvent::Transient { node, kind });
                } else {
                    let ts = self.hw_timestamp(t, from.device);
                    let ptp = &mut self.tb.nodes[node].vms[slot].ptp;
                    ptp.on_tx_timestamp(token, ts, &mut self.node_out);
                    self.drain_node_out(t, node, slot);
                }
            } else if let Some(sw) = self.tb.switch_map.get(from.device) {
                let ts = self.hw_timestamp(t, from.device);
                let s = &mut self.tb.switches[sw];
                s.bridge
                    .tx_timestamp(from.port.0, token, ts, &mut self.bridge_out);
                self.drain_bridge_out(t, sw, frame.src);
            }
        }
        let (to, mut at) = match self.tb.links.cross(t, from, &mut self.tb.frame_rng) {
            Crossing::Arrives { to, at } => (to, at),
            Crossing::Lost(_) => return,
        };
        // Multi-hop fabric: a PTP frame crossing the inter-switch mesh
        // traverses the expanded hop chain analytically (computed here,
        // no extra events). Measurement probes bypass it — the paper
        // pins probe paths with static FDB entries and calibrates their
        // static delay — and background frames are subsumed by the
        // fabric's own analytic cross-traffic model.
        let mut frame = frame;
        if frame.ethertype == ethertype::PTP && self.tb.fabric.is_some() {
            if let (Some(sw_from), Some(sw_to)) = (
                self.tb.switch_map.get(from.device),
                self.tb.switch_map.get(to.device),
            ) {
                if sw_from != sw_to {
                    match self.fabric_cross(t, sw_from, sw_to, &mut frame) {
                        Some(extra) => at += extra,
                        // Dropped at a saturated fabric hop.
                        None => return,
                    }
                }
            }
        }
        self.queue.schedule_at(at, Ev::Arrive { to, frame });
    }

    /// Carries one inter-switch PTP frame across the multi-hop fabric
    /// (which patches a Follow_Up's correction field on the way):
    /// returns the extra one-way delay, or `None` when the frame was
    /// dropped at a saturated hop.
    fn fabric_cross(
        &mut self,
        t: SimTime,
        sw_from: usize,
        sw_to: usize,
        frame: &mut EthernetFrame,
    ) -> Option<Nanos> {
        // Unreachable: the one caller, `depart`, checks `self.tb.fabric.is_some()` first.
        let fab = self.tb.fabric.as_mut().expect("fabric checked by caller");
        let crossing = fab.cross(t, sw_from, sw_to, frame.wire_len(), &mut frame.payload);
        let tr = crossing.traversal;
        observe(&mut self.observers, || Observation::FabricCrossing {
            at: t,
            from_sw: sw_from,
            to_sw: sw_to,
            sync: crossing.sync,
            dropped: tr.dropped,
            delay: tr.delay,
            residence_ns: tr.residence_ns,
        });
        (!tr.dropped).then_some(tr.delay)
    }

    /// Hardware event timestamp (rx or tx) at a device's clock: the
    /// station's NIC or the switch's timestamping unit.
    fn hw_timestamp(&mut self, t: SimTime, dev: DeviceId) -> ClockTime {
        let tb = &mut self.tb;
        let nic = match tb.station_map.get(dev) {
            Some((node, slot)) => &mut tb.nodes[node].vms[slot].nic,
            None => {
                // Unreachable: every caller passes a station's NIC or a switch's `device`.
                let sw = tb.switch_map.get(dev).expect("station or switch");
                &mut tb.switches[sw].clock
            }
        };
        nic.timestamp(t, &mut tb.frame_rng)
    }

    /// Hardware receive timestamp of an arriving gPTP frame: drawn for
    /// event messages only (general messages carry none).
    fn rx_timestamp(&mut self, t: SimTime, dev: DeviceId, payload: &[u8]) -> ClockTime {
        if MessageType::peek(payload).is_some_and(MessageType::is_event) {
            self.hw_timestamp(t, dev)
        } else {
            ClockTime::ZERO
        }
    }

    // ----- reception ---------------------------------------------------

    fn on_arrive(&mut self, t: SimTime, to: PortAddr, frame: &EthernetFrame) {
        let station = self.tb.station_map.get(to.device);
        observe(&mut self.observers, || Observation::FrameArrived {
            at: t,
            station,
            ethertype: frame.ethertype,
            payload: &frame.payload,
        });
        if let Some((node, slot)) = station {
            self.arrive_at_station(t, node, slot, frame);
        } else if let Some(sw) = self.tb.switch_map.get(to.device) {
            self.arrive_at_switch(t, sw, to.port.0, frame);
        }
    }

    fn arrive_at_station(&mut self, t: SimTime, node: usize, slot: usize, frame: &EthernetFrame) {
        if !self.tb.nodes[node].vms[slot].running {
            return;
        }
        match frame.ethertype {
            ethertype::PTP => {
                let dev = self.tb.nodes[node].vms[slot].nic_device;
                let rx_ts = self.rx_timestamp(t, dev, &frame.payload);
                let vm = &mut self.tb.nodes[node].vms[slot];
                let (clock, out) = (&mut vm.nic.phc.at(t), &mut self.node_out);
                vm.ptp.on_frame(&frame.payload, rx_ts, clock, out);
                self.drain_node_out(t, node, slot);
            }
            // Probe: timestamp with the node's CLOCK_SYNCTIME.
            ethertype::MEASUREMENT if frame.payload.len() >= 8 => {
                let seq = u64::from_be_bytes(frame.payload[0..8].try_into().expect("slice of 8"));
                let host_now = self.tb.nodes[node].host_phc.now(t);
                let read_err = Nanos::from_nanos(sample_gaussian(
                    &mut self.tb.frame_rng,
                    self.cfg.synctime_read_sigma_ns,
                ));
                let reading = self.tb.nodes[node].hyp.device().synctime(host_now) + read_err;
                self.meas.probes.entry(seq).or_default().push(reading);
            }
            _ => {}
        }
    }

    fn arrive_at_switch(&mut self, t: SimTime, sw: usize, port: u8, frame: &EthernetFrame) {
        match frame.ethertype {
            // Background traffic only loads the egress ports it crossed.
            ethertype::BACKGROUND => {}
            ethertype::PTP => {
                let dev = self.tb.switches[sw].device;
                let rx_ts = self.rx_timestamp(t, dev, &frame.payload);
                let s = &mut self.tb.switches[sw];
                let out = &mut self.bridge_out;
                if !s.bridge.receive(port, &frame.payload, rx_ts, out) {
                    self.counters.unhandled_frames += 1;
                }
                // A bridge answers a peer-delay request from the address
                // the request was sent to (the gPTP group address).
                let turnaround = out
                    .first()
                    .is_some_and(|tx| tx.timing == TxTiming::Turnaround);
                let src = if turnaround {
                    frame.dst
                } else {
                    MacAddr::for_nic(dev.0 as u32)
                };
                self.drain_bridge_out(t, sw, src);
            }
            _ => {
                // Fabric forwarding (measurement probes, etc.).
                let out = self.tb.switches[sw].fabric.forward(
                    PortNo(port),
                    frame,
                    &mut self.tb.frame_rng,
                );
                for (egress, residence) in out {
                    let from = PortAddr::new(self.tb.switches[sw].device, egress.0);
                    self.queue.schedule_at(
                        t + residence,
                        Ev::Transmit {
                            from,
                            frame: frame.clone(),
                            token: None,
                        },
                    );
                }
            }
        }
    }

    // ----- servo application -------------------------------------------

    /// One FTA round of `(node, slot)`: its observation, then the servo
    /// command applied to the NIC clock.
    fn apply_aggregation(&mut self, t: SimTime, node: usize, slot: usize, a: Aggregation) {
        observe(&mut self.observers, || {
            let compromised = self.tb.nodes.iter().map(|n| n.vms[0].compromised);
            self.byzantine.clear();
            self.byzantine.extend(compromised);
            Observation::Aggregated {
                at: t,
                node,
                slot,
                offset: a.offset,
                servo: a.servo,
                fault_tolerant: a.mode == AggregationMode::FaultTolerant,
                used: &a.used,
                byzantine: &self.byzantine,
            }
        });
        self.tb.nodes[node].vms[slot].nic.phc.apply(t, a.servo);
    }

    // ----- periodic activities -----------------------------------------

    fn on_gm_sync_tick(&mut self, t: SimTime, node: usize) {
        let mut next = t + self.cfg.sync_interval;
        let vm = &mut self.tb.nodes[node].vms[0];
        if vm.running {
            // A compromised GM re-evaluates its Byzantine strategy every
            // interval: the lie it serves is a function of time since the
            // strike (ramps, oscillations, duty cycles, trim-edge hugging).
            let byzantine = vm.strike_idx.filter(|_| vm.compromised).map(|i| {
                let strike = self.cfg.attack.strikes()[i];
                let elapsed = t - (strike.at + self.cfg.warmup);
                strike.offset_at(elapsed, self.cfg.aggregation.validity_threshold)
            });
            let (clock, out) = (&mut vm.nic.phc.at(t), &mut self.node_out);
            vm.ptp.on_sync_tick(byzantine, clock, out);
            if let Some(sync) = self.drain_node_out(t, node, 0) {
                next = self.launch_sync(t, node, sync).unwrap_or(next);
            }
        }
        self.queue.schedule_at(next, Ev::GmSyncTick { node });
    }

    /// Launches a grandmaster's home-domain Sync on the next S boundary
    /// of the VM's own synchronized clock, at least LAUNCH_LEAD ahead
    /// (paper: ETF qdisc + launch-time so all domains transmit within Π
    /// of each other). Returns when the next tick is due if the Sync
    /// made its deadline.
    fn launch_sync(&mut self, t: SimTime, node: usize, sync: Transmission) -> Option<SimTime> {
        let s = self.cfg.sync_interval;
        // Unreachable: `MultiDomainNode::on_sync_tick` issues every `Launch` send with a token.
        let token = sync.token.expect("a Sync is an event message");
        let vm = &mut self.tb.nodes[node].vms[0];
        let launch = (vm.nic.phc.now(t) + LAUNCH_LEAD).ceil_to(s);
        let outcome = if self.tb.transient.deadline_missed() {
            LaunchOutcome::DeadlineMiss
        } else {
            vm.nic.launch(t, launch)
        };
        match outcome {
            LaunchOutcome::DepartsAt(depart) => {
                let from = PortAddr::new(vm.nic_device, 0);
                let frame = Self::ptp_frame(vm.nic.mac, sync.bytes);
                let token = Some(token);
                self.queue
                    .schedule_at(depart, Ev::Transmit { from, frame, token });
                // Next tick lands LAUNCH_LEAD + margin before the next
                // boundary so the ceil above resolves to it exactly.
                Some(depart + s - LAUNCH_LEAD - Nanos::from_millis(5))
            }
            LaunchOutcome::DeadlineMiss => {
                vm.ptp.on_deadline_missed(token);
                let kind = TransientKind::DeadlineMiss;
                self.log(t, ExperimentEvent::Transient { node, kind });
                None
            }
        }
    }

    /// One election round on `node`: the engine expires stale Announce
    /// claims, decides per domain, follows the transitions with its
    /// master functions and announces every domain it acts for.
    fn on_election_tick(&mut self, t: SimTime, node: usize) {
        let vm = &mut self.tb.nodes[node].vms[0];
        let Some(interval) = vm.ptp.announce_interval() else {
            return;
        };
        self.queue
            .schedule_at(t + interval, Ev::ElectionTick { node });
        if !vm.running {
            return;
        }
        let (clock, out) = (&mut vm.nic.phc.at(t), &mut self.node_out);
        vm.ptp.on_election_tick(clock, out);
        // Everything an election round transmits is an Announce.
        let announces = self
            .node_out
            .iter()
            .filter(|o| matches!(o, NodeOutput::Send(_)));
        self.counters.announce_tx += announces.count() as u64;
        self.drain_node_out(t, node, 0);
    }

    fn on_election_event(&mut self, t: SimTime, node: usize, ev: ElectionEvent) {
        match ev {
            ElectionEvent::Promoted { domain } => self.on_acting_change(t, node, domain, true),
            ElectionEvent::Demoted { domain } => self.on_acting_change(t, node, domain, false),
            ElectionEvent::Elected {
                domain,
                node: winner,
                prev,
            } => {
                self.counters.elected_gm_changes += 1;
                observe(&mut self.observers, || Observation::Elected {
                    at: t,
                    node,
                    domain: domain as usize,
                    winner,
                    prev,
                });
            }
        }
    }

    /// `node` started or stopped acting as master of `domain` (its
    /// engine already follows). A promotion reroots the domain's relay
    /// tree at the node's switch and stops the re-election stopwatch on
    /// the killed domain.
    pub(crate) fn on_acting_change(&mut self, t: SimTime, node: usize, domain: u8, acting: bool) {
        observe(&mut self.observers, || Observation::ElectionActing {
            at: t,
            domain: domain as usize,
            node,
            acting,
        });
        if !acting {
            return;
        }
        if self.domain_roots[domain as usize] != node {
            self.reroot_domain(domain as usize, node);
        }
        if let Some((kill_at, killed)) = self.gm_kill {
            if domain == killed && self.counters.reconvergence_ns == 0 {
                self.counters.reconvergence_ns = (t - kill_at).as_nanos() as u64;
            }
        }
    }

    /// Moves `domain`'s relay tree to a new root switch.
    fn reroot_domain(&mut self, domain: usize, root: usize) {
        self.domain_roots[domain] = root;
        for sw in &mut self.tb.switches {
            sw.bridge.reroot(domain, root);
        }
    }

    fn on_pdelay_tick(&mut self, t: SimTime, port: PortAddr) {
        self.queue
            .schedule_at(t + self.cfg.pdelay_interval, Ev::PdelayTick { port });
        let dev = port.device;
        if let Some((node, slot)) = self.tb.station_map.get(dev) {
            let vm = &mut self.tb.nodes[node].vms[slot];
            if !vm.running {
                return;
            }
            vm.ptp.on_pdelay_tick(&mut self.node_out);
            self.drain_node_out(t, node, slot);
        } else if let Some(sw) = self.tb.switch_map.get(dev) {
            let s = &mut self.tb.switches[sw];
            s.bridge.pdelay_tick(port.port.0, &mut self.bridge_out);
            self.drain_bridge_out(t, sw, MacAddr::for_nic(dev.0 as u32));
        }
    }

    fn on_phc2sys_tick(&mut self, t: SimTime, node: usize, slot: usize) {
        self.queue.schedule_at(
            t + self.cfg.phc2sys_interval,
            Ev::Phc2sysTick { node, slot },
        );
        let host_now = self.tb.nodes[node].host_phc.now(t);
        if !self.tb.nodes[node].vms[slot].running {
            return;
        }
        // Reading the PHC is a PCIe register access from a guest: model
        // its error as Gaussian noise with occasional latency spikes —
        // the raw material of the paper's Fig. 4 precision spikes, which
        // the feedback discipline amplifies.
        let read_error = {
            let g = sample_gaussian(&mut self.tb.frame_rng, self.cfg.phc_read_sigma_ns);
            let spike = if self.tb.frame_rng.gen::<f64>() < self.cfg.phc_read_spike_prob {
                let m = self.cfg.phc_read_spike_max.as_nanos();
                self.tb.frame_rng.gen_range(-m..=m)
            } else {
                0
            };
            Nanos::from_nanos(g + spike)
        };
        let phc_now = self.tb.nodes[node].vms[slot].nic.phc.now(t) + read_error;
        let corruption = self.publisher_corruption(t, node, slot);
        let hyp = &mut self.tb.nodes[node].hyp;
        hyp.on_phc2sys_tick(slot, host_now, phc_now, corruption);
    }

    fn on_monitor_tick(&mut self, t: SimTime, node: usize) {
        self.queue.schedule_at(
            t + self.tb.nodes[node].hyp.device().config().period,
            Ev::MonitorTick { node },
        );
        let host_now = self.tb.nodes[node].host_phc.now(t);
        // Noise-free CLOCK_SYNCTIME reading for the continuity invariant
        // (a pure function of published STSHMEM params — no randomness,
        // no state change).
        let device = self.tb.nodes[node].hyp.device();
        observe(&mut self.observers, || Observation::Synctime {
            at: t,
            node,
            synctime_ns: device.synctime(host_now).as_nanos(),
        });
        let n = &mut self.tb.nodes[node];
        let vms = &n.vms;
        let takeovers = n
            .hyp
            .on_monitor_tick(host_now, |vm: VmId| vms[vm.0].running);
        for _ in takeovers.into_iter().flatten() {
            self.log(t, ExperimentEvent::Takeover { node });
        }
    }

    fn on_wander_tick(&mut self, t: SimTime) {
        self.queue
            .schedule_at(t + self.cfg.wander_interval, Ev::WanderTick);
        let tb = &mut self.tb;
        let rng = &mut tb.frame_rng;
        for node in &mut tb.nodes {
            let dev = node.host_osc.step_wander(rng);
            node.host_phc.set_oscillator_deviation(t, dev);
            for vm in &mut node.vms {
                let dev = vm.osc.step_wander(rng);
                vm.nic.phc.set_oscillator_deviation(t, dev);
            }
        }
        for sw in &mut tb.switches {
            let dev = sw.osc.step_wander(rng);
            sw.clock.phc.set_oscillator_deviation(t, dev);
        }
    }

    /// The configured end of the run.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Runs the world until `t` (inclusive), for step-wise tests.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(t) {
            observe(&mut self.observers, || {
                let (kind, sub) = ev.kind();
                Observation::Event { at: now, kind, sub }
            });
            self.handle(now, ev);
        }
    }
}

/// Irwin–Hall Gaussian sample (ns), matching `tsn_time::jitter`.
fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> i64 {
    if sigma <= 0.0 {
        return 0;
    }
    let mut z = -6.0;
    for _ in 0..12 {
        z += rng.gen::<f64>();
    }
    tsn_time::round_to_i64(z * sigma)
}

// ----- checkpoint / restore ------------------------------------------

use crate::snapshot::{config_fingerprint, warm_prefix_fingerprint, WORLD_STATE_VERSION};
use tsn_snapshot::{snap_enum, Reader, Snap, SnapError, SnapState, WorldSnapshot, Writer};

snap_enum!(Ev {
    0 => Transmit { from, frame, token },
    1 => Arrive { to, frame },
    2 => GmSyncTick { node },
    3 => PdelayTick { port },
    4 => Phc2sysTick { node, slot },
    5 => MonitorTick { node },
    6 => WanderTick,
    7 => ProbeTick { seq },
    8 => FaultAt(i),
    9 => RebootAt(i),
    10 => StrikeAt(i),
    11 => PortFree { from },
    12 => BackgroundTick { port },
    13 => LinkWindow { i, down },
    14 => ElectionTick { node },
    15 => GmKill,
});

// Hand-written: the load reroots the relay trees between node and switch
// state and validates what it reads against the constructed topology.
impl SnapState for World {
    fn save_state(&self, w: &mut Writer) {
        self.queue.save_state(w);
        for node in &self.tb.nodes {
            node.save_state(w);
        }
        // Roots precede switch states: restore must reroot the relay
        // trees before overwriting their (topology-shaped) states.
        self.domain_roots.put(w);
        for sw in &self.tb.switches {
            sw.save_state(w);
        }
        // Egress ports materialize lazily; encode the populated set.
        // `live_ports` yields ascending `PortAddr` order — the same
        // bytes as the sorted-key encoding of the old port map.
        self.egress.live_ports().count().put(w);
        for (p, port) in self.egress.live_ports() {
            p.put(w);
            port.save_state(w);
        }
        self.tb.transient.save_state(w);
        self.tb.frame_rng.put(w);
        self.meas.save_state(w);
        self.events.save_state(w);
        self.counters.put(w);
        self.tb.links.save_state(w);
        self.gm_kill.put(w);
        // Fabric state rides at the very end, only when enabled — a
        // `fabric = None` world's state bytes are identical to a build
        // without the fabric subsystem.
        if let Some(fab) = &self.tb.fabric {
            fab.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.queue.load_state(r)?;
        for node in &mut self.tb.nodes {
            node.load_state(r)?;
        }
        // A compromised VM evaluates its strike's strategy every tick.
        let strikes = self.cfg.attack.strikes().len();
        let mut vms = self.tb.nodes.iter().flat_map(|node| &node.vms);
        if vms.any(|vm| vm.strike_idx.is_some_and(|i| i >= strikes)) {
            return Err(SnapError::Malformed("strike index outside attack plan"));
        }
        let roots: Vec<usize> = Snap::get(r)?;
        let n = self.tb.nodes.len();
        if roots.len() != self.domain_roots.len() || roots.iter().any(|&root| root >= n) {
            return Err(SnapError::Malformed("domain root outside topology"));
        }
        for (d, &root) in roots.iter().enumerate() {
            if self.domain_roots[d] != root {
                self.reroot_domain(d, root);
            }
        }
        for sw in &mut self.tb.switches {
            sw.load_state(r)?;
        }
        let n = usize::get(r)?;
        self.egress.reset();
        for _ in 0..n {
            let p = PortAddr::get(r)?;
            if !self.egress.in_range(p) {
                return Err(SnapError::Malformed("egress port outside topology"));
            }
            if self.egress.is_live(p) {
                return Err(SnapError::Malformed("duplicate egress port"));
            }
            let port = self.egress.materialize(p);
            port.load_state(r)?;
            // Materialising it later must not mint a sequence number.
            let next_seq = self.queue.next_seq();
            if port.unclaimed_wake_seq().is_some_and(|seq| seq >= next_seq) {
                return Err(SnapError::Malformed("egress wake-up was never reserved"));
            }
        }
        self.tb.transient.load_state(r)?;
        self.tb.frame_rng = Snap::get(r)?;
        self.meas.load_state(r)?;
        self.events.load_state(r)?;
        self.counters = Snap::get(r)?;
        self.tb.links.load_state(r)?;
        self.gm_kill = Snap::get(r)?;
        if let Some(fab) = &mut self.tb.fabric {
            fab.load_state(r)?;
        }
        Ok(())
    }
}

impl World {
    /// Current simulation time (the timestamp of the last handled event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events handled since construction.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Captures the complete mutable state as a versioned snapshot.
    pub fn snapshot(&self) -> WorldSnapshot {
        let mut w = Writer::new();
        self.save_state(&mut w);
        WorldSnapshot {
            state_version: WORLD_STATE_VERSION,
            config_fingerprint: config_fingerprint(&self.cfg),
            at_ns: self.queue.now().as_nanos(),
            events_processed: self.queue.events_processed(),
            payload: w.into_bytes(),
        }
    }

    /// FNV-1a hash of the complete encoded state — equal hashes mean
    /// byte-identical worlds. The divergence check of `campaign snapshot
    /// verify` compares these per epoch.
    pub fn state_hash(&self) -> u64 {
        let mut w = Writer::new();
        self.save_state(&mut w);
        tsn_snapshot::fnv1a64(&w.into_bytes())
    }

    /// Rebuilds a world from `cfg` and overwrites its mutable state from
    /// `snap` (reconstruct-then-overwrite).
    ///
    /// The snapshot must have been produced either by this exact
    /// configuration or by its warm-prefix projection
    /// ([`crate::snapshot::warm_prefix_config`]); in the latter case the
    /// post-warmup interventions (faults, strikes) stripped from the
    /// prefix are re-armed from the rebuilt world's own schedule.
    pub fn restore(cfg: TestbedConfig, snap: &WorldSnapshot) -> Result<World, SnapError> {
        if snap.state_version != WORLD_STATE_VERSION {
            return Err(SnapError::StateVersionMismatch {
                found: snap.state_version,
                expected: WORLD_STATE_VERSION,
            });
        }
        if snap.config_fingerprint != config_fingerprint(&cfg)
            && snap.config_fingerprint != warm_prefix_fingerprint(&cfg)
        {
            return Err(SnapError::Malformed(
                "snapshot was produced by a different configuration",
            ));
        }
        let mut world = World::new(cfg);
        // Control events the full configuration armed at t=0. If the
        // snapshot's queue never used the control space (a warm prefix
        // with interventions stripped), re-arm them with their original
        // sequence numbers; otherwise the snapshot already carries them.
        let ctl = world.queue.drain_ctl();
        let mut r = Reader::new(&snap.payload);
        world.load_state(&mut r)?;
        r.finish()?;
        if world.queue.ctl_len() == 0 && world.queue.next_ctl_seq() == tsn_netsim::CTL_SEQ_BASE {
            // A warm prefix ends before its first stripped intervention.
            if ctl.iter().any(|&(at, ..)| at < world.queue.now()) {
                return Err(SnapError::Malformed("intervention before snapshot time"));
            }
            for (at, seq, ev) in ctl {
                world.queue.insert_raw(at, seq, ev);
            }
        }
        Ok(world)
    }
}

#[cfg(test)]
mod tests;
