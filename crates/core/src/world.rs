//! The experiment world: a deterministic discrete-event simulation of the
//! paper's virtualized distributed real-time system (Fig. 2).
//!
//! The world owns every simulated entity — ECD host clocks, clock-sync
//! VMs with passthrough NICs, integrated TSN switches, the gPTP engines,
//! the FTSHMEM aggregators, the hypervisor dependent-clock devices, the
//! fault injector and the attacker — and moves real Ethernet frames
//! between them through the event queue.
//!
//! Topology (paper §III-A1): `N` ECDs, each with an integrated TSN switch;
//! switch ports 0 and 1 connect the node's two clock-sync VM NICs, the
//! remaining ports form a full mesh with the other switches. gPTP domain
//! `x` is rooted at VM(x, 0); its static external port configuration is
//! the 2-level tree `GM → sw_x → {sw_y} → VMs`.

use crate::config::{HypMonitorMode, TestbedConfig};
pub use crate::counters::RunCounters;
use crate::densemap::{DevMap, PortTable};
use crate::node::{MultiDomainNode, NodeConfig, NodeOutput};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use tsn_election::{ElectionEvent, NodeElection};
use tsn_fabric::{Fabric, FrameClass};
use tsn_faults::{
    AttackPlan, ByzantineStrategy, FaultEvent, FaultSchedule, StrikeOutcome, TransientFaults,
    VmSlot,
};
use tsn_fta::{Aggregation, AggregationMethod, AggregationMode};
use tsn_gptp::{msg::MessageType, Bridge, ClockIdentity, Transmission, TxTiming, TxToken};
use tsn_hyp::{
    DependentClockDevice, Phc2Sys, SyncClockDiscipline, SyncTimeServo, VmId, VotingMonitor,
};
use tsn_metrics::{
    precision_of, BoundsReport, EventLog, ExperimentEvent, PrecisionSample, PrecisionSeries,
    TransientKind,
};
use tsn_netsim::{
    ethertype, DelayModel, DeviceId, EthernetFrame, EventQueue, LaunchOutcome, MacAddr, Nic,
    PortAddr, PortNo, SeedSplitter, Switch, Topology, VlanTag, WakeUp,
};
use tsn_netsim::{LinkFaultPlan, LinkFaults, LinkId};
use tsn_oracle::{Observation, OracleConfig, OracleRegistry};
use tsn_time::{ClockTime, Nanos, Oscillator, Phc, ServoOutput, SimTime};
use tsn_trace::{node_pid, Subsystem as TraceSub, TraceConfig, TraceSink, SIM_PID};

/// VLAN used by the measurement probes.
const MEASUREMENT_VID: u16 = 100;
/// Minimum lead time between scheduling a Sync and its launch boundary.
const LAUNCH_LEAD: Nanos = Nanos::from_millis(20);

/// Sequence id of an encoded gPTP message (header bytes 30..32).
fn peek_sequence(payload: &[u8]) -> u16 {
    if payload.len() < 32 {
        return 0;
    }
    u16::from_be_bytes([payload[30], payload[31]])
}

/// Adds `residence_ns` to the correction field of an encoded gPTP
/// message in place (header bytes 8..16, nanoseconds scaled by 2^16 —
/// IEEE 1588 clause 13.3.2.7), as a chain of transparent clocks would.
fn add_correction(frame: &mut EthernetFrame, residence_ns: i64) {
    if frame.payload.len() < 16 {
        return;
    }
    let p = &frame.payload;
    let cur = i64::from_be_bytes(p[8..16].try_into().expect("slice of 8"));
    let patched = cur
        .saturating_add(residence_ns.saturating_mul(65_536))
        .to_be_bytes();
    // Exact-size chain: collected into the new buffer in one pass.
    let (head, tail) = (&p[..8], &p[16..]);
    frame.payload = head.iter().chain(&patched).chain(tail).copied().collect();
}

/// World events.
#[derive(Debug, Clone)]
enum Ev {
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
    Phc2SysTick { node: usize, slot: usize },
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
    /// trace profiler's pop accounting.
    fn kind(&self) -> (&'static str, TraceSub) {
        match self {
            Ev::Transmit { .. } => ("transmit", TraceSub::Netsim),
            Ev::Arrive { .. } => ("arrive", TraceSub::Netsim),
            Ev::GmSyncTick { .. } => ("gm_sync_tick", TraceSub::Gptp),
            Ev::PdelayTick { .. } => ("pdelay_tick", TraceSub::Gptp),
            Ev::Phc2SysTick { .. } => ("phc2sys_tick", TraceSub::Hyp),
            Ev::MonitorTick { .. } => ("monitor_tick", TraceSub::Hyp),
            Ev::WanderTick => ("wander_tick", TraceSub::Time),
            Ev::ProbeTick { .. } => ("probe_tick", TraceSub::Measure),
            Ev::FaultAt(_) => ("fault", TraceSub::Faults),
            Ev::RebootAt(_) => ("reboot", TraceSub::Faults),
            Ev::StrikeAt(_) => ("strike", TraceSub::Faults),
            Ev::PortFree { .. } => ("port_free", TraceSub::Netsim),
            Ev::BackgroundTick { .. } => ("background_tick", TraceSub::Netsim),
            Ev::LinkWindow { .. } => ("link_window", TraceSub::Faults),
            Ev::ElectionTick { .. } => ("election_tick", TraceSub::Election),
            Ev::GmKill => ("gm_kill", TraceSub::Election),
        }
    }
}

/// One clock-synchronization VM.
struct VmState {
    nic_device: DeviceId,
    nic: Nic,
    osc: Oscillator,
    running: bool,
    compromised: bool,
    /// Index into the attack plan of the strike that compromised this
    /// VM; drives the per-tick Byzantine strategy offset.
    strike_idx: Option<usize>,
    /// The VM's gPTP software: `M` per-domain instances, `FTSHMEM`,
    /// servo, peer delay, election.
    ptp: MultiDomainNode,
    phc2sys: Phc2Sys,
    sync_servo: SyncTimeServo,
}

/// One ECD.
struct NodeState {
    host_phc: Phc,
    host_osc: Oscillator,
    vms: Vec<VmState>,
    device: DependentClockDevice,
    /// Present in fail-consistent (voting) monitor mode.
    voting: Option<VotingMonitor>,
}

/// One integrated TSN switch.
struct SwitchState {
    device: DeviceId,
    phc: Phc,
    osc: Oscillator,
    fabric: Switch,
    /// The switch's gPTP software: relays, peer delay, Announce relay.
    bridge: Bridge,
}

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

/// The simulation world. Construct with [`World::new`], then call
/// [`World::run`].
pub struct World {
    cfg: TestbedConfig,
    queue: EventQueue<Ev>,
    topo: Topology,
    nodes: Vec<NodeState>,
    switches: Vec<SwitchState>,
    /// Station device → (node, vm slot).
    station_map: DevMap<(usize, usize)>,
    /// Switch device → switch index.
    switch_map: DevMap<usize>,
    egress: PortTable<(EthernetFrame, Option<TxToken>)>,
    /// Per-port link lookup, resolved once at construction: the link id,
    /// the receiving port, whether transmission runs a→b, and the
    /// one-way delay model. Indexed like [`PortTable`]; `None` for
    /// unwired ports. (The topology is immutable after `World::new`.)
    port_links: Vec<Option<(LinkId, PortAddr, bool, DelayModel)>>,
    /// Flat-index stride for `egress`/`port_links` (max wired port + 1).
    port_stride: usize,
    /// Buffers the protocol engines write their outputs into; drained
    /// within the event that filled them, kept for their capacity.
    node_out: Vec<NodeOutput>,
    bridge_out: Vec<Transmission>,
    schedule: Vec<FaultEvent>,
    transient: TransientFaults<StdRng>,
    frame_rng: StdRng,
    /// Link-fault runtime state (always present; a no-op plan draws no
    /// randomness and drops nothing).
    link_faults: LinkFaults,
    /// Dedicated RNG stream for the probabilistic loss models, drawn
    /// only strictly after the warm-up so the warm prefix stays shared.
    linkfault_rng: StdRng,
    /// Resolved link-down windows `(link, from, until)` relative to the
    /// warm-up end: the plan's own windows plus the partition expansion.
    down_windows: Vec<(LinkId, Nanos, Nanos)>,
    /// Current relay-tree root of each domain (initially the static
    /// assignment `domain d → node d`; changed by election handoffs).
    domain_roots: Vec<usize>,
    /// The scheduled GM kill once it fired: `(kill time, killed node)` —
    /// the re-election stopwatch for `reconvergence_ns`.
    gm_kill: Option<(SimTime, u8)>,
    /// Multi-hop switch fabric between the integrated switches; `None`
    /// keeps the paper's direct mesh (and is byte-identical to a build
    /// without the fabric subsystem).
    fabric: Option<Fabric>,
    probes: HashMap<u64, Vec<ClockTime>>,
    probe_sent_at: HashMap<u64, SimTime>,
    /// Ground-truth time error of node 0's CLOCK_SYNCTIME (ns), sampled
    /// once per probe — input to the stability analysis (ADEV/MTIE).
    ground_truth_ns: Vec<f64>,
    /// CLOCK_SYNCTIME minus the active VM's PHC on node 0 (ns): the
    /// dependent-clock *discipline* error, free of the ensemble's
    /// common-mode wander.
    discipline_error_ns: Vec<f64>,
    series: PrecisionSeries,
    events: EventLog,
    counters: RunCounters,
    end: SimTime,
    /// Runtime invariant oracle, off by default (see
    /// [`World::enable_oracle`]). Strictly passive and deliberately
    /// excluded from [`SnapState`] so enabling it cannot perturb state
    /// hashes, snapshots, or artifacts.
    oracle: Option<OracleRegistry>,
    /// Structured execution tracer, off by default (see
    /// [`World::enable_trace`]). Passive like the oracle and likewise
    /// excluded from [`SnapState`].
    tracer: Option<TraceSink>,
}

impl World {
    /// Builds the testbed from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TestbedConfig::validate`]).
    // Parallel index-addressed structures (stations per node/slot, mesh
    // ports per switch pair) read more clearly with explicit indices.
    #[allow(clippy::needless_range_loop)]
    pub fn new(cfg: TestbedConfig) -> Self {
        cfg.validate();
        let seeds = SeedSplitter::new(cfg.seed);
        let n = cfg.nodes;
        let mut topo = Topology::new();
        let mut link_rng = seeds.rng("links");

        // Devices: stations (VM NICs) then bridges (switches).
        let vpn = cfg.vms_per_node;
        let mut station_ids = vec![Vec::new(); n];
        for node in 0..n {
            for slot in 0..vpn {
                station_ids[node].push(topo.add_station(&format!("c{}_{}", node + 1, slot + 1)));
            }
        }
        let switch_ids: Vec<DeviceId> = (0..n)
            .map(|x| topo.add_bridge(&format!("sw{}", x + 1)))
            .collect();

        let draw_delay = |rng: &mut StdRng| -> DelayModel {
            let lo = cfg.link_base_min.as_nanos();
            let hi = cfg.link_base_max.as_nanos().max(lo + 1);
            DelayModel {
                base: Nanos::from_nanos(rng.gen_range(lo..hi)),
                jitter_max: cfg.link_jitter,
            }
        };

        // Node-internal links: VM NIC ↔ switch ports 0/1.
        for node in 0..n {
            for slot in 0..vpn {
                // Cables are symmetric: one static latency per link.
                let d = draw_delay(&mut link_rng);
                topo.connect(
                    topo.port(station_ids[node][slot], 0),
                    topo.port(switch_ids[node], slot as u8),
                    d,
                    d,
                );
            }
        }
        // Full mesh between switches, ports 2+.
        let mut next_port = vec![vpn as u8; n];
        let mut mesh_port = vec![vec![None; n]; n];
        for a in 0..n {
            for b in (a + 1)..n {
                let pa = next_port[a];
                let pb = next_port[b];
                next_port[a] += 1;
                next_port[b] += 1;
                mesh_port[a][b] = Some(pa);
                mesh_port[b][a] = Some(pb);
                let d = draw_delay(&mut link_rng);
                topo.connect(
                    topo.port(switch_ids[a], pa),
                    topo.port(switch_ids[b], pb),
                    d,
                    d,
                );
            }
        }

        // Nodes: host clock + 2 clock-sync VMs each.
        let node_cfg = NodeConfig {
            aggregation: cfg.aggregation,
            servo: cfg.servo,
            log_sync_interval: log2_interval(cfg.sync_interval),
            gm_mutual_sync: cfg.gm_mutual_sync,
            election: cfg.election.is_some(),
        };
        let mut station_map = DevMap::new();
        let mut nodes = Vec::with_capacity(n);
        for node in 0..n {
            let mut osc_rng = seeds.rng(&format!("osc/host{node}"));
            let host_osc = Oscillator::new(cfg.oscillator, &mut osc_rng);
            let host_phc = Phc::new(
                ClockTime::from_nanos(1_000_000_000),
                host_osc.deviation_ppb(),
            );
            let mut vms = Vec::with_capacity(vpn);
            for slot in 0..vpn {
                let dev = station_ids[node][slot];
                station_map.insert(dev, (node, slot));
                let mut rng = seeds.rng(&format!("osc/nic{node}_{slot}"));
                let osc = Oscillator::new(cfg.oscillator, &mut rng);
                let epoch_jitter = rng.gen_range(
                    -cfg.initial_offset_max.as_nanos()..=cfg.initial_offset_max.as_nanos(),
                );
                let phc = Phc::new(
                    ClockTime::from_nanos(1_000_000_000) + Nanos::from_nanos(epoch_jitter),
                    osc.deviation_ppb(),
                );
                let mut nic = Nic::new(MacAddr::for_nic(dev.0 as u32), phc);
                nic.ts_jitter = cfg.ts_jitter;
                let mut ptp = MultiDomainNode::new(
                    node_cfg.clone(),
                    dev.0 as u32,
                    (slot == 0).then_some(node),
                );
                // Only slot-0 VMs participate in the election.
                if let (0, Some(el)) = (slot, cfg.election.as_ref()) {
                    let ids = (0..n)
                        .map(|x| ClockIdentity::for_index(station_ids[x][0].0 as u32))
                        .collect();
                    ptp = ptp.with_election(NodeElection::new(node, ids, el));
                }
                vms.push(VmState {
                    nic_device: dev,
                    nic,
                    osc,
                    running: true,
                    compromised: false,
                    strike_idx: None,
                    ptp,
                    phc2sys: Phc2Sys::new(),
                    sync_servo: SyncTimeServo::new(
                        tsn_time::ServoConfig::default(),
                        cfg.phc2sys_interval,
                    ),
                });
            }
            let voting = (cfg.monitor_mode == HypMonitorMode::Voting).then(|| {
                VotingMonitor::new(vpn, Nanos::from_micros(10), cfg.monitor.freshness_timeout)
            });
            nodes.push(NodeState {
                host_phc,
                host_osc,
                vms,
                voting,
                device: DependentClockDevice::new(
                    VmId(0),
                    (1..vpn).map(VmId).collect(),
                    cfg.monitor,
                ),
            });
        }

        // Switches: forwarding fabric + time-aware bridge.
        let mut switch_map = DevMap::new();
        let mut switches = Vec::with_capacity(n);
        let mut res_rng = seeds.rng("residence");
        for x in 0..n {
            let dev = switch_ids[x];
            switch_map.insert(dev, x);
            let mut rng = seeds.rng(&format!("osc/sw{x}"));
            let osc = Oscillator::new(cfg.oscillator, &mut rng);
            let epoch = rng.gen_range(-1_000_000i64..=1_000_000);
            let phc = Phc::new(
                ClockTime::from_nanos(1_000_000_000) + Nanos::from_nanos(epoch),
                osc.deviation_ppb(),
            );
            let res_lo = cfg.residence_min.as_nanos();
            let res_hi = cfg.residence_max.as_nanos().max(res_lo + 1);
            let residence = DelayModel {
                base: Nanos::from_nanos(res_rng.gen_range(res_lo..res_hi)),
                jitter_max: cfg.residence_jitter,
            };
            let mut fabric = Switch::new(&format!("sw{}", x + 1), residence);
            // Measurement VLAN: spanning tree rooted at the measurement
            // node's switch (static FDB → known probe paths).
            let m = cfg.measurement_node;
            if x == m {
                for y in 0..n {
                    if y != x {
                        let p = PortNo(mesh_port[x][y].expect("mesh port"));
                        fabric.fdb.add_vlan_member(MEASUREMENT_VID, p);
                    }
                }
                // Ingress from the measurement VM (port 1).
                fabric.fdb.add_vlan_member(MEASUREMENT_VID, PortNo(1));
                let egress: Vec<PortNo> = (0..n)
                    .filter(|&y| y != x)
                    .map(|y| PortNo(mesh_port[x][y].expect("mesh port")))
                    .collect();
                fabric
                    .fdb
                    .add_static_entry(MEASUREMENT_VID, MacAddr::PTP_MULTICAST, &egress);
            } else {
                let ingress = PortNo(mesh_port[x][m].expect("mesh port"));
                fabric.fdb.add_vlan_member(MEASUREMENT_VID, ingress);
                let vm_ports: Vec<PortNo> = (0..vpn as u8).map(PortNo).collect();
                for p in &vm_ports {
                    fabric.fdb.add_vlan_member(MEASUREMENT_VID, *p);
                }
                fabric
                    .fdb
                    .add_static_entry(MEASUREMENT_VID, MacAddr::PTP_MULTICAST, &vm_ports);
            }

            switches.push(SwitchState {
                device: dev,
                phc,
                osc,
                fabric,
                bridge: Bridge::new(
                    ClockIdentity::for_index(dev.0 as u32),
                    x,
                    vpn as u8,
                    mesh_port[x].clone(),
                    cfg.election.is_some(),
                ),
            });
        }

        let schedule = match (&cfg.explicit_faults, &cfg.fault_injection) {
            (Some(events), _) => events.clone(),
            (None, Some(fi)) => {
                let mut rng = seeds.rng("faults");
                FaultSchedule::generate(fi, &mut rng).events().to_vec()
            }
            (None, None) => Vec::new(),
        };

        // Link faults: resolve the plan's down windows plus the partition
        // (every inter-switch link incident to the partitioned node's
        // switch) into one window list the control events index into.
        let plan = cfg.link_faults.clone().unwrap_or_else(LinkFaultPlan::none);
        let mut down_windows: Vec<(LinkId, Nanos, Nanos)> = plan
            .down
            .iter()
            .map(|w| (LinkId(w.link), w.from, w.until))
            .collect();
        if let Some(p) = cfg.partition {
            let sw_dev = switch_ids[p.node];
            for (i, link) in topo.links().iter().enumerate() {
                let inter_switch = switch_map.contains_key(link.a.device)
                    && switch_map.contains_key(link.b.device);
                if inter_switch && (link.a.device == sw_dev || link.b.device == sw_dev) {
                    down_windows.push((LinkId(i), p.from, p.until));
                }
            }
        }
        let link_faults = LinkFaults::new(plan, topo.links().len());
        let linkfault_rng = seeds.rng("linkfaults");

        let transient = TransientFaults::new(cfg.transient, seeds.rng("transient"));
        let frame_rng = seeds.rng("frames");
        // Fabric streams are drawn only when the fabric is enabled, and
        // strictly after every pre-existing stream, so `fabric = None`
        // runs stay byte-identical to the pre-fabric build.
        let fabric = cfg.fabric.map(|fc| {
            let mut fabric_link_rng = seeds.rng("fabric/links");
            Fabric::new(fc, n, &mut fabric_link_rng, seeds.rng("fabric/xtraffic"))
        });
        let end = SimTime::ZERO + cfg.warmup + cfg.duration;

        // Flat port-indexed tables for the frame hot path: one slot per
        // possible (device, port), resolved links precomputed.
        let n_devices = topo.devices().map(|d| d.0 + 1).max().unwrap_or(0);
        let port_stride = topo
            .devices()
            .flat_map(|d| topo.wired_ports(d))
            .map(|p| p.port.0 as usize + 1)
            .max()
            .unwrap_or(1);
        let mut port_links = Vec::new();
        port_links.resize_with(n_devices * port_stride, || None);
        for dev in topo.devices() {
            for p in topo.wired_ports(dev) {
                let (id, link) = topo.link_of(p).expect("wired port has a link");
                port_links[p.device.0 * port_stride + p.port.0 as usize] =
                    Some((id, link.peer_of(p), p == link.a, *link.delay_from(p)));
            }
        }
        let mut world = World {
            queue: EventQueue::new(),
            egress: PortTable::new(n_devices, port_stride),
            port_links,
            port_stride,
            node_out: Vec::new(),
            bridge_out: Vec::new(),
            topo,
            nodes,
            switches,
            station_map,
            switch_map,
            schedule,
            transient,
            frame_rng,
            link_faults,
            linkfault_rng,
            down_windows,
            domain_roots: (0..n).collect(),
            gm_kill: None,
            fabric,
            probes: HashMap::new(),
            probe_sent_at: HashMap::new(),
            ground_truth_ns: Vec::new(),
            discipline_error_ns: Vec::new(),
            series: PrecisionSeries::new(),
            events: EventLog::new(),
            counters: RunCounters::default(),
            end,
            oracle: None,
            tracer: None,
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
                    Ev::Phc2SysTick { node, slot },
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
        for dev in self.topo.devices() {
            ports.extend(self.topo.wired_ports(dev));
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
        for (i, f) in self.schedule.iter().enumerate() {
            self.queue
                .schedule_ctl_at(f.at + self.cfg.warmup, Ev::FaultAt(i));
        }
        let strikes: Vec<_> = self.cfg.attack.strikes().to_vec();
        for (i, s) in strikes.iter().enumerate() {
            self.queue
                .schedule_ctl_at(s.at + self.cfg.warmup, Ev::StrikeAt(i));
        }
        // Link-down windows toggle through the control space too, so
        // forked continuations re-arm them alongside faults and strikes.
        let windows = self.down_windows.clone();
        for (i, (_, from, until)) in windows.into_iter().enumerate() {
            self.queue.schedule_ctl_at(
                SimTime::ZERO + self.cfg.warmup + from,
                Ev::LinkWindow { i, down: true },
            );
            self.queue.schedule_ctl_at(
                SimTime::ZERO + self.cfg.warmup + until,
                Ev::LinkWindow { i, down: false },
            );
        }
    }

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
        self.tracer = Some(TraceSink::new(TraceConfig::default()));
    }

    /// [`World::enable_trace`] with an explicit bounded-sink event cap
    /// (the default is 2^20). Long fleet-scale runs overflow the
    /// default cap; raising it trades memory for completeness, and the
    /// sink's drop counter reports any truncation either way.
    pub fn enable_trace_capped(&mut self, max_events: usize) {
        self.tracer = Some(TraceSink::new(TraceConfig {
            max_events,
            ..TraceConfig::default()
        }));
    }

    /// `true` when [`World::enable_trace`] was called.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    fn observe(&mut self, obs: Observation<'_>) {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.observe(&obs);
        }
    }

    /// Runs the experiment to completion and returns the result.
    ///
    /// Events are handled one at a time in exact `(time, seq)` order
    /// ([`EventQueue::pop_until`]).
    pub fn run(mut self) -> RunResult {
        self.run_until(self.end);
        self.finish()
    }

    fn finish(mut self) -> RunResult {
        // Gather counters.
        for node in &mut self.nodes {
            for vm in &mut node.vms {
                let (timeouts, misses) = vm.ptp.master_faults();
                self.counters.tx_timestamp_timeouts += timeouts;
                self.counters.deadline_misses += misses;
                self.counters.aggregations += vm.ptp.shmem().aggregations;
                self.counters.no_quorum += vm.ptp.shmem().no_quorum;
            }
            self.counters.takeovers += node.device.takeovers;
            self.counters.uncovered_failures += node.device.uncovered_failures;
        }
        for port in self.egress.values() {
            self.counters.frames_queued += port.queued_frames;
        }
        let (holdover_ns, freerun_ns) = self.events.degradation_dwell(self.end);
        self.counters.holdover_ns = holdover_ns;
        self.counters.freerun_ns = freerun_ns;
        if let Some(fab) = &self.fabric {
            self.counters.fabric_frames_forwarded = fab.frames_forwarded();
            self.counters.fabric_frames_dropped = fab.frames_dropped();
            self.counters.max_residence_ns = fab.max_residence_ns();
            self.counters.path_asymmetry_ns = fab.path_asymmetry_ns();
        }
        let bounds = self.derive_bounds();
        let violations = match self.oracle.take() {
            Some(mut oracle) => {
                let residual: u64 = self.egress.values().map(|p| p.len() as u64).sum();
                oracle.observe(&Observation::RunEnd {
                    at: self.end,
                    residual_frames: residual,
                });
                if self.fabric.is_some() {
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
            ground_truth: tsn_metrics::TimeErrorSeries::new(tau0, self.ground_truth_ns),
            discipline_error: tsn_metrics::TimeErrorSeries::new(tau0, self.discipline_error_ns),
            series: self.series,
            events: self.events,
            bounds,
            counters: self.counters,
            warmup: self.cfg.warmup,
            violations,
            trace,
        }
    }

    fn derive_bounds(&self) -> BoundsReport {
        let res_min = self.cfg.residence_min;
        let res_max = self.cfg.residence_max + self.cfg.residence_jitter;
        let stations: Vec<DeviceId> = self.topo.stations().collect();
        let mut all = Vec::new();
        for &a in &stations {
            for &b in &stations {
                if a != b {
                    if let Some(p) = self.topo.path_delay_bounds(a, b, res_min, res_max) {
                        all.push(self.widen_for_fabric(a, b, p));
                    }
                }
            }
        }
        let m = self.cfg.measurement_node;
        let sender = self.nodes[m].vms[1].nic_device;
        let mut meas = Vec::new();
        for (dev, (node, _)) in self.station_map.iter() {
            if node != m {
                if let Some(p) = self.topo.path_delay_bounds(sender, dev, res_min, res_max) {
                    meas.push(p);
                }
            }
        }
        BoundsReport::derive(
            self.cfg.nodes,
            1,
            self.cfg.r_max_ppb,
            self.cfg.sync_interval,
            &all,
            &meas,
        )
    }

    /// Widens a station-pair path-delay bound by the fabric's extra
    /// inter-switch contribution when the stations sit on different
    /// nodes. Measurement-probe paths are *not* widened: probes bypass
    /// the fabric (statically pinned, calibrated paths).
    fn widen_for_fabric(&self, a: DeviceId, b: DeviceId, p: (Nanos, Nanos)) -> (Nanos, Nanos) {
        let Some(fab) = &self.fabric else {
            return p;
        };
        let (Some((na, _)), Some((nb, _))) = (self.station_map.get(a), self.station_map.get(b))
        else {
            return p;
        };
        if na == nb {
            return p;
        }
        // Conservative protected-frame serialization (a Follow_Up with
        // its header comfortably fits 128 bytes on the wire) and one
        // concurrent protected frame per domain.
        let ser_ns = fab.config().serialization_ns(128);
        let (lo, hi) = fab.path_bounds(na, nb, ser_ns, self.cfg.nodes as i64);
        (p.0 + lo, p.1 + hi)
    }

    // ----- event dispatch --------------------------------------------

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Transmit { from, frame, token } => self.on_transmit(t, from, frame, token),
            Ev::Arrive { to, frame } => self.on_arrive(t, to, &frame),
            Ev::GmSyncTick { node } => self.on_gm_sync_tick(t, node),
            Ev::PdelayTick { port } => self.on_pdelay_tick(t, port),
            Ev::Phc2SysTick { node, slot } => self.on_phc2sys_tick(t, node, slot),
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
        let (link, _, _) = self.down_windows[i];
        if let Some(tracer) = self.tracer.as_mut() {
            if down {
                tracer.begin_span(
                    i as u64,
                    t,
                    "link_down",
                    TraceSub::Netsim,
                    SIM_PID,
                    TraceSub::Netsim.lane(),
                );
            } else {
                tracer.end_span(i as u64, t);
            }
        }
        self.link_faults.set_down(link, down);
    }

    /// 802.1Q traffic class of a frame: explicit PCP if tagged, else by
    /// ethertype (gPTP highest; background best-effort). With priority
    /// isolation disabled (ablation), everything is best-effort.
    fn priority_of(&self, frame: &EthernetFrame) -> u8 {
        if let Some(bg) = &self.cfg.background {
            if !bg.priority_isolation {
                return 0;
            }
        }
        if let Some(tag) = frame.vlan {
            return tag.pcp;
        }
        match frame.ethertype {
            ethertype::PTP => 7,
            ethertype::MEASUREMENT => 6,
            _ => 0,
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
        if let Some(tracer) = self.tracer.as_mut() {
            // Ports ask to be woken only behind a waiting frame; a
            // wake-up that finds the wire free and nothing queued was
            // wasted, and worth a mark.
            let port = self.egress.get(from);
            if port.is_none_or(|p| !p.is_busy(t) && p.is_empty()) {
                let lane = TraceSub::Netsim.lane();
                tracer.instant(t, "port_free_idle", TraceSub::Netsim, SIM_PID, lane);
            }
        }
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
            if self.oracle.is_some() {
                self.observe(Observation::FramePopped { at: t });
            }
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
        let gap = mean_gap * self.frame_rng.gen_range(0.5..1.5);
        self.queue.schedule_at(
            t + Nanos::from_nanos(gap as i64),
            Ev::BackgroundTick { port },
        );
        self.on_transmit(t, port, frame, None);
    }

    // ----- transmission ----------------------------------------------

    /// Queues a general (not launch-timed) transmission after a small
    /// driver latency.
    fn send_general(&mut self, t: SimTime, from: PortAddr, frame: EthernetFrame) {
        let latency = Nanos::from_nanos(self.frame_rng.gen_range(1_000..20_000));
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
            TxTiming::Driver => Nanos::from_nanos(self.frame_rng.gen_range(1_000..20_000)),
            TxTiming::Launch => unreachable!("launch-timed Syncs go through launch_sync"),
            TxTiming::Turnaround => Nanos::from_nanos(self.frame_rng.gen_range(50_000..300_000)),
            TxTiming::Residence => {
                let sw = self.switch_map.get(dev).expect("only bridges relay");
                self.switches[sw]
                    .fabric
                    .residence
                    .sample(&mut self.frame_rng)
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
        let vm = &self.nodes[node].vms[slot];
        let (dev, src) = (vm.nic_device, vm.nic.mac);
        let mut launch = None;
        let mut out = std::mem::take(&mut self.node_out);
        for o in out.drain(..) {
            match o {
                NodeOutput::Send(tx) if tx.timing == TxTiming::Launch => launch = Some(tx),
                NodeOutput::Send(tx) => self.transmit(t, dev, src, tx),
                NodeOutput::Aggregated(a) => self.apply_aggregation(t, node, slot, a),
                NodeOutput::SyncState { from, to } => self.on_sync_state(t, node, slot, from, to),
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
        let dev = self.switches[sw].device;
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
            if self.oracle.is_some() {
                self.observe(Observation::FrameEnqueued { at: t });
            }
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
        let station = self.station_map.get(from.device);
        if let Some((node, slot)) = station {
            if !self.nodes[node].vms[slot].running {
                if self.oracle.is_some() {
                    self.observe(Observation::FrameDropped {
                        at: t,
                        from_queue: queued,
                    });
                }
                self.send_next_queued(t, from);
                return;
            }
        }
        if self.oracle.is_some() {
            self.observe(Observation::FrameDelivered {
                at: t,
                from_queue: queued,
            });
        }
        self.trace_frame_event(t, from.device, true, &frame);
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
                if matches!(token, TxToken::Sync { .. }) && self.transient.tx_timestamp_times_out()
                {
                    self.nodes[node].vms[slot]
                        .ptp
                        .on_tx_timestamp_timeout(token);
                    let kind = TransientKind::TxTimestampTimeout;
                    self.log(t, ExperimentEvent::Transient { node, kind });
                } else {
                    let ts = self.hw_timestamp(t, from.device);
                    let ptp = &mut self.nodes[node].vms[slot].ptp;
                    ptp.on_tx_timestamp(token, ts, &mut self.node_out);
                    self.drain_node_out(t, node, slot);
                }
            } else if let Some(sw) = self.switch_map.get(from.device) {
                let ts = self.hw_timestamp(t, from.device);
                let s = &mut self.switches[sw];
                s.bridge
                    .tx_timestamp(from.port.0, token, ts, &mut self.bridge_out);
                self.drain_bridge_out(t, sw, frame.src);
            }
        }
        // Cross the link (resolved at construction; see `port_links`).
        let Some((link_id, to, toward_b, delay_model)) =
            self.port_links[from.device.0 * self.port_stride + from.port.0 as usize]
        else {
            return;
        };
        // Link-fault surface (loss, down windows, asymmetry) acts
        // strictly after the warm-up: the shared warm prefix must not
        // observe it, and the loss models must not draw from their RNG
        // stream before the fork boundary.
        let faults_active = t >= SimTime::ZERO + self.cfg.warmup;
        if faults_active && self.link_faults.is_down(link_id) {
            return;
        }
        // Hardware timestamps reference the start-of-frame delimiter on
        // both ends (IEEE 1588 clause 7.3.4), so serialization time does
        // not enter the timestamped path delay; it is absorbed into the
        // link's base latency model.
        let mut delay = delay_model.sample(&mut self.frame_rng);
        if faults_active {
            if self.link_faults.drops(link_id, &mut self.linkfault_rng) {
                return;
            }
            delay += self.link_faults.extra_delay(link_id, toward_b);
        }
        // Multi-hop fabric: a PTP frame crossing the inter-switch mesh
        // traverses the expanded hop chain analytically (computed here,
        // no extra events). Measurement probes bypass it — the paper
        // pins probe paths with static FDB entries and calibrates their
        // static delay — and background frames are subsumed by the
        // fabric's own analytic cross-traffic model.
        let mut frame = frame;
        if frame.ethertype == ethertype::PTP && self.fabric.is_some() {
            if let (Some(sw_from), Some(sw_to)) = (
                self.switch_map.get(from.device),
                self.switch_map.get(to.device),
            ) {
                if sw_from != sw_to {
                    match self.fabric_cross(t, sw_from, sw_to, &mut frame) {
                        Some(extra) => delay += extra,
                        // Dropped at a saturated fabric hop.
                        None => return,
                    }
                }
            }
        }
        self.queue.schedule_at(t + delay, Ev::Arrive { to, frame });
    }

    /// Carries one inter-switch PTP frame across the multi-hop fabric:
    /// returns the extra one-way delay, or `None` when the frame was
    /// dropped at a saturated hop. Maintains the transparent-clock
    /// correction bookkeeping: a Sync's measured residence is recorded
    /// at traversal and patched into the matching Follow_Up's
    /// correction field when it crosses the same mesh segment.
    fn fabric_cross(
        &mut self,
        t: SimTime,
        sw_from: usize,
        sw_to: usize,
        frame: &mut EthernetFrame,
    ) -> Option<Nanos> {
        let kind = MessageType::peek(&frame.payload);
        let class = match kind {
            Some(MessageType::Sync) => FrameClass::Sync,
            Some(MessageType::PdelayReq) | Some(MessageType::PdelayResp) => FrameClass::Pdelay,
            _ => FrameClass::General,
        };
        let fab = self.fabric.as_mut().expect("fabric checked by caller");
        let ser_ns = fab.config().serialization_ns(frame.wire_len());
        let transparent = fab.config().transparent_clock;
        let tr = fab.traverse(t, sw_from, sw_to, ser_ns, class);
        if tr.dropped {
            if let Some(tracer) = &mut self.tracer {
                tracer
                    .instant(
                        t,
                        "fabric_drop",
                        TraceSub::Fabric,
                        SIM_PID,
                        TraceSub::Fabric.lane(),
                    )
                    .arg_u64("from_sw", sw_from as u64)
                    .arg_u64("to_sw", sw_to as u64);
            }
            if self.oracle.is_some() {
                self.observe(Observation::FabricCrossing {
                    at: t,
                    dropped: true,
                });
            }
            return None;
        }
        if transparent {
            let domain = frame.payload.get(4).copied().unwrap_or(0);
            let seq = peek_sequence(&frame.payload);
            let fab = self.fabric.as_mut().expect("fabric present");
            match kind {
                Some(MessageType::Sync) => {
                    fab.record_pending(sw_from, sw_to, domain, seq, tr.residence_ns);
                }
                Some(MessageType::FollowUp) => {
                    if let Some(res) = fab.take_pending(sw_from, sw_to, domain, seq) {
                        add_correction(frame, res);
                    }
                }
                _ => {}
            }
        }
        if class == FrameClass::Sync {
            if let Some(tracer) = &mut self.tracer {
                tracer
                    .instant(
                        t,
                        "fabric_sync",
                        TraceSub::Fabric,
                        SIM_PID,
                        TraceSub::Fabric.lane(),
                    )
                    .arg_u64("from_sw", sw_from as u64)
                    .arg_u64("to_sw", sw_to as u64)
                    .arg_i64("delay_ns", tr.delay.as_nanos())
                    .arg_i64("residence_ns", tr.residence_ns);
            }
        }
        if self.oracle.is_some() {
            self.observe(Observation::FabricCrossing {
                at: t,
                dropped: false,
            });
        }
        Some(tr.delay)
    }

    /// Hardware event timestamp (rx or tx) at a device's clock: the
    /// station's NIC or the switch's PHC, plus timestamping error.
    fn hw_timestamp(&mut self, t: SimTime, dev: DeviceId) -> ClockTime {
        match self.station_map.get(dev) {
            Some((node, slot)) => {
                let nic = &mut self.nodes[node].vms[slot].nic;
                nic.rx_timestamp(t, &mut self.frame_rng)
            }
            None => {
                let sw = self.switch_map.get(dev).expect("station or switch");
                let error =
                    tsn_time::sample_timestamp_error(&self.cfg.ts_jitter, &mut self.frame_rng);
                self.switches[sw].phc.now(t) + error
            }
        }
    }

    /// Hardware receive timestamp of an arriving gPTP frame: drawn for
    /// event messages only (general messages carry none).
    fn rx_timestamp(&mut self, t: SimTime, dev: DeviceId, payload: &[u8]) -> ClockTime {
        match MessageType::peek(payload) {
            Some(MessageType::Sync | MessageType::PdelayReq | MessageType::PdelayResp) => {
                self.hw_timestamp(t, dev)
            }
            _ => ClockTime::ZERO,
        }
    }

    // ----- reception ---------------------------------------------------

    fn on_arrive(&mut self, t: SimTime, to: PortAddr, frame: &EthernetFrame) {
        self.trace_frame_event(t, to.device, false, frame);
        if let Some((node, slot)) = self.station_map.get(to.device) {
            self.arrive_at_station(t, node, slot, frame);
        } else if let Some(sw) = self.switch_map.get(to.device) {
            self.arrive_at_switch(t, sw, to.port.0, frame);
        }
    }

    fn arrive_at_station(&mut self, t: SimTime, node: usize, slot: usize, frame: &EthernetFrame) {
        if !self.nodes[node].vms[slot].running {
            return;
        }
        match frame.ethertype {
            ethertype::PTP => {
                let dev = self.nodes[node].vms[slot].nic_device;
                let rx_ts = self.rx_timestamp(t, dev, &frame.payload);
                let vm = &mut self.nodes[node].vms[slot];
                let (clock, out) = (&mut vm.nic.phc.at(t), &mut self.node_out);
                vm.ptp.on_frame(&frame.payload, rx_ts, clock, out);
                self.drain_node_out(t, node, slot);
            }
            // Probe: timestamp with the node's CLOCK_SYNCTIME.
            ethertype::MEASUREMENT if frame.payload.len() >= 8 => {
                let seq = u64::from_be_bytes(frame.payload[0..8].try_into().expect("slice of 8"));
                let host_now = self.nodes[node].host_phc.now(t);
                let read_err = Nanos::from_nanos(sample_gaussian(
                    &mut self.frame_rng,
                    self.cfg.synctime_read_sigma_ns,
                ));
                let reading = self.nodes[node].device.synctime(host_now) + read_err;
                self.probes.entry(seq).or_default().push(reading);
            }
            _ => {}
        }
    }

    fn arrive_at_switch(&mut self, t: SimTime, sw: usize, port: u8, frame: &EthernetFrame) {
        match frame.ethertype {
            // Background traffic only loads the egress ports it crossed.
            ethertype::BACKGROUND => {}
            ethertype::PTP => {
                let dev = self.switches[sw].device;
                let rx_ts = self.rx_timestamp(t, dev, &frame.payload);
                let s = &mut self.switches[sw];
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
                let out =
                    self.switches[sw]
                        .fabric
                        .forward(PortNo(port), frame, &mut self.frame_rng);
                for (egress, residence) in out {
                    let from = PortAddr::new(self.switches[sw].device, egress.0);
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

    /// One FTA round of `(node, slot)`: observations, then the servo
    /// command applied to the NIC clock.
    fn apply_aggregation(&mut self, t: SimTime, node: usize, slot: usize, a: Aggregation) {
        if self.oracle.is_some() {
            let byzantine: Vec<bool> = self.nodes.iter().map(|n| n.vms[0].compromised).collect();
            self.observe(Observation::Aggregated {
                at: t,
                node,
                offset: a.offset,
                fault_tolerant: a.mode == AggregationMode::FaultTolerant,
                used: &a.used,
                byzantine: &byzantine,
            });
            if let Some(freq_adj_ppb) = a.servo.freq_adj_ppb() {
                self.observe(Observation::ServoFrequency {
                    at: t,
                    node,
                    slot,
                    freq_adj_ppb,
                });
            }
        }
        if let Some(tracer) = self.tracer.as_mut() {
            let f = self.cfg.aggregation.method.trim_degree();
            let inputs: Vec<Nanos> = a.used.iter().map(|&(_, o)| o).collect();
            let trimmed = tsn_fta::trimmed_indices(&inputs, f);
            let used: Vec<String> = a
                .used
                .iter()
                .map(|(d, o)| format!("{d}:{:+}", o.as_nanos()))
                .collect();
            let trimmed: Vec<String> = trimmed.iter().map(|&i| a.used[i].0.to_string()).collect();
            tracer
                .instant(t, "fta_round", TraceSub::Fta, node_pid(node), slot as u32)
                .arg_i64("offset_ns", a.offset.as_nanos())
                .arg_str(
                    "mode",
                    match a.mode {
                        AggregationMode::Startup => "startup",
                        AggregationMode::FaultTolerant => "fault_tolerant",
                    },
                )
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
        self.nodes[node].vms[slot].nic.phc.apply(t, a.servo);
    }

    /// A degradation-state transition (Synchronized → Holdover → Freerun
    /// → reacquisition) of `(node, slot)`'s aggregator.
    fn on_sync_state(
        &mut self,
        t: SimTime,
        node: usize,
        slot: usize,
        from: tsn_time::SyncState,
        to: tsn_time::SyncState,
    ) {
        self.counters.sync_transitions += 1;
        self.log(
            t,
            ExperimentEvent::SyncStateChange {
                node,
                slot,
                from,
                to,
            },
        );
        if self.oracle.is_some() {
            self.observe(Observation::SyncTransition {
                at: t,
                node,
                slot,
                from,
                to,
            });
        }
    }

    // ----- periodic activities -----------------------------------------

    fn on_gm_sync_tick(&mut self, t: SimTime, node: usize) {
        let mut next = t + self.cfg.sync_interval;
        let vm = &mut self.nodes[node].vms[0];
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
        let token = sync.token.expect("a Sync is an event message");
        let vm = &mut self.nodes[node].vms[0];
        let launch = (vm.nic.phc.now(t) + LAUNCH_LEAD).ceil_to(s);
        let outcome = if self.transient.deadline_missed() {
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
        let vm = &mut self.nodes[node].vms[0];
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
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer
                        .instant(t, "elected", TraceSub::Election, node_pid(node), 0)
                        .arg_u64("domain", u64::from(domain))
                        .arg_u64("winner", winner as u64)
                        .arg_u64("prev", prev as u64);
                }
            }
        }
    }

    /// `node` started or stopped acting as master of `domain` (its
    /// engine already follows). A promotion reroots the domain's relay
    /// tree at the node's switch and stops the re-election stopwatch on
    /// the killed domain.
    fn on_acting_change(&mut self, t: SimTime, node: usize, domain: u8, acting: bool) {
        if let Some(tracer) = self.tracer.as_mut() {
            let name = if acting { "promoted" } else { "demoted" };
            tracer
                .instant(t, name, TraceSub::Election, node_pid(node), 0)
                .arg_u64("domain", u64::from(domain));
        }
        if self.oracle.is_some() {
            self.observe(Observation::ElectionActing {
                at: t,
                domain: domain as usize,
                node,
                acting,
            });
        }
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
        for sw in &mut self.switches {
            sw.bridge.reroot(domain, root);
        }
    }

    /// The scheduled grandmaster kill: permanently shuts down the
    /// configured node's GM VM (no reboot — the failover must come from
    /// re-election, not recovery).
    fn on_gm_kill(&mut self, t: SimTime) {
        let Some(el) = self.cfg.election else {
            return;
        };
        let node = el.gm_failure_node;
        let vm = &mut self.nodes[node].vms[0];
        if !vm.running {
            return;
        }
        vm.running = false;
        vm.ptp.shut_down();
        self.counters.vm_failures += 1;
        self.counters.gm_failures += 1;
        let acting = vm.ptp.acting_domains();
        self.gm_kill = Some((t, node as u8));
        if self.oracle.is_some() {
            for d in acting {
                self.observe(Observation::ElectionActing {
                    at: t,
                    domain: d as usize,
                    node,
                    acting: false,
                });
                self.observe(Observation::GmKilled {
                    at: t,
                    domain: d as usize,
                });
            }
        }
        self.log(
            t,
            ExperimentEvent::VmFailure {
                node,
                grandmaster: true,
            },
        );
    }

    fn on_pdelay_tick(&mut self, t: SimTime, port: PortAddr) {
        self.queue
            .schedule_at(t + self.cfg.pdelay_interval, Ev::PdelayTick { port });
        let dev = port.device;
        if let Some((node, slot)) = self.station_map.get(dev) {
            let vm = &mut self.nodes[node].vms[slot];
            if !vm.running {
                return;
            }
            vm.ptp.on_pdelay_tick(&mut self.node_out);
            self.drain_node_out(t, node, slot);
        } else if let Some(sw) = self.switch_map.get(dev) {
            let s = &mut self.switches[sw];
            s.bridge.pdelay_tick(port.port.0, &mut self.bridge_out);
            self.drain_bridge_out(t, sw, MacAddr::for_nic(dev.0 as u32));
        }
    }

    fn on_phc2sys_tick(&mut self, t: SimTime, node: usize, slot: usize) {
        self.queue.schedule_at(
            t + self.cfg.phc2sys_interval,
            Ev::Phc2SysTick { node, slot },
        );
        let host_now = self.nodes[node].host_phc.now(t);
        if !self.nodes[node].vms[slot].running {
            return;
        }
        // Reading the PHC is a PCIe register access from a guest: model
        // its error as Gaussian noise with occasional latency spikes —
        // the raw material of the paper's Fig. 4 precision spikes, which
        // the feedback discipline amplifies.
        let read_error = {
            let g = sample_gaussian(&mut self.frame_rng, self.cfg.phc_read_sigma_ns);
            let spike = if self.frame_rng.gen::<f64>() < self.cfg.phc_read_spike_prob {
                let m = self.cfg.phc_read_spike_max.as_nanos();
                self.frame_rng.gen_range(-m..=m)
            } else {
                0
            };
            Nanos::from_nanos(g + spike)
        };
        let phc_now = self.nodes[node].vms[slot].nic.phc.now(t) + read_error;
        // A Byzantine dependent-clock writer shifts everything it
        // publishes (candidate and page alike).
        let corruption = match self.cfg.corrupt_publisher {
            Some(cp)
                if cp.node == node
                    && cp.slot == slot
                    && t >= SimTime::ZERO + self.cfg.warmup + cp.at =>
            {
                cp.offset
            }
            _ => Nanos::ZERO,
        };
        // In voting mode every clock-sync VM publishes a candidate
        // mapping into its private hypervisor slot.
        if self.nodes[node].voting.is_some() {
            let mut candidate = self.nodes[node].vms[slot].phc2sys.sample(host_now, phc_now);
            candidate.base_sync = candidate.base_sync + corruption;
            if let Some(v) = &mut self.nodes[node].voting {
                v.publish_candidate(VmId(slot), candidate, host_now);
            }
        }
        let mut params = match self.cfg.sync_clock_discipline {
            SyncClockDiscipline::FeedForward => {
                self.nodes[node].vms[slot].phc2sys.sample(host_now, phc_now)
            }
            SyncClockDiscipline::Feedback => {
                // Only the active maintainer runs the feedback loop (the
                // standby's servo starts fresh on takeover).
                if self.nodes[node].device.active() != VmId(slot) {
                    return;
                }
                let current = self.nodes[node].device.stshmem().params();
                self.nodes[node].vms[slot]
                    .sync_servo
                    .sample(&current, host_now, phc_now)
            }
        };
        params.base_sync = params.base_sync + corruption;
        self.nodes[node]
            .device
            .publish(VmId(slot), params, host_now);
    }

    fn on_monitor_tick(&mut self, t: SimTime, node: usize) {
        self.queue.schedule_at(
            t + self.nodes[node].device.config().period,
            Ev::MonitorTick { node },
        );
        if self.oracle.is_some() {
            // Noise-free CLOCK_SYNCTIME reading for the continuity
            // invariant (a pure function of published STSHMEM params —
            // no randomness, no state change).
            let host_now = self.nodes[node].host_phc.now(t);
            let synctime_ns = self.nodes[node].device.synctime(host_now).as_nanos();
            self.observe(Observation::Synctime {
                at: t,
                node,
                synctime_ns,
            });
        }
        let host_now = self.nodes[node].host_phc.now(t);
        let running: Vec<bool> = self.nodes[node].vms.iter().map(|vm| vm.running).collect();
        // Fail-consistent detection first: a VM voted faulty is treated
        // like a failed one even though it keeps publishing.
        let faulty: Vec<bool> = match &self.nodes[node].voting {
            Some(v) => v.vote(host_now),
            None => vec![false; self.nodes[node].vms.len()],
        };
        if faulty[self.nodes[node].device.active().0] {
            let ok = |vm: VmId| running[vm.0] && !faulty[vm.0];
            if let Some(takeover) = self.nodes[node].device.force_takeover(ok) {
                self.nodes[node].vms[takeover.to.0].sync_servo.reset();
                self.log(t, ExperimentEvent::Takeover { node });
            }
        }
        if let Some(takeover) = self.nodes[node]
            .device
            .monitor_tick(host_now, |vm| running[vm.0])
        {
            // The promoted VM's CLOCK_SYNCTIME servo starts fresh.
            self.nodes[node].vms[takeover.to.0].sync_servo.reset();
            self.log(t, ExperimentEvent::Takeover { node });
        }
    }

    fn on_wander_tick(&mut self, t: SimTime) {
        self.queue
            .schedule_at(t + self.cfg.wander_interval, Ev::WanderTick);
        let mut rng = self.frame_rng.clone();
        for node in &mut self.nodes {
            let dev = node.host_osc.step_wander(&mut rng);
            node.host_phc.set_oscillator_deviation(t, dev);
            for vm in &mut node.vms {
                let dev = vm.osc.step_wander(&mut rng);
                vm.nic.phc.set_oscillator_deviation(t, dev);
            }
        }
        for sw in &mut self.switches {
            let dev = sw.osc.step_wander(&mut rng);
            sw.phc.set_oscillator_deviation(t, dev);
        }
        self.frame_rng = rng;
    }

    fn on_probe_tick(&mut self, t: SimTime, seq: u64) {
        self.queue
            .schedule_at(t + self.cfg.probe_interval, Ev::ProbeTick { seq: seq + 1 });
        // Finalize the previous probe.
        if seq > 0 {
            self.finalize_probe(seq - 1);
        }
        let m = self.cfg.measurement_node;
        if !self.nodes[m].vms[1].running {
            return;
        }
        self.probe_sent_at.insert(seq, t);
        let host_now = self.nodes[0].host_phc.now(t);
        let sync = self.nodes[0].device.synctime(host_now).as_nanos();
        self.ground_truth_ns
            .push((sync - t.as_nanos() as i64) as f64);
        let active = self.nodes[0].device.active().0;
        let phc = self.nodes[0].vms[active].nic.phc.now(t).as_nanos();
        self.discipline_error_ns.push((sync - phc) as f64);
        let vm = &self.nodes[m].vms[1];
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

    fn finalize_probe(&mut self, seq: u64) {
        let Some(at) = self.probe_sent_at.remove(&seq) else {
            return;
        };
        let Some(readings) = self.probes.remove(&seq) else {
            return;
        };
        if let Some(value) = precision_of(&readings) {
            self.series.push(PrecisionSample {
                at,
                value,
                receivers: readings.len(),
            });
        }
    }

    // ----- faults and attacks ------------------------------------------

    fn on_fault(&mut self, t: SimTime, i: usize) {
        let f = self.schedule[i];
        let slot = match f.slot {
            VmSlot::Grandmaster => 0,
            VmSlot::Redundant => 1,
        };
        let vm = &mut self.nodes[f.node].vms[slot];
        if !vm.running {
            return; // already down (should not happen per constraints)
        }
        vm.running = false;
        vm.ptp.shut_down();
        let was_acting = vm.ptp.acting_domains();
        self.counters.vm_failures += 1;
        if f.slot == VmSlot::Grandmaster {
            self.counters.gm_failures += 1;
        }
        if self.oracle.is_some() {
            for d in was_acting {
                self.observe(Observation::ElectionActing {
                    at: t,
                    domain: d as usize,
                    node: f.node,
                    acting: false,
                });
            }
        }
        self.log(
            t,
            ExperimentEvent::VmFailure {
                node: f.node,
                grandmaster: f.slot == VmSlot::Grandmaster,
            },
        );
        self.queue
            .schedule_at(f.reboot_at + self.cfg.warmup, Ev::RebootAt(i));
    }

    fn on_reboot(&mut self, t: SimTime, i: usize) {
        let f = self.schedule[i];
        let slot = match f.slot {
            VmSlot::Grandmaster => 0,
            VmSlot::Redundant => 1,
        };
        let vm = &mut self.nodes[f.node].vms[slot];
        vm.running = true;
        vm.compromised = false;
        vm.strike_idx = None;
        vm.ptp.reboot();
        vm.phc2sys.reset();
        vm.sync_servo.reset();
        self.log(
            t,
            ExperimentEvent::VmReboot {
                node: f.node,
                grandmaster: f.slot == VmSlot::Grandmaster,
            },
        );
    }

    fn on_strike(&mut self, t: SimTime, i: usize) {
        let strike = self.cfg.attack.strikes()[i];
        let kernel = self.cfg.kernels.kernel(strike.target_node);
        let outcome = AttackPlan::attempt(&strike, kernel);
        let succeeded = outcome == StrikeOutcome::RootObtained;
        if succeeded {
            self.counters.strikes_succeeded += 1;
            let vm = &mut self.nodes[strike.target_node].vms[0];
            vm.compromised = true;
            vm.strike_idx = Some(i);
            vm.ptp
                .compromise(strike.offset_at(Nanos::ZERO, self.cfg.aggregation.validity_threshold));
            // A rogue master additionally forges a best-possible BMCA
            // claim on its cyclic predecessor's domain, capturing it
            // through the election (no effect without election mode).
            if matches!(strike.strategy, Some(ByzantineStrategy::RogueMaster { .. })) {
                let n = self.cfg.nodes;
                let domain = ((strike.target_node + n - 1) % n) as u8;
                if vm.ptp.capture(domain) {
                    self.on_acting_change(t, strike.target_node, domain, true);
                }
            }
        } else {
            self.counters.strikes_failed += 1;
        }
        self.log(
            t,
            ExperimentEvent::Strike {
                node: strike.target_node,
                succeeded,
            },
        );
    }

    fn log(&mut self, t: SimTime, e: ExperimentEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            match e {
                ExperimentEvent::VmFailure { node, grandmaster } => {
                    let slot = if grandmaster { 0 } else { 1 };
                    tracer.instant(t, "vm_failure", TraceSub::Faults, node_pid(node), slot);
                }
                ExperimentEvent::VmReboot { node, grandmaster } => {
                    let slot = if grandmaster { 0 } else { 1 };
                    tracer.instant(t, "vm_reboot", TraceSub::Faults, node_pid(node), slot);
                }
                ExperimentEvent::Takeover { node } => {
                    tracer.instant(t, "takeover", TraceSub::Hyp, node_pid(node), 0);
                }
                ExperimentEvent::Transient { node, kind } => {
                    tracer
                        .instant(t, "transient", TraceSub::Faults, node_pid(node), 0)
                        .arg_str(
                            "kind",
                            match kind {
                                TransientKind::TxTimestampTimeout => "tx_timestamp_timeout",
                                TransientKind::DeadlineMiss => "deadline_miss",
                            },
                        );
                }
                ExperimentEvent::Strike { node, succeeded } => {
                    tracer
                        .instant(t, "strike", TraceSub::Faults, node_pid(node), 0)
                        .arg_bool("succeeded", succeeded);
                }
                ExperimentEvent::GmResumed { node } => {
                    tracer.instant(t, "gm_resumed", TraceSub::Gptp, node_pid(node), 0);
                }
                ExperimentEvent::SyncStateChange {
                    node,
                    slot,
                    from,
                    to,
                } => {
                    tracer
                        .instant(t, "sync_state", TraceSub::Hyp, node_pid(node), slot as u32)
                        .arg_str("from", from.name())
                        .arg_str("to", to.name());
                }
            }
        }
        self.events.record(t, e);
    }

    /// Mirrors a gPTP or measurement frame tx/rx into the structured
    /// tracer as an instant on the owning station's (or the fabric's)
    /// lane. Classification peeks the wire bytes allocation-free.
    fn trace_frame_event(&mut self, t: SimTime, dev: DeviceId, tx: bool, frame: &EthernetFrame) {
        if self.tracer.is_none() {
            return;
        }
        let (pid, tid) = match self.station_map.get(dev) {
            Some((node, slot)) => (node_pid(node), slot as u32),
            None => (SIM_PID, TraceSub::Gptp.lane()),
        };
        match frame.ethertype {
            ethertype::PTP => {
                let Some(mt) = MessageType::peek(&frame.payload) else {
                    return;
                };
                let domain = frame.payload.get(4).copied().unwrap_or(0);
                let Some(tracer) = self.tracer.as_mut() else {
                    return;
                };
                tracer
                    .instant(
                        t,
                        if tx { "ptp_tx" } else { "ptp_rx" },
                        TraceSub::Gptp,
                        pid,
                        tid,
                    )
                    .arg_str("type", mt.name())
                    .arg_u64("domain", u64::from(domain));
            }
            ethertype::MEASUREMENT => {
                let Some(tracer) = self.tracer.as_mut() else {
                    return;
                };
                tracer.instant(
                    t,
                    if tx { "probe_tx" } else { "probe_rx" },
                    TraceSub::Measure,
                    pid,
                    tid,
                );
            }
            _ => {}
        }
    }

    // ----- introspection (tests, examples) ------------------------------

    /// Per-VM diagnostic snapshot: `(node, slot, true offset of the NIC
    /// PHC, servo frequency adjustment ppb, aggregation mode,
    /// aggregation count, no-quorum count, running)`.
    #[allow(clippy::type_complexity)]
    pub fn vm_diagnostics(
        &mut self,
        t: SimTime,
    ) -> Vec<(usize, usize, Nanos, f64, AggregationMode, u64, u64, bool)> {
        let mut out = Vec::new();
        for (n, node) in self.nodes.iter_mut().enumerate() {
            for (s, vm) in node.vms.iter_mut().enumerate() {
                let off = vm.nic.phc.true_offset(t);
                let shm = vm.ptp.shmem();
                out.push((
                    n,
                    s,
                    off,
                    vm.nic.phc.freq_adj_ppb(),
                    vm.ptp.mode(),
                    shm.aggregations,
                    shm.no_quorum,
                    vm.running,
                ));
            }
        }
        out
    }

    /// Nodes currently acting as grandmaster for `domain` (running
    /// clock-sync VMs only). With the election disabled this is the
    /// static home assignment; with it enabled, whatever BMCA decided.
    pub fn acting_masters(&self, domain: u8) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let vm = &node.vms[0];
            if vm.running && vm.ptp.acting(domain) {
                out.push(i);
            }
        }
        out
    }

    /// Ground truth: the spread of the clock-sync VMs' PHCs at true time
    /// `t` (running VMs only). Not available to any simulated component.
    pub fn phc_spread(&mut self, t: SimTime) -> Nanos {
        let mut readings = Vec::new();
        for node in &mut self.nodes {
            for vm in &mut node.vms {
                if vm.running {
                    readings.push(vm.nic.phc.now(t));
                }
            }
        }
        spread(&readings)
    }

    /// Diagnostic: mean aggregated offset (ns) of one VM's FTSHMEM.
    pub fn offset_bias(&self, node: usize, slot: usize) -> f64 {
        let shm = self.nodes[node].vms[slot].ptp.shmem();
        if shm.aggregations == 0 {
            0.0
        } else {
            shm.offset_sum_ns as f64 / shm.aggregations as f64
        }
    }

    /// Ground truth: spread of the grandmaster VMs' PHCs at true time
    /// `t` — the quantity whose boundedness separates the paper's design
    /// from the prior-work baseline.
    pub fn gm_spread(&mut self, t: SimTime) -> Nanos {
        let mut readings = Vec::new();
        for node in &mut self.nodes {
            if node.vms[0].running {
                readings.push(node.vms[0].nic.phc.now(t));
            }
        }
        spread(&readings)
    }

    /// Ground truth: each node's `CLOCK_SYNCTIME` minus true time at `t`.
    pub fn synctime_offsets(&mut self, t: SimTime) -> Vec<Nanos> {
        self.nodes
            .iter_mut()
            .map(|node| {
                let host_now = node.host_phc.now(t);
                Nanos::from_nanos(node.device.synctime(host_now).as_nanos() - t.as_nanos() as i64)
            })
            .collect()
    }

    /// Ground truth: the spread of the nodes' `CLOCK_SYNCTIME` readings
    /// at true time `t`.
    pub fn synctime_spread(&mut self, t: SimTime) -> Nanos {
        let mut readings = Vec::new();
        for node in &mut self.nodes {
            let host_now = node.host_phc.now(t);
            readings.push(node.device.synctime(host_now));
        }
        spread(&readings)
    }

    /// The configured end of the run.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Runs the world until `t` (inclusive), for step-wise tests.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(t) {
            if self.oracle.is_some() {
                self.observe(Observation::Event { at: now });
            }
            if let Some(tracer) = self.tracer.as_mut() {
                let (kind, sub) = ev.kind();
                tracer.pop(now, kind, sub);
            }
            self.handle(now, ev);
        }
    }

    /// Consumes the world and produces the result (for use after
    /// [`World::run_until`]).
    pub fn into_result(self) -> RunResult {
        self.finish()
    }
}

/// Largest minus smallest reading (zero for none).
fn spread(readings: &[ClockTime]) -> Nanos {
    let min = readings.iter().min().copied().unwrap_or(ClockTime::ZERO);
    let max = readings.iter().max().copied().unwrap_or(ClockTime::ZERO);
    max - min
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

fn log2_interval(interval: Nanos) -> i8 {
    let secs = interval.as_secs_f64();
    secs.log2().round() as i8
}

// ----- checkpoint / restore ------------------------------------------

use crate::snapshot::{config_fingerprint, warm_prefix_fingerprint, WORLD_STATE_VERSION};
use tsn_snapshot::{
    snap_enum, snap_state, Reader, Snap, SnapError, SnapState, WorldSnapshot, Writer,
};

snap_enum!(Ev {
    0 => Transmit { from, frame, token },
    1 => Arrive { to, frame },
    2 => GmSyncTick { node },
    3 => PdelayTick { port },
    4 => Phc2SysTick { node, slot },
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

// `nic_device` and NIC static parameters (MAC, jitter model, line rate)
// come from configuration.
snap_state!(VmState {
    nic.phc: state,
    osc: state,
    running,
    compromised,
    strike_idx,
    ptp: state,
    phc2sys: state,
    sync_servo: state,
});

snap_state!(NodeState {
    host_phc: state,
    host_osc: state,
    vms: each,
    device: state,
    voting: each,
});

// The forwarding fabric (FDB, residence model) is static configuration.
snap_state!(SwitchState {
    phc: state,
    osc: state,
    bridge: state,
});

// Hand-written: the load reroots the relay trees between node and switch
// state and validates what it reads against the constructed topology.
impl SnapState for World {
    fn save_state(&self, w: &mut Writer) {
        self.queue.save_state(w);
        for node in &self.nodes {
            node.save_state(w);
        }
        // Roots precede switch states: restore must reroot the relay
        // trees before overwriting their (topology-shaped) states.
        self.domain_roots.put(w);
        for sw in &self.switches {
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
        self.transient.save_state(w);
        self.frame_rng.put(w);
        self.probes.put(w);
        self.probe_sent_at.put(w);
        self.ground_truth_ns.put(w);
        self.discipline_error_ns.put(w);
        self.series.save_state(w);
        self.events.save_state(w);
        self.counters.put(w);
        self.link_faults.save_state(w);
        self.linkfault_rng.put(w);
        self.gm_kill.put(w);
        // Fabric state rides at the very end, only when enabled — a
        // `fabric = None` world's state bytes are identical to a build
        // without the fabric subsystem.
        if let Some(fab) = &self.fabric {
            fab.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.queue.load_state(r)?;
        for node in &mut self.nodes {
            node.load_state(r)?;
        }
        // A compromised VM evaluates its strike's strategy every tick.
        let strikes = self.cfg.attack.strikes().len();
        let mut vms = self.nodes.iter().flat_map(|node| &node.vms);
        if vms.any(|vm| vm.strike_idx.is_some_and(|i| i >= strikes)) {
            return Err(SnapError::Malformed("strike index outside attack plan"));
        }
        let roots: Vec<usize> = Snap::get(r)?;
        let n = self.nodes.len();
        if roots.len() != self.domain_roots.len() || roots.iter().any(|&root| root >= n) {
            return Err(SnapError::Malformed("domain root outside topology"));
        }
        for (d, &root) in roots.iter().enumerate() {
            if self.domain_roots[d] != root {
                self.reroot_domain(d, root);
            }
        }
        for sw in &mut self.switches {
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
        self.transient.load_state(r)?;
        self.frame_rng = Snap::get(r)?;
        self.probes = Snap::get(r)?;
        self.probe_sent_at = Snap::get(r)?;
        self.ground_truth_ns = Snap::get(r)?;
        self.discipline_error_ns = Snap::get(r)?;
        self.series.load_state(r)?;
        self.events.load_state(r)?;
        self.counters = Snap::get(r)?;
        self.link_faults.load_state(r)?;
        self.linkfault_rng = Snap::get(r)?;
        self.gm_kill = Snap::get(r)?;
        if let Some(fab) = &mut self.fabric {
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
    /// byte-identical worlds. The divergence check of `snapshot verify`
    /// compares these per epoch.
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
mod tests {
    use super::*;

    #[test]
    fn log2_of_paper_interval() {
        assert_eq!(log2_interval(Nanos::from_millis(125)), -3);
        assert_eq!(log2_interval(Nanos::from_secs(1)), 0);
        assert_eq!(log2_interval(Nanos::from_millis(250)), -2);
    }

    /// Every slab cell of the event queue holds an `Ev`, and every
    /// schedule and pop moves one: a field that grows it slows every
    /// workload (ROADMAP: inline payloads cost 20–32 %).
    #[test]
    fn event_stays_72_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 72);
        assert_eq!(std::mem::size_of::<Option<Ev>>(), 72);
    }

    fn tiny_world(seed: u64) -> World {
        let mut cfg = TestbedConfig::paper_default(seed);
        cfg.duration = Nanos::from_secs(5);
        cfg.warmup = Nanos::from_secs(5);
        World::new(cfg)
    }

    #[test]
    fn frame_priorities() {
        let w = tiny_world(1);
        let ptp = EthernetFrame {
            dst: MacAddr::GPTP_MULTICAST,
            src: MacAddr::for_nic(1),
            vlan: None,
            ethertype: ethertype::PTP,
            payload: bytes::Bytes::new(),
        };
        assert_eq!(w.priority_of(&ptp), 7);
        let probe = EthernetFrame {
            vlan: Some(VlanTag::new(6, MEASUREMENT_VID)),
            ethertype: ethertype::MEASUREMENT,
            ..ptp.clone()
        };
        assert_eq!(w.priority_of(&probe), 6);
        let be = EthernetFrame {
            ethertype: ethertype::BACKGROUND,
            ..ptp.clone()
        };
        assert_eq!(w.priority_of(&be), 0);
    }

    #[test]
    fn priority_isolation_off_flattens_classes() {
        let mut cfg = TestbedConfig::paper_default(1);
        cfg.background = Some(crate::config::BackgroundTraffic {
            load: 0.1,
            frame_bytes: 1500,
            priority_isolation: false,
        });
        cfg.duration = Nanos::from_secs(1);
        let w = World::new(cfg);
        let ptp = EthernetFrame {
            dst: MacAddr::GPTP_MULTICAST,
            src: MacAddr::for_nic(1),
            vlan: None,
            ethertype: ethertype::PTP,
            payload: bytes::Bytes::new(),
        };
        assert_eq!(w.priority_of(&ptp), 0);
    }

    #[test]
    fn bounds_derivation_internally_consistent() {
        let w = tiny_world(3);
        let b = w.derive_bounds();
        assert_eq!(b.reading_error, b.d_max - b.d_min);
        assert!(b.gamma <= b.reading_error + b.drift_offset + b.reading_error);
        assert!(b.pi_plus_gamma() > b.pi);
    }

    #[test]
    fn short_run_is_deterministic_end_to_end() {
        let run = |seed| {
            let mut w = tiny_world(seed);
            w.run_until(SimTime::from_secs(8));
            (
                w.phc_spread(SimTime::from_secs(8)),
                w.synctime_spread(SimTime::from_secs(8)),
                w.gm_spread(SimTime::from_secs(8)),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    /// Handles queued events until `events` have been processed.
    fn step_to(w: &mut World, events: u64) {
        while w.events_processed() < events {
            let (now, ev) = w.queue.pop().expect("run ended early");
            w.handle(now, ev);
        }
    }

    /// Ports on the wire whose completion nobody has asked for yet:
    /// `(port, reserved seq)`.
    fn unclaimed_wakes(w: &World) -> Vec<(PortAddr, u64)> {
        let busy = w.egress.live_ports().filter(|(_, p)| p.is_busy(w.now()));
        busy.filter_map(|(addr, p)| Some((addr, p.unclaimed_wake_seq()?)))
            .collect()
    }

    #[test]
    fn restore_materialises_a_wake_up_the_snapshot_only_reserved() {
        let mut cfg = TestbedConfig::quick(5);
        cfg.warmup = Nanos::from_secs(1);
        cfg.duration = Nanos::from_secs(2);
        let end = SimTime::ZERO + cfg.warmup + cfg.duration;

        // Cold run, event by event: find the first event that queues a
        // frame behind one in flight, i.e. claims a wake-up that until
        // then was only a reserved number on the port.
        let mut cold = World::new(cfg.clone());
        let (before, port, seq) = loop {
            let pending = unclaimed_wakes(&cold);
            let before = cold.events_processed();
            step_to(&mut cold, before + 1);
            let claimed = pending.into_iter().find(|&(addr, _)| {
                let p = cold.egress.get(addr).expect("live port");
                p.is_busy(cold.now()) && p.unclaimed_wake_seq().is_none()
            });
            if let Some((addr, seq)) = claimed {
                break (before, addr, seq);
            }
            assert!(cold.now() < end, "no frame ever queued behind another");
        };
        cold.run_until(end);

        // Snapshot just before that event: the wake-up is in no queue.
        let mut warm = World::new(cfg.clone());
        step_to(&mut warm, before);
        assert!(unclaimed_wakes(&warm).contains(&(port, seq)));
        let snap = warm.snapshot();
        let decoded = WorldSnapshot::decode(&snap.encode()).expect("own encoding");
        let mut restored = World::restore(cfg, &decoded).expect("own snapshot");
        assert_eq!(restored.state_hash(), warm.state_hash());
        // The restored world has to insert the event itself, under the
        // restored number — and ends where the cold run ends.
        step_to(&mut restored, before + 1);
        assert!(!unclaimed_wakes(&restored).contains(&(port, seq)));
        restored.run_until(end);
        assert_eq!(restored.events_processed(), cold.events_processed());
        assert_eq!(restored.state_hash(), cold.state_hash());
        let series = |w: World| format!("{:?}", w.into_result().series);
        assert_eq!(series(restored), series(cold));
    }

    #[test]
    fn vm_diagnostics_shape() {
        let mut w = tiny_world(5);
        w.run_until(SimTime::from_secs(3));
        let d = w.vm_diagnostics(SimTime::from_secs(3));
        assert_eq!(d.len(), 8); // 4 nodes × 2 VMs
        assert!(d.iter().all(|(_, _, _, _, _, _, _, running)| *running));
    }
}
