//! Testbed construction: the paper's Fig. 2, built from a configuration.
//!
//! Topology (paper §III-A1): `N` ECDs, each with an integrated TSN switch;
//! switch ports 0 and 1 connect the node's two clock-sync VM NICs, the
//! remaining ports form a full mesh with the other switches. gPTP domain
//! `x` is rooted at VM(x, 0); its static external port configuration is
//! the 2-level tree `GM → sw_x → {sw_y} → VMs`.
//!
//! [`Testbed::build`] draws everything the seed decides before the first
//! event — link and residence latencies, oscillators, clock epochs, the
//! fault schedule, the fabric's hops — and splits every RNG stream of the
//! run. It returns the simulated hardware and software, none of the
//! scheduling: the [`World`](crate::World) adds the queue and drives them.

use crate::config::{HypMonitorMode, TestbedConfig};
use crate::densemap::DevMap;
use crate::node::{MultiDomainNode, NodeConfig};
use rand::rngs::StdRng;
use rand::Rng;
use tsn_election::NodeElection;
use tsn_fabric::Fabric;
use tsn_faults::{FaultEvent, FaultSchedule, TransientFaults};
use tsn_gptp::{log2_interval, Bridge, ClockIdentity};
use tsn_hyp::HypNode;
use tsn_metrics::BoundsReport;
use tsn_netsim::{
    DelayModel, DeviceId, LinkDownWindow, LinkFaultPlan, LinkLayer, MacAddr, Nic, PortNo,
    SeedSplitter, Switch, Topology,
};
use tsn_snapshot::{snap_state, Reader, SnapError, SnapState, Writer};
use tsn_time::{ClockTime, Nanos, Oscillator, Phc, SimTime};

/// VLAN used by the measurement probes.
pub(crate) const MEASUREMENT_VID: u16 = 100;

/// One clock-synchronization VM.
pub(crate) struct VmState {
    pub(crate) nic_device: DeviceId,
    pub(crate) nic: Nic,
    pub(crate) osc: Oscillator,
    pub(crate) running: bool,
    pub(crate) compromised: bool,
    /// Index into the attack plan of the strike that compromised this
    /// VM; drives the per-tick Byzantine strategy offset.
    pub(crate) strike_idx: Option<usize>,
    /// The VM's gPTP software: `M` per-domain instances, `FTSHMEM`,
    /// servo, peer delay, election.
    pub(crate) ptp: MultiDomainNode,
}

/// One ECD.
pub(crate) struct NodeState {
    pub(crate) host_phc: Phc,
    pub(crate) host_osc: Oscillator,
    pub(crate) vms: Vec<VmState>,
    /// The hypervisor side: dependent clock, monitor, each VM's `phc2sys`.
    pub(crate) hyp: HypNode,
}

/// One integrated TSN switch.
pub(crate) struct SwitchState {
    pub(crate) device: DeviceId,
    /// The switch's PHC behind its timestamping unit.
    pub(crate) clock: Nic,
    pub(crate) osc: Oscillator,
    pub(crate) fabric: Switch,
    /// The switch's gPTP software: relays, peer delay, Announce relay.
    pub(crate) bridge: Bridge,
}

/// Every part of one run's testbed, as [`Testbed::build`] made it.
pub struct Testbed {
    pub(crate) topo: Topology,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) switches: Vec<SwitchState>,
    /// Station device → (node, vm slot).
    pub(crate) station_map: DevMap<(usize, usize)>,
    /// Switch device → switch index.
    pub(crate) switch_map: DevMap<usize>,
    /// Every cable, its faults and down windows (plan plus partition).
    pub(crate) links: LinkLayer,
    /// Multi-hop switch fabric between the integrated switches; `None`
    /// keeps the paper's direct mesh (and is byte-identical to a build
    /// without the fabric subsystem).
    pub(crate) fabric: Option<Fabric>,
    /// VM shutdown/reboot events, times relative to the warm-up end.
    pub(crate) schedule: Vec<FaultEvent>,
    pub(crate) transient: TransientFaults<StdRng>,
    /// The stream every per-frame draw comes from, in pop order.
    pub(crate) frame_rng: StdRng,
}

impl Testbed {
    /// Builds the testbed from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TestbedConfig::validate`]).
    // Parallel index-addressed structures (stations per node/slot, mesh
    // ports per switch pair) read more clearly with explicit indices.
    #[allow(clippy::needless_range_loop)]
    pub fn build(cfg: &TestbedConfig) -> Self {
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
        let warmup_end = SimTime::ZERO + cfg.warmup;
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
                });
            }
            nodes.push(NodeState {
                host_phc,
                host_osc,
                vms,
                hyp: HypNode::new(
                    vpn,
                    cfg.monitor,
                    cfg.monitor_mode == HypMonitorMode::Voting,
                    cfg.sync_clock_discipline,
                    cfg.phc2sys_interval,
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
            let mut clock = Nic::new(MacAddr::for_nic(dev.0 as u32), phc);
            clock.ts_jitter = cfg.ts_jitter;
            let res_lo = cfg.residence_min.as_nanos();
            let res_hi = cfg.residence_max.as_nanos().max(res_lo + 1);
            let residence = DelayModel {
                base: Nanos::from_nanos(res_rng.gen_range(res_lo..res_hi)),
                jitter_max: cfg.residence_jitter,
            };
            let mut fabric = Switch::new(&format!("sw{}", x + 1), residence);
            // Measurement VLAN: spanning tree rooted at the measurement
            // node's switch (static FDB → known probe paths). The root
            // takes probes in from the measurement VM (port 1) and sends
            // them down every mesh port; the others take them in from
            // the root and hand them to their VMs.
            let m = cfg.measurement_node;
            let mesh = |y: usize| PortNo(mesh_port[x][y].expect("mesh port"));
            let (ingress, egress): (PortNo, Vec<PortNo>) = if x == m {
                (PortNo(1), (0..n).filter(|&y| y != x).map(mesh).collect())
            } else {
                (mesh(m), (0..vpn as u8).map(PortNo).collect())
            };
            for &p in egress.iter().chain([&ingress]) {
                fabric.fdb.add_vlan_member(MEASUREMENT_VID, p);
            }
            fabric
                .fdb
                .add_static_entry(MEASUREMENT_VID, MacAddr::PTP_MULTICAST, &egress);

            switches.push(SwitchState {
                device: dev,
                clock,
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

        // Link faults: the plan's down windows plus the partition (every
        // inter-switch link incident to the partitioned node's switch)
        // become one window list the control events index into.
        let plan = cfg.link_faults.clone().unwrap_or_else(LinkFaultPlan::none);
        let mut partition = Vec::new();
        if let Some(p) = cfg.partition {
            let sw_dev = switch_ids[p.node];
            for (link, l) in topo.links().iter().enumerate() {
                let inter_switch =
                    switch_map.contains_key(l.a.device) && switch_map.contains_key(l.b.device);
                if inter_switch && (l.a.device == sw_dev || l.b.device == sw_dev) {
                    let (from, until) = (p.from, p.until);
                    partition.push(LinkDownWindow { link, from, until });
                }
            }
        }
        let links = LinkLayer::new(&topo, plan, partition, seeds.rng("linkfaults"), warmup_end);

        let transient = TransientFaults::new(cfg.transient, seeds.rng("transient"));
        let frame_rng = seeds.rng("frames");
        // Fabric streams are drawn only when the fabric is enabled, and
        // strictly after every pre-existing stream, so `fabric = None`
        // runs stay byte-identical to the pre-fabric build.
        let fabric = cfg.fabric.map(|fc| {
            let mut fabric_link_rng = seeds.rng("fabric/links");
            Fabric::new(fc, n, &mut fabric_link_rng, seeds.rng("fabric/xtraffic"))
        });
        Testbed {
            topo,
            nodes,
            switches,
            station_map,
            switch_map,
            links,
            fabric,
            schedule,
            transient,
            frame_rng,
        }
    }

    /// The paper's bounds (Π, E, γ, …) for this testbed's drawn path
    /// delays. Π = u(N, f)(E + Γ) takes the run's own `f`
    /// ([`AggregationMethod::f`](tsn_fta::AggregationMethod::f)); mean
    /// and median keep the paper's f = 1, so ABL1 compares one Π.
    pub(crate) fn bounds(&self, cfg: &TestbedConfig) -> BoundsReport {
        let res_min = cfg.residence_min;
        let res_max = cfg.residence_max + cfg.residence_jitter;
        let stations: Vec<DeviceId> = self.topo.stations().collect();
        let mut all = Vec::new();
        for &a in &stations {
            for &b in &stations {
                if a != b {
                    if let Some(p) = self.topo.path_delay_bounds(a, b, res_min, res_max) {
                        all.push(self.widen_for_fabric(cfg, a, b, p));
                    }
                }
            }
        }
        let m = cfg.measurement_node;
        let sender = self.nodes[m].vms[1].nic_device;
        let mut meas = Vec::new();
        for (dev, (node, _)) in self.station_map.iter() {
            if node != m {
                if let Some(p) = self.topo.path_delay_bounds(sender, dev, res_min, res_max) {
                    meas.push(p);
                }
            }
        }
        let f = cfg.aggregation.method.f().unwrap_or(1);
        BoundsReport::derive(cfg.nodes, f, cfg.r_max_ppb, cfg.sync_interval, &all, &meas)
    }

    /// Widens a station-pair path-delay bound by the fabric's extra
    /// inter-switch contribution when the stations sit on different
    /// nodes. Measurement-probe paths are *not* widened: probes bypass
    /// the fabric (statically pinned, calibrated paths).
    fn widen_for_fabric(
        &self,
        cfg: &TestbedConfig,
        a: DeviceId,
        b: DeviceId,
        p: (Nanos, Nanos),
    ) -> (Nanos, Nanos) {
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
        let (lo, hi) = fab.path_bounds(na, nb, ser_ns, cfg.nodes as i64);
        (p.0 + lo, p.1 + hi)
    }
}

// `nic_device` and NIC static parameters (MAC, jitter model, line rate)
// come from configuration.
snap_state!(VmState {
    nic.phc: state,
    osc: state,
    running,
    compromised,
    strike_idx,
    ptp: state,
});

// Hand-written: each VM's `phc2sys` state lives in the node's `HypNode`
// but travels right behind the VM's own, where it was when the VM held
// it — moving it would change every state hash.
impl SnapState for NodeState {
    fn save_state(&self, w: &mut Writer) {
        self.host_phc.save_state(w);
        self.host_osc.save_state(w);
        for (slot, vm) in self.vms.iter().enumerate() {
            vm.save_state(w);
            self.hyp.vm_state(slot).save_state(w);
        }
        self.hyp.save_state(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.host_phc.load_state(r)?;
        self.host_osc.load_state(r)?;
        for (slot, vm) in self.vms.iter_mut().enumerate() {
            vm.load_state(r)?;
            self.hyp.vm_state_mut(slot).load_state(r)?;
        }
        self.hyp.load_state(r)
    }
}

// The forwarding fabric (FDB, residence model) is static configuration.
snap_state!(SwitchState {
    clock.phc: state,
    osc: state,
    bridge: state,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionWindow;
    use crate::scenario::ScenarioKind;
    use tsn_netsim::{Crossing, PortAddr};

    fn state_of(s: &impl SnapState) -> Vec<u8> {
        let mut w = Writer::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    /// What a seed decides besides the cables: clocks and engines, the
    /// fault schedule, the first draws of the run's streams.
    fn drawn(tb: &mut Testbed) -> (Vec<Vec<u8>>, Vec<FaultEvent>, [u64; 2]) {
        let nodes = tb.nodes.iter().map(state_of);
        let switches = tb.switches.iter().map(state_of);
        let states = nodes.chain(switches).chain([state_of(&tb.transient)]);
        let draws = [tb.frame_rng.gen(), tb.frame_rng.gen()];
        (states.collect(), tb.schedule.clone(), draws)
    }

    #[test]
    fn building_twice_from_one_config_gives_the_same_testbed() {
        let mut cfg = TestbedConfig::paper_default(11);
        cfg.duration = Nanos::from_secs(2 * 3600);
        ScenarioKind::FaultInjection.apply(&mut cfg);
        cfg.partition = Some(PartitionWindow {
            node: 2,
            from: Nanos::from_secs(1),
            until: Nanos::from_secs(2),
        });
        let (mut a, mut b) = (Testbed::build(&cfg), Testbed::build(&cfg));
        assert_eq!(a.links, b.links, "port tables, fault plan, windows");
        assert!(!a.schedule.is_empty());
        assert_eq!(drawn(&mut a), drawn(&mut b));
        // Another seed draws other cables, clocks and faults.
        cfg.seed = 12;
        let mut c = Testbed::build(&cfg);
        assert_ne!(a.links, c.links);
        let (a, c) = (drawn(&mut Testbed::build(&cfg)), drawn(&mut c));
        assert_eq!(a, c);
        assert_ne!(a, drawn(&mut b));
    }

    #[test]
    fn fig2_wiring_two_vms_per_switch_and_a_full_mesh() {
        let cfg = TestbedConfig::paper_default(3);
        let mut tb = Testbed::build(&cfg);
        let (n, vpn) = (cfg.nodes, cfg.vms_per_node);
        assert_eq!(tb.topo.stations().count(), n * vpn);
        assert_eq!(tb.topo.links().len(), n * vpn + n * (n - 1) / 2);
        assert_eq!(tb.links.port_space(), (n * vpn + n, vpn + n - 1));
        // VM (node, slot) hangs off port `slot` of its node's switch.
        let mut rng = tb.frame_rng.clone();
        for (node, slot) in [(0, 0), (2, 1)] {
            let nic = PortAddr::new(tb.nodes[node].vms[slot].nic_device, 0);
            let at_switch = PortAddr::new(tb.switches[node].device, slot as u8);
            match tb.links.cross(SimTime::ZERO, nic, &mut rng) {
                Crossing::Arrives { to, .. } => assert_eq!(to, at_switch),
                lost => panic!("{lost:?}"),
            }
            assert_eq!(tb.station_map.get(nic.device), Some((node, slot)));
            assert_eq!(tb.switch_map.get(at_switch.device), Some(node));
        }
        // A partition cuts the n - 1 mesh links of one switch.
        assert!(tb.links.windows().is_empty());
        let mut cut = cfg.clone();
        cut.partition = Some(PartitionWindow {
            node: 1,
            from: Nanos::ZERO,
            until: Nanos::from_secs(1),
        });
        let windows = Testbed::build(&cut).links.windows().to_vec();
        assert_eq!(windows.len(), n - 1);
        let links = tb.topo.links();
        let sw = tb.switches[1].device;
        assert!(windows
            .iter()
            .all(|w| links[w.link].a.device == sw || links[w.link].b.device == sw));
    }
}
