//! External port configuration (IEEE 802.1AS-2020 clause 10.3.1.3).
//!
//! The paper disables BMCA and statically assigns port roles per domain:
//! "we configured four distinct gPTP domains dom1..dom4 with spatially
//! separated GM clocks" and "provided a static port configuration for all
//! gPTP domains that allow for a redundant path between all virtual and
//! physical nodes". This module carries those static role tables and can
//! derive them from a topology spanning tree.

use crate::bmca::PortRole;
use std::collections::{BTreeMap, HashMap, VecDeque};
use tsn_netsim::{DeviceId, DeviceKind, Topology};

/// Static role assignment for one device's ports within one domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DevicePortRoles {
    roles: BTreeMap<u16, PortRole>,
}

impl DevicePortRoles {
    /// Creates an empty role table (all ports implicitly Disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `role` to `port`.
    ///
    /// # Panics
    ///
    /// Panics if a second Slave port is configured — a time-aware system
    /// has at most one slave port per domain.
    pub fn set(&mut self, port: u16, role: PortRole) {
        if role == PortRole::Slave {
            assert!(
                !self.roles.values().any(|r| *r == PortRole::Slave),
                "a domain allows at most one slave port per device"
            );
        }
        self.roles.insert(port, role);
    }

    /// The role of `port` (Disabled if unconfigured).
    pub fn role(&self, port: u16) -> PortRole {
        self.roles.get(&port).copied().unwrap_or(PortRole::Disabled)
    }

    /// The slave port, if one is configured.
    pub fn slave_port(&self) -> Option<u16> {
        self.roles
            .iter()
            .find(|(_, r)| **r == PortRole::Slave)
            .map(|(p, _)| *p)
    }

    /// All master ports, in ascending order.
    pub fn master_ports(&self) -> Vec<u16> {
        self.roles
            .iter()
            .filter(|(_, r)| **r == PortRole::Master)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Iterates over all configured `(port, role)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, PortRole)> + '_ {
        self.roles.iter().map(|(p, r)| (*p, *r))
    }
}

/// Derives a complete external port configuration for one gPTP domain
/// from a topology: a BFS spanning tree rooted at the grandmaster's
/// station. Tree links get Master (upstream side) / Slave (downstream
/// side) roles; redundant non-tree links are blocked with Passive on
/// both ends — exactly the static role tables the paper configures for
/// its four domains over the redundant mesh.
///
/// # Panics
///
/// Panics if `gm_station` is not a station of `topo`.
pub fn derive_external_port_configuration(
    topo: &Topology,
    gm_station: DeviceId,
) -> HashMap<DeviceId, DevicePortRoles> {
    assert_eq!(
        topo.kind(gm_station),
        DeviceKind::Station,
        "grandmaster must be a station"
    );
    let mut roles: HashMap<DeviceId, DevicePortRoles> = HashMap::new();
    let mut visited: HashMap<DeviceId, ()> = HashMap::new();
    let mut queue = VecDeque::new();
    visited.insert(gm_station, ());
    queue.push_back(gm_station);
    // BFS: mark tree links with Master on the upstream port and Slave on
    // the downstream port.
    while let Some(dev) = queue.pop_front() {
        if dev != gm_station && topo.kind(dev) != DeviceKind::Bridge {
            continue; // stations do not forward
        }
        for port in topo.wired_ports(dev) {
            let peer = topo.peer(port).expect("wired port");
            if visited.contains_key(&peer.device) {
                continue;
            }
            visited.insert(peer.device, ());
            roles
                .entry(dev)
                .or_default()
                .set(u16::from(port.port.0), PortRole::Master);
            roles
                .entry(peer.device)
                .or_default()
                .set(u16::from(peer.port.0), PortRole::Slave);
            queue.push_back(peer.device);
        }
    }
    // Remaining wired ports (redundant links) become Passive.
    for dev in topo.devices() {
        for port in topo.wired_ports(dev) {
            let entry = roles.entry(dev).or_default();
            if entry.role(u16::from(port.port.0)) == PortRole::Disabled {
                entry.set(u16::from(port.port.0), PortRole::Passive);
            }
        }
    }
    roles
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_netsim::DelayModel;
    use tsn_time::Nanos;

    #[test]
    fn roles_roundtrip() {
        let mut r = DevicePortRoles::new();
        r.set(1, PortRole::Slave);
        r.set(2, PortRole::Master);
        r.set(3, PortRole::Passive);
        assert_eq!(r.role(1), PortRole::Slave);
        assert_eq!(r.role(9), PortRole::Disabled);
        assert_eq!(r.slave_port(), Some(1));
        assert_eq!(r.master_ports(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "at most one slave port")]
    fn two_slave_ports_rejected() {
        let mut r = DevicePortRoles::new();
        r.set(1, PortRole::Slave);
        r.set(2, PortRole::Slave);
    }

    #[test]
    fn grandmaster_has_no_slave_port() {
        let mut r = DevicePortRoles::new();
        r.set(1, PortRole::Master);
        assert_eq!(r.slave_port(), None);
    }

    /// The paper's per-domain shape over a redundant mesh: a spanning
    /// tree rooted at the GM with the redundant mesh links blocked.
    #[test]
    fn spanning_tree_over_redundant_mesh() {
        let mut topo = Topology::new();
        let d = DelayModel::constant(Nanos::from_micros(2));
        let gm = topo.add_station("gm");
        let client = topo.add_station("client");
        let sws = topo.full_mesh_bridges(3, 2, d); // 3 mesh links, 1 redundant
        topo.connect(topo.port(gm, 0), topo.port(sws[0], 0), d, d);
        topo.connect(topo.port(client, 0), topo.port(sws[2], 0), d, d);

        let roles = derive_external_port_configuration(&topo, gm);
        // GM's single port masters the tree.
        assert_eq!(roles[&gm].role(0), PortRole::Master);
        // The client's port is a slave.
        assert_eq!(roles[&client].role(0), PortRole::Slave);
        // The root switch hears the GM on a slave port.
        assert_eq!(roles[&sws[0]].role(0), PortRole::Slave);
        // Exactly one slave port per device, and at least one Passive
        // port exists somewhere (the redundant mesh link).
        let mut passives = 0;
        for (_, r) in roles.iter() {
            let slaves = r
                .iter()
                .filter(|(_, role)| *role == PortRole::Slave)
                .count();
            assert!(slaves <= 1);
            passives += r
                .iter()
                .filter(|(_, role)| *role == PortRole::Passive)
                .count();
        }
        assert_eq!(passives, 2, "one redundant link = two passive ports");
        // Every wired port got a role.
        for dev in topo.devices() {
            for port in topo.wired_ports(dev) {
                assert_ne!(roles[&dev].role(u16::from(port.port.0)), PortRole::Disabled);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grandmaster must be a station")]
    fn bridge_as_gm_rejected() {
        let mut topo = Topology::new();
        let sw = topo.add_bridge("sw");
        derive_external_port_configuration(&topo, sw);
    }
}
