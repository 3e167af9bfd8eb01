//! Network topology: devices, ports, links, and path-delay bounds.
//!
//! A topology is a graph of *stations* (NIC endpoints — one per
//! clock-synchronization VM passthrough NIC) and *bridges* (the
//! integrated TSN switches), connected by full-duplex links with
//! per-direction delay models.
//!
//! Link delays have a static component (drawn once per experiment,
//! modeling cable length, PHY latency and switch port pipelines) plus
//! per-frame jitter. The static spread across links is what produces the
//! paper's reading error `E = d_max − d_min`; the per-frame jitter feeds
//! the measurement error γ.

use crate::frame::MacAddr;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use tsn_time::Nanos;

/// Identifies a device (station or bridge) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// A port number local to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortNo(pub u8);

/// A fully-qualified port address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortAddr {
    /// The device owning the port.
    pub device: DeviceId,
    /// The port number on that device.
    pub port: PortNo,
}

impl PortAddr {
    /// Convenience constructor.
    pub const fn new(device: DeviceId, port: u8) -> Self {
        PortAddr {
            device,
            port: PortNo(port),
        }
    }
}

impl fmt::Display for PortAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}:p{}", self.device.0, self.port.0)
    }
}

/// Identifies a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Kind of device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// An end station (a NIC owned by one VM).
    Station,
    /// A TSN bridge (integrated switch).
    Bridge,
}

/// One-way link delay model: fixed static latency plus uniform per-frame
/// jitter in `[0, jitter_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Static latency (cable + PHY + fixed pipeline).
    pub base: Nanos,
    /// Exclusive upper bound of the uniform per-frame jitter.
    pub jitter_max: Nanos,
}

impl DelayModel {
    /// A constant delay with no jitter.
    pub const fn constant(base: Nanos) -> Self {
        DelayModel {
            base,
            jitter_max: Nanos::ZERO,
        }
    }

    /// Samples one frame's delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Nanos {
        if self.jitter_max > Nanos::ZERO {
            self.base + Nanos::from_nanos(rng.gen_range(0..self.jitter_max.as_nanos()))
        } else {
            self.base
        }
    }

    /// Minimum possible delay.
    pub fn min(&self) -> Nanos {
        self.base
    }

    /// Maximum possible delay (inclusive bound used for worst-case math).
    pub fn max(&self) -> Nanos {
        self.base + self.jitter_max
    }
}

/// A full-duplex link between two ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// First endpoint.
    pub a: PortAddr,
    /// Second endpoint.
    pub b: PortAddr,
    /// Delay model in the `a → b` direction.
    pub delay_ab: DelayModel,
    /// Delay model in the `b → a` direction.
    pub delay_ba: DelayModel,
}

impl Link {
    /// The delay model for traffic leaving `from` on this link.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn delay_from(&self, from: PortAddr) -> &DelayModel {
        if from == self.a {
            &self.delay_ab
        } else if from == self.b {
            &self.delay_ba
        } else {
            panic!("{from} is not an endpoint of this link");
        }
    }

    /// The opposite endpoint of `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn peer_of(&self, from: PortAddr) -> PortAddr {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of this link");
        }
    }
}

#[derive(Debug, Clone)]
struct Device {
    name: String,
    kind: DeviceKind,
    mac: Option<MacAddr>,
}

/// The network graph.
///
/// # Examples
///
/// ```
/// use tsn_netsim::{Topology, DelayModel};
/// use tsn_time::Nanos;
///
/// let mut topo = Topology::new();
/// let nic = topo.add_station("nic1");
/// let sw = topo.add_bridge("sw1");
/// let d = DelayModel::constant(Nanos::from_micros(2));
/// topo.connect(topo.port(nic, 0), topo.port(sw, 0), d, d);
/// assert_eq!(topo.peer(topo.port(nic, 0)), Some(topo.port(sw, 0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    devices: Vec<Device>,
    links: Vec<Link>,
    port_link: HashMap<PortAddr, LinkId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds an end station, returning its id.
    pub fn add_station(&mut self, name: &str) -> DeviceId {
        let id = DeviceId(self.devices.len());
        self.devices.push(Device {
            name: name.to_owned(),
            kind: DeviceKind::Station,
            mac: Some(MacAddr::for_nic(id.0 as u32)),
        });
        id
    }

    /// Adds a bridge (switch), returning its id.
    pub fn add_bridge(&mut self, name: &str) -> DeviceId {
        let id = DeviceId(self.devices.len());
        self.devices.push(Device {
            name: name.to_owned(),
            kind: DeviceKind::Bridge,
            mac: None,
        });
        id
    }

    /// A port address on `device`.
    pub fn port(&self, device: DeviceId, port: u8) -> PortAddr {
        PortAddr::new(device, port)
    }

    /// Connects two ports with a full-duplex link.
    ///
    /// # Panics
    ///
    /// Panics if either port is already connected or a device id is
    /// unknown.
    pub fn connect(
        &mut self,
        a: PortAddr,
        b: PortAddr,
        delay_ab: DelayModel,
        delay_ba: DelayModel,
    ) -> LinkId {
        assert!(a.device.0 < self.devices.len(), "unknown device {}", a);
        assert!(b.device.0 < self.devices.len(), "unknown device {}", b);
        assert!(!self.port_link.contains_key(&a), "port {a} already wired");
        assert!(!self.port_link.contains_key(&b), "port {b} already wired");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            delay_ab,
            delay_ba,
        });
        self.port_link.insert(a, id);
        self.port_link.insert(b, id);
        id
    }

    /// Device kind.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn kind(&self, id: DeviceId) -> DeviceKind {
        self.devices[id.0].kind
    }

    /// Device display name.
    pub fn name(&self, id: DeviceId) -> &str {
        &self.devices[id.0].name
    }

    /// The station's MAC address (`None` for bridges, which forward on
    /// all ports rather than terminate traffic).
    pub fn mac(&self, id: DeviceId) -> Option<MacAddr> {
        self.devices[id.0].mac
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len()).map(DeviceId)
    }

    /// All station device ids.
    pub fn stations(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices()
            .filter(|&d| self.kind(d) == DeviceKind::Station)
    }

    /// The link attached to a port, if any.
    pub fn link_of(&self, port: PortAddr) -> Option<(LinkId, &Link)> {
        self.port_link.get(&port).map(|&id| (id, &self.links[id.0]))
    }

    /// The port on the other end of `port`'s link, if wired.
    pub fn peer(&self, port: PortAddr) -> Option<PortAddr> {
        self.link_of(port).map(|(_, l)| l.peer_of(port))
    }

    /// Ports of `device` that are wired to something.
    pub fn wired_ports(&self, device: DeviceId) -> Vec<PortAddr> {
        let mut ports: Vec<PortAddr> = self
            .port_link
            .keys()
            .filter(|p| p.device == device)
            .copied()
            .collect();
        ports.sort();
        ports
    }

    /// Shortest path (by hop count, deterministic tie-break on device id)
    /// from station `from` to station `to`, traversing only bridges.
    /// Returns the sequence of links, or `None` if unreachable.
    pub fn shortest_path(&self, from: DeviceId, to: DeviceId) -> Option<Vec<LinkId>> {
        if from == to {
            return Some(Vec::new());
        }
        // BFS over devices; intermediate hops must be bridges.
        let mut prev: HashMap<DeviceId, (DeviceId, LinkId)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(dev) = queue.pop_front() {
            if dev != from && self.kind(dev) != DeviceKind::Bridge {
                continue; // stations do not forward
            }
            // Deterministic neighbor order: by port number.
            for port in self.wired_ports(dev) {
                let (lid, link) = self.link_of(port).expect("wired port has link");
                let peer = link.peer_of(port);
                let nd = peer.device;
                if nd == from || prev.contains_key(&nd) {
                    continue;
                }
                prev.insert(nd, (dev, lid));
                if nd == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, l) = prev[&cur];
                        path.push(l);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(nd);
            }
        }
        None
    }

    /// Min/max one-way delay bounds along the shortest path between two
    /// stations, summing per-link bounds in the traversal direction and a
    /// per-bridge residence bound for each intermediate bridge.
    ///
    /// Returns `None` if the stations are not connected.
    pub fn path_delay_bounds(
        &self,
        from: DeviceId,
        to: DeviceId,
        residence_min: Nanos,
        residence_max: Nanos,
    ) -> Option<(Nanos, Nanos)> {
        let path = self.shortest_path(from, to)?;
        if path.is_empty() {
            return Some((Nanos::ZERO, Nanos::ZERO));
        }
        let mut lo = Nanos::ZERO;
        let mut hi = Nanos::ZERO;
        // Walk the path to know the traversal direction of each link.
        let mut cur = from;
        for lid in &path {
            let link = &self.links[lid.0];
            let (dm, next) = if link.a.device == cur {
                (&link.delay_ab, link.b.device)
            } else {
                (&link.delay_ba, link.a.device)
            };
            lo += dm.min();
            hi += dm.max();
            cur = next;
        }
        let bridges = (path.len() - 1) as i64;
        lo += residence_min * bridges;
        hi += residence_max * bridges;
        Some((lo, hi))
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }
}

tsn_snapshot::snap_struct!(DeviceId { 0 });
tsn_snapshot::snap_struct!(PortNo { 0 });
tsn_snapshot::snap_struct!(PortAddr { device, port });

#[cfg(test)]
mod tests {
    use super::*;

    fn delay(us: i64) -> DelayModel {
        DelayModel::constant(Nanos::from_micros(us))
    }

    /// Two stations on one bridge; a third station two bridges away.
    fn small_topo() -> (Topology, DeviceId, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let n1 = t.add_station("nic1");
        let n2 = t.add_station("nic2");
        let n3 = t.add_station("nic3");
        let sw1 = t.add_bridge("sw1");
        let sw2 = t.add_bridge("sw2");
        t.connect(t.port(n1, 0), t.port(sw1, 0), delay(2), delay(2));
        t.connect(t.port(n2, 0), t.port(sw1, 1), delay(2), delay(2));
        t.connect(t.port(sw1, 2), t.port(sw2, 0), delay(3), delay(3));
        t.connect(t.port(n3, 0), t.port(sw2, 1), delay(2), delay(2));
        (t, n1, n2, n3)
    }

    #[test]
    fn peer_resolution() {
        let (t, n1, _, _) = small_topo();
        let p = t.port(n1, 0);
        let peer = t.peer(p).unwrap();
        assert_eq!(t.kind(peer.device), DeviceKind::Bridge);
        assert_eq!(t.peer(peer), Some(p));
    }

    #[test]
    fn shortest_path_hops() {
        let (t, n1, n2, n3) = small_topo();
        assert_eq!(t.shortest_path(n1, n2).unwrap().len(), 2);
        assert_eq!(t.shortest_path(n1, n3).unwrap().len(), 3);
        assert_eq!(t.shortest_path(n1, n1).unwrap().len(), 0);
    }

    #[test]
    fn stations_do_not_forward() {
        let mut t = Topology::new();
        let a = t.add_station("a");
        let b = t.add_station("b");
        let c = t.add_station("c");
        let d = delay(1);
        // a - b - c in a line through station b: unreachable a→c.
        t.connect(t.port(a, 0), t.port(b, 0), d, d);
        t.connect(t.port(b, 1), t.port(c, 0), d, d);
        assert!(t.shortest_path(a, c).is_none());
        assert_eq!(t.shortest_path(a, b).unwrap().len(), 1);
    }

    #[test]
    fn path_delay_bounds_sum_links_and_residence() {
        let (t, n1, _, n3) = small_topo();
        let (lo, hi) = t
            .path_delay_bounds(n1, n3, Nanos::from_nanos(500), Nanos::from_micros(1))
            .unwrap();
        // Links: 2 + 3 + 2 = 7 µs; 2 intermediate bridges.
        assert_eq!(lo, Nanos::from_micros(7) + Nanos::from_nanos(1000));
        assert_eq!(hi, Nanos::from_micros(7) + Nanos::from_micros(2));
    }

    #[test]
    fn delay_model_sampling_within_bounds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dm = DelayModel {
            base: Nanos::from_micros(2),
            jitter_max: Nanos::from_nanos(300),
        };
        for _ in 0..1000 {
            let d = dm.sample(&mut rng);
            assert!(d >= dm.min() && d < dm.max() + Nanos::from_nanos(1));
        }
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_rejected() {
        let mut t = Topology::new();
        let a = t.add_station("a");
        let b = t.add_station("b");
        let c = t.add_station("c");
        let d = delay(1);
        t.connect(t.port(a, 0), t.port(b, 0), d, d);
        t.connect(t.port(a, 0), t.port(c, 0), d, d);
    }

    #[test]
    fn wired_ports_sorted() {
        let (t, _, _, _) = small_topo();
        let sw1 = DeviceId(3);
        let ports = t.wired_ports(sw1);
        assert_eq!(ports.len(), 3);
        assert!(ports.windows(2).all(|w| w[0] < w[1]));
    }
}
