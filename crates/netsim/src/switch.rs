//! VLAN-aware TSN switch fabric model.
//!
//! Models the *relay function* of the integrated Linux TSN switches: VLAN
//! membership filtering, a static filtering database for multicast groups
//! (the measurement VLAN uses static entries so probe paths are known, per
//! the paper's methodology), flooding within a VLAN as fallback, and a
//! store-and-forward residence delay per hop.
//!
//! gPTP frames (destination `01:80:C2:00:00:0E`) are link-local and are
//! **not** forwarded by the fabric: the per-domain time-aware bridge
//! engines in `tsn-gptp` receive and regenerate them with updated
//! correction fields.

use crate::frame::{EthernetFrame, MacAddr};
use crate::topology::{DelayModel, PortNo};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use tsn_time::Nanos;

/// VLAN id type alias (12-bit).
pub type Vid = u16;

/// Static filtering database and VLAN membership of one switch.
#[derive(Debug, Clone, Default)]
pub struct Fdb {
    /// Ports that are members of each VLAN.
    vlan_members: BTreeMap<Vid, BTreeSet<PortNo>>,
    /// Static multicast entries: (vid, group) → egress ports.
    static_entries: BTreeMap<(Vid, MacAddr), BTreeSet<PortNo>>,
}

impl Fdb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Fdb::default()
    }

    /// Adds `port` to `vid`'s member set.
    pub fn add_vlan_member(&mut self, vid: Vid, port: PortNo) {
        self.vlan_members.entry(vid).or_default().insert(port);
    }

    /// Installs a static multicast entry restricting `(vid, group)` to the
    /// given egress ports.
    pub fn add_static_entry(&mut self, vid: Vid, group: MacAddr, ports: &[PortNo]) {
        self.static_entries
            .entry((vid, group))
            .or_default()
            .extend(ports.iter().copied());
    }

    /// Ports member of `vid` (empty if the VLAN is not configured).
    pub fn vlan_members(&self, vid: Vid) -> impl Iterator<Item = PortNo> + '_ {
        self.vlan_members.get(&vid).into_iter().flatten().copied()
    }

    fn static_ports(&self, vid: Vid, group: MacAddr) -> Option<&BTreeSet<PortNo>> {
        self.static_entries.get(&(vid, group))
    }
}

/// Store-and-forward switch model.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Human-readable name (e.g. `sw1`).
    pub name: String,
    /// Residence (processing + queuing) delay per forwarded frame.
    pub residence: DelayModel,
    /// Filtering database.
    pub fdb: Fdb,
    /// Untagged default VLAN for ingress of untagged frames.
    pub default_vid: Vid,
}

impl Switch {
    /// Creates a switch with the given residence model and default VLAN 1.
    pub fn new(name: &str, residence: DelayModel) -> Self {
        Switch {
            name: name.to_owned(),
            residence,
            fdb: Fdb::new(),
            default_vid: 1,
        }
    }

    /// Computes the egress set for a frame entering on `ingress`.
    ///
    /// Returns `(egress port, residence delay)` pairs; an empty vector
    /// means the frame is filtered (or link-local).
    pub fn forward<R: Rng + ?Sized>(
        &self,
        ingress: PortNo,
        frame: &EthernetFrame,
        rng: &mut R,
    ) -> Vec<(PortNo, Nanos)> {
        // Link-local (gPTP) frames terminate at the bridge.
        if frame.dst == MacAddr::GPTP_MULTICAST {
            return Vec::new();
        }
        let vid = frame.vlan.map_or(self.default_vid, |t| t.vid);
        let members: BTreeSet<PortNo> = self.fdb.vlan_members(vid).collect();
        if !members.contains(&ingress) {
            return Vec::new(); // ingress filtering: not a member
        }
        let egress: Vec<PortNo> = match self.fdb.static_ports(vid, frame.dst) {
            Some(ports) => ports
                .iter()
                .copied()
                .filter(|p| *p != ingress && members.contains(p))
                .collect(),
            None => members.into_iter().filter(|p| *p != ingress).collect(),
        };
        egress
            .into_iter()
            .map(|p| (p, self.residence.sample(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ethertype, VlanTag};
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frame(dst: MacAddr, vlan: Option<VlanTag>) -> EthernetFrame {
        EthernetFrame {
            dst,
            src: MacAddr::for_nic(9),
            vlan,
            ethertype: ethertype::MEASUREMENT,
            payload: Bytes::from_static(b"probe"),
        }
    }

    fn switch_with_vlan(vid: Vid, ports: &[u8]) -> Switch {
        let mut sw = Switch::new("sw", DelayModel::constant(Nanos::from_micros(1)));
        for &p in ports {
            sw.fdb.add_vlan_member(vid, PortNo(p));
        }
        sw
    }

    #[test]
    fn floods_within_vlan_except_ingress() {
        let sw = switch_with_vlan(100, &[0, 1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(
            PortNo(0),
            &frame(MacAddr::PTP_MULTICAST, Some(VlanTag::new(6, 100))),
            &mut rng,
        );
        let ports: Vec<u8> = out.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![1, 2, 3]);
    }

    #[test]
    fn non_member_vlan_filtered() {
        let sw = switch_with_vlan(100, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(
            PortNo(0),
            &frame(MacAddr::PTP_MULTICAST, Some(VlanTag::new(6, 200))),
            &mut rng,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn ingress_must_be_member() {
        let sw = switch_with_vlan(100, &[1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(
            PortNo(0),
            &frame(MacAddr::PTP_MULTICAST, Some(VlanTag::new(6, 100))),
            &mut rng,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn static_entry_restricts_egress() {
        let mut sw = switch_with_vlan(100, &[0, 1, 2, 3]);
        sw.fdb
            .add_static_entry(100, MacAddr::PTP_MULTICAST, &[PortNo(2)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(
            PortNo(0),
            &frame(MacAddr::PTP_MULTICAST, Some(VlanTag::new(6, 100))),
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(2));
    }

    #[test]
    fn gptp_multicast_is_link_local() {
        let sw = switch_with_vlan(1, &[0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(PortNo(0), &frame(MacAddr::GPTP_MULTICAST, None), &mut rng);
        assert!(out.is_empty());
    }

    #[test]
    fn untagged_uses_default_vid() {
        let mut sw = switch_with_vlan(1, &[0, 1]);
        sw.default_vid = 1;
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(PortNo(0), &frame(MacAddr::BROADCAST, None), &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(1));
    }

    #[test]
    fn residence_delay_attached() {
        let sw = switch_with_vlan(1, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(PortNo(0), &frame(MacAddr::BROADCAST, None), &mut rng);
        assert_eq!(out[0].1, Nanos::from_micros(1));
    }

    /// A VLAN configured with no members admits nothing: even the
    /// flood fallback yields an empty egress set.
    #[test]
    fn zero_member_vlan_floods_nowhere() {
        let sw = switch_with_vlan(100, &[]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sw.forward(
            PortNo(0),
            &frame(MacAddr::PTP_MULTICAST, Some(VlanTag::new(6, 100))),
            &mut rng,
        );
        assert!(out.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// An arbitrary switch: a handful of VLANs with random member
        /// sets and an optional static entry for the probe group.
        fn arb_switch() -> impl Strategy<Value = Switch> {
            (
                proptest::collection::vec((1u16..8, proptest::collection::vec(0u8..8, 0..6)), 0..4),
                proptest::option::of((1u16..8, proptest::collection::vec(0u8..8, 0..4))),
                1u16..8,
            )
                .prop_map(|(vlans, static_entry, default_vid)| {
                    let mut sw = Switch::new("prop", DelayModel::constant(Nanos::from_micros(1)));
                    sw.default_vid = default_vid;
                    for (vid, ports) in vlans {
                        for p in ports {
                            sw.fdb.add_vlan_member(vid, PortNo(p));
                        }
                    }
                    if let Some((vid, ports)) = static_entry {
                        let ports: Vec<PortNo> = ports.into_iter().map(PortNo).collect();
                        sw.fdb.add_static_entry(vid, MacAddr::PTP_MULTICAST, &ports);
                    }
                    sw
                })
        }

        fn arb_frame() -> impl Strategy<Value = EthernetFrame> {
            (
                prop_oneof![
                    Just(MacAddr::PTP_MULTICAST),
                    Just(MacAddr::BROADCAST),
                    Just(MacAddr::GPTP_MULTICAST),
                    (0u32..16).prop_map(MacAddr::for_nic),
                ],
                proptest::option::of((0u8..8, 1u16..10)),
            )
                .prop_map(|(dst, vlan)| frame(dst, vlan.map(|(pcp, vid)| VlanTag::new(pcp, vid))))
        }

        proptest! {
            /// The relay function never hairpins: no egress pair ever
            /// names the ingress port, whatever the FDB looks like.
            #[test]
            fn forward_never_returns_the_ingress_port(
                sw in arb_switch(),
                f in arb_frame(),
                ingress in 0u8..8,
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = sw.forward(PortNo(ingress), &f, &mut rng);
                prop_assert!(
                    out.iter().all(|(p, _)| *p != PortNo(ingress)),
                    "hairpinned back to ingress: {out:?}"
                );
            }

            /// VLAN isolation: every egress port is a member of the
            /// frame's (effective) VLAN, and a non-member ingress is
            /// always filtered — static entries cannot punch through
            /// membership.
            #[test]
            fn forward_never_leaves_the_vlan(
                sw in arb_switch(),
                f in arb_frame(),
                ingress in 0u8..8,
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = sw.forward(PortNo(ingress), &f, &mut rng);
                let vid = f.vlan.map_or(sw.default_vid, |t| t.vid);
                let members: Vec<PortNo> = sw.fdb.vlan_members(vid).collect();
                if !members.contains(&PortNo(ingress)) {
                    prop_assert!(out.is_empty(), "non-member ingress must filter");
                }
                for (p, _) in &out {
                    prop_assert!(
                        members.contains(p),
                        "egress {p:?} is not a member of VLAN {vid}"
                    );
                }
            }
        }
    }
}
