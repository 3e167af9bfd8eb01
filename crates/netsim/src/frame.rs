//! Ethernet frame model with 802.1Q VLAN tagging.
//!
//! Frames carry real bytes end to end: a gPTP message is encoded by
//! `tsn-gptp`, wrapped in an Ethernet frame here, forwarded by switches,
//! and decoded again at the receiver. A Byzantine grandmaster therefore
//! corrupts *wire bytes*, exactly like the paper's malicious `ptp4l`.
//!
//! A payload is a `Box<[u8]>` with one owner from encode to drop: a
//! switch that forwards a frame to several ports copies it for all but
//! the last, and the fabric patches a Follow_Up's correction field in
//! place.

use std::fmt;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The gPTP link-local multicast address `01:80:C2:00:00:0E`
    /// (IEEE 802.1AS clause 10.4.3, non-forwardable by ordinary bridges;
    /// time-aware bridges regenerate rather than forward).
    pub const GPTP_MULTICAST: MacAddr = MacAddr([0x01, 0x80, 0xC2, 0x00, 0x00, 0x0E]);

    /// PTP over Ethernet general multicast `01:1B:19:00:00:00`
    /// (forwardable; used here for the measurement VLAN probes).
    pub const PTP_MULTICAST: MacAddr = MacAddr([0x01, 0x1B, 0x19, 0x00, 0x00, 0x00]);

    /// Broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A deterministic unicast address for simulated NIC `index`.
    pub fn for_nic(index: u32) -> MacAddr {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An 802.1Q VLAN tag (TPID 0x8100).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VlanTag {
    /// Priority code point (0–7); gPTP and measurement traffic use 7/6.
    pub pcp: u8,
    /// VLAN identifier (1–4094).
    pub vid: u16,
}

impl VlanTag {
    /// Creates a tag.
    ///
    /// # Panics
    ///
    /// Panics if `pcp > 7` or `vid` is outside 1..=4094.
    pub fn new(pcp: u8, vid: u16) -> Self {
        assert!(pcp <= 7, "PCP {pcp} out of range");
        assert!((1..=4094).contains(&vid), "VID {vid} out of range");
        VlanTag { pcp, vid }
    }
}

/// EtherType values used in the testbed.
pub mod ethertype {
    /// PTP over IEEE 802.3 (gPTP always uses this transport).
    pub const PTP: u16 = 0x88F7;
    /// IEEE 802a experimental — used for the precision measurement probes.
    pub const MEASUREMENT: u16 = 0x88B5;
    /// Synthetic best-effort background traffic (sunk at the receiver).
    pub const BACKGROUND: u16 = 0x0800;
    /// 802.1Q tag protocol identifier.
    pub const VLAN: u16 = 0x8100;

    /// Lower-case name of a known EtherType, `"other"` otherwise.
    pub fn name(ethertype: u16) -> &'static str {
        match ethertype {
            PTP => "ptp",
            MEASUREMENT => "measurement",
            BACKGROUND => "background",
            VLAN => "vlan",
            _ => "other",
        }
    }
}

/// An Ethernet II frame, optionally 802.1Q-tagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Optional 802.1Q tag.
    pub vlan: Option<VlanTag>,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Box<[u8]>,
}

/// Errors from [`EthernetFrame::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFrameError {
    /// Fewer bytes than the minimal header.
    Truncated,
}

impl fmt::Display for DecodeFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFrameError::Truncated => write!(f, "frame truncated"),
        }
    }
}

impl std::error::Error for DecodeFrameError {}

impl EthernetFrame {
    /// Wire length in bytes (headers + payload, no FCS/preamble).
    pub fn wire_len(&self) -> usize {
        14 + if self.vlan.is_some() { 4 } else { 0 } + self.payload.len()
    }

    /// 802.1Q traffic class: the explicit PCP if tagged, else by
    /// ethertype (gPTP highest; background best-effort).
    pub fn traffic_class(&self) -> u8 {
        if let Some(tag) = self.vlan {
            return tag.pcp;
        }
        match self.ethertype {
            ethertype::PTP => 7,
            ethertype::MEASUREMENT => 6,
            _ => 0,
        }
    }

    /// Serialization time at the given line rate in bits per second,
    /// including preamble+SFD (8 B), FCS (4 B) and minimum 64 B framing.
    pub fn serialization_ns(&self, bits_per_sec: u64) -> tsn_time::Nanos {
        let on_wire = (self.wire_len().max(60) + 4 + 8) as u64; // pad + FCS + preamble
        tsn_time::Nanos::from_nanos(((on_wire * 8 * 1_000_000_000) / bits_per_sec) as i64)
    }

    /// Encodes the frame to wire bytes.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.extend_from_slice(&self.dst.0);
        buf.extend_from_slice(&self.src.0);
        if let Some(tag) = self.vlan {
            let tci = (u16::from(tag.pcp) << 13) | (tag.vid & 0x0FFF);
            buf.extend_from_slice(&ethertype::VLAN.to_be_bytes());
            buf.extend_from_slice(&tci.to_be_bytes());
        }
        buf.extend_from_slice(&self.ethertype.to_be_bytes());
        buf.extend_from_slice(&self.payload);
        buf.into_boxed_slice()
    }

    /// Decodes a frame from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFrameError::Truncated`] if the bytes are shorter
    /// than the Ethernet (+ optional VLAN) header.
    pub fn decode(bytes: &[u8]) -> Result<EthernetFrame, DecodeFrameError> {
        if bytes.len() < 14 {
            return Err(DecodeFrameError::Truncated);
        }
        let dst = MacAddr(bytes[0..6].try_into().expect("slice of 6"));
        let src = MacAddr(bytes[6..12].try_into().expect("slice of 6"));
        let mut ethertype = u16::from_be_bytes([bytes[12], bytes[13]]);
        let mut offset = 14;
        let mut vlan = None;
        if ethertype == ethertype::VLAN {
            if bytes.len() < 18 {
                return Err(DecodeFrameError::Truncated);
            }
            let tci = u16::from_be_bytes([bytes[14], bytes[15]]);
            vlan = Some(VlanTag {
                pcp: (tci >> 13) as u8,
                vid: tci & 0x0FFF,
            });
            ethertype = u16::from_be_bytes([bytes[16], bytes[17]]);
            offset = 18;
        }
        Ok(EthernetFrame {
            dst,
            src,
            vlan,
            ethertype,
            payload: bytes[offset..].into(),
        })
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_frame() -> impl Strategy<Value = EthernetFrame> {
        (
            any::<[u8; 6]>(),
            any::<[u8; 6]>(),
            proptest::option::of((0u8..=7, 1u16..=4094)),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..256),
        )
            .prop_map(|(dst, src, vlan, ethertype, payload)| EthernetFrame {
                dst: MacAddr(dst),
                src: MacAddr(src),
                vlan: vlan.map(|(pcp, vid)| VlanTag::new(pcp, vid)),
                // 0x8100 in the inner ethertype would be a double tag,
                // which this model does not support.
                ethertype: if ethertype == ethertype::VLAN {
                    0x0800
                } else {
                    ethertype
                },
                payload: payload.into(),
            })
    }

    proptest! {
        #[test]
        fn roundtrip(frame in arb_frame()) {
            let decoded = EthernetFrame::decode(&frame.encode()).expect("decodes");
            prop_assert_eq!(decoded, frame);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = EthernetFrame::decode(&bytes);
        }

        #[test]
        fn wire_len_matches_encoding(frame in arb_frame()) {
            prop_assert_eq!(frame.encode().len(), frame.wire_len());
        }
    }
}

use tsn_snapshot::{Reader, Snap, SnapError, Writer};

tsn_snapshot::snap_struct!(MacAddr { 0 });

// Hand-written: PCP and VID are range-checked.
impl Snap for VlanTag {
    fn put(&self, w: &mut Writer) {
        self.pcp.put(w);
        self.vid.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let pcp = u8::get(r)?;
        let vid = u16::get(r)?;
        if pcp > 7 || vid == 0 || vid > 4094 {
            return Err(SnapError::Malformed("vlan tag out of range"));
        }
        Ok(VlanTag { pcp, vid })
    }
}

tsn_snapshot::snap_struct!(EthernetFrame {
    dst,
    src,
    vlan,
    ethertype,
    payload,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame(vlan: Option<VlanTag>) -> EthernetFrame {
        EthernetFrame {
            dst: MacAddr::GPTP_MULTICAST,
            src: MacAddr::for_nic(3),
            vlan,
            ethertype: ethertype::PTP,
            payload: Box::from(&b"\x10\x02\x00\x2c rest"[..]),
        }
    }

    #[test]
    fn encode_decode_roundtrip_untagged() {
        let f = sample_frame(None);
        let decoded = EthernetFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn encode_decode_roundtrip_tagged() {
        let f = sample_frame(Some(VlanTag::new(6, 100)));
        let decoded = EthernetFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn truncated_frames_rejected() {
        assert_eq!(
            EthernetFrame::decode(&[0u8; 13]),
            Err(DecodeFrameError::Truncated)
        );
        // Tagged frame cut inside the tag.
        let mut bytes = sample_frame(Some(VlanTag::new(0, 1))).encode().to_vec();
        bytes.truncate(16);
        assert_eq!(
            EthernetFrame::decode(&bytes),
            Err(DecodeFrameError::Truncated)
        );
    }

    #[test]
    fn snapshot_is_the_payload_count_then_its_bytes() {
        let f = sample_frame(Some(VlanTag::new(6, 100)));
        let mut w = Writer::new();
        f.put(&mut w);
        let bytes = w.into_bytes();
        let (head, payload) = bytes.split_at(bytes.len() - f.payload.len());
        assert_eq!(*payload, *f.payload);
        assert!(head.ends_with(&(f.payload.len() as u64).to_le_bytes()));
        assert_eq!(EthernetFrame::get(&mut Reader::new(&bytes)), Ok(f));
        for cut in 0..bytes.len() {
            assert!(EthernetFrame::get(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn nic_macs_unique() {
        assert_ne!(MacAddr::for_nic(1), MacAddr::for_nic(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(MacAddr::GPTP_MULTICAST.to_string(), "01:80:c2:00:00:0e");
    }

    #[test]
    fn serialization_time_at_gigabit() {
        let f = sample_frame(None);
        // 60 B padded + 4 FCS + 8 preamble = 72 B = 576 bits ≙ 576 ns at 1 Gb/s.
        assert_eq!(f.serialization_ns(1_000_000_000).as_nanos(), 576);
    }

    #[test]
    #[should_panic(expected = "VID 0 out of range")]
    fn vlan_vid_zero_rejected() {
        VlanTag::new(0, 0);
    }
}
