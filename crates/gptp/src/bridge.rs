//! The time-aware bridge (IEEE 802.1AS clause 11): the per-domain
//! [`BridgeRelay`] and the [`Bridge`] engine that owns one relay per
//! domain, the per-port link-delay services and the Announce relay.
//!
//! A time-aware bridge does not forward gPTP frames through its relay
//! function: it *regenerates* them. For each domain the bridge has one
//! slave (upstream) port and a set of master (downstream) ports, fixed by
//! the external port configuration. On receiving `Sync` it immediately
//! sends a fresh `Sync` on every master port; when the matching
//! `Follow_Up` arrives it forwards it with
//!
//! ```text
//! correction' = correction
//!             + meanLinkDelay(slave port)
//!             + rateRatioToGm · residenceTime(egress port)
//! ```
//!
//! where `residenceTime` is measured with the bridge's free-running local
//! clock and `rateRatioToGm` is the cumulative rate ratio from the
//! Follow_Up TLV times the slave port's neighbor rate ratio. The TLV's
//! `cumulativeScaledRateOffset` is updated the same way, so downstream
//! systems can syntonize.

use crate::cmlds::LinkDelayService;
use crate::msg::{Header, Message, MessageType, GPTP_MAJOR_SDO_ID, PTP_VERSION};
use crate::types::{
    rate_ratio, ClockIdentity, PortIdentity, PtpTimestamp, Transmission, TxTiming, TxToken,
};
use bytes::Bytes;
use tsn_snapshot::{Reader, Snap, SnapError, Writer};
use tsn_time::{ClockTime, Nanos};

/// Maximum in-flight Sync sequences tracked per relay before the oldest
/// is evicted (protects against a dead upstream never completing).
const MAX_TRACKED: usize = 8;

/// A `(egress port number, encoded message)` emission.
pub type Emission = (u16, Bytes);

/// A map with `u16` keys for a handful of entries — at most
/// [`MAX_TRACKED`] sequences per relay, one tx timestamp per master
/// port — kept as a key-sorted `Vec` and searched linearly. In a
/// snapshot it is the count followed by the `(key, value)` pairs in
/// ascending key order.
#[derive(Debug, Clone)]
struct SmallMap<V>(Vec<(u16, V)>);

impl<V> SmallMap<V> {
    const fn new() -> Self {
        SmallMap(Vec::new())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, key: u16) -> Option<&V> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn get_mut(&mut self, key: u16) -> Option<&mut V> {
        self.0.iter_mut().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Inserts `value` under `key`, replacing any previous value.
    fn insert(&mut self, key: u16, value: V) {
        match self.0.iter().position(|(k, _)| *k >= key) {
            Some(i) if self.0[i].0 == key => self.0[i].1 = value,
            Some(i) => self.0.insert(i, (key, value)),
            None => self.0.push((key, value)),
        }
    }

    fn remove(&mut self, key: u16) {
        self.0.retain(|(k, _)| *k != key);
    }
}

impl<V: Snap> Snap for SmallMap<V> {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let entries: Vec<(u16, V)> = Snap::get(r)?;
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(SnapError::Malformed("map keys not strictly ascending"));
        }
        Ok(SmallMap(entries))
    }
}

#[derive(Debug, Clone)]
struct SeqState {
    rx_ts: ClockTime,
    /// Per egress port: hardware tx timestamp of the regenerated Sync.
    tx_ts: SmallMap<ClockTime>,
    /// Upstream Follow_Up content, once received.
    upstream: Option<UpstreamFu>,
    /// Egress ports already served.
    done: Vec<u16>,
    /// Insertion order for eviction.
    order: u64,
}

#[derive(Debug, Clone, Copy)]
struct UpstreamFu {
    precise_origin: PtpTimestamp,
    correction: crate::types::Correction,
    cumulative_scaled_rate_offset: i32,
    rate_ratio_to_gm: f64,
}

/// Per-domain Sync/Follow_Up relay of one time-aware bridge.
#[derive(Debug, Clone)]
pub struct BridgeRelay {
    domain: u8,
    clock: ClockIdentity,
    slave_port: u16,
    master_ports: Vec<u16>,
    log_sync_interval: i8,
    /// In-flight sequences by sequence id.
    seqs: SmallMap<SeqState>,
    next_order: u64,
    /// Count of Follow_Ups that could not be forwarded because the
    /// regenerated Sync's tx timestamp never became available.
    pub dropped_forwards: u64,
}

impl BridgeRelay {
    /// Creates a relay for `domain` with the given static port roles.
    ///
    /// # Panics
    ///
    /// Panics if `slave_port` also appears in `master_ports`.
    pub fn new(domain: u8, clock: ClockIdentity, slave_port: u16, master_ports: Vec<u16>) -> Self {
        // Unreachable from `Bridge::relay_for`: a root slaves on station port 0 and skips it,
        // any other bridge on a mesh port, numbered past every station port.
        assert!(
            !master_ports.contains(&slave_port),
            "port {slave_port} cannot be both slave and master"
        );
        BridgeRelay {
            domain,
            clock,
            slave_port,
            master_ports,
            log_sync_interval: -3,
            seqs: SmallMap::new(),
            next_order: 0,
            dropped_forwards: 0,
        }
    }

    /// The relay's domain.
    pub fn domain(&self) -> u8 {
        self.domain
    }

    /// The upstream (slave) port number.
    pub fn slave_port(&self) -> u16 {
        self.slave_port
    }

    /// Downstream (master) port numbers.
    pub fn master_ports(&self) -> &[u16] {
        &self.master_ports
    }

    /// Handles a `Sync` arriving on the slave port at bridge-clock
    /// timestamp `rx_ts`; returns the regenerated `Sync` for each master
    /// port. The caller must report each departure via
    /// [`BridgeRelay::sync_forwarded`].
    pub fn handle_sync(
        &mut self,
        msg: &Message,
        ingress_port: u16,
        rx_ts: ClockTime,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        self.relay_sync(msg, ingress_port, rx_ts, |port, bytes| {
            out.push((port, bytes))
        });
        out
    }

    /// [`BridgeRelay::handle_sync`], handing each regenerated `Sync` to
    /// `emit` instead of collecting them.
    fn relay_sync(
        &mut self,
        msg: &Message,
        ingress_port: u16,
        rx_ts: ClockTime,
        mut emit: impl FnMut(u16, Bytes),
    ) {
        let Message::Sync { header, .. } = msg else {
            return;
        };
        if header.domain != self.domain || ingress_port != self.slave_port {
            return;
        }
        self.log_sync_interval = header.log_message_interval;
        if self.seqs.len() >= MAX_TRACKED {
            // Evict the oldest incomplete sequence.
            if let Some(&(oldest, _)) = self.seqs.0.iter().min_by_key(|(_, s)| s.order) {
                self.seqs.remove(oldest);
                self.dropped_forwards += 1;
            }
        }
        let order = self.next_order;
        self.next_order += 1;
        self.seqs.insert(
            header.sequence_id,
            SeqState {
                rx_ts,
                tx_ts: SmallMap::new(),
                upstream: None,
                done: Vec::new(),
                order,
            },
        );
        for &p in &self.master_ports {
            let sync = Message::Sync {
                header: Header::new(
                    MessageType::Sync,
                    self.domain,
                    PortIdentity::new(self.clock, p),
                    header.sequence_id,
                    header.log_message_interval,
                ),
                origin: PtpTimestamp::default(),
            };
            emit(p, sync.encode());
        }
    }

    /// Reports the hardware egress timestamp of the regenerated `Sync`
    /// with id `seq` on `port`; returns the `Follow_Up` for that port if
    /// the upstream `Follow_Up` already arrived.
    pub fn sync_forwarded(&mut self, seq: u16, port: u16, tx_ts: ClockTime) -> Vec<Emission> {
        let mut out = Vec::new();
        self.relay_sync_forwarded(seq, port, tx_ts, |port, bytes| out.push((port, bytes)));
        out
    }

    /// [`BridgeRelay::sync_forwarded`] with an `emit` sink.
    fn relay_sync_forwarded(
        &mut self,
        seq: u16,
        port: u16,
        tx_ts: ClockTime,
        emit: impl FnMut(u16, Bytes),
    ) {
        if let Some(state) = self.seqs.get_mut(seq) {
            state.tx_ts.insert(port, tx_ts);
            self.drain_ready(seq, emit);
        }
    }

    /// Handles the upstream `Follow_Up` (received on the slave port);
    /// `slave_link_delay` and `slave_nrr` come from the slave port's
    /// peer-delay service. Returns Follow_Ups for every master port whose
    /// Sync already departed.
    pub fn handle_follow_up(
        &mut self,
        msg: &Message,
        ingress_port: u16,
        slave_link_delay: Nanos,
        slave_nrr: f64,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        self.relay_follow_up(
            msg,
            ingress_port,
            slave_link_delay,
            slave_nrr,
            |port, bytes| out.push((port, bytes)),
        );
        out
    }

    /// [`BridgeRelay::handle_follow_up`] with an `emit` sink.
    fn relay_follow_up(
        &mut self,
        msg: &Message,
        ingress_port: u16,
        slave_link_delay: Nanos,
        slave_nrr: f64,
        emit: impl FnMut(u16, Bytes),
    ) {
        let Message::FollowUp {
            header,
            precise_origin,
            tlv,
        } = msg
        else {
            return;
        };
        if header.domain != self.domain || ingress_port != self.slave_port {
            return;
        }
        let seq = header.sequence_id;
        let Some(state) = self.seqs.get_mut(seq) else {
            return;
        };
        let cumulative = rate_ratio::from_scaled(tlv.cumulative_scaled_rate_offset);
        let rate_ratio_to_gm = cumulative * slave_nrr;
        state.upstream = Some(UpstreamFu {
            precise_origin: *precise_origin,
            // Ingress link delay is added once, on reception.
            correction: header
                .correction
                .add_nanos_f64(slave_link_delay.as_nanos() as f64),
            cumulative_scaled_rate_offset: rate_ratio::to_scaled(rate_ratio_to_gm),
            rate_ratio_to_gm,
        });
        self.drain_ready(seq, emit);
    }

    /// Emits the Follow_Up of every master port of `seq` that has both
    /// the upstream Follow_Up and its own Sync's tx timestamp.
    fn drain_ready(&mut self, seq: u16, mut emit: impl FnMut(u16, Bytes)) {
        let Some(state) = self.seqs.get_mut(seq) else {
            return;
        };
        let Some(upstream) = state.upstream else {
            return;
        };
        for &port in &self.master_ports {
            if state.done.contains(&port) {
                continue;
            }
            let Some(&tx_ts) = state.tx_ts.get(port) else {
                continue;
            };
            let residence = (tx_ts - state.rx_ts).as_nanos() as f64;
            let correction = upstream
                .correction
                .add_nanos_f64(residence * upstream.rate_ratio_to_gm);
            let mut header = Header::new(
                MessageType::FollowUp,
                self.domain,
                PortIdentity::new(self.clock, port),
                seq,
                self.log_sync_interval,
            );
            header.correction = correction;
            let fu = Message::FollowUp {
                header,
                precise_origin: upstream.precise_origin,
                tlv: crate::msg::FollowUpTlv {
                    cumulative_scaled_rate_offset: upstream.cumulative_scaled_rate_offset,
                    ..Default::default()
                },
            };
            emit(port, fu.encode());
            state.done.push(port);
        }
        if state.done.len() == self.master_ports.len() {
            self.seqs.remove(seq);
        }
    }
}

/// One time-aware bridge: every domain's [`BridgeRelay`], one
/// [`LinkDelayService`] per port, and the Announce relay.
///
/// Sans-IO like the relays it owns: the embedding feeds it received
/// frames with their ingress port and hardware timestamp, egress
/// timestamps of the event messages it emitted, and peer-delay ticks; it
/// appends the [`Transmission`]s to perform to a caller-owned buffer.
///
/// Port layout: ports `0..station_ports` lead to the local end stations
/// (port 0 to the one that may be a grandmaster), the following ports
/// form the mesh toward the other bridges. Domain `d`'s relay tree is
/// the two-level tree `GM -> root bridge -> {other bridges} -> stations`.
#[derive(Debug, Clone)]
pub struct Bridge {
    identity: ClockIdentity,
    /// This bridge's index among the mesh's bridges.
    index: usize,
    station_ports: u8,
    /// `mesh[y]`: the port toward bridge `y` (`None` for `y == index`).
    mesh: Vec<Option<u8>>,
    /// One relay per domain.
    relays: Vec<BridgeRelay>,
    /// One link-delay service per port, indexed by port number.
    pd: Vec<LinkDelayService>,
    /// `true` in BMCA deployments: Announce is relayed down the
    /// sender's tree (see [`Bridge::receive`]). `false` under external
    /// port configuration, where Announce has no role.
    relays_announce: bool,
}

impl Bridge {
    /// Creates bridge `index` of a mesh of `mesh.len()` bridges (one
    /// gPTP domain per bridge), with every domain `d` rooted at bridge
    /// `d` — the static external port configuration.
    pub fn new(
        identity: ClockIdentity,
        index: usize,
        station_ports: u8,
        mesh: Vec<Option<u8>>,
        relays_announce: bool,
    ) -> Self {
        let ports = station_ports + mesh.iter().flatten().count() as u8;
        let mut bridge = Bridge {
            identity,
            index,
            station_ports,
            relays: Vec::with_capacity(mesh.len()),
            mesh,
            pd: (1..=u16::from(ports))
                .map(|p| LinkDelayService::new(PortIdentity::new(identity, p)))
                .collect(),
            relays_announce,
        };
        for domain in 0..bridge.mesh.len() {
            bridge.relays.push(bridge.relay_for(domain, domain));
        }
        bridge
    }

    /// The relay of `domain` when its grandmaster sits behind bridge
    /// `root`: the root bridge takes the Sync feed from its grandmaster
    /// station (port 0) and serves its other stations and every mesh
    /// port; every other bridge slaves toward the root through the mesh
    /// and serves its local stations only.
    fn relay_for(&self, domain: usize, root: usize) -> BridgeRelay {
        let stations = 0..u16::from(self.station_ports);
        let (slave, masters) = if root == self.index {
            let mesh = self.mesh.iter().flatten().map(|&p| u16::from(p));
            (0, stations.skip(1).chain(mesh).collect())
        } else {
            // Unreachable: `mesh[y]` is `None` only for `y == self.index`, the branch above.
            let toward_root = self.mesh[root].expect("mesh port toward the root bridge");
            (u16::from(toward_root), stations.collect())
        };
        BridgeRelay::new(domain as u8, self.identity, slave, masters)
    }

    /// Rebuilds `domain`'s relay around a new root bridge (grandmaster
    /// handoff). In-flight Sync/Follow_Up sequences of the old tree are
    /// dropped — they belong to the replaced master.
    pub fn reroot(&mut self, domain: usize, root: usize) {
        self.relays[domain] = self.relay_for(domain, root);
    }

    /// Handles a gPTP frame received on `port`. `rx_ts` is the hardware
    /// receive timestamp (meaningful for event messages only). Returns
    /// `false` if the bridge has no role for the message (Announce under
    /// external port configuration) or cannot decode it.
    pub fn receive(
        &mut self,
        port: u8,
        bytes: &[u8],
        rx_ts: ClockTime,
        out: &mut Vec<Transmission>,
    ) -> bool {
        if MessageType::peek(bytes) == Some(MessageType::Announce) {
            if !self.relays_announce {
                return false;
            }
            // Split horizon over the full mesh: an Announce from a local
            // station goes to every other port, one from another bridge
            // to the local stations only — the tree `relay_for` builds
            // for Sync, rooted at whichever bridge the sender hangs off,
            // so every station hears it once and no bridge needs to
            // know the domain's root. A mesh port never feeds a mesh
            // port, which is what makes it loop-free; the path trace
            // stays as the guard 802.1AS prescribes.
            let fwd = match forward_announce(bytes, self.identity) {
                AnnounceRelay::Forward(fwd) => fwd,
                AnnounceRelay::Loop => return true,
                AnnounceRelay::Undecodable => return false,
            };
            let relay_to = if port < self.station_ports {
                self.pd.len() as u8
            } else {
                self.station_ports
            };
            for p in (0..relay_to).filter(|&p| p != port) {
                out.push(Transmission::new(p, fwd.clone(), None, TxTiming::Residence));
            }
            return true;
        }
        let Some(pd) = self.pd.get_mut(usize::from(port)) else {
            return true;
        };
        let Ok(msg) = Message::decode(bytes) else {
            return false;
        };
        let ingress = u16::from(port);
        match &msg {
            Message::Sync { header, .. } => {
                if let Some(relay) = self.relays.get_mut(usize::from(header.domain)) {
                    let token = Some(TxToken::RelayedSync {
                        domain: header.domain,
                        seq: header.sequence_id,
                    });
                    relay.relay_sync(&msg, ingress, rx_ts, |p, bytes| {
                        out.push(Transmission::new(
                            p as u8,
                            bytes,
                            token,
                            TxTiming::Residence,
                        ));
                    });
                }
            }
            Message::FollowUp { header, .. } => {
                if let Some(relay) = self.relays.get_mut(usize::from(header.domain)) {
                    let link = pd.link_state();
                    let (delay, nrr) = (link.delay(), link.neighbor_rate_ratio);
                    relay.relay_follow_up(&msg, ingress, delay, nrr, |p, bytes| {
                        out.push(follow_up((p, bytes)));
                    });
                }
            }
            Message::PdelayReq { .. }
            | Message::PdelayResp { .. }
            | Message::PdelayRespFollowUp { .. } => {
                if let Some(ctx) = pd.handle(&msg, rx_ts) {
                    let token = TxToken::PdelayResp {
                        seq: ctx.seq,
                        requesting: ctx.requesting_port,
                    };
                    out.push(Transmission::new(
                        port,
                        ctx.resp,
                        Some(token),
                        TxTiming::Turnaround,
                    ));
                }
            }
            // Announce under external port configuration (with the
            // election on it takes the fast relay path and never gets
            // here).
            Message::Announce { .. } => return false,
        }
        true
    }

    /// Reports the hardware egress timestamp of the event message
    /// `token` was issued for, sent on `port`.
    pub fn tx_timestamp(
        &mut self,
        port: u8,
        token: TxToken,
        ts: ClockTime,
        out: &mut Vec<Transmission>,
    ) {
        match token {
            TxToken::RelayedSync { domain, seq } => {
                if let Some(relay) = self.relays.get_mut(usize::from(domain)) {
                    relay.relay_sync_forwarded(seq, u16::from(port), ts, |p, bytes| {
                        out.push(follow_up((p, bytes)));
                    });
                }
            }
            TxToken::PdelayReq { seq } => {
                if let Some(pd) = self.pd.get_mut(usize::from(port)) {
                    pd.request_sent(seq, ts);
                }
            }
            TxToken::PdelayResp { seq, requesting } => {
                if let Some(pd) = self.pd.get(usize::from(port)) {
                    out.push(follow_up((
                        u16::from(port),
                        pd.make_resp_follow_up(seq, requesting, ts),
                    )));
                }
            }
            // Bridges regenerate Syncs, they never originate one.
            TxToken::Sync { .. } => {}
        }
    }

    /// Starts a peer-delay measurement round on `port`.
    pub fn pdelay_tick(&mut self, port: u8, out: &mut Vec<Transmission>) {
        if let Some(pd) = self.pd.get_mut(usize::from(port)) {
            let (bytes, seq) = pd.make_request();
            let token = Some(TxToken::PdelayReq { seq });
            out.push(Transmission::new(port, bytes, token, TxTiming::Driver));
        }
    }
}

/// A software-generated general message (Follow_Up,
/// Pdelay_Resp_Follow_Up) leaving on the emission's port.
fn follow_up((port, bytes): Emission) -> Transmission {
    Transmission::new(port as u8, bytes, None, TxTiming::Driver)
}

/// What a bridge does with a received Announce.
#[derive(Debug, PartialEq)]
enum AnnounceRelay {
    /// Relay this frame: stepsRemoved + 1, the bridge's own identity
    /// appended to the path trace.
    Forward(Bytes),
    /// Drop it silently: the bridge already carried it (802.1AS clause
    /// 10.3.8.23 loop prevention).
    Loop,
    /// Drop it and report it: the frame does not decode.
    Undecodable,
}

/// The verdict of a bridge with identity `own` on the received Announce
/// `bytes`.
fn forward_announce(bytes: &[u8], own: ClockIdentity) -> AnnounceRelay {
    patch_announce(bytes, own).unwrap_or_else(|| reencode_announce(bytes, own))
}

/// [`forward_announce`] without decode + re-encode, for Announces in the
/// exact form [`Message::encode`] writes (every Announce a conforming
/// peer of this implementation sends): the forwarded frame is the input
/// with messageLength, stepsRemoved and the PATH_TRACE length patched and
/// `own` appended. Strict byte guards pin that canonical form — exact
/// length, the zero reserved fields the encoder writes, PATH_TRACE as the
/// sole trailing TLV; on any mismatch `None` sends the caller down the
/// decode path, which defines the behavior.
fn patch_announce(b: &[u8], own: ClockIdentity) -> Option<AnnounceRelay> {
    // 34-byte header, 30-byte Announce body, then the PATH_TRACE TLV
    // (type 0x0008, 8 bytes per identity).
    if b.len() < 68 || b.len() > 0xFF00 || !(b.len() - 68).is_multiple_of(8) {
        return None;
    }
    let ids = b.len() - 68;
    let canonical = b[0] == (GPTP_MAJOR_SDO_ID << 4) | (MessageType::Announce as u8)
        && b[1] == PTP_VERSION
        && b[2..4] == (b.len() as u16).to_be_bytes()
        && b[5] == 0 // minorSdoId
        && b[16..20] == [0; 4] // messageTypeSpecific
        && b[32] == 5 // Announce control field
        && b[34..44] == [0; 10] // originTimestamp (always zero)
        && b[46] == 0 // body reserved byte
        && b[64..66] == [0x00, 0x08] // PATH_TRACE type
        && b[66..68] == (ids as u16).to_be_bytes();
    if !canonical {
        return None;
    }
    if b[68..].chunks_exact(8).any(|id| id == own.0) {
        return Some(AnnounceRelay::Loop);
    }
    let mut out = Vec::with_capacity(b.len() + 8);
    out.extend_from_slice(b);
    out[2..4].copy_from_slice(&((b.len() + 8) as u16).to_be_bytes());
    let steps = u16::from_be_bytes([b[61], b[62]]).saturating_add(1);
    out[61..63].copy_from_slice(&steps.to_be_bytes());
    out[66..68].copy_from_slice(&((ids + 8) as u16).to_be_bytes());
    out.extend_from_slice(&own.0);
    Some(AnnounceRelay::Forward(Bytes::from(out)))
}

/// [`forward_announce`] through the codec.
fn reencode_announce(bytes: &[u8], own: ClockIdentity) -> AnnounceRelay {
    let Ok(Message::Announce {
        header,
        mut path_trace,
        mut body,
    }) = Message::decode(bytes)
    else {
        return AnnounceRelay::Undecodable;
    };
    if path_trace.contains(&own) {
        return AnnounceRelay::Loop;
    }
    path_trace.push(own);
    body.steps_removed = body.steps_removed.saturating_add(1);
    let fwd = Message::Announce {
        header,
        path_trace,
        body,
    };
    AnnounceRelay::Forward(fwd.encode())
}

use tsn_snapshot::{snap_state, snap_struct};

snap_struct!(UpstreamFu {
    precise_origin,
    correction,
    cumulative_scaled_rate_offset,
    rate_ratio_to_gm,
});
snap_struct!(SeqState {
    rx_ts,
    tx_ts,
    upstream,
    done,
    order,
});

snap_state!(BridgeRelay {
    log_sync_interval,
    seqs,
    next_order,
    dropped_forwards,
});

// Identity, port layout and relay-tree shape are configuration (the
// embedding re-roots before loading); relays go first, then the
// link-delay services in ascending port order.
snap_state!(Bridge {
    relays: each,
    pd: each
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::FollowUpTlv;
    use crate::types::Correction;

    fn sync_msg(domain: u8, seq: u16) -> Message {
        Message::Sync {
            origin: PtpTimestamp::default(),
            header: Header::new(
                MessageType::Sync,
                domain,
                PortIdentity::new(ClockIdentity::for_index(1), 1),
                seq,
                -3,
            ),
        }
    }

    fn fu_msg(domain: u8, seq: u16, pot_ns: i64, corr_ns: i64, csro: i32) -> Message {
        let mut header = Header::new(
            MessageType::FollowUp,
            domain,
            PortIdentity::new(ClockIdentity::for_index(1), 1),
            seq,
            -3,
        );
        header.correction = Correction::from_nanos(Nanos::from_nanos(corr_ns));
        Message::FollowUp {
            header,
            precise_origin: PtpTimestamp::from_clock_time(ClockTime::from_nanos(pot_ns)),
            tlv: FollowUpTlv {
                cumulative_scaled_rate_offset: csro,
                ..Default::default()
            },
        }
    }

    fn relay() -> BridgeRelay {
        BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1, 2, 3])
    }

    #[test]
    fn sync_regenerated_on_all_master_ports() {
        let mut r = relay();
        let out = r.handle_sync(&sync_msg(1, 7), 5, ClockTime::from_nanos(100));
        assert_eq!(out.len(), 3);
        for (port, bytes) in &out {
            let m = Message::decode(bytes).unwrap();
            assert_eq!(m.header().sequence_id, 7);
            assert_eq!(m.header().source_port.port, *port);
            assert_eq!(m.header().source_port.clock, ClockIdentity::for_index(10));
        }
    }

    #[test]
    fn sync_on_wrong_port_or_domain_ignored() {
        let mut r = relay();
        assert!(r
            .handle_sync(&sync_msg(1, 7), 2, ClockTime::ZERO)
            .is_empty());
        assert!(r
            .handle_sync(&sync_msg(9, 7), 5, ClockTime::ZERO)
            .is_empty());
    }

    #[test]
    fn follow_up_accumulates_residence_and_link_delay() {
        let mut r = relay();
        let rx = ClockTime::from_nanos(1_000_000);
        r.handle_sync(&sync_msg(1, 7), 5, rx);
        // Syncs depart 2 µs (port 1) and 3 µs (port 2/3) later.
        assert!(r
            .sync_forwarded(7, 1, rx + Nanos::from_micros(2))
            .is_empty());
        assert!(r
            .sync_forwarded(7, 2, rx + Nanos::from_micros(3))
            .is_empty());
        assert!(r
            .sync_forwarded(7, 3, rx + Nanos::from_micros(3))
            .is_empty());
        // Upstream FU: correction 1 µs; slave link delay 2.5 µs; NRR 1.
        let out = r.handle_follow_up(
            &fu_msg(1, 7, 500, 1_000, 0),
            5,
            Nanos::from_nanos(2_500),
            1.0,
        );
        assert_eq!(out.len(), 3);
        let (port, bytes) = &out[0];
        assert_eq!(*port, 1);
        let m = Message::decode(bytes).unwrap();
        // correction = 1000 + 2500 + 2000 = 5500 ns on port 1.
        assert_eq!(m.header().correction.to_nanos(), Nanos::from_nanos(5_500));
        match m {
            Message::FollowUp { precise_origin, .. } => {
                assert_eq!(precise_origin.to_clock_time(), ClockTime::from_nanos(500));
            }
            _ => panic!("wrong type"),
        }
        // Ports 2/3: correction = 1000 + 2500 + 3000 = 6500 ns.
        let m2 = Message::decode(&out[1].1).unwrap();
        assert_eq!(m2.header().correction.to_nanos(), Nanos::from_nanos(6_500));
    }

    #[test]
    fn residence_scaled_by_rate_ratio() {
        let mut r = BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1]);
        let rx = ClockTime::from_nanos(0);
        r.handle_sync(&sync_msg(1, 1), 5, rx);
        // 1 ms residence; upstream ratio corresponds to +100 ppm.
        r.sync_forwarded(1, 1, rx + Nanos::from_millis(1));
        let csro = rate_ratio::to_scaled(1.0 + 100e-6);
        let out = r.handle_follow_up(&fu_msg(1, 1, 0, 0, csro), 5, Nanos::ZERO, 1.0);
        let m = Message::decode(&out[0].1).unwrap();
        // residence·ratio = 1_000_000 · 1.0001 = 1_000_100 ns.
        assert_eq!(
            m.header().correction.to_nanos(),
            Nanos::from_nanos(1_000_100)
        );
        // Cumulative rate offset forwarded.
        match m {
            Message::FollowUp { tlv, .. } => {
                let rr = rate_ratio::from_scaled(tlv.cumulative_scaled_rate_offset);
                assert!((rr - 1.0001).abs() < 1e-9);
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn follow_up_before_tx_timestamp_waits() {
        let mut r = BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1]);
        let rx = ClockTime::from_nanos(0);
        r.handle_sync(&sync_msg(1, 1), 5, rx);
        // FU arrives before the regenerated Sync departed.
        let out = r.handle_follow_up(&fu_msg(1, 1, 0, 0, 0), 5, Nanos::ZERO, 1.0);
        assert!(out.is_empty());
        // Once the tx timestamp lands, the FU is emitted.
        let out = r.sync_forwarded(1, 1, rx + Nanos::from_micros(5));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nrr_composes_into_cumulative_ratio() {
        let mut r = BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1]);
        r.handle_sync(&sync_msg(1, 1), 5, ClockTime::ZERO);
        r.sync_forwarded(1, 1, ClockTime::from_nanos(1000));
        // Upstream cumulative +50 ppm, slave NRR +50 ppm → ≈ +100 ppm.
        let csro = rate_ratio::to_scaled(1.0 + 50e-6);
        let out = r.handle_follow_up(&fu_msg(1, 1, 0, 0, csro), 5, Nanos::ZERO, 1.0 + 50e-6);
        match Message::decode(&out[0].1).unwrap() {
            Message::FollowUp { tlv, .. } => {
                let rr = rate_ratio::from_scaled(tlv.cumulative_scaled_rate_offset);
                assert!(((rr - 1.0) * 1e6 - 100.0).abs() < 0.01, "{rr}");
            }
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn state_eviction_bounds_memory() {
        let mut r = BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1]);
        for seq in 0..50u16 {
            r.handle_sync(&sync_msg(1, seq), 5, ClockTime::from_nanos(i64::from(seq)));
        }
        assert!(r.seqs.len() <= MAX_TRACKED);
        assert!(r.dropped_forwards > 0);
    }

    #[test]
    fn small_map_is_key_sorted_in_memory_and_in_snapshots() {
        let mut m = SmallMap::new();
        for (k, v) in [(9u16, 1u64), (2, 7), (u16::MAX, 3), (2, 8), (0, 5)] {
            m.insert(k, v);
        }
        m.remove(9);
        assert_eq!((m.len(), m.get(2), m.get(9)), (3, Some(&8), None));
        // The sorted-`(key, value)` list a hash map of the same content
        // encodes to.
        let sorted = vec![(0u16, 5u64), (2, 8), (u16::MAX, 3)];
        let (mut a, mut b) = (Writer::new(), Writer::new());
        m.put(&mut a);
        sorted.put(&mut b);
        let bytes = a.into_bytes();
        assert_eq!(bytes, b.into_bytes());
        let back: SmallMap<u64> = Snap::get(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.0, sorted);
        // Duplicate or descending keys decode as a list but not as a map.
        for bad in [vec![(2u16, 0u64), (2, 1)], vec![(3, 0), (1, 0)]] {
            let mut w = Writer::new();
            bad.put(&mut w);
            let got: Result<SmallMap<u64>, _> = Snap::get(&mut Reader::new(&w.into_bytes()));
            assert!(matches!(got, Err(SnapError::Malformed(_))));
        }
    }

    #[test]
    #[should_panic(expected = "cannot be both")]
    fn overlapping_roles_rejected() {
        BridgeRelay::new(1, ClockIdentity::for_index(10), 1, vec![1, 2]);
    }

    /// Bridge 1 of a three-bridge mesh, two stations per bridge: ports
    /// 0/1 to the stations, 2 toward bridge 0, 3 toward bridge 2.
    fn bridge(relays_announce: bool) -> Bridge {
        let mesh = vec![Some(2), None, Some(3)];
        Bridge::new(ClockIdentity::for_index(10), 1, 2, mesh, relays_announce)
    }

    #[test]
    fn relay_tree_follows_the_root() {
        let mut b = bridge(false);
        let shape =
            |b: &Bridge, d: usize| (b.relays[d].slave_port, b.relays[d].master_ports.clone());
        // Static roots: domain d at bridge d.
        assert_eq!(shape(&b, 0), (2, vec![0, 1]));
        assert_eq!(shape(&b, 1), (0, vec![1, 2, 3]));
        b.reroot(1, 2);
        assert_eq!(shape(&b, 1), (3, vec![0, 1]));
        b.reroot(0, 1);
        assert_eq!(shape(&b, 0), (0, vec![1, 2, 3]));
    }

    #[test]
    fn sync_relayed_with_tokens_and_follow_up_on_tx_timestamp() {
        let mut b = bridge(false);
        let mut out = Vec::new();
        let rx = ClockTime::from_nanos(1_000);
        assert!(b.receive(2, &sync_msg(0, 7).encode(), rx, &mut out));
        let ports: Vec<u8> = out.iter().map(|tx| tx.port).collect();
        assert_eq!(ports, [0, 1]);
        let token = out[0].token.expect("relayed Sync is an event message");
        assert_eq!(token, TxToken::RelayedSync { domain: 0, seq: 7 });
        assert!(out.iter().all(|tx| tx.timing == TxTiming::Residence));
        out.clear();
        // Unmeasured ingress link: the 2 µs assumption enters the
        // correction (0 upstream + 2000 link + 500 residence).
        assert!(b.receive(2, &fu_msg(0, 7, 0, 0, 0).encode(), rx, &mut out));
        b.tx_timestamp(0, token, rx + Nanos::from_nanos(500), &mut out);
        let [fu] = out.as_slice() else {
            panic!("one follow-up for the departed port, got {out:?}");
        };
        assert_eq!((fu.port, fu.token, fu.timing), (0, None, TxTiming::Driver));
        let m = Message::decode(&fu.bytes).unwrap();
        assert_eq!(m.header().correction.to_nanos(), Nanos::from_nanos(2_500));
    }

    fn announce(trace: Vec<ClockIdentity>, steps_removed: u16, seq: u16, corr_ns: i64) -> Bytes {
        let port = PortIdentity::new(ClockIdentity::for_index(1), 1);
        let mut header = Header::new(MessageType::Announce, 2, port, seq, 0);
        header.correction = Correction::from_nanos(Nanos::from_nanos(corr_ns));
        let body = crate::msg::AnnounceBody {
            current_utc_offset: 37,
            priority1: 100,
            quality: Default::default(),
            priority2: 248,
            gm_identity: ClockIdentity::for_index(1),
            steps_removed,
            time_source: 0xA0,
        };
        Message::Announce {
            header,
            body,
            path_trace: trace,
        }
        .encode()
    }

    #[test]
    fn announce_flooded_or_counted_by_deployment() {
        let ann = announce(vec![ClockIdentity::for_index(1)], 0, 0, 0);
        let mut out = Vec::new();
        assert!(!bridge(false).receive(0, &ann, ClockTime::ZERO, &mut out));
        assert!(out.is_empty());
        assert!(bridge(true).receive(0, &ann, ClockTime::ZERO, &mut out));
        let ports: Vec<u8> = out.iter().map(|tx| tx.port).collect();
        assert_eq!(ports, [1, 2, 3]);
        // Looping back: own identity is in the trace now.
        let looped = out[0].bytes.clone();
        out.clear();
        assert!(bridge(true).receive(2, &looped, ClockTime::ZERO, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn announce_relay_is_split_horizon() {
        let relayed_to = |ingress: u8, trace: Vec<ClockIdentity>| {
            let mut out = Vec::new();
            let ann = announce(trace, 0, 0, 0);
            assert!(bridge(true).receive(ingress, &ann, ClockTime::ZERO, &mut out));
            out.iter().map(|tx| tx.port).collect::<Vec<u8>>()
        };
        let sender = vec![ClockIdentity::for_index(1)];
        // From a local station: the other station and the whole mesh.
        assert_eq!(relayed_to(0, sender.clone()), [1, 2, 3]);
        assert_eq!(relayed_to(1, sender.clone()), [0, 2, 3]);
        // From another bridge: the local stations, never a mesh port.
        assert_eq!(relayed_to(2, sender.clone()), [0, 1]);
        assert_eq!(relayed_to(3, sender), [0, 1]);
        // Own identity in the trace: nowhere, whatever the ingress.
        let looped = vec![ClockIdentity::for_index(1), ClockIdentity::for_index(10)];
        assert_eq!(relayed_to(0, looped.clone()), []);
        assert_eq!(relayed_to(3, looped), []);
    }

    #[test]
    fn undecodable_frame_is_reported() {
        let mut out = Vec::new();
        let sync = sync_msg(0, 7).encode();
        let mut unknown = sync.to_vec();
        unknown[0] = (unknown[0] & 0xF0) | 0x7; // no such messageType
        let truncated = &sync[..sync.len() - 1];
        for b in [bridge(false), bridge(true)].iter_mut() {
            assert!(!b.receive(2, &unknown, ClockTime::ZERO, &mut out));
            assert!(!b.receive(2, truncated, ClockTime::ZERO, &mut out));
            assert!(b.receive(2, &sync, ClockTime::ZERO, &mut out));
            assert_eq!(out.len(), 2, "only the intact Sync is relayed");
            out.clear();
        }
    }

    /// A relaying bridge reports an Announce it cannot decode (a loop
    /// is dropped silently); a TLV the codec does not know is ignored
    /// by it, so that Announce is relayed with a fresh path trace.
    #[test]
    fn relaying_bridge_reports_an_undecodable_announce() {
        let own = ClockIdentity::for_index(10);
        let sender = ClockIdentity::for_index(1);
        let ann = announce(vec![sender], 0, 0, 0);
        let truncated = &ann[..50];
        let mut bad_trace = ann.to_vec();
        bad_trace[67] = 7; // PATH_TRACE length: not a whole identity
        let mut unknown_tlv = ann.to_vec();
        unknown_tlv[64..66].copy_from_slice(&[0x00, 0x03]);
        let looped = announce(vec![sender, own], 0, 0, 0);
        for (frame, verdict) in [
            (truncated, AnnounceRelay::Undecodable),
            (&bad_trace[..], AnnounceRelay::Undecodable),
            (&looped[..], AnnounceRelay::Loop),
        ] {
            assert_eq!(forward_announce(frame, own), verdict);
            let mut out = Vec::new();
            let handled = bridge(true).receive(0, frame, ClockTime::ZERO, &mut out);
            assert_eq!(handled, verdict == AnnounceRelay::Loop, "{verdict:?}");
            assert!(out.is_empty());
        }
        let mut out = Vec::new();
        assert!(bridge(true).receive(0, &unknown_tlv, ClockTime::ZERO, &mut out));
        assert_eq!(out.len(), 3);
        let Message::Announce { path_trace, .. } = Message::decode(&out[0].bytes).unwrap() else {
            panic!("an Announce is relayed as an Announce");
        };
        assert_eq!(path_trace, [own]);
    }

    use proptest::prelude::*;

    proptest! {
        /// On every Announce the encoder can write, the byte patch and
        /// the decode -> re-encode path forward identical bytes and take
        /// identical loop-drop decisions.
        #[test]
        fn announce_patch_agrees_with_codec(
            len in 0usize..=32,
            own_at in proptest::option::of(0usize..32),
            steps in prop_oneof![Just(u16::MAX), any::<u16>()],
            seq in any::<u16>(),
            corr_ns in -1_000_000i64..1_000_000,
        ) {
            let own = ClockIdentity::for_index(7);
            let mut trace: Vec<_> = (0..len as u32).map(|i| ClockIdentity::for_index(100 + i)).collect();
            if let Some(slot) = own_at.and_then(|i| trace.get_mut(i)) {
                *slot = own;
            }
            let bytes = announce(trace, steps, seq, corr_ns);
            let verdict = reencode_announce(&bytes, own);
            let looped = own_at.is_some_and(|i| i < len);
            prop_assert_eq!(verdict == AnnounceRelay::Loop, looped);
            prop_assert!(verdict != AnnounceRelay::Undecodable);
            prop_assert_eq!(patch_announce(&bytes, own), Some(verdict));
        }

        /// Any byte out of the canonical form — wrong length field,
        /// non-zero reserved field, extra TLV — takes the decode path.
        #[test]
        fn non_canonical_announce_takes_decode_path(
            len in 0usize..=8,
            // messageLength, minorSdoId, messageTypeSpecific,
            // originTimestamp, reserved body byte, PATH_TRACE type/length.
            at in prop_oneof![Just(3usize), Just(5), Just(19), Just(40), Just(46), Just(65), Just(67)],
            extra_tlv in any::<bool>(),
        ) {
            let own = ClockIdentity::for_index(7);
            let trace = (0..len as u32).map(|i| ClockIdentity::for_index(100 + i)).collect();
            let mut bytes = announce(trace, 3, 9, 0).to_vec();
            if extra_tlv {
                bytes.extend_from_slice(&[0x00, 0x03, 0x00, 0x04, 1, 2, 3, 4]);
                let total = (bytes.len() as u16).to_be_bytes();
                bytes[2..4].copy_from_slice(&total);
            } else {
                bytes[at] ^= 0x01;
            }
            prop_assert_eq!(patch_announce(&bytes, own), None);
            prop_assert_eq!(forward_announce(&bytes, own), reencode_announce(&bytes, own));
        }
    }
}
