//! Per-domain end-station port machinery: Sync master and Sync slave.
//!
//! A clock-synchronization VM runs one instance per gPTP domain (the
//! paper's `M` `ptp4l` processes). On its own domain a grandmaster VM
//! runs a [`SyncMaster`]; on every other domain it runs a [`SyncSlave`].
//! Redundant (non-GM) VMs run slaves on all domains.
//!
//! Engines are sans-IO: the experiment world feeds them frames and
//! hardware timestamps and transmits whatever bytes they emit.

use crate::msg::{FollowUpTlv, Header, Message, MessageType, FLAG_TWO_STEP};
use crate::types::{rate_ratio, PortIdentity, PtpTimestamp};
use bytes::Bytes;
use tsn_time::{ClockTime, Nanos};

/// A grandmaster's per-domain Sync transmitter (two-step).
///
/// The flow per synchronization interval:
/// 1. [`SyncMaster::make_sync`] produces the `Sync` bytes; the caller
///    schedules them with an ETF launch time on the interval boundary;
/// 2. once the NIC reports the hardware egress timestamp, the caller
///    invokes [`SyncMaster::sync_sent`] to obtain the `Follow_Up`;
/// 3. if timestamp retrieval times out (the igb driver fault the paper
///    observed 2992 times in 24 h), the caller invokes
///    [`SyncMaster::sync_tx_failed`] instead and no `Follow_Up` is sent.
#[derive(Debug, Clone)]
pub struct SyncMaster {
    domain: u8,
    port: PortIdentity,
    log_sync_interval: i8,
    one_step: bool,
    next_seq: u16,
    pending: Option<u16>,
    /// Malicious shift applied to the `preciseOriginTimestamp`. Zero for
    /// a benign master; the paper's attacker sets −24 µs after rooting
    /// the GM VM.
    pub pot_offset: Nanos,
    /// Count of Sync transmissions whose Follow_Up was never sent because
    /// the hardware transmit timestamp could not be retrieved.
    pub tx_timestamp_timeouts: u64,
    /// Count of Syncs dropped by the ETF qdisc (launch deadline missed).
    pub tx_deadline_misses: u64,
}

impl SyncMaster {
    /// Creates a master for `domain` with the given sync interval
    /// (log2 seconds; −3 is the paper's 125 ms).
    pub fn new(domain: u8, port: PortIdentity, log_sync_interval: i8) -> Self {
        SyncMaster {
            domain,
            port,
            log_sync_interval,
            one_step: false,
            next_seq: 0,
            pending: None,
            pot_offset: Nanos::ZERO,
            tx_timestamp_timeouts: 0,
            tx_deadline_misses: 0,
        }
    }

    /// The master's domain.
    pub fn domain(&self) -> u8 {
        self.domain
    }

    /// Builds the next `Sync`; returns the encoded bytes and its
    /// sequence id.
    ///
    /// If the previous `Sync` is still awaiting its transmit timestamp the
    /// pending state is abandoned (counted as a timeout).
    pub fn make_sync(&mut self) -> (Bytes, u16) {
        if self.pending.take().is_some() {
            self.tx_timestamp_timeouts += 1;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.pending = Some(seq);
        let msg = Message::Sync {
            header: Header::new(
                MessageType::Sync,
                self.domain,
                self.port,
                seq,
                self.log_sync_interval,
            ),
            origin: PtpTimestamp::default(),
        };
        (msg.encode(), seq)
    }

    /// The `Sync` with id `seq` departed at hardware timestamp `tx_ts`;
    /// returns the corresponding `Follow_Up`.
    ///
    /// The `preciseOriginTimestamp` is `tx_ts + pot_offset` — the benign
    /// value when `pot_offset` is zero, the Byzantine value otherwise.
    pub fn sync_sent(&mut self, seq: u16, tx_ts: ClockTime) -> Option<Bytes> {
        if self.pending != Some(seq) {
            return None;
        }
        self.pending = None;
        let fu = Message::FollowUp {
            header: Header::new(
                MessageType::FollowUp,
                self.domain,
                self.port,
                seq,
                self.log_sync_interval,
            ),
            precise_origin: PtpTimestamp::from_clock_time(tx_ts + self.pot_offset),
            tlv: FollowUpTlv::default(), // GM: cumulative rate offset 0
        };
        Some(fu.encode())
    }

    /// Transmit-timestamp retrieval for `seq` timed out; no `Follow_Up`
    /// is produced.
    pub fn sync_tx_failed(&mut self, seq: u16) {
        if self.pending == Some(seq) {
            self.pending = None;
            self.tx_timestamp_timeouts += 1;
        }
    }

    /// The `Sync` with id `seq` missed its launch deadline and was
    /// dropped by the qdisc.
    pub fn sync_deadline_missed(&mut self, seq: u16) {
        if self.pending == Some(seq) {
            self.pending = None;
            self.tx_deadline_misses += 1;
        }
    }

    /// The current log2 Sync interval.
    pub fn log_sync_interval(&self) -> i8 {
        self.log_sync_interval
    }

    /// Switches to one-step operation (802.1AS-2020 optional feature,
    /// supported by e.g. the Intel I210): the hardware inserts the egress
    /// timestamp into the Sync itself and no Follow_Up is sent.
    pub fn set_one_step(&mut self, one_step: bool) {
        self.one_step = one_step;
    }

    /// `true` in one-step operation.
    pub fn is_one_step(&self) -> bool {
        self.one_step
    }

    /// One-step only: produces the final Sync bytes with the hardware
    /// egress timestamp inserted (what the NIC does on the wire). No
    /// Follow_Up follows.
    ///
    /// # Panics
    ///
    /// Panics if the master is in two-step mode.
    pub fn finalize_one_step(&mut self, seq: u16, tx_ts: ClockTime) -> Option<Bytes> {
        // Unreachable in a run: only this crate's tests call `set_one_step` or this.
        assert!(self.one_step, "finalize_one_step requires one-step mode");
        if self.pending != Some(seq) {
            return None;
        }
        self.pending = None;
        let mut header = Header::new(
            MessageType::Sync,
            self.domain,
            self.port,
            seq,
            self.log_sync_interval,
        );
        header.flags &= !FLAG_TWO_STEP;
        Some(
            Message::Sync {
                header,
                origin: PtpTimestamp::from_clock_time(tx_ts + self.pot_offset),
            }
            .encode(),
        )
    }
}

/// A slave's view of one completed Sync/Follow_Up pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetSample {
    /// gPTP domain the sample belongs to.
    pub domain: u8,
    /// Offset of the local clock from the domain GM:
    /// `rx_ts − (preciseOrigin + correction + meanLinkDelay)`.
    pub offset: Nanos,
    /// Local hardware receive timestamp of the `Sync`.
    pub sync_rx_local: ClockTime,
    /// The corrected origin (GM time of the Sync's arrival instant).
    pub corrected_origin: ClockTime,
    /// Cumulative GM-to-local rate ratio.
    pub rate_ratio: f64,
    /// Source port of the Sync (the upstream master).
    pub source_port: PortIdentity,
}

#[derive(Debug, Clone, Copy)]
struct PendingSync {
    seq: u16,
    rx_ts: ClockTime,
    source: PortIdentity,
}

/// A per-domain Sync receiver computing GM offsets.
#[derive(Debug, Clone)]
pub struct SyncSlave {
    domain: u8,
    pending: Option<PendingSync>,
    /// Syncs whose Follow_Up never arrived.
    pub missed_follow_ups: u64,
    /// Last completed sample.
    last_sample: Option<OffsetSample>,
    /// Local receive timestamp of the last Sync (any completeness).
    last_sync_rx: Option<ClockTime>,
}

impl SyncSlave {
    /// Creates a slave for `domain`.
    pub fn new(domain: u8) -> Self {
        SyncSlave {
            domain,
            pending: None,
            missed_follow_ups: 0,
            last_sample: None,
            last_sync_rx: None,
        }
    }

    /// The slave's domain.
    pub fn domain(&self) -> u8 {
        self.domain
    }

    /// The most recent completed sample, if any.
    pub fn last_sample(&self) -> Option<&OffsetSample> {
        self.last_sample.as_ref()
    }

    /// One-step reception: a `Sync` with the two-step flag clear carries
    /// its own origin timestamp and correction; the offset is computed
    /// immediately, no Follow_Up is expected.
    ///
    /// Returns `None` for two-step Syncs (use
    /// [`SyncSlave::handle_sync`] + [`SyncSlave::handle_follow_up`]).
    pub fn handle_one_step_sync(
        &mut self,
        msg: &Message,
        rx_ts: ClockTime,
        mean_link_delay: Nanos,
        local_nrr: f64,
    ) -> Option<OffsetSample> {
        let Message::Sync { header, origin } = msg else {
            return None;
        };
        if header.domain != self.domain || header.flags & FLAG_TWO_STEP != 0 {
            return None;
        }
        let corrected_origin =
            origin.to_clock_time() + header.correction.to_nanos() + mean_link_delay;
        let sample = OffsetSample {
            domain: self.domain,
            offset: rx_ts - corrected_origin,
            sync_rx_local: rx_ts,
            corrected_origin,
            rate_ratio: local_nrr,
            source_port: header.source_port,
        };
        self.last_sample = Some(sample);
        Some(sample)
    }

    /// Handles a received `Sync` (hardware rx timestamp `rx_ts`).
    pub fn handle_sync(&mut self, msg: &Message, rx_ts: ClockTime) {
        let Message::Sync { header, .. } = msg else {
            return;
        };
        if header.domain != self.domain {
            return;
        }
        if self.pending.take().is_some() {
            self.missed_follow_ups += 1;
        }
        self.last_sync_rx = Some(rx_ts);
        self.pending = Some(PendingSync {
            seq: header.sequence_id,
            rx_ts,
            source: header.source_port,
        });
    }

    /// Handles the matching `Follow_Up`, producing an offset sample.
    ///
    /// `mean_link_delay` and `local_nrr` come from the port's shared
    /// peer-delay service.
    pub fn handle_follow_up(
        &mut self,
        msg: &Message,
        mean_link_delay: Nanos,
        local_nrr: f64,
    ) -> Option<OffsetSample> {
        let Message::FollowUp {
            header,
            precise_origin,
            tlv,
        } = msg
        else {
            return None;
        };
        if header.domain != self.domain {
            return None;
        }
        let pending = self.pending?;
        if header.sequence_id != pending.seq || header.source_port != pending.source {
            return None;
        }
        self.pending = None;

        let origin = precise_origin.to_clock_time();
        let correction = header.correction.to_nanos();
        let corrected_origin = origin + correction + mean_link_delay;
        let offset = pending.rx_ts - corrected_origin;
        let cumulative = rate_ratio::from_scaled(tlv.cumulative_scaled_rate_offset);
        // Rate ratios compose multiplicatively; for ppm-scale deviations
        // the additive approximation the standard uses is exact enough.
        let rr = cumulative * local_nrr;
        let sample = OffsetSample {
            domain: self.domain,
            offset,
            sync_rx_local: pending.rx_ts,
            corrected_origin,
            rate_ratio: rr,
            source_port: header.source_port,
        };
        self.last_sample = Some(sample);
        Some(sample)
    }

    /// Clears any half-completed state (used when the upstream master
    /// changes or the VM restarts).
    pub fn reset(&mut self) {
        if self.pending.take().is_some() {
            self.missed_follow_ups += 1;
        }
        self.last_sample = None;
        self.last_sync_rx = None;
    }
}

use tsn_snapshot::{snap_state, snap_struct};

snap_struct!(OffsetSample {
    domain,
    offset,
    sync_rx_local,
    corrected_origin,
    rate_ratio,
    source_port,
});
snap_struct!(PendingSync { seq, rx_ts, source });

snap_state!(SyncMaster {
    log_sync_interval,
    one_step,
    next_seq,
    pending,
    pot_offset,
    tx_timestamp_timeouts,
    tx_deadline_misses,
});

snap_state!(SyncSlave {
    pending,
    missed_follow_ups,
    last_sample,
    last_sync_rx,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClockIdentity;

    fn pid(i: u32) -> PortIdentity {
        PortIdentity::new(ClockIdentity::for_index(i), 1)
    }

    fn complete_exchange(
        master: &mut SyncMaster,
        slave: &mut SyncSlave,
        tx_ts: i64,
        rx_ts: i64,
        link_delay: i64,
    ) -> Option<OffsetSample> {
        let (sync_bytes, seq) = master.make_sync();
        let sync = Message::decode(&sync_bytes).unwrap();
        slave.handle_sync(&sync, ClockTime::from_nanos(rx_ts));
        let fu_bytes = master.sync_sent(seq, ClockTime::from_nanos(tx_ts)).unwrap();
        let fu = Message::decode(&fu_bytes).unwrap();
        slave.handle_follow_up(&fu, Nanos::from_nanos(link_delay), 1.0)
    }

    #[test]
    fn offset_zero_for_synchronized_clocks() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        // Slave receives 2500 ns after tx; link delay measured as 2500.
        let s = complete_exchange(&mut master, &mut slave, 1_000_000, 1_002_500, 2_500).unwrap();
        assert_eq!(s.offset, Nanos::ZERO);
    }

    #[test]
    fn offset_reflects_clock_skew() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        // Slave clock 10 µs ahead of GM.
        let s = complete_exchange(
            &mut master,
            &mut slave,
            1_000_000,
            1_002_500 + 10_000,
            2_500,
        )
        .unwrap();
        assert_eq!(s.offset, Nanos::from_micros(10));
    }

    #[test]
    fn malicious_pot_offset_shifts_measured_offset() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        master.pot_offset = Nanos::from_micros(-24);
        let mut slave = SyncSlave::new(1);
        let s = complete_exchange(&mut master, &mut slave, 1_000_000, 1_002_500, 2_500).unwrap();
        // POT shifted −24 µs makes the slave believe it is +24 µs ahead.
        assert_eq!(s.offset, Nanos::from_micros(24));
    }

    #[test]
    fn wrong_domain_ignored() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(2);
        assert!(complete_exchange(&mut master, &mut slave, 0, 0, 0).is_none());
    }

    #[test]
    fn follow_up_without_sync_ignored() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        let (_, seq) = master.make_sync();
        let fu_bytes = master.sync_sent(seq, ClockTime::from_nanos(5)).unwrap();
        let fu = Message::decode(&fu_bytes).unwrap();
        assert!(slave.handle_follow_up(&fu, Nanos::ZERO, 1.0).is_none());
    }

    #[test]
    fn mismatched_sequence_ignored() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        let (sync_bytes, seq) = master.make_sync();
        let sync = Message::decode(&sync_bytes).unwrap();
        slave.handle_sync(&sync, ClockTime::from_nanos(100));
        // Forge a follow-up with a different sequence id.
        let fu = Message::FollowUp {
            header: Header::new(MessageType::FollowUp, 1, pid(1), seq.wrapping_add(1), -3),
            precise_origin: PtpTimestamp::default(),
            tlv: FollowUpTlv::default(),
        };
        assert!(slave.handle_follow_up(&fu, Nanos::ZERO, 1.0).is_none());
    }

    #[test]
    fn tx_timeout_counted_and_no_follow_up() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let (_, seq) = master.make_sync();
        master.sync_tx_failed(seq);
        assert_eq!(master.tx_timestamp_timeouts, 1);
        // Late timestamp arrival after the failure is ignored.
        assert!(master.sync_sent(seq, ClockTime::ZERO).is_none());
    }

    #[test]
    fn abandoned_pending_sync_counts_as_timeout() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let _ = master.make_sync();
        let _ = master.make_sync(); // previous never timestamped
        assert_eq!(master.tx_timestamp_timeouts, 1);
    }

    #[test]
    fn deadline_miss_counted() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let (_, seq) = master.make_sync();
        master.sync_deadline_missed(seq);
        assert_eq!(master.tx_deadline_misses, 1);
    }

    #[test]
    fn missed_follow_up_counted_on_next_sync() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        let (sync_bytes, _) = master.make_sync();
        let sync = Message::decode(&sync_bytes).unwrap();
        slave.handle_sync(&sync, ClockTime::from_nanos(1));
        let (sync_bytes2, _) = master.make_sync();
        let sync2 = Message::decode(&sync_bytes2).unwrap();
        slave.handle_sync(&sync2, ClockTime::from_nanos(2));
        assert_eq!(slave.missed_follow_ups, 1);
    }

    #[test]
    fn one_step_exchange_computes_offset_without_follow_up() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        master.set_one_step(true);
        assert!(master.is_one_step());
        let mut slave = SyncSlave::new(1);
        let (_template, seq) = master.make_sync();
        // Hardware inserts the egress timestamp at departure.
        let bytes = master
            .finalize_one_step(seq, ClockTime::from_nanos(1_000_000))
            .expect("finalized");
        let sync = Message::decode(&bytes).unwrap();
        assert_eq!(sync.header().flags & FLAG_TWO_STEP, 0, "one-step flag");
        let sample = slave
            .handle_one_step_sync(
                &sync,
                ClockTime::from_nanos(1_002_500 + 750),
                Nanos::from_nanos(2_500),
                1.0,
            )
            .expect("one-step sample");
        assert_eq!(sample.offset, Nanos::from_nanos(750));
        // No pending Follow_Up state was created.
        assert_eq!(slave.missed_follow_ups, 0);
    }

    #[test]
    fn one_step_malicious_origin_shifts_offset() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        master.set_one_step(true);
        master.pot_offset = Nanos::from_micros(-24);
        let mut slave = SyncSlave::new(1);
        let (_t, seq) = master.make_sync();
        let bytes = master
            .finalize_one_step(seq, ClockTime::from_nanos(1_000_000))
            .unwrap();
        let sync = Message::decode(&bytes).unwrap();
        let sample = slave
            .handle_one_step_sync(
                &sync,
                ClockTime::from_nanos(1_002_500),
                Nanos::from_nanos(2_500),
                1.0,
            )
            .unwrap();
        assert_eq!(sample.offset, Nanos::from_micros(24));
    }

    #[test]
    fn two_step_sync_rejected_by_one_step_handler() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        let (bytes, _) = master.make_sync();
        let sync = Message::decode(&bytes).unwrap();
        assert!(slave
            .handle_one_step_sync(&sync, ClockTime::ZERO, Nanos::ZERO, 1.0)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "requires one-step mode")]
    fn finalize_one_step_in_two_step_mode_panics() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let (_b, seq) = master.make_sync();
        let _ = master.finalize_one_step(seq, ClockTime::ZERO);
    }

    #[test]
    fn correction_field_applied() {
        let mut master = SyncMaster::new(1, pid(1), -3);
        let mut slave = SyncSlave::new(1);
        let (sync_bytes, seq) = master.make_sync();
        let sync = Message::decode(&sync_bytes).unwrap();
        slave.handle_sync(&sync, ClockTime::from_nanos(10_000));
        let fu_bytes = master.sync_sent(seq, ClockTime::from_nanos(1_000)).unwrap();
        // Simulate a bridge adding 3 µs of residence correction.
        let mut fu = Message::decode(&fu_bytes).unwrap();
        if let Message::FollowUp { header, .. } = &mut fu {
            header.correction = Correction::from_nanos(Nanos::from_micros(3));
        }
        let s = slave
            .handle_follow_up(&fu, Nanos::from_nanos(2_000), 1.0)
            .unwrap();
        // offset = 10000 − (1000 + 3000 + 2000) = 4000.
        assert_eq!(s.offset, Nanos::from_nanos(4_000));
    }

    use crate::types::Correction;
}
