//! IEEE 802.1AS message wire formats.
//!
//! Byte-level encode/decode of the gPTP message set: the IEEE 1588 common
//! header (34 bytes), two-step `Sync`, `Follow_Up` with the 802.1AS
//! Follow_Up information TLV (`cumulativeScaledRateOffset` et al.), the
//! peer-delay triple, and `Announce`.
//!
//! Frames on the simulated wire are these bytes; the malicious `ptp4l` of
//! the paper's cyber-resilience experiment manipulates the encoded
//! `preciseOriginTimestamp`, so nothing downstream can tell a Byzantine
//! grandmaster from an honest one except by its timing content.

use crate::types::{ClockIdentity, ClockQuality, Correction, PortIdentity, PtpTimestamp};
use std::fmt;
use tsn_time::Nanos;

/// gPTP `majorSdoId` (transportSpecific) nibble.
pub const GPTP_MAJOR_SDO_ID: u8 = 0x1;
/// PTP version encoded in all messages.
pub const PTP_VERSION: u8 = 0x02;

/// Two-step flag (octet 0 bit 1 of the flags field).
pub const FLAG_TWO_STEP: u16 = 0x0200;
/// PTP timescale flag (octet 1 bit 3).
pub const FLAG_PTP_TIMESCALE: u16 = 0x0008;

/// PTP message types (IEEE 1588 Table 36).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageType {
    /// Event: Sync.
    Sync = 0x0,
    /// Event: Pdelay_Req.
    PdelayReq = 0x2,
    /// Event: Pdelay_Resp.
    PdelayResp = 0x3,
    /// General: Follow_Up.
    FollowUp = 0x8,
    /// General: Pdelay_Resp_Follow_Up.
    PdelayRespFollowUp = 0xA,
    /// General: Announce.
    Announce = 0xB,
}

impl MessageType {
    fn from_nibble(n: u8) -> Option<MessageType> {
        Some(match n {
            0x0 => MessageType::Sync,
            0x2 => MessageType::PdelayReq,
            0x3 => MessageType::PdelayResp,
            0x8 => MessageType::FollowUp,
            0xA => MessageType::PdelayRespFollowUp,
            0xB => MessageType::Announce,
            _ => return None,
        })
    }

    /// Lower-case name for logs and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            MessageType::Sync => "sync",
            MessageType::PdelayReq => "pdelay_req",
            MessageType::PdelayResp => "pdelay_resp",
            MessageType::FollowUp => "follow_up",
            MessageType::PdelayRespFollowUp => "pdelay_resp_follow_up",
            MessageType::Announce => "announce",
        }
    }

    /// Reads the message type from the first byte of an encoded message
    /// without decoding the rest — the type lives in the low nibble of
    /// octet 0, so observers (tracing, packet filters) can classify a
    /// frame allocation-free. `None` for empty or non-PTP payloads.
    pub fn peek(payload: &[u8]) -> Option<MessageType> {
        MessageType::from_nibble(*payload.first()? & 0x0F)
    }

    /// `true` for event messages (hardware-timestamped on rx/tx).
    pub fn is_event(self) -> bool {
        matches!(
            self,
            MessageType::Sync | MessageType::PdelayReq | MessageType::PdelayResp
        )
    }

    /// IEEE 1588 controlField value for this type.
    fn control_field(self) -> u8 {
        match self {
            MessageType::Sync => 0,
            MessageType::FollowUp => 2,
            _ => 5,
        }
    }
}

/// The IEEE 1588 common message header (34 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Message type.
    pub message_type: MessageType,
    /// gPTP domain number.
    pub domain: u8,
    /// Flag field (big-endian u16 of the two flag octets).
    pub flags: u16,
    /// Correction field.
    pub correction: Correction,
    /// Sending port identity.
    pub source_port: PortIdentity,
    /// Sequence id.
    pub sequence_id: u16,
    /// log2 of the message interval in seconds.
    pub log_message_interval: i8,
}

/// `interval` as a header's `logMessageInterval`: log2 of the interval
/// in seconds, rounded (125 ms → −3).
pub fn log2_interval(interval: Nanos) -> i8 {
    interval.as_secs_f64().log2().round() as i8
}

impl Header {
    /// Creates a header with gPTP-typical flags for the message type.
    pub fn new(
        message_type: MessageType,
        domain: u8,
        source_port: PortIdentity,
        sequence_id: u16,
        log_message_interval: i8,
    ) -> Header {
        let mut flags = FLAG_PTP_TIMESCALE;
        if matches!(message_type, MessageType::Sync | MessageType::PdelayResp) {
            flags |= FLAG_TWO_STEP;
        }
        Header {
            message_type,
            domain,
            flags,
            correction: Correction::ZERO,
            source_port,
            sequence_id,
            log_message_interval,
        }
    }

    fn encode_into(&self, buf: &mut StackBuf, message_length: u16) {
        buf.put_u8((GPTP_MAJOR_SDO_ID << 4) | (self.message_type as u8));
        buf.put_u8(PTP_VERSION);
        buf.put_u16(message_length);
        buf.put_u8(self.domain);
        buf.put_u8(0); // minorSdoId
        buf.put_u16(self.flags);
        buf.put_i64(self.correction.scaled());
        buf.put_u32(0); // messageTypeSpecific
        buf.put_slice(&self.source_port.clock.0);
        buf.put_u16(self.source_port.port);
        buf.put_u16(self.sequence_id);
        buf.put_u8(self.message_type.control_field());
        buf.put_i8(self.log_message_interval);
    }

    fn decode(b: &[u8]) -> Result<(Header, u16), DecodeError> {
        if b.len() < 34 {
            return Err(DecodeError::Truncated);
        }
        let message_type =
            MessageType::from_nibble(b[0] & 0x0F).ok_or(DecodeError::UnknownType(b[0] & 0x0F))?;
        if b[1] & 0x0F != PTP_VERSION {
            return Err(DecodeError::BadVersion(b[1]));
        }
        let message_length = u16::from_be_bytes([b[2], b[3]]);
        if usize::from(message_length) > b.len() {
            return Err(DecodeError::Truncated);
        }
        let domain = b[4];
        let flags = u16::from_be_bytes([b[6], b[7]]);
        let correction = Correction::from_scaled(i64::from_be_bytes(
            be_array(b, 8).ok_or(DecodeError::Truncated)?,
        ));
        let clock = ClockIdentity(be_array(b, 20).ok_or(DecodeError::Truncated)?);
        let port = u16::from_be_bytes([b[28], b[29]]);
        let sequence_id = u16::from_be_bytes([b[30], b[31]]);
        let log_message_interval = b[33] as i8;
        Ok((
            Header {
                message_type,
                domain,
                flags,
                correction,
                source_port: PortIdentity::new(clock, port),
                sequence_id,
                log_message_interval,
            },
            message_length,
        ))
    }
}

/// The 802.1AS Follow_Up information TLV (clause 11.4.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowUpTlv {
    /// (rateRatio − 1) · 2⁴¹ accumulated from the GM to the sender.
    pub cumulative_scaled_rate_offset: i32,
    /// Incremented when the GM time base changes.
    pub gm_time_base_indicator: u16,
    /// Last GM phase change (we carry only the low 64 bits of the
    /// ScaledNs value; the rest encode as zero).
    pub last_gm_phase_change: i64,
    /// Last GM frequency change, scaled by 2⁴¹.
    pub scaled_last_gm_freq_change: i32,
}

const FOLLOW_UP_TLV_LEN: usize = 32;

impl FollowUpTlv {
    fn encode_into(&self, buf: &mut StackBuf) {
        buf.put_u16(0x0003); // ORGANIZATION_EXTENSION
        buf.put_u16(28); // lengthField
        buf.put_slice(&[0x00, 0x80, 0xC2]); // organizationId
        buf.put_slice(&[0x00, 0x00, 0x01]); // organizationSubType 1
        buf.put_i32(self.cumulative_scaled_rate_offset);
        buf.put_u16(self.gm_time_base_indicator);
        // lastGmPhaseChange is a 96-bit ScaledNs: 4 high bytes + 8 low.
        buf.put_u32(if self.last_gm_phase_change < 0 {
            0xFFFF_FFFF
        } else {
            0
        });
        buf.put_i64(self.last_gm_phase_change);
        buf.put_i32(self.scaled_last_gm_freq_change);
    }

    fn decode(b: &[u8]) -> Result<FollowUpTlv, DecodeError> {
        if b.len() < FOLLOW_UP_TLV_LEN {
            return Err(DecodeError::BadTlv);
        }
        if b[0..2] != [0x00, 0x03] || b[4..7] != [0x00, 0x80, 0xC2] {
            return Err(DecodeError::BadTlv);
        }
        let bad = DecodeError::BadTlv;
        Ok(FollowUpTlv {
            cumulative_scaled_rate_offset: i32::from_be_bytes(be_array(b, 10).ok_or(bad)?),
            gm_time_base_indicator: u16::from_be_bytes([b[14], b[15]]),
            last_gm_phase_change: i64::from_be_bytes(be_array(b, 20).ok_or(bad)?),
            scaled_last_gm_freq_change: i32::from_be_bytes(be_array(b, 28).ok_or(bad)?),
        })
    }
}

/// Announce message body (IEEE 1588 clause 13.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnounceBody {
    /// currentUtcOffset.
    pub current_utc_offset: i16,
    /// grandmasterPriority1.
    pub priority1: u8,
    /// grandmasterClockQuality.
    pub quality: ClockQuality,
    /// grandmasterPriority2.
    pub priority2: u8,
    /// grandmasterIdentity.
    pub gm_identity: ClockIdentity,
    /// stepsRemoved.
    pub steps_removed: u16,
    /// timeSource enumeration.
    pub time_source: u8,
}

/// A decoded gPTP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Sync. Two-step Syncs carry a zero origin timestamp (the precise
    /// origin arrives in the Follow_Up); one-step Syncs carry the
    /// hardware-inserted egress timestamp directly.
    Sync {
        /// Common header.
        header: Header,
        /// Origin timestamp (zero in two-step operation).
        origin: PtpTimestamp,
    },
    /// Follow_Up with preciseOriginTimestamp and information TLV.
    FollowUp {
        /// Common header (carries the accumulated correction).
        header: Header,
        /// Precise origin timestamp of the associated Sync.
        precise_origin: PtpTimestamp,
        /// Follow_Up information TLV.
        tlv: FollowUpTlv,
    },
    /// Pdelay_Req.
    PdelayReq {
        /// Common header.
        header: Header,
    },
    /// Pdelay_Resp carrying the request receipt timestamp (t2).
    PdelayResp {
        /// Common header.
        header: Header,
        /// t2 at the responder.
        request_receipt: PtpTimestamp,
        /// Identity of the requesting port.
        requesting_port: PortIdentity,
    },
    /// Pdelay_Resp_Follow_Up carrying the response origin timestamp (t3).
    PdelayRespFollowUp {
        /// Common header.
        header: Header,
        /// t3 at the responder.
        response_origin: PtpTimestamp,
        /// Identity of the requesting port.
        requesting_port: PortIdentity,
    },
    /// Announce (used when BMCA is enabled; the paper's experiments use
    /// external port configuration instead).
    Announce {
        /// Common header.
        header: Header,
        /// Announce body.
        body: AnnounceBody,
        /// Path trace TLV (clause 10.3.8.23): the clock identities the
        /// Announce has traversed, appended by each time-aware system.
        /// Used by BMCA to discard looping Announces.
        path_trace: Vec<ClockIdentity>,
    },
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes.
    Truncated,
    /// versionPTP field is not 2.
    BadVersion(u8),
    /// Unknown message type nibble.
    UnknownType(u8),
    /// Malformed Follow_Up information TLV.
    BadTlv,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported PTP version {v:#x}"),
            DecodeError::UnknownType(t) => write!(f, "unknown message type {t:#x}"),
            DecodeError::BadTlv => write!(f, "malformed follow-up TLV"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Capacity of [`StackBuf`]: the largest fixed-size message is the
/// 76-byte Follow_Up, and Announce's part before its path trace is 68.
const STACK_BUF_LEN: usize = 96;

/// Fixed-capacity stack buffer the encoder writes into: appending is a
/// bounds-checked big-endian copy with no growth path and no allocation.
struct StackBuf {
    bytes: [u8; STACK_BUF_LEN],
    len: usize,
}

impl Default for StackBuf {
    fn default() -> Self {
        StackBuf {
            bytes: [0; STACK_BUF_LEN],
            len: 0,
        }
    }
}

impl StackBuf {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.len + src.len();
        self.bytes[self.len..end].copy_from_slice(src);
        self.len = end;
    }

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i16(&mut self, v: i16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_timestamp(&mut self, ts: PtpTimestamp) {
        self.put_u16((ts.seconds >> 32) as u16);
        self.put_u32(ts.seconds as u32);
        self.put_u32(ts.nanoseconds);
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

fn get_timestamp(b: &[u8]) -> PtpTimestamp {
    let sec_hi = u64::from(u16::from_be_bytes([b[0], b[1]]));
    let sec_lo = u64::from(u32::from_be_bytes([b[2], b[3], b[4], b[5]]));
    PtpTimestamp {
        seconds: (sec_hi << 32) | sec_lo,
        nanoseconds: u32::from_be_bytes([b[6], b[7], b[8], b[9]]),
    }
}

/// The `N` bytes of `b` starting at `at`, or `None` when `b` is too
/// short — the decoder's only fixed-width read, so a wrong length check
/// surfaces as a decode error, never as a panic.
fn be_array<const N: usize>(b: &[u8], at: usize) -> Option<[u8; N]> {
    b.get(at..)?.first_chunk().copied()
}

fn get_port_identity(b: &[u8]) -> Result<PortIdentity, DecodeError> {
    let port: [u8; 2] = be_array(b, 8).ok_or(DecodeError::Truncated)?;
    Ok(PortIdentity::new(
        ClockIdentity(be_array(b, 0).ok_or(DecodeError::Truncated)?),
        u16::from_be_bytes(port),
    ))
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.header();
        match self {
            Message::Sync { .. } => write!(
                f,
                "Sync dom={} seq={} from={}",
                h.domain, h.sequence_id, h.source_port
            ),
            Message::FollowUp { precise_origin, .. } => write!(
                f,
                "Follow_Up dom={} seq={} pot={} corr={}",
                h.domain,
                h.sequence_id,
                precise_origin.to_clock_time(),
                h.correction.to_nanos()
            ),
            Message::PdelayReq { .. } => {
                write!(f, "Pdelay_Req seq={} from={}", h.sequence_id, h.source_port)
            }
            Message::PdelayResp { .. } => {
                write!(
                    f,
                    "Pdelay_Resp seq={} from={}",
                    h.sequence_id, h.source_port
                )
            }
            Message::PdelayRespFollowUp { .. } => write!(
                f,
                "Pdelay_Resp_Follow_Up seq={} from={}",
                h.sequence_id, h.source_port
            ),
            Message::Announce { body, .. } => write!(
                f,
                "Announce dom={} gm={} p1={} steps={}",
                h.domain, body.gm_identity, body.priority1, body.steps_removed
            ),
        }
    }
}

impl Message {
    /// The message's common header.
    pub fn header(&self) -> &Header {
        match self {
            Message::Sync { header, .. }
            | Message::FollowUp { header, .. }
            | Message::PdelayReq { header }
            | Message::PdelayResp { header, .. }
            | Message::PdelayRespFollowUp { header, .. }
            | Message::Announce { header, .. } => header,
        }
    }

    /// Encodes the message to wire bytes.
    ///
    /// Every message but Announce has a fixed size of at most
    /// [`STACK_BUF_LEN`] bytes: it is written into a stack buffer and
    /// copied once into its own allocation, so a frame costs one
    /// allocation. Announce writes its fixed part the same way, then
    /// both parts and its variable-length path trace go into one buffer
    /// of exact size.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = StackBuf::default();
        self.encode_into(&mut buf);
        let Message::Announce { path_trace, .. } = self else {
            return buf.as_slice().into();
        };
        let mut out = Vec::with_capacity(buf.len + 8 * path_trace.len());
        out.extend_from_slice(buf.as_slice());
        for id in path_trace {
            out.extend_from_slice(&id.0);
        }
        out.into_boxed_slice()
    }

    /// The encoder proper: the whole message, except the identities of
    /// an Announce's path trace, which [`Message::encode`] appends.
    fn encode_into(&self, buf: &mut StackBuf) {
        match self {
            Message::Sync { header, origin } => {
                header.encode_into(buf, 44);
                buf.put_timestamp(*origin);
            }
            Message::FollowUp {
                header,
                precise_origin,
                tlv,
            } => {
                header.encode_into(buf, (44 + FOLLOW_UP_TLV_LEN) as u16);
                buf.put_timestamp(*precise_origin);
                tlv.encode_into(buf);
            }
            Message::PdelayReq { header } => {
                header.encode_into(buf, 54);
                buf.put_timestamp(PtpTimestamp::default());
                buf.put_slice(&[0u8; 10]);
            }
            Message::PdelayResp {
                header,
                request_receipt,
                requesting_port,
            } => {
                header.encode_into(buf, 54);
                buf.put_timestamp(*request_receipt);
                buf.put_slice(&requesting_port.clock.0);
                buf.put_u16(requesting_port.port);
            }
            Message::PdelayRespFollowUp {
                header,
                response_origin,
                requesting_port,
            } => {
                header.encode_into(buf, 54);
                buf.put_timestamp(*response_origin);
                buf.put_slice(&requesting_port.clock.0);
                buf.put_u16(requesting_port.port);
            }
            Message::Announce {
                header,
                body,
                path_trace,
            } => {
                header.encode_into(buf, (64 + 4 + 8 * path_trace.len()) as u16);
                buf.put_timestamp(PtpTimestamp::default());
                buf.put_i16(body.current_utc_offset);
                buf.put_u8(0); // reserved
                buf.put_u8(body.priority1);
                buf.put_u8(body.quality.class);
                buf.put_u8(body.quality.accuracy);
                buf.put_u16(body.quality.variance);
                buf.put_u8(body.priority2);
                buf.put_slice(&body.gm_identity.0);
                buf.put_u16(body.steps_removed);
                buf.put_u8(body.time_source);
                // PATH_TRACE TLV (type 0x8); its identities follow.
                buf.put_u16(0x0008);
                buf.put_u16((8 * path_trace.len()) as u16);
            }
        }
    }

    /// Decodes a message from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, unknown type, bad version,
    /// or malformed TLV.
    pub fn decode(b: &[u8]) -> Result<Message, DecodeError> {
        let (header, _len) = Header::decode(b)?;
        let body = &b[34..];
        match header.message_type {
            MessageType::Sync => {
                if body.len() < 10 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::Sync {
                    header,
                    origin: get_timestamp(body),
                })
            }
            MessageType::FollowUp => {
                if body.len() < 10 + FOLLOW_UP_TLV_LEN {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::FollowUp {
                    header,
                    precise_origin: get_timestamp(body),
                    tlv: FollowUpTlv::decode(&body[10..])?,
                })
            }
            MessageType::PdelayReq => {
                if body.len() < 20 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::PdelayReq { header })
            }
            MessageType::PdelayResp => {
                if body.len() < 20 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::PdelayResp {
                    header,
                    request_receipt: get_timestamp(body),
                    requesting_port: get_port_identity(&body[10..])?,
                })
            }
            MessageType::PdelayRespFollowUp => {
                if body.len() < 20 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::PdelayRespFollowUp {
                    header,
                    response_origin: get_timestamp(body),
                    requesting_port: get_port_identity(&body[10..])?,
                })
            }
            MessageType::Announce => {
                if body.len() < 30 {
                    return Err(DecodeError::Truncated);
                }
                // Optional PATH_TRACE TLV after the 30-byte body.
                let mut path_trace = Vec::new();
                if body.len() >= 34 && body[30..32] == [0x00, 0x08] {
                    let len = usize::from(u16::from_be_bytes([body[32], body[33]]));
                    if len % 8 != 0 || body.len() < 34 + len {
                        return Err(DecodeError::BadTlv);
                    }
                    let (ids, _) = body[34..34 + len].as_chunks();
                    path_trace.extend(ids.iter().copied().map(ClockIdentity));
                }
                Ok(Message::Announce {
                    header,
                    path_trace,
                    body: AnnounceBody {
                        current_utc_offset: i16::from_be_bytes([body[10], body[11]]),
                        priority1: body[13],
                        quality: ClockQuality {
                            class: body[14],
                            accuracy: body[15],
                            variance: u16::from_be_bytes([body[16], body[17]]),
                        },
                        priority2: body[18],
                        gm_identity: ClockIdentity(
                            be_array(body, 19).ok_or(DecodeError::Truncated)?,
                        ),
                        steps_removed: u16::from_be_bytes([body[27], body[28]]),
                        time_source: body[29],
                    },
                })
            }
        }
    }

    /// `true` for event messages (hardware-timestamped on rx/tx).
    pub fn is_event(&self) -> bool {
        self.header().message_type.is_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_time::{ClockTime, Nanos};

    fn port_id(i: u32) -> PortIdentity {
        PortIdentity::new(ClockIdentity::for_index(i), 1)
    }

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn stack_buf_puts_are_big_endian() {
        let mut b = StackBuf::default();
        b.put_u16(0x88f7);
        b.put_i64(-2);
        assert_eq!(b.as_slice()[..2], [0x88, 0xf7]);
        assert_eq!(b.as_slice()[2..], (-2i64).to_be_bytes());
    }

    #[test]
    fn sync_roundtrip() {
        roundtrip(Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 42, -3),
            origin: PtpTimestamp::default(),
        });
        // One-step Sync carries a real origin timestamp.
        roundtrip(Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 43, -3),
            origin: PtpTimestamp::from_clock_time(ClockTime::from_nanos(777_000)),
        });
    }

    #[test]
    fn follow_up_roundtrip() {
        let mut header = Header::new(MessageType::FollowUp, 2, port_id(1), 42, -3);
        header.correction = Correction::from_nanos(Nanos::from_nanos(5_068));
        roundtrip(Message::FollowUp {
            header,
            precise_origin: PtpTimestamp::from_clock_time(ClockTime::from_nanos(1_234_567_890_123)),
            tlv: FollowUpTlv {
                cumulative_scaled_rate_offset: -12345,
                gm_time_base_indicator: 3,
                last_gm_phase_change: -42,
                scaled_last_gm_freq_change: 77,
            },
        });
    }

    #[test]
    fn pdelay_triple_roundtrip() {
        roundtrip(Message::PdelayReq {
            header: Header::new(MessageType::PdelayReq, 0, port_id(2), 9, 0),
        });
        roundtrip(Message::PdelayResp {
            header: Header::new(MessageType::PdelayResp, 0, port_id(3), 9, 0),
            request_receipt: PtpTimestamp::from_clock_time(ClockTime::from_nanos(55)),
            requesting_port: port_id(2),
        });
        roundtrip(Message::PdelayRespFollowUp {
            header: Header::new(MessageType::PdelayRespFollowUp, 0, port_id(3), 9, 0),
            response_origin: PtpTimestamp::from_clock_time(ClockTime::from_nanos(99)),
            requesting_port: port_id(2),
        });
    }

    #[test]
    fn announce_roundtrip() {
        roundtrip(Message::Announce {
            header: Header::new(MessageType::Announce, 3, port_id(4), 100, 0),
            path_trace: vec![ClockIdentity::for_index(4), ClockIdentity::for_index(9)],
            body: AnnounceBody {
                current_utc_offset: 37,
                priority1: 246,
                quality: ClockQuality::default(),
                priority2: 248,
                gm_identity: ClockIdentity::for_index(4),
                steps_removed: 2,
                time_source: 0xA0,
            },
        });
    }

    #[test]
    fn two_step_flag_set_on_sync() {
        let h = Header::new(MessageType::Sync, 0, port_id(1), 0, -3);
        assert_ne!(h.flags & FLAG_TWO_STEP, 0);
        let h = Header::new(MessageType::FollowUp, 0, port_id(1), 0, -3);
        assert_eq!(h.flags & FLAG_TWO_STEP, 0);
    }

    #[test]
    fn sync_wire_length_is_44() {
        let msg = Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 42, -3),
            origin: PtpTimestamp::default(),
        };
        assert_eq!(msg.encode().len(), 44);
    }

    #[test]
    fn follow_up_wire_length_is_76() {
        let msg = Message::FollowUp {
            header: Header::new(MessageType::FollowUp, 1, port_id(1), 42, -3),
            precise_origin: PtpTimestamp::default(),
            tlv: FollowUpTlv::default(),
        };
        assert_eq!(msg.encode().len(), 76);
    }

    #[test]
    fn truncated_rejected() {
        let msg = Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 42, -3),
            origin: PtpTimestamp::default(),
        };
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes[..20]), Err(DecodeError::Truncated));
    }

    #[test]
    fn unknown_type_rejected() {
        let msg = Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 42, -3),
            origin: PtpTimestamp::default(),
        };
        let mut bytes = msg.encode().to_vec();
        // Reserved, and the types 802.1AS does not use: the end-to-end
        // delay pair, Signaling, Management.
        for nibble in [0x5, 0x1, 0x9, 0xC, 0xD] {
            bytes[0] = (bytes[0] & 0xF0) | nibble;
            let unknown = Err(DecodeError::UnknownType(nibble));
            assert_eq!(Message::decode(&bytes), unknown);
            assert_eq!(MessageType::peek(&bytes), None);
        }
    }

    #[test]
    fn bad_version_rejected() {
        let msg = Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 42, -3),
            origin: PtpTimestamp::default(),
        };
        let mut bytes = msg.encode().to_vec();
        bytes[1] = 0x01;
        assert_eq!(Message::decode(&bytes), Err(DecodeError::BadVersion(1)));
    }

    #[test]
    fn event_classification() {
        let sync = Message::Sync {
            header: Header::new(MessageType::Sync, 1, port_id(1), 0, -3),
            origin: PtpTimestamp::default(),
        };
        assert!(sync.is_event());
        let fu = Message::FollowUp {
            header: Header::new(MessageType::FollowUp, 1, port_id(1), 0, -3),
            precise_origin: PtpTimestamp::default(),
            tlv: FollowUpTlv::default(),
        };
        assert!(!fu.is_event());
    }

    #[test]
    fn display_summaries() {
        let sync = Message::Sync {
            header: Header::new(MessageType::Sync, 2, port_id(1), 7, -3),
            origin: PtpTimestamp::default(),
        };
        assert_eq!(
            sync.to_string(),
            "Sync dom=2 seq=7 from=02:00:00:ff:fe:00:00:01-1"
        );
        let ann = Message::Announce {
            header: Header::new(MessageType::Announce, 0, port_id(1), 1, 0),
            path_trace: vec![],
            body: AnnounceBody {
                current_utc_offset: 37,
                priority1: 246,
                quality: ClockQuality::default(),
                priority2: 248,
                gm_identity: ClockIdentity::for_index(4),
                steps_removed: 2,
                time_source: 0xA0,
            },
        };
        assert!(ann.to_string().starts_with("Announce dom=0 gm="));
    }

    #[test]
    fn malicious_pot_mutation_survives_roundtrip() {
        // The attack: shift preciseOriginTimestamp by −24 µs in the bytes.
        let pot = ClockTime::from_nanos(5_000_000_000);
        let msg = Message::FollowUp {
            header: Header::new(MessageType::FollowUp, 1, port_id(1), 7, -3),
            precise_origin: PtpTimestamp::from_clock_time(pot),
            tlv: FollowUpTlv::default(),
        };
        let shifted = Message::FollowUp {
            header: Header::new(MessageType::FollowUp, 1, port_id(1), 7, -3),
            precise_origin: PtpTimestamp::from_clock_time(pot - Nanos::from_micros(24)),
            tlv: FollowUpTlv::default(),
        };
        let decoded = Message::decode(&shifted.encode()).unwrap();
        match decoded {
            Message::FollowUp { precise_origin, .. } => {
                let d = precise_origin.to_clock_time() - pot;
                assert_eq!(d, Nanos::from_micros(-24));
            }
            _ => panic!("wrong type"),
        }
        assert_ne!(msg.encode(), shifted.encode());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::types::ClockIdentity;
    use proptest::prelude::*;

    fn arb_port_identity() -> impl Strategy<Value = PortIdentity> {
        (any::<[u8; 8]>(), any::<u16>())
            .prop_map(|(id, port)| PortIdentity::new(ClockIdentity(id), port))
    }

    fn arb_timestamp() -> impl Strategy<Value = PtpTimestamp> {
        (0u64..(1 << 48), 0u32..1_000_000_000).prop_map(|(seconds, nanoseconds)| PtpTimestamp {
            seconds,
            nanoseconds,
        })
    }

    fn arb_header(mt: MessageType) -> impl Strategy<Value = Header> {
        (
            any::<u8>(),
            arb_port_identity(),
            any::<u16>(),
            any::<i8>(),
            any::<i64>(),
        )
            .prop_map(move |(domain, source_port, sequence_id, log, corr)| {
                let mut h = Header::new(mt, domain, source_port, sequence_id, log);
                h.correction = Correction::from_scaled(corr);
                h
            })
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            (arb_header(MessageType::Sync), arb_timestamp())
                .prop_map(|(header, origin)| Message::Sync { header, origin }),
            (
                arb_header(MessageType::FollowUp),
                arb_timestamp(),
                any::<i32>(),
                any::<u16>(),
                any::<i64>(),
                any::<i32>()
            )
                .prop_map(|(header, precise_origin, csro, tbi, phase, freq)| {
                    Message::FollowUp {
                        header,
                        precise_origin,
                        tlv: FollowUpTlv {
                            cumulative_scaled_rate_offset: csro,
                            gm_time_base_indicator: tbi,
                            last_gm_phase_change: phase,
                            scaled_last_gm_freq_change: freq,
                        },
                    }
                }),
            arb_header(MessageType::PdelayReq).prop_map(|header| Message::PdelayReq { header }),
            (
                arb_header(MessageType::PdelayResp),
                arb_timestamp(),
                arb_port_identity()
            )
                .prop_map(|(header, request_receipt, requesting_port)| {
                    Message::PdelayResp {
                        header,
                        request_receipt,
                        requesting_port,
                    }
                }),
            (
                arb_header(MessageType::PdelayRespFollowUp),
                arb_timestamp(),
                arb_port_identity()
            )
                .prop_map(|(header, response_origin, requesting_port)| {
                    Message::PdelayRespFollowUp {
                        header,
                        response_origin,
                        requesting_port,
                    }
                }),
            (
                arb_header(MessageType::Announce),
                any::<i16>(),
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
                any::<u16>(),
                any::<u8>(),
                any::<[u8; 8]>(),
                0u16..255,
                any::<u8>()
            )
                .prop_map(
                    |(header, utc, p1, class, accuracy, variance, p2, gm, steps, ts)| {
                        Message::Announce {
                            header,
                            path_trace: vec![ClockIdentity(gm)],
                            body: AnnounceBody {
                                current_utc_offset: utc,
                                priority1: p1,
                                quality: crate::types::ClockQuality {
                                    class,
                                    accuracy,
                                    variance,
                                },
                                priority2: p2,
                                gm_identity: ClockIdentity(gm),
                                steps_removed: steps,
                                time_source: ts,
                            },
                        }
                    }
                ),
        ]
    }

    proptest! {
        /// Every well-formed message survives an encode/decode round trip.
        #[test]
        fn roundtrip(msg in arb_message()) {
            let bytes = msg.encode();
            let back = Message::decode(&bytes).expect("well-formed message decodes");
            prop_assert_eq!(back, msg);
        }

        /// The encoding is exactly as long as the messageLength its
        /// header declares: an Announce's path trace, appended after the
        /// stack buffer, is neither short nor padded.
        #[test]
        fn encoding_fills_its_message_length(msg in arb_message()) {
            let bytes = msg.encode();
            prop_assert_eq!(bytes.len(), usize::from(u16::from_be_bytes([bytes[2], bytes[3]])));
        }

        /// The decoder never panics on arbitrary byte soup.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::decode(&bytes);
        }

        /// Truncating an encoded message is always detected, never
        /// mis-decoded into a shorter valid message of the same type
        /// with silently-wrong fields.
        #[test]
        fn truncation_detected(msg in arb_message(), cut in 1usize..34) {
            let bytes = msg.encode();
            prop_assume!(cut < bytes.len());
            let truncated = &bytes[..bytes.len() - cut];
            match Message::decode(truncated) {
                Err(_) => {}
                Ok(decoded) => {
                    // Decoding can only succeed if the remaining bytes
                    // still form a complete message of that type.
                    prop_assert_eq!(decoded.header().message_type,
                                    msg.header().message_type);
                }
            }
        }
    }
}
