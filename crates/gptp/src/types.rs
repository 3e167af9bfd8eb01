//! Core IEEE 802.1AS / IEEE 1588 data types.

use std::fmt;
use tsn_time::{round_to_i64, ClockTime, Nanos};

/// An EUI-64 clock identity (IEEE 1588 clause 7.5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClockIdentity(pub [u8; 8]);

impl ClockIdentity {
    /// The all-zero identity (invalid / "no grandmaster").
    pub const ZERO: ClockIdentity = ClockIdentity([0; 8]);

    /// A deterministic identity for simulated clock `index`.
    pub fn for_index(index: u32) -> ClockIdentity {
        let b = index.to_be_bytes();
        ClockIdentity([0x02, 0x00, 0x00, 0xFF, 0xFE, b[1], b[2], b[3]])
    }
}

impl fmt::Display for ClockIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A PTP port identity: clock identity plus 1-based port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortIdentity {
    /// Identity of the owning clock.
    pub clock: ClockIdentity,
    /// Port number within the clock (1-based; 0 is reserved).
    pub port: u16,
}

impl PortIdentity {
    /// Creates a port identity.
    pub const fn new(clock: ClockIdentity, port: u16) -> Self {
        PortIdentity { clock, port }
    }
}

impl fmt::Display for PortIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.clock, self.port)
    }
}

/// A PTP timestamp: 48-bit seconds + 32-bit nanoseconds.
///
/// Wire format of the `Timestamp` struct in IEEE 1588 clause 5.3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PtpTimestamp {
    /// Seconds field (only the low 48 bits are representable).
    pub seconds: u64,
    /// Nanoseconds field (< 10⁹).
    pub nanoseconds: u32,
}

impl PtpTimestamp {
    /// Converts a non-negative clock reading to a PTP timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the reading is negative (simulated clocks are seeded with
    /// positive epochs so this does not occur in experiments).
    pub fn from_clock_time(t: ClockTime) -> PtpTimestamp {
        let ns = t.as_nanos();
        // Unreachable in the testbed: PHCs start at 1 s ± 1 ms, and no strategy
        // preset or axis value shifts a POT back by more than 10 ms.
        assert!(ns >= 0, "cannot encode negative clock time {ns}");
        PtpTimestamp {
            seconds: (ns / 1_000_000_000) as u64,
            nanoseconds: (ns % 1_000_000_000) as u32,
        }
    }

    /// Converts back to a clock reading.
    pub fn to_clock_time(self) -> ClockTime {
        ClockTime::from_nanos(self.seconds as i64 * 1_000_000_000 + i64::from(self.nanoseconds))
    }
}

/// A correction field value: nanoseconds scaled by 2¹⁶
/// (IEEE 1588 clause 13.3.2.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Correction(i64);

impl Correction {
    /// Zero correction.
    pub const ZERO: Correction = Correction(0);

    /// From raw scaled (ns · 2¹⁶) units.
    pub const fn from_scaled(v: i64) -> Correction {
        Correction(v)
    }

    /// Raw scaled value.
    pub const fn scaled(self) -> i64 {
        self.0
    }

    /// From a nanosecond duration (fractional part lost).
    pub fn from_nanos(ns: Nanos) -> Correction {
        Correction(ns.as_nanos() << 16)
    }

    /// To the nearest whole nanosecond duration.
    pub fn to_nanos(self) -> Nanos {
        Nanos::from_nanos((self.0 + (1 << 15)) >> 16)
    }

    /// Adds fractional nanoseconds.
    pub fn add_nanos_f64(self, ns: f64) -> Correction {
        Correction(self.0 + round_to_i64(ns * 65536.0))
    }
}

impl std::ops::Add for Correction {
    type Output = Correction;
    fn add(self, rhs: Correction) -> Correction {
        Correction(self.0 + rhs.0)
    }
}

/// Rate-ratio helpers for the Follow_Up information TLV's
/// `cumulativeScaledRateOffset` (802.1AS clause 11.4.4.3.6: the rate ratio
/// minus 1, multiplied by 2⁴¹).
pub mod rate_ratio {
    /// Converts a rate ratio (≈ 1.0) to a scaled rate offset.
    pub fn to_scaled(ratio: f64) -> i32 {
        ((ratio - 1.0) * (1u64 << 41) as f64).round() as i32
    }

    /// Converts a scaled rate offset back to a rate ratio.
    pub fn from_scaled(scaled: i32) -> f64 {
        1.0 + f64::from(scaled) / (1u64 << 41) as f64
    }
}

/// Clock quality advertised in Announce messages (IEEE 1588 clause 7.6.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockQuality {
    /// clockClass (248 = default for gPTP end stations).
    pub class: u8,
    /// clockAccuracy enumeration.
    pub accuracy: u8,
    /// offsetScaledLogVariance.
    pub variance: u16,
}

impl Default for ClockQuality {
    fn default() -> Self {
        ClockQuality {
            class: 248,
            accuracy: 0xFE,
            variance: 0x4E5D,
        }
    }
}

/// The set of values BMCA compares, in comparison order
/// (IEEE 802.1AS clause 10.3.2 "systemIdentity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemIdentity {
    /// priority1 (lower wins).
    pub priority1: u8,
    /// Clock quality.
    pub quality: ClockQuality,
    /// priority2 (lower wins).
    pub priority2: u8,
    /// Tie-break identity.
    pub identity: ClockIdentity,
}

impl SystemIdentity {
    /// Comparison key: lexicographic per the standard's ordering.
    pub fn key(&self) -> (u8, u8, u8, u16, u8, ClockIdentity) {
        (
            self.priority1,
            self.quality.class,
            self.quality.accuracy,
            self.quality.variance,
            self.priority2,
            self.identity,
        )
    }

    /// `true` if `self` is a better (lower-keyed) time source than
    /// `other`.
    pub fn better_than(&self, other: &SystemIdentity) -> bool {
        self.key() < other.key()
    }
}

/// Identifies an emitted event message awaiting its hardware egress
/// timestamp; the embedding hands it back to the issuing engine together
/// with that timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxToken {
    /// A Sync originated by an end station's master function.
    Sync {
        /// Domain of the originating master function.
        domain: u8,
        /// Sequence id of the Sync.
        seq: u16,
    },
    /// A Sync regenerated by a bridge relay on one of its master ports.
    RelayedSync {
        /// Domain of the relay.
        domain: u8,
        /// Sequence id of the Sync.
        seq: u16,
    },
    /// A Pdelay_Req (the timestamp is `t1`).
    PdelayReq {
        /// Sequence id of the request.
        seq: u16,
    },
    /// A Pdelay_Resp (the timestamp is `t3`, sent in the follow-up).
    PdelayResp {
        /// Sequence id of the exchange.
        seq: u16,
        /// The requester, echoed in the follow-up.
        requesting: PortIdentity,
    },
}

/// When an emitted message leaves its port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxTiming {
    /// Software-originated: after the driver's queuing latency.
    Driver,
    /// A grandmaster's home-domain Sync: launch-timed (ETF) on the next
    /// synchronization-interval boundary of the sender's own clock.
    Launch,
    /// Relayed by a bridge on receipt: after the residence time.
    Residence,
    /// A Pdelay_Resp: after the responder's turnaround.
    Turnaround,
}

/// One message an engine wants transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// Egress port number (0-based; end stations have only port 0).
    pub port: u8,
    /// Encoded gPTP message.
    pub bytes: bytes::Bytes,
    /// Present on event messages whose egress timestamp the engine needs.
    pub token: Option<TxToken>,
    /// Departure timing class.
    pub timing: TxTiming,
}

impl Transmission {
    /// `bytes` leaving on `port`.
    pub fn new(port: u8, bytes: bytes::Bytes, token: Option<TxToken>, timing: TxTiming) -> Self {
        Transmission {
            port,
            bytes,
            token,
            timing,
        }
    }
}

use tsn_snapshot::{snap_enum, snap_struct};

snap_struct!(ClockIdentity { 0 });
snap_struct!(PortIdentity { clock, port });
snap_struct!(PtpTimestamp {
    seconds,
    nanoseconds
});
snap_struct!(Correction { 0 });
snap_struct!(ClockQuality {
    class,
    accuracy,
    variance
});
snap_struct!(SystemIdentity {
    priority1,
    quality,
    priority2,
    identity
});
// In the stream while an event message is between issue and egress.
snap_enum!(TxToken {
    0 => Sync { domain, seq },
    1 => RelayedSync { domain, seq },
    2 => PdelayReq { seq },
    3 => PdelayResp { seq, requesting },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptp_timestamp_roundtrip() {
        let t = ClockTime::from_nanos(86_400_000_000_123);
        let ts = PtpTimestamp::from_clock_time(t);
        assert_eq!(ts.seconds, 86_400);
        assert_eq!(ts.nanoseconds, 123);
        assert_eq!(ts.to_clock_time(), t);
    }

    #[test]
    #[should_panic(expected = "negative clock time")]
    fn negative_clock_time_rejected() {
        PtpTimestamp::from_clock_time(ClockTime::from_nanos(-1));
    }

    #[test]
    fn correction_roundtrip() {
        let c = Correction::from_nanos(Nanos::from_nanos(1234));
        assert_eq!(c.to_nanos(), Nanos::from_nanos(1234));
        let c2 = c.add_nanos_f64(0.5);
        // Rounds to nearest ns.
        assert_eq!(c2.to_nanos(), Nanos::from_nanos(1235));
    }

    #[test]
    fn correction_fractional_accumulation() {
        let mut c = Correction::ZERO;
        for _ in 0..1000 {
            c = c.add_nanos_f64(0.1);
        }
        let ns = c.to_nanos().as_nanos();
        assert!((ns - 100).abs() <= 1, "accumulated {ns}");
    }

    #[test]
    fn rate_ratio_scaling_roundtrip() {
        for ppm in [-100.0f64, -5.0, 0.0, 3.25, 100.0] {
            let ratio = 1.0 + ppm * 1e-6;
            let back = rate_ratio::from_scaled(rate_ratio::to_scaled(ratio));
            assert!((back - ratio).abs() < 1e-11, "ppm {ppm}");
        }
    }

    #[test]
    fn system_identity_ordering() {
        let base = SystemIdentity {
            priority1: 246,
            quality: ClockQuality::default(),
            priority2: 248,
            identity: ClockIdentity::for_index(5),
        };
        let worse_priority = SystemIdentity {
            priority1: 247,
            ..base
        };
        assert!(base.better_than(&worse_priority));
        let tie_break = SystemIdentity {
            identity: ClockIdentity::for_index(6),
            ..base
        };
        assert!(base.better_than(&tie_break));
        assert!(!base.better_than(&base));
    }

    #[test]
    fn clock_identities_unique_and_displayable() {
        assert_ne!(ClockIdentity::for_index(1), ClockIdentity::for_index(2));
        assert_eq!(
            ClockIdentity::for_index(1).to_string(),
            "02:00:00:ff:fe:00:00:01"
        );
    }
}
