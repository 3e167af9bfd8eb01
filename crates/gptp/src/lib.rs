//! # tsn-gptp
//!
//! A from-scratch IEEE 802.1AS (gPTP) implementation for the `clocksync`
//! reproduction of *IEEE 802.1AS Multi-Domain Aggregation for Virtualized
//! Distributed Real-Time Systems* (DSN-S 2023).
//!
//! The crate provides sans-IO protocol engines — pure state machines fed
//! with frames and hardware timestamps by the simulation world:
//!
//! * [`msg`] — byte-level codecs for the gPTP message set (common header,
//!   two-step `Sync`, `Follow_Up` + information TLV, the peer-delay
//!   triple, `Announce`);
//! * [`SyncMaster`] / [`SyncSlave`] — per-domain end-station machinery,
//!   including the transmit-timestamp-timeout and launch-deadline fault
//!   paths the paper reports;
//! * [`PdelayInitiator`] / [`PdelayResponder`] — the per-link peer-delay
//!   service shared across domains (CMLDS-style), with neighbor-rate-ratio
//!   estimation;
//! * [`BridgeRelay`] — per-domain time-aware bridge regeneration with
//!   correction-field and rate-ratio accumulation;
//! * [`Bridge`] — the whole bridge: one relay per domain, one
//!   [`LinkDelayService`] per port, the relay-tree shape and the
//!   Announce relay (the end-station counterpart, `MultiDomainNode`,
//!   lives in the `clocksync` crate next to the aggregator it drives);
//! * [`Bmca`] — the best master clock algorithm (optional mode; the
//!   paper's experiments use a static external port configuration —
//!   the relay-tree shape [`Bridge`] is built with — instead).
//!
//! Multi-domain aggregation itself — the paper's contribution — lives in
//! the `tsn-fta` crate and consumes the [`OffsetSample`]s produced here.
//!
//! # Example
//!
//! A complete two-step Sync exchange:
//!
//! ```
//! use tsn_gptp::{msg::Message, ClockIdentity, PortIdentity, SyncMaster, SyncSlave};
//! use tsn_time::{ClockTime, Nanos};
//!
//! let gm_port = PortIdentity::new(ClockIdentity::for_index(1), 1);
//! let mut master = SyncMaster::new(0, gm_port, -3);
//! let mut slave = SyncSlave::new(0);
//!
//! let (sync_bytes, seq) = master.make_sync();
//! let sync = Message::decode(&sync_bytes)?;
//! slave.handle_sync(&sync, ClockTime::from_nanos(1_002_500));
//!
//! let fu_bytes = master.sync_sent(seq, ClockTime::from_nanos(1_000_000)).unwrap();
//! let fu = Message::decode(&fu_bytes)?;
//! let sample = slave
//!     .handle_follow_up(&fu, Nanos::from_nanos(2_500), 1.0)
//!     .unwrap();
//! assert_eq!(sample.offset, Nanos::ZERO); // clocks agree
//! # Ok::<(), tsn_gptp::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmca;
mod bridge;
mod cmlds;
pub mod msg;
mod pdelay;
mod port;
mod types;

pub use bmca::{Bmca, BmcaDecision, PortRole, PriorityVector};
pub use bridge::{Bridge, BridgeRelay, Emission};
pub use cmlds::{LinkDelayService, LinkState};
pub use msg::{log2_interval, DecodeError, Message};
pub use pdelay::{LinkDelaySample, PdelayInitiator, PdelayResponder, RespContext};
pub use port::{OffsetSample, SyncMaster, SyncSlave};
pub use types::{
    rate_ratio, ClockIdentity, ClockQuality, Correction, PortIdentity, PtpTimestamp,
    SystemIdentity, Transmission, TxTiming, TxToken,
};
