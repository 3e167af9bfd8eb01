//! # tsn-hyp
//!
//! Virtualization substrate for the `clocksync` reproduction of *IEEE
//! 802.1AS Multi-Domain Aggregation for Virtualized Distributed Real-Time
//! Systems* (DSN-S 2023): the ACRN-style fault-tolerant dependent clock.
//!
//! * [`StShmem`] / [`ClockParams`] — the `STSHMEM` shared page exporting
//!   the affine host-clock → `CLOCK_SYNCTIME` mapping to co-located VMs;
//! * [`Phc2Sys`] — the LinuxPTP `phc2sys` equivalent deriving those
//!   parameters from the NIC PHC;
//! * [`DependentClockDevice`] — per-ECD active/standby bookkeeping with
//!   the fail-silent freshness monitor and takeover interrupt;
//! * [`VotingMonitor`] — the fail-consistent (2f+1) voting detector for
//!   platforms with enough passthrough NICs;
//! * [`HypNode`] — all of the above for one ECD behind two timer entry
//!   points, with the publish/takeover policy that connects them.

//! # Example
//!
//! Fail-silent takeover in three lines of setup:
//!
//! ```
//! use tsn_hyp::{ClockParams, DependentClockDevice, MonitorConfig, VmId};
//! use tsn_time::ClockTime;
//!
//! let mut dev = DependentClockDevice::new(VmId(0), vec![VmId(1)], MonitorConfig::default());
//! dev.publish(VmId(0), ClockParams::identity(), ClockTime::ZERO);
//! // VM 0 dies; the next monitor tick promotes VM 1.
//! let takeover = dev
//!     .monitor_tick(ClockTime::from_nanos(125_000_000), |vm| vm != VmId(0))
//!     .unwrap();
//! assert_eq!(takeover.to, VmId(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod node;
mod phc2sys;
mod stshmem;

pub use monitor::{DependentClockDevice, MonitorConfig, Takeover, VotingMonitor};
pub use node::HypNode;
pub use phc2sys::{Phc2Sys, SyncClockDiscipline, SyncTimeServo};
pub use stshmem::{ClockParams, StShmem, VmId};
