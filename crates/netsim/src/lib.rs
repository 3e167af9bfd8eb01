//! # tsn-netsim
//!
//! Deterministic discrete-event network simulation substrate for the
//! `clocksync` reproduction of *IEEE 802.1AS Multi-Domain Aggregation for
//! Virtualized Distributed Real-Time Systems* (DSN-S 2023).
//!
//! The paper's testbed — four edge computing devices with Intel I210 NICs
//! and integrated Linux TSN switches in a mesh — is hardware we replace
//! with models (see `DESIGN.md` §2):
//!
//! * [`EventQueue`] — a deterministic event queue (ties broken by
//!   insertion order): a hierarchical timing wheel ([`WheelQueue`]) in
//!   production, with the original heap ([`ReferenceQueue`]) kept as a
//!   differential-testing oracle behind the `reference-queue` feature;
//! * [`SeedSplitter`] — reproducible per-component RNG streams;
//! * [`EthernetFrame`]/[`MacAddr`]/[`VlanTag`] — real wire-format frames;
//! * [`Topology`], [`Link`], [`DelayModel`] — the network graph with
//!   per-direction static-plus-jitter link delays;
//! * [`Switch`], [`Fdb`] — VLAN-aware store-and-forward relay with static
//!   multicast filtering entries;
//! * [`Nic`] — PHC, hardware timestamping, and ETF launch-time
//!   transmission (including deadline-miss faults);
//! * [`LinkFaultPlan`]/[`LinkFaults`] — per-link i.i.d. and
//!   Gilbert–Elliott burst loss, asymmetric delay injection, and timed
//!   link-down windows (arXiv:1609.06771's degradation surface);
//! * [`LinkLayer`] — link crossing as one step: a departing frame
//!   arrives at the far port at a sampled instant, or is lost to a
//!   fault (never before the warm-up ends).
//!
//! The simulator is *sans-IO with respect to protocols*: `tsn-gptp`'s
//! engines are pure state machines; the experiment world in the
//! `clocksync` crate owns the event loop and moves frames between them
//! using these models.
//!
//! # Example
//!
//! A two-station topology with deterministic event ordering:
//!
//! ```
//! use tsn_netsim::{DelayModel, EventQueue, Topology};
//! use tsn_time::{Nanos, SimTime};
//!
//! let mut topo = Topology::new();
//! let a = topo.add_station("a");
//! let b = topo.add_station("b");
//! let sw = topo.add_bridge("sw");
//! let d = DelayModel::constant(Nanos::from_micros(2));
//! topo.connect(topo.port(a, 0), topo.port(sw, 0), d, d);
//! topo.connect(topo.port(b, 0), topo.port(sw, 1), d, d);
//! assert_eq!(topo.shortest_path(a, b).unwrap().len(), 2);
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule_at(SimTime::from_millis(1), "deliver frame");
//! assert_eq!(queue.pop(), Some((SimTime::from_millis(1), "deliver frame")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod link;
mod linkfault;
mod nic;
mod qdisc;
mod queue;
mod rng;
mod switch;
mod topology;

pub use frame::{ethertype, DecodeFrameError, EthernetFrame, MacAddr, VlanTag};
pub use link::{Crossing, LinkLayer, Loss};
pub use linkfault::{AsymmetricDelay, BurstLoss, LinkDownWindow, LinkFaultPlan, LinkFaults};
pub use nic::{LaunchOutcome, Nic};
pub use qdisc::{EgressPort, WakeUp};
pub use queue::{EventQueue, ReferenceQueue, WheelQueue, CTL_SEQ_BASE};
pub use rng::SeedSplitter;
pub use switch::{Fdb, Switch, Vid};
pub use topology::{DelayModel, DeviceId, DeviceKind, Link, LinkId, PortAddr, PortNo, Topology};
