//! # clocksync
//!
//! A faithful, laptop-scale reproduction of *IEEE 802.1AS Multi-Domain
//! Aggregation for Virtualized Distributed Real-Time Systems* (Ruh,
//! Steiner, Fohler — DSN-S 2023): cyber-resilient clock synchronization
//! built from fault-tolerant dependent clocks and gPTP multi-domain
//! aggregation with a fault-tolerant average (FTA).
//!
//! The paper's hardware testbed (Intel Atom ECDs, I210 NICs, integrated
//! TSN switches, the ACRN hypervisor) is replaced by a deterministic
//! discrete-event simulation; see `DESIGN.md` for the substitution table.
//!
//! * [`TestbedConfig`] — the full experiment configuration
//!   ([`TestbedConfig::paper_default`] reproduces §III-A1);
//! * [`testbed::Testbed`] — everything simulated, built from the
//!   configuration (topology of Fig. 2, clocks, gPTP engines, FTSHMEM
//!   aggregation, hypervisor nodes, links, fault schedule);
//! * [`World`] — the simulation world: the event queue that drives the
//!   testbed, plus faults, attacker, probes and the passive observers;
//! * [`scenario`] — ready-made runners for the paper's experiments.
//!
//! # Quickstart
//!
//! ```
//! use clocksync::{scenario, TestbedConfig};
//! use tsn_time::Nanos;
//!
//! let mut cfg = TestbedConfig::quick(42);
//! cfg.duration = Nanos::from_secs(30);
//! let outcome = scenario::baseline(cfg);
//! // Synchronized: measured precision stays within the derived bound.
//! let bound = outcome.result.bounds.pi_plus_gamma();
//! assert!(outcome.result.series.fraction_within(bound) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod densemap;
mod interventions;
pub mod node;
mod probe;
pub mod scenario;
pub mod snapshot;
pub mod testbed;
mod world;

pub use config::{
    BackgroundTraffic, CorruptPublisher, HypMonitorMode, PartitionWindow, TestbedConfig,
    MIN_SYNC_INTERVAL,
};
pub use probe::RunResult;
pub use world::{RunCounters, World};

pub use tsn_snapshot::WorldSnapshot;

pub use tsn_election as election;
pub use tsn_fabric as fabric;
pub use tsn_faults as faults;
pub use tsn_fta as fta;
pub use tsn_gptp as gptp;
pub use tsn_hyp as hyp;
pub use tsn_metrics as metrics;
pub use tsn_netsim as netsim;
pub use tsn_oracle as oracle;
pub use tsn_time as time;
pub use tsn_trace as trace;
