//! # tsn-fta
//!
//! Fault-tolerant multi-domain aggregation — the primary contribution of
//! *IEEE 802.1AS Multi-Domain Aggregation for Virtualized Distributed
//! Real-Time Systems* (DSN-S 2023), reproduced as a standalone library.
//!
//! * [`fault_tolerant_average`] — the Kopetz–Ochsenreiter FTA, plus
//!   [`AggregationMethod`] variants (mean, median) used as ablation
//!   baselines;
//! * [`FtShmem`] — the paper's `FTSHMEM` user-space shared region between
//!   the `M` per-domain `ptp4l` instances (M offsets, M validity
//!   booleans, `adjust_last`, shared PI servo state);
//! * [`MultiDomainAggregator`] — the turn-checked aggregation flow of
//!   §II-B including the startup convergence protocol.
//!
//! # Example
//!
//! ```
//! use tsn_fta::{AggregationConfig, MultiDomainAggregator, SubmitOutcome};
//! use tsn_time::{ClockTime, Nanos, ServoConfig};
//!
//! let mut agg = MultiDomainAggregator::new(
//!     AggregationConfig::paper_default(),
//!     ServoConfig::default(),
//! );
//! let now = ClockTime::from_nanos(1_000_000);
//! // Domain-1 instance completes a Sync/Follow_Up pair and submits.
//! match agg.submit(1, Nanos::from_nanos(150), now, 1.0, now) {
//!     SubmitOutcome::Aggregated(a) => {
//!         // This instance won the turn check and ran the aggregation.
//!         assert_eq!(a.offset, Nanos::from_nanos(150));
//!     }
//!     SubmitOutcome::Stored | SubmitOutcome::NoQuorum => {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod algorithm;
pub mod resilience;
mod shmem;

pub use aggregator::{
    Aggregation, AggregationConfig, AggregationMode, MultiDomainAggregator, SubmitOutcome,
};
pub use algorithm::{
    fault_tolerant_average, fault_tolerant_midpoint, mean, median, trimmed_indices, validity_flags,
    AggregationMethod,
};
pub use resilience::{containment_bound, ResilienceBound, ResilienceParams};
pub use shmem::{FtShmem, OffsetSlot};
