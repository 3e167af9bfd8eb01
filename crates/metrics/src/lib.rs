//! # tsn-metrics
//!
//! Precision measurement, analytical bounds, and figure rendering for the
//! `clocksync` reproduction of *IEEE 802.1AS Multi-Domain Aggregation for
//! Virtualized Distributed Real-Time Systems* (DSN-S 2023).
//!
//! * [`precision_of`] / [`PrecisionSeries`] — the measured precision
//!   Π*_s (Eq. 3.1) with the paper's 120 s window aggregation;
//! * [`BoundsReport`] — the Kopetz–Ochsenreiter bound Π(N,f,E,Γ) and the
//!   measurement error γ (Eq. 3.2);
//! * [`EventLog`] — the Fig. 5 event annotations;
//! * [`render_series`] / [`series_csv`] — figure output;
//! * [`SampleSummary`] — cross-run (per-seed) aggregate statistics for
//!   experiment campaigns.

//! # Example
//!
//! ```
//! use tsn_metrics::{drift_offset, precision_bound, u_factor};
//! use tsn_time::Nanos;
//!
//! // The paper's experiment-1 numbers.
//! let gamma = drift_offset(5_000.0, Nanos::from_millis(125));
//! let e = Nanos::from_nanos(5_068);
//! assert_eq!(u_factor(4, 1), 2.0);
//! assert_eq!(precision_bound(4, 1, e, gamma), Nanos::from_nanos(12_636));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod events;
mod precision;
mod render;
mod sketch;
mod stability;
mod summary;
mod violations;

pub use bounds::{drift_offset, precision_bound, u_factor, BoundsReport};
pub use events::{EventLog, ExperimentEvent, TransientKind};
pub use precision::{precision_of, PrecisionSample, PrecisionSeries, SeriesStats, WindowStat};
pub use render::{render_series, series_csv};
pub use sketch::StreamingSummary;
pub use stability::TimeErrorSeries;
pub use summary::{nearest_rank, SampleSummary};
pub use violations::{ViolationLog, ViolationRecord};
