//! # tsn-time
//!
//! Clock models for the `clocksync` reproduction of *IEEE 802.1AS
//! Multi-Domain Aggregation for Virtualized Distributed Real-Time Systems*
//! (Ruh, Steiner, Fohler — DSN-S 2023).
//!
//! The crate provides the time substrate every other crate builds on:
//!
//! * [`SimTime`], [`Nanos`], [`ClockTime`] — the three distinct time unit
//!   newtypes (true simulation time, durations, and per-clock readings);
//! * [`Oscillator`] — a free-running crystal with static deviation and
//!   random-walk wander;
//! * [`Phc`] — a PTP hardware clock (Intel I210-style): an adjustable
//!   piecewise-linear clock driven by an oscillator;
//! * [`PiServo`] — LinuxPTP's PI servo, including first-sample frequency
//!   estimation, step thresholds, and the ±900 ppm output clamp;
//! * [`JitterConfig`] — the hardware timestamping error model;
//! * [`SyncState`] — the explicit Synchronized → Holdover → Freerun
//!   degradation vocabulary driven by `tsn-fta`'s aggregator.
//!
//! # Example
//!
//! Discipline a drifting PHC against true time with the PI servo:
//!
//! ```
//! use tsn_time::{Phc, PiServo, ServoConfig, ServoOutput, ClockTime, Nanos, SimTime};
//!
//! let s = Nanos::from_millis(125);
//! let mut phc = Phc::new(ClockTime::ZERO, 4_000.0); // +4 ppm oscillator
//! let mut servo = PiServo::new(ServoConfig::default(), s);
//! let mut t = SimTime::ZERO;
//! for _ in 0..200 {
//!     t += s;
//!     let offset = phc.true_offset(t);
//!     let local = phc.now(t);
//!     match servo.sample(offset, local) {
//!         ServoOutput::Gathering => {}
//!         ServoOutput::Step { delta, freq_adj_ppb } => {
//!             phc.step(t, delta);
//!             phc.adj_frequency(t, freq_adj_ppb);
//!         }
//!         ServoOutput::Adjust { freq_adj_ppb } => {
//!             phc.adj_frequency(t, freq_adj_ppb);
//!         }
//!     }
//! }
//! assert!(phc.true_offset(t).abs() < Nanos::from_nanos(50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod jitter;
mod oscillator;
mod phc;
mod servo;
mod sync_state;
mod units;

pub use jitter::{quantize, round_to_i64, sample_timestamp_error, JitterConfig};
pub use oscillator::{Oscillator, OscillatorConfig};
pub use phc::{Phc, PhcAt, PHC_MAX_ADJ_PPB};
pub use servo::{PiServo, ServoConfig, ServoOutput, ServoState};
pub use sync_state::SyncState;
pub use units::{ClockTime, Nanos, Ppb, SimTime};
