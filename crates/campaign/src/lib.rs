//! # tsn-campaign
//!
//! A declarative, parallel, resumable experiment-campaign engine for
//! the `clocksync` testbed.
//!
//! A campaign is a [`CampaignSpec`]: a base configuration plus a
//! parameter grid (scenarios × seeds × domains × sync interval ×
//! kernels × injector rates × clock discipline). The engine expands the
//! spec into a deterministic run matrix ([`matrix::expand`]) with
//! per-run seeds derived by splittable hashing, executes it on a
//! `std::thread::scope` worker pool ([`runner::execute`]) — one
//! single-threaded simulation per worker — and writes one JSONL
//! artifact per run plus a campaign manifest. Re-invoking the same spec
//! resumes: completed runs are recognized by content hash and skipped.
//! [`summary::summarize`] aggregates results across seeds and
//! [`summary::diff`] compares two campaigns against fixed tolerances.
//!
//! Everything an artifact contains is a pure function of the spec, so
//! campaigns are bit-reproducible regardless of thread count or
//! execution order — the `determinism` integration test holds the
//! engine to exactly that.
//!
//! ```no_run
//! use tsn_campaign::{runner, summary, CampaignSpec, RunnerOptions};
//!
//! let spec = CampaignSpec::builtin("quick-baseline").unwrap();
//! let report = runner::execute(&spec, &RunnerOptions::new("target/campaigns/quick")).unwrap();
//! let groups = summary::summarize(&report.records);
//! print!("{}", summary::render(&groups));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod axis;
pub mod frontier;
pub mod json;
pub mod matrix;
pub mod runner;
pub mod spec;
pub mod summary;

pub use artifact::RunRecord;
pub use frontier::{BisectOutcome, Bisection, FrontierDoc};
pub use matrix::{expand, Coord, RunPlan};
pub use runner::{
    CampaignReport, FailedRun, RunRecordReader, RunViolation, RunnerOptions, SnapshotCache,
};
pub use spec::{BaseSpec, Bisect, CampaignSpec, Grid, KernelChoice, Preset};
pub use summary::{DiffVerdict, GroupSummary, StreamSummarizer};
