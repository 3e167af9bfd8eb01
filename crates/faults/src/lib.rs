//! # tsn-faults
//!
//! Fault-injection and attacker models for the `clocksync` reproduction
//! of *IEEE 802.1AS Multi-Domain Aggregation for Virtualized Distributed
//! Real-Time Systems* (DSN-S 2023).
//!
//! * [`KernelVersion`] / [`is_vulnerable`] — the kernel registry and
//!   vulnerability database behind the paper's OS-diversification
//!   argument (CVE-2018-18955);
//! * [`AttackPlan`] / [`KernelAssignment`] — the two-strike cyber attack
//!   of the Fig. 3 experiments, with outcomes gated on kernel diversity;
//! * [`ByzantineStrategy`] — strategic (time-varying, boundary-hugging,
//!   colluding) POT manipulations a compromised GM applies after
//!   `RootObtained` (arXiv:2006.15832's worst-case adversaries);
//! * [`FaultSchedule`] — the 24 h fail-silent shutdown schedule
//!   (sequential GM shutdowns + random redundant-VM shutdowns under the
//!   per-node non-overlap constraint);
//! * [`TransientFaults`] — transmit-timestamp timeouts and ETF deadline
//!   misses calibrated to the paper's observed counts.

//! # Example
//!
//! ```
//! use tsn_faults::{AttackPlan, KernelAssignment};
//!
//! let plan = AttackPlan::paper_default();
//! let diverse = KernelAssignment::diverse(4, 3);
//! let outcomes: Vec<_> = plan
//!     .strikes()
//!     .iter()
//!     .map(|s| AttackPlan::attempt(s, diverse.kernel(s.target_node)))
//!     .collect();
//! // Only the strike against the vulnerable kernel lands.
//! assert_eq!(outcomes[0], tsn_faults::StrikeOutcome::RootObtained);
//! assert_eq!(outcomes[1], tsn_faults::StrikeOutcome::ExploitFailed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attacker;
mod injector;
mod kernel;
mod strategy;
mod transient;

pub use attacker::{AttackPlan, KernelAssignment, Strike, StrikeOutcome, PAPER_POT_OFFSET};
pub use injector::{FaultEvent, FaultSchedule, InjectorConfig, VmSlot};
pub use kernel::{is_vulnerable, CveId, KernelVersion, ParseKernelVersionError};
pub use strategy::ByzantineStrategy;
pub use transient::{TransientFaultConfig, TransientFaults};
