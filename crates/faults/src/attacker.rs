//! The cyber-attack model of the paper's first experiment.
//!
//! "We presumed an attacker A that has restricted user credentials for at
//! least two virtual GM clocks … The attacker utilizes an exploit for
//! CVE-2018-18955 to gain root access … After gaining root access, the
//! attacker replaced the benign ptp4l instances with malicious instances
//! … The malicious ptp4l instances distribute faulty
//! preciseOriginTimestamps that are offset by −24 µs."
//!
//! The attack succeeds only on vulnerable kernels, so the very same plan
//! produces the paper's Fig. 3a (identical kernels → both strikes land →
//! synchronization lost) or Fig. 3b (diverse kernels → second strike
//! fails → FTA masks the single Byzantine GM).

use crate::kernel::{is_vulnerable, CveId, KernelVersion};
use crate::strategy::ByzantineStrategy;
use tsn_time::{Nanos, SimTime};

/// The paper's malicious `preciseOriginTimestamp` shift.
pub const PAPER_POT_OFFSET: Nanos = Nanos::from_micros(-24);

/// One planned exploit attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strike {
    /// When the attacker runs the exploit.
    pub at: SimTime,
    /// Target node (ECD index hosting the targeted GM VM).
    pub target_node: usize,
    /// CVE the exploit targets.
    pub cve: CveId,
    /// The `preciseOriginTimestamp` shift the malicious `ptp4l` applies.
    pub pot_offset: Nanos,
    /// Time-varying manipulation policy; `None` keeps the paper's
    /// constant `pot_offset` behaviour.
    pub strategy: Option<ByzantineStrategy>,
}

impl Strike {
    /// The POT shift this strike's GM applies `elapsed` after the
    /// exploit landed (constant `pot_offset` unless a strategy is set).
    pub fn offset_at(&self, elapsed: Nanos, validity_threshold: Nanos) -> Nanos {
        match self.strategy {
            Some(s) => s.offset_at(elapsed, validity_threshold),
            None => self.pot_offset,
        }
    }
}

/// Outcome of an exploit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeOutcome {
    /// Root obtained; the GM's `ptp4l` is now malicious.
    RootObtained,
    /// The kernel is not vulnerable; the attacker remains unprivileged.
    ExploitFailed,
}

/// The attack plan for an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    strikes: Vec<Strike>,
}

impl AttackPlan {
    /// No attack.
    pub fn none() -> Self {
        AttackPlan {
            strikes: Vec::new(),
        }
    }

    /// The paper's plan: strike GM `c1_4` (node 3) at 00:21:42 h and GM
    /// `c1_1` (node 0) at 00:31:52 h, shifting POT by −24 µs.
    pub fn paper_default() -> Self {
        AttackPlan {
            strikes: vec![
                Strike {
                    at: SimTime::from_secs(21 * 60 + 42),
                    target_node: 3,
                    cve: CveId::Cve2018_18955,
                    pot_offset: PAPER_POT_OFFSET,
                    strategy: None,
                },
                Strike {
                    at: SimTime::from_secs(31 * 60 + 52),
                    target_node: 0,
                    cve: CveId::Cve2018_18955,
                    pot_offset: PAPER_POT_OFFSET,
                    strategy: None,
                },
            ],
        }
    }

    /// A custom plan.
    pub fn new(strikes: Vec<Strike>) -> Self {
        AttackPlan { strikes }
    }

    /// The planned strikes, in order.
    pub fn strikes(&self) -> &[Strike] {
        &self.strikes
    }

    /// Evaluates a strike against the target's kernel.
    pub fn attempt(strike: &Strike, target_kernel: KernelVersion) -> StrikeOutcome {
        if is_vulnerable(target_kernel, strike.cve) {
            StrikeOutcome::RootObtained
        } else {
            StrikeOutcome::ExploitFailed
        }
    }
}

/// Per-node kernel assignment for the GM clock-sync VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAssignment {
    kernels: Vec<KernelVersion>,
}

impl KernelAssignment {
    /// All nodes run the same (exploitable) kernel — the Fig. 3a setup.
    pub fn identical(nodes: usize) -> Self {
        KernelAssignment {
            kernels: vec![KernelVersion::V4_19_1; nodes],
        }
    }

    /// Diversified kernels with only `vulnerable_node` exploitable — the
    /// Fig. 3b setup.
    ///
    /// # Panics
    ///
    /// Panics if `vulnerable_node` is out of range.
    pub fn diverse(nodes: usize, vulnerable_node: usize) -> Self {
        assert!(vulnerable_node < nodes, "node index out of range");
        let pool = [
            KernelVersion::V4_19_5,
            KernelVersion::V5_4_0,
            KernelVersion::V5_10_0,
        ];
        let kernels = (0..nodes)
            .map(|n| {
                if n == vulnerable_node {
                    KernelVersion::V4_19_1
                } else {
                    pool[n % pool.len()]
                }
            })
            .collect();
        KernelAssignment { kernels }
    }

    /// A fully custom assignment.
    pub fn custom(kernels: Vec<KernelVersion>) -> Self {
        KernelAssignment { kernels }
    }

    /// The kernel of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn kernel(&self, n: usize) -> KernelVersion {
        self.kernels[n]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// `true` if no nodes are assigned.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_timing() {
        let plan = AttackPlan::paper_default();
        assert_eq!(plan.strikes().len(), 2);
        assert_eq!(plan.strikes()[0].at, SimTime::from_secs(1302));
        assert_eq!(plan.strikes()[0].target_node, 3);
        assert_eq!(plan.strikes()[1].at, SimTime::from_secs(1912));
        assert_eq!(plan.strikes()[1].target_node, 0);
        assert_eq!(plan.strikes()[0].pot_offset, Nanos::from_micros(-24));
    }

    #[test]
    fn identical_kernels_both_strikes_land() {
        let plan = AttackPlan::paper_default();
        let kernels = KernelAssignment::identical(4);
        for s in plan.strikes() {
            assert_eq!(
                AttackPlan::attempt(s, kernels.kernel(s.target_node)),
                StrikeOutcome::RootObtained
            );
        }
    }

    #[test]
    fn diverse_kernels_mask_second_strike() {
        let plan = AttackPlan::paper_default();
        // Only node 3 (GM c1_4) runs the vulnerable kernel.
        let kernels = KernelAssignment::diverse(4, 3);
        let outcomes: Vec<StrikeOutcome> = plan
            .strikes()
            .iter()
            .map(|s| AttackPlan::attempt(s, kernels.kernel(s.target_node)))
            .collect();
        assert_eq!(
            outcomes,
            vec![StrikeOutcome::RootObtained, StrikeOutcome::ExploitFailed]
        );
    }

    #[test]
    fn diverse_pool_has_no_other_vulnerable_nodes() {
        let kernels = KernelAssignment::diverse(4, 3);
        for n in 0..3 {
            assert!(!is_vulnerable(kernels.kernel(n), CveId::Cve2018_18955));
        }
        assert!(is_vulnerable(kernels.kernel(3), CveId::Cve2018_18955));
    }

    #[test]
    fn empty_plan_is_benign() {
        assert!(AttackPlan::none().strikes().is_empty());
    }
}
