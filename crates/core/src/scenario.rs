//! The named experiment scenarios of the paper's evaluation.
//!
//! Each scenario is a named layer of settings over a [`TestbedConfig`]:
//! [`ScenarioKind::apply`] materializes the layer onto an arbitrary base
//! configuration, which is what the campaign engine (`tsn-campaign`)
//! uses to run scenario × parameter-grid sweeps. To run one, apply it
//! and build the world: `World::new(cfg).run()` ([`crate::World`]).

use crate::config::TestbedConfig;
use tsn_faults::{AttackPlan, InjectorConfig, KernelAssignment};

/// The named experiment scenarios of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// No faults, no attack (sanity baseline).
    Baseline,
    /// Fig. 3a: all virtual GMs run the exploitable kernel; the attacker
    /// roots two of them and synchronization is lost.
    CyberIdenticalKernels,
    /// Fig. 3b: diversified kernels; the second strike fails and the FTA
    /// masks the single Byzantine GM.
    CyberDiverseKernels,
    /// Fig. 4/5: sequential GM shutdowns plus random redundant-VM
    /// shutdowns.
    FaultInjection,
    /// The prior-work end-system design the paper critiques (Kyriakakis
    /// et al.): clients aggregate, grandmasters free-run.
    PriorWorkBaseline,
}

impl ScenarioKind {
    /// All scenarios, in their canonical order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Baseline,
        ScenarioKind::CyberIdenticalKernels,
        ScenarioKind::CyberDiverseKernels,
        ScenarioKind::FaultInjection,
        ScenarioKind::PriorWorkBaseline,
    ];

    /// The stable textual name (used in campaign specs and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Baseline => "baseline",
            ScenarioKind::CyberIdenticalKernels => "cyber_identical_kernels",
            ScenarioKind::CyberDiverseKernels => "cyber_diverse_kernels",
            ScenarioKind::FaultInjection => "fault_injection",
            ScenarioKind::PriorWorkBaseline => "prior_work_baseline",
        }
    }

    /// Parses a scenario name as produced by [`ScenarioKind::name`].
    pub fn parse(name: &str) -> Option<ScenarioKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Layers this scenario's settings onto `config`.
    ///
    /// The base configuration keeps its seed, duration, node count, and
    /// sweep overrides; the scenario decides kernels, attack plan, fault
    /// injection, and GM mutual synchronization. Node-count-dependent
    /// pieces (kernel assignment, injector node count, target of the
    /// second strike) follow `config.nodes`.
    pub fn apply(self, config: &mut TestbedConfig) {
        match self {
            ScenarioKind::Baseline => {}
            ScenarioKind::CyberIdenticalKernels => {
                config.kernels = KernelAssignment::identical(config.nodes);
                config.attack = AttackPlan::paper_default();
            }
            ScenarioKind::CyberDiverseKernels => {
                // The paper leaves only GM c1_4 (node 3) exploitable;
                // clamp for smaller sweeps.
                let exploitable = 3.min(config.nodes - 1);
                config.kernels = KernelAssignment::diverse(config.nodes, exploitable);
                config.attack = AttackPlan::paper_default();
            }
            ScenarioKind::FaultInjection => {
                config.fault_injection = Some(InjectorConfig {
                    duration: config.duration,
                    nodes: config.nodes,
                    ..InjectorConfig::paper_default()
                });
            }
            ScenarioKind::PriorWorkBaseline => {
                config.gm_mutual_sync = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn apply_respects_node_count() {
        let mut cfg = TestbedConfig::quick(1);
        cfg.nodes = 6;
        cfg.aggregation.domains = 6;
        ScenarioKind::CyberIdenticalKernels.apply(&mut cfg);
        assert_eq!(cfg.kernels.len(), 6);
        let mut cfg = TestbedConfig::quick(1);
        ScenarioKind::FaultInjection.apply(&mut cfg);
        let fi = cfg.fault_injection.expect("injector configured");
        assert_eq!(fi.nodes, cfg.nodes);
        assert_eq!(fi.duration, cfg.duration);
        cfg.validate();
    }
}
