//! Checkpoint/restore support: configuration fingerprints, the
//! warm-prefix projection, and the fork checkpoint boundary.
//!
//! A *warm prefix* is the part of a run every member of a campaign group
//! shares: the warm-up period before any scenario-specific intervention
//! (attacker strikes, fault injection, publisher corruption, kernel
//! diversity) can influence the world. Two configurations with equal
//! warm-prefix projections evolve byte-identically until the checkpoint
//! boundary, so the prefix can be simulated once and forked per run.

use crate::config::TestbedConfig;
use tsn_faults::{AttackPlan, KernelAssignment};
use tsn_time::{Nanos, SimTime};

/// Version of the world's encoded state schema. Bump whenever any
/// `Snap`/`SnapState` field list in the workspace changes its layout,
/// and re-record the two layout pins (`tests/fabric.rs` GOLDEN state
/// hashes, `tests/snapshot_restore.rs::election_state_layout_is_pinned`).
/// [`World::restore`](crate::World::restore) refuses any other version;
/// state is not migrated.
pub const WORLD_STATE_VERSION: u32 = 6;

/// Fingerprint of a configuration (FNV-1a over its canonical `Debug`
/// rendering), binding snapshots to the configuration that produced
/// them.
pub fn config_fingerprint(cfg: &TestbedConfig) -> u64 {
    tsn_snapshot::fingerprint_str(&format!("{cfg:?}"))
}

/// The warm-prefix projection: `cfg` with every post-warmup intervention
/// stripped.
///
/// Strikes, injected faults, publisher corruption, kernel diversity,
/// link faults, and partitions only act strictly after the warm-up
/// (fault/strike/window times are offset by it, the corrupt publisher
/// arms at `warmup + at`, kernels only matter to strike outcomes, and
/// link faults gate all activity — including RNG draws — behind the
/// warm-up boundary), so removing them leaves the warm-up evolution
/// untouched. Everything else — seed, topology axes, intervals,
/// discipline, `gm_mutual_sync` — shapes the prefix and is kept.
pub fn warm_prefix_config(cfg: &TestbedConfig) -> TestbedConfig {
    let mut prefix = cfg.clone();
    prefix.attack = AttackPlan::none();
    prefix.fault_injection = None;
    prefix.explicit_faults = None;
    prefix.corrupt_publisher = None;
    prefix.kernels = KernelAssignment::identical(prefix.nodes);
    prefix.link_faults = None;
    prefix.partition = None;
    if let Some(el) = &mut prefix.election {
        // The scheduled grandmaster kill fires strictly after the
        // warm-up; the election machinery itself (Announce traffic,
        // timeouts) runs during the prefix and must stay.
        el.gm_failure_at = None;
    }
    prefix
}

/// Fingerprint of the warm-prefix projection. Two configurations with
/// equal warm-prefix fingerprints can share one prefix simulation.
pub fn warm_prefix_fingerprint(cfg: &TestbedConfig) -> u64 {
    config_fingerprint(&warm_prefix_config(cfg))
}

/// The checkpoint boundary for fork-based execution: one nanosecond
/// before the warm-up ends, so that *every* divergent behavior —
/// including interventions armed exactly at the warm-up boundary — falls
/// strictly after the checkpoint. `None` when there is no warm-up (no
/// shared prefix worth forking).
pub fn checkpoint_time(cfg: &TestbedConfig) -> Option<SimTime> {
    (cfg.warmup > Nanos::ZERO).then(|| SimTime::ZERO + cfg.warmup - Nanos::from_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_projection_is_scenario_invariant() {
        let base = TestbedConfig::quick(7);
        let mut attacked = base.clone();
        attacked.attack = AttackPlan::paper_default();
        attacked.kernels = KernelAssignment::diverse(attacked.nodes, 3);
        attacked.link_faults = Some(tsn_netsim::LinkFaultPlan::with_loss(0.05));
        attacked.partition = Some(crate::config::PartitionWindow {
            node: 1,
            from: Nanos::from_secs(2),
            until: Nanos::from_secs(4),
        });
        assert_eq!(
            warm_prefix_fingerprint(&base),
            warm_prefix_fingerprint(&attacked)
        );
        // But the full configurations are distinct.
        assert_ne!(config_fingerprint(&base), config_fingerprint(&attacked));
    }

    #[test]
    fn checkpoint_precedes_warmup_end() {
        let cfg = TestbedConfig::quick(1);
        let cp = checkpoint_time(&cfg).expect("has warmup");
        assert!(cp < SimTime::ZERO + cfg.warmup);
        let mut no_warmup = cfg;
        no_warmup.warmup = Nanos::ZERO;
        assert!(checkpoint_time(&no_warmup).is_none());
    }
}
