//! Fork-based campaign execution: runs that share a warm prefix (same
//! prefix-relevant coordinates, interventions stripped) must produce
//! artifacts **byte-identical** to cold execution while simulating the
//! shared prefix exactly once per group.

mod common;

use clocksync::scenario::ScenarioKind;
use common::{artifact_bytes, cold_opts, opts, scratch};
use tsn_campaign::{runner, BaseSpec, CampaignSpec, Grid};
use tsn_time::SyncState;

/// Baseline plus an intervention scenario: with prefix-relative seed
/// derivation, each seed yields one warm-prefix group of two runs.
fn fork_spec() -> CampaignSpec {
    CampaignSpec {
        name: "fork".to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(6),
            warmup_s: Some(3),
        },
        scenarios: vec![ScenarioKind::Baseline, ScenarioKind::CyberIdenticalKernels],
        grid: Grid {
            seeds: vec![1, 2],
            ..Grid::default()
        },
        bisect: None,
    }
}

#[test]
fn forked_campaign_matches_cold_campaign_byte_for_byte() {
    let spec = fork_spec();
    let cold_dir = scratch("cold");
    let fork_dir = scratch("fork");

    let cold = runner::execute(&spec, &cold_opts(&cold_dir)).expect("cold campaign");
    assert_eq!(cold.executed, 4);
    assert_eq!(cold.forked_groups, 0);
    assert_eq!(cold.prefix_events_skipped, 0);

    let forked = runner::execute(&spec, &opts(&fork_dir)).expect("forked campaign");
    assert_eq!(forked.executed, 4);
    // One group per seed, each sharing Baseline + CyberIdenticalKernels.
    assert_eq!(forked.forked_groups, 2);
    assert_eq!(forked.prefix_runs, 2);
    assert!(
        forked.prefix_events_skipped > 0,
        "shared prefixes must skip re-simulated events"
    );

    let a = artifact_bytes(&cold_dir);
    let b = artifact_bytes(&fork_dir);
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "forked artifacts differ from cold artifacts");
    for (x, y) in cold.records.iter().zip(&forked.records) {
        assert_eq!(x, y);
    }

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&fork_dir);
}

/// The acceptance scenario of the adversary/degradation layer: a
/// trim-edge adversary plus a partition that starves node 0 below the
/// FTA quorum. The Synchronized → Holdover → Freerun → Synchronized
/// walk must be readable from the *campaign artifacts* (not just the
/// in-memory run result) and byte-identical between cold and forked
/// execution.
#[test]
fn degradation_walk_is_in_artifacts_and_fork_stable() {
    let spec = CampaignSpec {
        name: "fork-degradation".to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(22),
            warmup_s: Some(6),
        },
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![41],
            strategies: vec!["trim-edge"],
            compromised: vec![1],
            partition_s: vec![0, 12],
            ..Grid::default()
        },
        bisect: None,
    };
    let cold_dir = scratch("deg-cold");
    let fork_dir = scratch("deg-fork");

    let cold = runner::execute(&spec, &cold_opts(&cold_dir)).expect("cold campaign");
    assert_eq!(cold.executed, 2);
    let forked = runner::execute(&spec, &opts(&fork_dir)).expect("forked campaign");
    // Both variants (partitioned and not) share the seed's warm prefix.
    assert_eq!(forked.forked_groups, 1);
    assert_eq!(
        artifact_bytes(&cold_dir),
        artifact_bytes(&fork_dir),
        "forked artifacts differ from cold artifacts"
    );

    // Re-read the partitioned run purely from disk and walk its
    // recorded transitions.
    let records = runner::load(&spec, &cold_dir).expect("artifacts load");
    let partitioned = records
        .iter()
        .find(|r| r.coord.partition_s == Some(12))
        .expect("partitioned run present");
    let warmup_ns = 6_000_000_000;
    let walk: Vec<(SyncState, SyncState)> = partitioned
        .transitions
        .iter()
        .filter(|t| t.at_ns >= warmup_ns && t.node == 0 && t.slot == 0)
        .map(|t| (t.from, t.to))
        .collect();
    assert_eq!(
        walk.first(),
        Some(&(SyncState::Synchronized, SyncState::Holdover)),
        "artifact walk did not enter holdover first: {walk:?}"
    );
    assert!(
        walk.contains(&(SyncState::Holdover, SyncState::Freerun)),
        "artifact walk never reached freerun: {walk:?}"
    );
    assert_eq!(
        walk.last(),
        Some(&(SyncState::Freerun, SyncState::Synchronized)),
        "artifact walk did not re-acquire: {walk:?}"
    );
    // The unpartitioned sibling records no post-warmup degradation.
    let baseline = records
        .iter()
        .find(|r| r.coord.partition_s == Some(0))
        .expect("unpartitioned run present");
    assert!(
        baseline
            .transitions
            .iter()
            .all(|t| t.at_ns < warmup_ns || t.node != 0),
        "unpartitioned run degraded node 0 post-warmup"
    );

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&fork_dir);
}

#[test]
fn fork_resume_skips_completed_runs() {
    let spec = fork_spec();
    let dir = scratch("resume");

    let first = runner::execute(&spec, &opts(&dir)).expect("first invocation");
    assert_eq!(first.executed, 4);

    // Everything resumed: no runs pending, so no prefixes simulated.
    let second = runner::execute(&spec, &opts(&dir)).expect("second invocation");
    assert_eq!(second.executed, 0);
    assert_eq!(second.skipped, 4);
    assert_eq!(second.forked_groups, 0);
    assert_eq!(second.records, first.records);

    let _ = std::fs::remove_dir_all(&dir);
}
