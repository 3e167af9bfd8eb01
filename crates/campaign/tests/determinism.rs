//! Determinism-under-parallelism guarantees of the campaign engine:
//!
//! * the same spec produces **byte-identical** artifacts at 1 thread
//!   and at N threads;
//! * re-running a completed campaign re-executes nothing;
//! * each artifact equals what a direct `World::new(config).run()` with
//!   the same derived seed produces (the pool adds nothing and loses
//!   nothing);
//! * two independent executions of the same spec diff as parity.

mod common;

use clocksync::scenario::ScenarioKind;
use clocksync::World;
use common::{artifact_bytes, cold_opts, scratch};
use tsn_campaign::{
    artifact::RunRecord, runner, summary, BaseSpec, CampaignSpec, DiffVerdict, Grid, RunnerOptions,
};
use tsn_hyp::SyncClockDiscipline;

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        name: "determinism".to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(6),
            warmup_s: Some(3),
        },
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![1, 2, 3, 4],
            disciplines: vec![
                SyncClockDiscipline::Feedback,
                SyncClockDiscipline::FeedForward,
            ],
            ..Grid::default()
        },
        bisect: None,
    }
}

#[test]
fn byte_identical_artifacts_across_thread_counts() {
    let spec = tiny_spec();
    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");

    let serial = runner::execute(
        &spec,
        &RunnerOptions {
            threads: 1,
            ..cold_opts(&serial_dir)
        },
    )
    .expect("serial campaign");
    let parallel = runner::execute(
        &spec,
        &RunnerOptions {
            threads: 4,
            ..cold_opts(&parallel_dir)
        },
    )
    .expect("parallel campaign");
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    assert_eq!(serial.executed, 8);
    assert_eq!(parallel.executed, 8);

    let a = artifact_bytes(&serial_dir);
    let b = artifact_bytes(&parallel_dir);
    assert_eq!(a.len(), 8);
    assert_eq!(a, b, "artifacts differ between 1 and 4 threads");
    assert_eq!(
        std::fs::read(serial_dir.join("manifest.json")).unwrap(),
        std::fs::read(parallel_dir.join("manifest.json")).unwrap(),
        "manifests differ"
    );

    // Records come back in canonical matrix order either way.
    for (x, y) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(x, y);
    }

    // The two directories diff as parity (exit code 0).
    let d = summary::diff(
        &serial.records.iter().collect(),
        &parallel.records.iter().collect(),
    );
    assert_eq!(d.verdict, DiffVerdict::Parity);
    assert_eq!(d.verdict.exit_code(), 0);

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn resume_skips_all_completed_runs() {
    let spec = tiny_spec();
    let dir = scratch("resume");

    let first = runner::execute(&spec, &cold_opts(&dir)).expect("first invocation");
    assert_eq!(first.executed, 8);
    assert_eq!(first.skipped, 0);
    let before = artifact_bytes(&dir);

    let second = runner::execute(&spec, &cold_opts(&dir)).expect("second invocation");
    assert_eq!(second.executed, 0, "resume must not re-execute");
    assert_eq!(second.skipped, 8);
    assert_eq!(second.records, first.records);
    assert_eq!(
        artifact_bytes(&dir),
        before,
        "resume must not rewrite artifacts"
    );

    // A corrupted artifact is re-executed (and only that one).
    let victim = dir.join("runs").join(&before[0].0);
    std::fs::write(&victim, "garbage\n").unwrap();
    let third = runner::execute(&spec, &cold_opts(&dir)).expect("third invocation");
    assert_eq!(third.executed, 1);
    assert_eq!(third.skipped, 7);
    assert_eq!(artifact_bytes(&dir), before, "repaired artifact must match");

    // `load` returns the same records without executing anything.
    let loaded = runner::load(&spec, &dir).expect("load completed campaign");
    assert_eq!(loaded, first.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pool_runs_equal_direct_scenario_runs() {
    let spec = tiny_spec();
    let dir = scratch("direct");
    let report = runner::execute(
        &spec,
        &RunnerOptions {
            threads: 4,
            ..cold_opts(&dir)
        },
    )
    .expect("campaign");

    for plan in tsn_campaign::expand(&spec)
        .expect("valid spec")
        .iter()
        .take(3)
    {
        // The derived seed is baked into the materialized config.
        assert_eq!(plan.config.seed, plan.seed);
        let result = World::new(plan.config.clone()).run();
        let direct = RunRecord::new(&spec.name, plan, &result);
        let from_pool = &report.records[plan.index];
        assert_eq!(&direct, from_pool, "pool result differs from direct run");
        let on_disk =
            std::fs::read_to_string(dir.join("runs").join(format!("run-{}.jsonl", plan.hash)))
                .expect("artifact exists");
        assert_eq!(
            on_disk,
            direct.encode(),
            "artifact differs from direct encode"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
