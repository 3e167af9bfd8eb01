//! Fault tolerance of the campaign runner itself:
//!
//! * a run that panics is isolated — the campaign finishes, sibling
//!   artifacts are byte-identical to a clean campaign, the failed run
//!   leaves no artifact, and a later resume retries it;
//! * a bytewise-truncated artifact and a stale-schema artifact are
//!   quarantined to `runs/corrupt/` and their runs re-executed instead
//!   of aborting the resume;
//! * a campaign killed mid-write — a stray `.tmp` with no artifact, a
//!   zero-length artifact, an artifact cut inside a string — resumes
//!   to a directory identical to one that was never interrupted;
//! * the ring and tree fabric topologies run clean under `--check` and
//!   fork byte-identically to cold execution;
//! * no spec text panics a reader: every truncation and random byte
//!   flips of each committed spec file go through `CampaignSpec::parse`
//!   (and `expand`, or for a frontier `frontier::load`, when the parse
//!   succeeds).

mod common;

use clocksync::scenario::ScenarioKind;
use common::{artifact_bytes, cold_opts, opts, scratch, tree_bytes};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tsn_campaign::{frontier, runner, BaseSpec, CampaignSpec, Grid, RunnerOptions};

fn tiny_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
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
fn panicking_run_is_isolated_and_perturbs_nothing() {
    let spec = tiny_spec("panic-isolation");
    let clean_dir = scratch("panic-clean");
    let clean = runner::execute(&spec, &cold_opts(&clean_dir)).expect("clean campaign");
    assert_eq!(clean.executed, 4);

    // Same campaign, with the worker for one victim run instructed to
    // panic mid-execution.
    let victim = tsn_campaign::expand(&spec).expect("valid spec")[1].clone();
    let dir = scratch("panic");
    let report = runner::execute(
        &spec,
        &RunnerOptions {
            panic_label: Some(victim.coord.label()),
            ..cold_opts(&dir)
        },
    )
    .expect("campaign must finish despite the panic");

    // Exactly the victim failed; everything else ran to completion.
    assert_eq!(report.failed.len(), 1);
    let failed = &report.failed[0];
    assert_eq!(failed.label, victim.coord.label());
    assert_eq!(failed.hash, victim.hash);
    assert_eq!(failed.index, victim.index);
    assert!(
        failed.to_string().contains("panicked"),
        "failure does not say it panicked: {failed}"
    );
    assert_eq!(report.executed, 3);

    // The failed run left no artifact — not even a partial one.
    let victim_file = format!("run-{}.jsonl", victim.hash);
    assert!(
        !dir.join("runs").join(&victim_file).exists(),
        "failed run left an artifact"
    );

    // Sibling artifacts are byte-identical to the clean campaign's.
    let clean_bytes = artifact_bytes(&clean_dir);
    let with_panic = artifact_bytes(&dir);
    assert_eq!(with_panic.len(), 3);
    for pair in &with_panic {
        assert!(
            clean_bytes.contains(pair),
            "sibling artifact {} perturbed by the panic",
            pair.0
        );
    }

    // A plain resume retries exactly the failed run and completes the
    // campaign to the clean campaign's bytes.
    let resumed = runner::execute(&spec, &cold_opts(&dir)).expect("resume");
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.skipped, 3);
    assert!(resumed.failed.is_empty());
    assert_eq!(artifact_bytes(&dir), clean_bytes);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_artifact_is_quarantined_and_rerun() {
    let spec = tiny_spec("quarantine");
    let dir = scratch("quarantine");
    let first = runner::execute(&spec, &cold_opts(&dir)).expect("first invocation");
    assert_eq!(first.executed, 4);
    assert_eq!(first.quarantined, 0);
    let before = artifact_bytes(&dir);

    // Two kinds of damage: a bytewise-truncated artifact (the torn-write
    // failure mode) and a stale schema-7 record (the format whose coord
    // object still closed with the retired family's two keys).
    let truncated = before[0].1[..before[0].1.len() / 2].to_vec();
    let family = common::RETIRED_FAMILY;
    let retired = format!("\"fta_f\":null,\"{family}_nodes\":null,\"{family}_topology\":null}}");
    let stale = String::from_utf8(before[1].1.clone())
        .unwrap()
        .replace("\"schema\":8", "\"schema\":7")
        .replace("\"fta_f\":null}", &retired);
    assert!(stale.starts_with("{\"schema\":7,") && stale.contains(&retired));
    let stale = stale.into_bytes();
    let damaged = [(&before[0].0, truncated), (&before[1].0, stale)];
    for (name, bytes) in &damaged {
        std::fs::write(dir.join("runs").join(name), bytes).unwrap();
    }

    let second = runner::execute(&spec, &cold_opts(&dir)).expect("resume over corruption");
    assert_eq!(second.quarantined, 2, "damaged artifacts not quarantined");
    assert_eq!(second.executed, 2);
    assert_eq!(second.skipped, 2);
    assert_eq!(second.records, first.records);

    // The damaged bytes were preserved for forensics, not destroyed...
    for (name, bytes) in &damaged {
        let quarantined = dir.join("runs").join("corrupt").join(name);
        assert_eq!(
            &std::fs::read(&quarantined).expect("quarantined copy exists"),
            bytes
        );
    }
    // ...and the re-executed artifacts match the original bytes.
    assert_eq!(artifact_bytes(&dir), before);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_killed_mid_write_resumes_to_the_uninterrupted_directory() {
    let spec = tiny_spec("kill-mid-write");
    let clean_dir = scratch("kill-clean");
    runner::execute(&spec, &cold_opts(&clean_dir)).expect("uninterrupted campaign");
    let dir = scratch("kill");
    let first = runner::execute(&spec, &cold_opts(&dir)).expect("first invocation");
    assert_eq!(tree_bytes(&dir), tree_bytes(&clean_dir));

    // Three ways a kill can leave a run behind: the temporary file
    // written but never renamed, the artifact created but empty, and
    // the artifact cut in the middle of a string.
    let runs = dir.join("runs");
    let plans = tsn_campaign::expand(&spec).expect("valid spec");
    let artifact = |i: usize| runs.join(format!("run-{}.jsonl", plans[i].hash));
    let whole = std::fs::read_to_string(artifact(0)).unwrap();
    std::fs::write(artifact(0).with_extension("tmp"), &whole[..whole.len() / 3]).unwrap();
    std::fs::remove_file(artifact(0)).unwrap();
    std::fs::write(artifact(1), "").unwrap();
    let whole = std::fs::read_to_string(artifact(2)).unwrap();
    let mid_string = whole.find("\"campaign\":\"kill").expect("campaign member") + 14;
    std::fs::write(artifact(2), &whole[..mid_string]).unwrap();

    let resumed = runner::execute(&spec, &cold_opts(&dir)).expect("resume after the kill");
    assert_eq!(resumed.executed, 3, "exactly the damaged runs re-execute");
    assert_eq!(resumed.skipped, 1);
    assert_eq!(resumed.quarantined, 2, "the empty and the cut artifact");
    assert_eq!(resumed.records, first.records);

    let quarantine = runs.join("corrupt");
    assert_eq!(
        std::fs::read(quarantine.join(artifact(1).file_name().unwrap())).unwrap(),
        b""
    );
    assert_eq!(
        std::fs::read_to_string(quarantine.join(artifact(2).file_name().unwrap())).unwrap(),
        whole[..mid_string]
    );
    assert_eq!(std::fs::read_dir(&quarantine).unwrap().count(), 2);
    let files = tree_bytes(&dir);
    assert!(
        files
            .iter()
            .all(|(path, _)| path.extension() != Some("tmp".as_ref())),
        "a temporary file survived the resume"
    );
    assert_eq!(files, tree_bytes(&clean_dir));

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ring_and_tree_fabrics_run_clean_and_fork_identically() {
    // Two topologies × two scenarios on one seed: the cyber scenario is
    // intervention-only, so each topology forms one warm-prefix group
    // of {baseline, cyber} (topology itself is prefix-relevant and
    // never forks across).
    let spec = CampaignSpec {
        name: "fabric-topo".to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(6),
            warmup_s: Some(3),
        },
        scenarios: vec![ScenarioKind::Baseline, ScenarioKind::CyberIdenticalKernels],
        grid: Grid {
            seeds: vec![7],
            topology: vec!["ring", "tree"],
            hops: vec![2],
            ..Grid::default()
        },
        bisect: None,
    };

    // Checked cold execution: the invariant oracle watches every run.
    let check_dir = scratch("topo-check");
    let checked = runner::execute(
        &spec,
        &RunnerOptions {
            check: true,
            ..cold_opts(&check_dir)
        },
    )
    .expect("checked campaign");
    assert_eq!(checked.executed, 4);
    assert!(
        checked.violations.is_empty(),
        "ring/tree fabrics violated invariants: {:?}",
        checked.violations
    );
    assert!(checked.failed.is_empty());

    // Forked execution produces byte-identical artifacts.
    let fork_dir = scratch("topo-fork");
    let forked = runner::execute(&spec, &opts(&fork_dir)).expect("forked campaign");
    assert!(forked.forked_groups > 0, "no warm-prefix group formed");
    assert!(forked.prefix_events_skipped > 0);
    assert_eq!(
        artifact_bytes(&check_dir),
        artifact_bytes(&fork_dir),
        "forked ring/tree artifacts differ from cold artifacts"
    );

    // Both topologies are actually present in the artifacts.
    let records = runner::load(&spec, &check_dir).expect("artifacts load");
    for topo in ["ring", "tree"] {
        assert!(
            records.iter().any(|r| r.coord.topology == Some(topo)),
            "no {topo} run in artifacts"
        );
    }

    let _ = std::fs::remove_dir_all(&check_dir);
    let _ = std::fs::remove_dir_all(&fork_dir);
}

/// Every committed spec file, as bytes.
fn spec_files() -> Vec<Vec<u8>> {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&specs)
        .expect("specs/ exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("spec file"))
        .collect()
}

/// Feeds `bytes` to the spec reader and expands whatever parses — a
/// frontier by replaying it over a directory without probe artifacts,
/// which builds its cells and first probes: an `Err` is fine, a panic
/// is not.
fn read_spec(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(spec) = CampaignSpec::parse(&text) {
        let _ = tsn_campaign::expand(&spec);
        if spec.bisect.is_some() {
            let empty = scratch("no-probes");
            std::fs::create_dir_all(empty.join("runs")).expect("scratch dir");
            let _ = frontier::load(&spec, &empty);
            let _ = std::fs::remove_dir_all(&empty);
        }
    }
}

#[test]
fn every_truncation_of_a_committed_spec_file_is_an_error_not_a_panic() {
    let files = spec_files();
    assert_eq!(
        files.len(),
        CampaignSpec::BUILTINS.len(),
        "specs/ holds every builtin"
    );
    for file in &files {
        for end in 0..=file.len() {
            read_spec(&file[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spec_files_with_flipped_bytes_never_panic(
        pick in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let files = spec_files();
        let mut bytes = files[pick % files.len()].clone();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        read_spec(&bytes);
    }
}
