//! Every built-in spec, end to end: clean under the invariant oracle,
//! byte-identical between cold and forked execution, resumable without
//! re-executing anything, and summarizable through the streaming
//! pipeline (a frontier through `frontier::load`, which replays its
//! bisection over the artifacts).
//!
//! Each builtin runs once cold and once forked, not again on one
//! worker: thread-count independence is the runner's property, not a
//! spec's, and `determinism.rs::byte_identical_artifacts_across_thread_counts`
//! and `runner::tests::pool_isolates_a_panic_fails_on_io_error_and_merges_by_index`
//! pin it.
//!
//! The loops run over `CampaignSpec::BUILTINS` — the list `campaign
//! list` prints — split by whether a spec has a `bisect` block, so a
//! new builtin is covered the day it is added.

mod common;

use clocksync::scenario::ScenarioKind;
use common::{artifact_bytes, opts, scratch};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use tsn_campaign::json::Json;
use tsn_campaign::{
    frontier, runner, summary, CampaignSpec, DiffVerdict, RunRecord, RunRecordReader,
    RunnerOptions, StreamSummarizer,
};

/// The builtins with (`true`) or without (`false`) a `bisect` block.
fn builtins(bisects: bool) -> impl Iterator<Item = (&'static str, CampaignSpec)> {
    CampaignSpec::BUILTINS
        .into_iter()
        .map(|name| (name, CampaignSpec::builtin(name).expect("builtin exists")))
        .filter(move |(_, spec)| spec.bisect.is_some() == bisects)
}

#[test]
fn the_loops_cover_every_name_campaign_list_prints() {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("list")
        .output()
        .expect("campaign binary runs");
    assert!(out.status.success(), "{out:?}");
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .map(|l| l.split_whitespace().next().expect("a name").to_string())
        .collect();
    assert_eq!(listed, CampaignSpec::BUILTINS);
    assert!(builtins(false).count() > 0 && builtins(true).count() > 0);
}

#[test]
fn every_builtin_campaign_is_clean_fork_stable_resumable_and_summarizable() {
    for (name, spec) in builtins(false) {
        let total = spec.total_runs();
        let cold_dir = scratch(&format!("{name}-cold"));
        let fork_dir = scratch(&format!("{name}-fork"));

        // Oracle armed, so the runner runs cold; auto threads.
        let checked = RunnerOptions {
            check: true,
            threads: 0,
            ..opts(&cold_dir)
        };
        let cold = runner::execute(&spec, &checked).expect("cold campaign");
        assert_eq!(cold.executed, total, "{name}");
        assert_eq!(cold.forked_groups, 0, "{name}: the oracle runs cold");
        assert!(cold.violations.is_empty(), "{name}: {:?}", cold.violations);
        assert!(cold.failed.is_empty(), "{name}: {:?}", cold.failed);
        assert_eq!(cold.quarantined, 0, "{name}");
        let bytes = artifact_bytes(&cold_dir);
        assert_eq!(bytes.len(), total, "{name}: one artifact per run");
        if name == "repro-all" {
            paper_experiments_hold(&cold.records);
        }

        // Forked from warm prefixes.
        let forked = runner::execute(&spec, &opts(&fork_dir)).expect("forked campaign");
        assert!(forked.failed.is_empty(), "{name}: {:?}", forked.failed);
        assert!(
            bytes == artifact_bytes(&fork_dir),
            "{name}: forked artifacts differ from cold artifacts"
        );

        // Resume re-executes nothing and leaves the artifacts alone.
        let resumed = runner::execute(&spec, &opts(&cold_dir)).expect("resume");
        assert_eq!((resumed.executed, resumed.skipped), (0, total), "{name}");
        assert!(bytes == artifact_bytes(&cold_dir), "{name}: resume rewrote");

        // The streaming pipeline folds every record into a summary.
        let mut summarizer = StreamSummarizer::new();
        for record in RunRecordReader::open(&spec, &cold_dir).expect("valid spec") {
            summarizer.push(&record.expect("artifact decodes"));
        }
        let groups = summarizer.finish();
        assert_eq!(groups.iter().map(|g| g.runs).sum::<usize>(), total);
        let text = summary::render(&groups);
        for g in &groups {
            assert!(text.contains(&g.key.group_label()), "{name}: {text}");
        }
        Json::parse(&summary::render_json(&groups)).expect("summary JSON parses");
        // Two executions of one spec diff as parity (`campaign diff`
        // exit 0), whatever axes the builtin sweeps.
        let parity = summary::diff(&groups, &summary::summarize(&forked.records));
        assert_eq!(parity.verdict, DiffVerdict::Parity, "{name}");

        for dir in [cold_dir, fork_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `repro-all` is the paper's two experiments past both strikes, and its
/// records show it: with identical kernels both strikes land and the
/// worst Π* is more than twice the diverse run's; with diverse kernels
/// the second strike fails and every sample stays within Π + γ, as it
/// does without an attack and under fault injection (Fig. 4). These are
/// the checks that held across seeds, not one seed's numbers.
fn paper_experiments_hold(records: &[RunRecord]) {
    let run = |kind| {
        let r = records.iter().find(|r| r.coord.scenario == kind);
        r.unwrap_or_else(|| panic!("repro-all has no {kind:?} run"))
    };
    let max_ns = |r: &RunRecord| r.precision.as_ref().expect("samples").max_ns;
    let identical = run(ScenarioKind::CyberIdenticalKernels);
    let diverse = run(ScenarioKind::CyberDiverseKernels);
    assert_eq!(identical.counters.strikes_succeeded, 2);
    assert!(max_ns(identical) > 2 * max_ns(diverse));
    let strikes = &diverse.counters;
    assert_eq!((strikes.strikes_succeeded, strikes.strikes_failed), (1, 1));
    for kind in [
        ScenarioKind::CyberDiverseKernels,
        ScenarioKind::Baseline,
        ScenarioKind::FaultInjection,
    ] {
        assert_eq!(run(kind).fraction_within_bound, 1.0, "{kind:?}");
    }
}

#[test]
fn every_builtin_frontier_is_clean_fork_stable_resumable_and_summarizable() {
    let doc_bytes = |dir: &Path| std::fs::read(dir.join("frontier.json")).expect("frontier.json");
    for (name, spec) in builtins(true) {
        let cold_dir = scratch(&format!("{name}-cold"));
        let fork_dir = scratch(&format!("{name}-fork"));

        // Cold (the oracle needs the warm prefix), auto threads.
        let checked = RunnerOptions {
            check: true,
            threads: 0,
            ..opts(&cold_dir)
        };
        let (cold_doc, cold) = frontier::execute(&spec, &checked).expect("cold frontier");
        assert!(cold.executed > 0, "{name}");
        assert!(cold.violations.is_empty(), "{name}: {:?}", cold.violations);
        assert!(cold.failed.is_empty(), "{name}: {:?}", cold.failed);
        assert!(cold_doc.consistent(), "{name}: a cell breaks its bound");
        let (doc, runs) = (doc_bytes(&cold_dir), artifact_bytes(&cold_dir));

        // Every probe is a campaign of one run per seed, so nothing forks
        // within a probe: the first probe of each (seed, f) simulates that
        // warm prefix into the shared cache and every probe run forks it.
        let (_, forked) = frontier::execute(&spec, &opts(&fork_dir)).expect("forked frontier");
        assert_eq!(cold.forked_groups, 0, "{name}: the oracle runs cold");
        let trim_degrees: BTreeSet<_> = cold_doc.cells.iter().map(|c| c.effective_f).collect();
        assert_eq!(
            forked.prefix_runs,
            spec.grid.seeds.len() * trim_degrees.len(),
            "{name}"
        );
        assert_eq!(
            forked.forked_groups, forked.executed,
            "{name}: a probe ran cold"
        );
        assert!(forked.prefix_events_skipped > 0, "{name}");
        assert!(
            doc == doc_bytes(&fork_dir),
            "{name}: fork moved the document"
        );
        assert!(
            runs == artifact_bytes(&fork_dir),
            "{name}: forked probe artifacts differ from cold ones"
        );

        // Resume re-executes nothing and re-derives the same document
        // (total_runs is spec-derived, not invocation-derived).
        let (resumed_doc, resumed) = frontier::execute(&spec, &opts(&cold_dir)).expect("resume");
        assert_eq!(resumed.executed, 0, "{name}: resume re-executed probes");
        assert_eq!(resumed.skipped, cold.executed + cold.skipped, "{name}");
        assert_eq!(resumed_doc, cold_doc, "{name}");
        assert!(doc == doc_bytes(&cold_dir), "{name}: resume rewrote");

        // A frontier's summary is its document, replayed from the spec
        // and the probe artifacts alone.
        let loaded = frontier::load(&spec, &cold_dir).expect("frontier dir loads");
        assert_eq!(loaded, cold_doc, "{name}");
        assert!(
            loaded.render().into_bytes() == doc,
            "{name}: replay moved it"
        );
        assert!(cold_doc.render_text().contains("x tighter"), "{name}");

        for dir in [cold_dir, fork_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
