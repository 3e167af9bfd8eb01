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
//! new builtin is covered the day it is added. `paper-fidelity` runs
//! with its grid cut to two seeds at 2400 s; its 30 seeds at 3600 s
//! are `campaign run --builtin paper-fidelity --check` in CI. The
//! paper's claims (`summary::CLAIMS`) are judged on every builtin, and
//! EXPERIMENTS.md's numbers for `repro-all` and `fabric-sweep` are
//! compared with the records the loop holds.

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

/// The builtin `name`, with `paper-fidelity`'s grid cut to what tier 1
/// can afford.
fn tier1(name: &str, mut spec: CampaignSpec) -> CampaignSpec {
    if name == "paper-fidelity" {
        spec.grid.seeds.truncate(2);
        spec.base.duration_s = Some(2400);
    }
    spec
}

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
        let spec = tier1(name, spec);
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
        // The oracle armed the FTA accounting of every run, and no
        // applicable claim FAILs; a sweep sets an axis on every run, so
        // no claim applies to it.
        assert_eq!(cold.fta.len(), total, "{name}");
        let claims = summary::judge_claims(&cold.records, &cold.fta);
        let failed: Vec<String> = claims.iter().map(|c| c.to_string()).collect();
        assert!(
            claims.iter().all(|c| c.holds != Some(false)),
            "{name}: {failed:#?}"
        );
        match name {
            "repro-all" => paper_experiments_hold(&cold.records, &claims),
            "paper-fidelity" => assert_eq!(claims.len(), 4, "{name}"),
            "fabric-sweep" => depth_table_quotes(&cold.records),
            _ => assert!(claims.is_empty(), "{name}: {failed:#?}"),
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
        // exit 0), whatever axes the builtin sweeps: every interval is
        // paired and zero-width, or unbounded at one seed.
        let cold_samples = cold.records.iter().collect();
        let parity = summary::diff(&cold_samples, &forked.records.iter().collect());
        assert_eq!(parity.verdict, DiffVerdict::Parity, "{name}");
        for line in &parity.lines {
            let zero = line.contains(" Δ 0.000 [0.000, 0.000] (paired n=");
            assert!(
                line.starts_with("ok ") && (zero || line.contains("(paired n=1)")),
                "{line}"
            );
        }
        if name == "quick-baseline" {
            disjoint_seeds_are_never_a_regression(&spec, &cold_samples);
        }

        for dir in [cold_dir, fork_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `quick-baseline` on seeds 9–16 against its seeds 1–8, one build:
/// unpaired (Welch) intervals, and no shift the seeds resolve beyond a
/// floor (`campaign diff` would not exit 1).
fn disjoint_seeds_are_never_a_regression(spec: &CampaignSpec, seeds_1_to_8: &summary::Samples) {
    let spec = CampaignSpec {
        grid: tsn_campaign::Grid {
            seeds: (9..=16).collect(),
            ..spec.grid.clone()
        },
        ..spec.clone()
    };
    let dir = scratch("quick-baseline-9-16");
    let other = runner::execute(&spec, &opts(&dir)).expect("seeds 9-16");
    let d = summary::diff(seeds_1_to_8, &other.records.iter().collect());
    assert_ne!(d.verdict.exit_code(), 1, "{:#?}", d.lines);
    assert!(
        d.lines.iter().all(|l| l.contains("(welch 8/8)")),
        "{:#?}",
        d.lines
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `repro-all` is the paper's two experiments past both strikes, at one
/// seed: every claim that reads it PASSes, the cross-seed mean is n/a
/// (one seed), and seed 7's identical-kernel run leaves Π + γ after the
/// second strike (Fig. 3a's collapse; grid seed 5's, for one, does not).
fn paper_experiments_hold(records: &[RunRecord], claims: &[summary::ClaimLine]) {
    let verdicts: Vec<_> = claims.iter().map(|c| (c.name, c.holds)).collect();
    let names = summary::CLAIMS.map(|c| c.name);
    let expected = [None, Some(true), Some(true), Some(true)];
    assert_eq!(
        verdicts,
        names.into_iter().zip(expected).collect::<Vec<_>>()
    );
    let run = |kind| {
        let r = records.iter().find(|r| r.coord.scenario == kind);
        r.unwrap_or_else(|| panic!("repro-all has no {kind:?} run"))
    };
    let identical = run(ScenarioKind::CyberIdenticalKernels);
    let max_ns = identical.precision.expect("samples").max_ns;
    assert!(max_ns > identical.bounds.pi_plus_gamma_ns, "{max_ns} ns");
    experiments_md_quotes(identical, run(ScenarioKind::CyberDiverseKernels));
}

/// EXPERIMENTS.md's "ours" numbers for `repro-all` are these records,
/// as the document writes them: TXT1's exp-1 column is the identical
/// run's bounds, FIG3A its fraction within Π + γ and its worst sample,
/// FIG3B the diverse run's samples, mean and worst sample.
fn experiments_md_quotes(identical: &RunRecord, diverse: &RunRecord) {
    let section = experiments_section;
    // Prose with its line breaks folded into spaces.
    let prose = |heading| {
        section(heading)
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    };
    // "4 339": thousands grouped by spaces.
    let grouped = |n: i64| {
        let digits = n.to_string();
        let mut out = String::new();
        for (i, c) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i).is_multiple_of(3) {
                out.push(' ');
            }
            out.push(c);
        }
        out
    };
    let us = |ns: i64, places: usize| format!("{:.places$} µs", ns as f64 / 1e3);
    let precision = |r: &RunRecord| r.precision.expect("samples");

    let b = &identical.bounds;
    let txt1 = section("TXT1/TXT2");
    for (row, ours) in [
        ("d_min", format!("{} ns", grouped(b.d_min_ns))),
        ("d_max", format!("{} ns", grouped(b.d_max_ns))),
        ("E", format!("{} ns", grouped(b.reading_error_ns))),
        ("**Π**", format!("**{}**", us(b.pi_ns, 3))),
        ("γ", format!("{} ns", grouped(b.gamma_ns))),
    ] {
        let line = txt1.lines().find(|l| l.starts_with(&format!("| {row} |")));
        let line = line.unwrap_or_else(|| panic!("TXT1 has no {row} row"));
        // | quantity | paper (exp 1) | ours (exp 1) | …
        let cell = line.split('|').nth(3).expect("an ours (exp 1) cell");
        assert_eq!(cell.trim(), ours, "TXT1 {row}, ours (exp 1)");
    }
    let fig3a = prose("FIG3A");
    let within = format!("{:.1} % of", identical.fraction_within_bound * 100.0);
    let worst = format!("max **{}**", us(precision(identical).max_ns, 1));
    for quote in [within, worst] {
        assert!(fig3a.contains(&quote), "FIG3A does not quote `{quote}`");
    }
    let d = precision(diverse);
    let whole_run = format!(
        "{} samples within Π + γ; avg {:.0} ns, max {}",
        grouped(d.count as i64),
        d.mean_ns,
        us(d.max_ns, 3)
    );
    let fig3b = prose("FIG3B");
    assert!(
        fig3b.contains(&whole_run),
        "FIG3B does not quote `{whole_run}`"
    );
}

/// The text of EXPERIMENTS.md under `## {heading}…`, up to the next
/// `## ` heading.
fn experiments_section(heading: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let start = doc
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading}"));
    let body = &doc[start + 1..];
    body[..body[1..].find("\n## ").map_or(body.len(), |end| end + 1)].to_string()
}

/// EXPERIMENTS.md's depth table is `fabric-sweep`'s records, as the
/// document writes them: per hop count and transparent-clock mode, the
/// cross-seed mean of the per-run mean Π* for line / ring / tree (one
/// decimal in µs, two below 1 µs), the worst run's max and the line's
/// mean Π + γ (three significant figures, in ms past 1 ms).
fn depth_table_quotes(records: &[RunRecord]) {
    let sig3 = |ns: f64| {
        let (v, unit) = match ns >= 1e6 {
            true => (ns / 1e6, "ms"),
            false => (ns / 1e3, "µs"),
        };
        let places = [2, 1, 0][usize::from(v >= 10.0) + usize::from(v >= 100.0)];
        format!("{v:.places$} {unit}")
    };
    let mean = |runs: &[&RunRecord], value: fn(&RunRecord) -> f64| {
        runs.iter().map(|r| value(r)).sum::<f64>() / runs.len() as f64
    };
    let table = experiments_section("Network depth sweep");
    let rows: Vec<&str> = table
        .lines()
        .filter(|l| l.starts_with("| ") && l.as_bytes()[2].is_ascii_digit())
        .collect();
    assert_eq!(rows.len(), 10, "one row per hop count and TC mode");
    for row in rows {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let hops: u32 = cells[1].parse().expect("a hop count");
        let tc = cells[2] == "on";
        let runs = |topology: &str| -> Vec<&RunRecord> {
            let at = |r: &&RunRecord| {
                let c = &r.coord;
                (c.hops, c.tc_mode, c.topology) == (Some(hops), Some(tc), Some(topology))
            };
            records.iter().filter(at).collect()
        };
        let topologies = ["line", "ring", "tree"].map(runs);
        let means = topologies.clone().map(|runs| {
            let ns = mean(&runs, |r| r.precision.expect("samples").mean_ns);
            let places = if ns >= 1e3 { 1 } else { 2 };
            format!("{:.places$}", ns / 1e3)
        });
        let worst = topologies.iter().flatten();
        let worst = worst.map(|r| r.precision.expect("samples").max_ns).max();
        let bound = mean(&topologies[0], |r| r.bounds.pi_plus_gamma_ns as f64);
        let ours = format!(
            "| {hops} | {} | {} µs | {} | {} |",
            cells[2],
            means.join(" / "),
            sig3(worst.expect("runs") as f64),
            sig3(bound)
        );
        assert_eq!(
            row, ours,
            "EXPERIMENTS.md depth table, {hops} hops, TC {}",
            cells[2]
        );
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
