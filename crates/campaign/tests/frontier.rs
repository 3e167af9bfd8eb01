//! Acceptance of the resilience-frontier explorer (ROADMAP item 5 /
//! PR 9 tentpole):
//!
//! * the adaptive search localizes the containment boundary at least
//!   4× tighter than the fixed 48-run reference grid while simulating
//!   **fewer** total runs;
//! * every cell's empirical boundary is consistent with the analytical
//!   Kopetz–Ochsenreiter bound — no break below `contained_below`, and
//!   analytically unbreakable cells stay contained through the axis
//!   maximum;
//! * `frontier.json` is byte-identical across fresh directories, across
//!   forked and cold execution, and across a resume into a completed
//!   directory — and forked execution really forks: one prefix
//!   simulation per seed and trim degree, every probe run restored from
//!   it.

mod common;

use common::{artifact_bytes, cold_opts, opts, scratch};
use std::path::Path;
use tsn_campaign::{
    frontier::{self, FrontierAxis, FrontierCell},
    BaseSpec, BisectOutcome, FrontierSpec,
};

/// One breakable cell (colluding c = f + 1) and one analytically
/// unbreakable cell (colluding c = f), one seed, short horizon: the
/// boundary bracket converges in 10 probes and the unbreakable cell
/// settles after its two endpoint probes.
fn accept_spec() -> FrontierSpec {
    FrontierSpec {
        name: "frontier-accept".to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(12),
            warmup_s: Some(4),
        },
        seeds: vec![21],
        cells: vec![
            FrontierCell {
                strategy: "colluding".to_string(),
                compromised: 2,
                f: None,
            },
            FrontierCell {
                strategy: "colluding".to_string(),
                compromised: 1,
                f: None,
            },
        ],
        axis: FrontierAxis {
            name: "adv_offset_ns".to_string(),
            min: 1_000,
            max: 64_000,
            resolution: 300,
        },
        budget_per_cell: 12,
    }
}

#[test]
fn frontier_localizes_tighter_than_the_grid_with_fewer_runs() {
    let spec = accept_spec();
    let dir = scratch("accept");
    let (doc, report) = frontier::execute(&spec, &opts(&dir)).expect("frontier runs");
    assert!(
        report.failed.is_empty(),
        "probes failed: {:?}",
        report.failed
    );
    assert!(report.violations.is_empty());

    assert!(doc.consistent(), "empirical boundary violates the bound");
    assert!(
        doc.total_runs < doc.grid_runs,
        "adaptive search used {} runs, the fixed grid only {}",
        doc.total_runs,
        doc.grid_runs
    );

    // The breakable cell produced a bracket no wider than the requested
    // resolution, and ≥4× tighter than the grid could localize.
    let breakable = &doc.cells[0];
    let Some(BisectOutcome::Bracket {
        contained_at,
        broken_at,
    }) = breakable.empirical.outcome
    else {
        panic!(
            "colluding c=2 produced no bracket: {:?}",
            breakable.empirical.outcome
        );
    };
    let width = broken_at - contained_at;
    assert!(
        width <= spec.axis.resolution,
        "bracket wider than resolution"
    );
    assert!(
        width * 4 <= doc.grid_spacing,
        "bracket {width} ns is not 4x tighter than the grid's {} ns spacing",
        doc.grid_spacing
    );
    assert!(breakable.empirical.probes <= spec.budget_per_cell);

    // Both bracket ends are witnessed by real on-disk artifacts.
    for hash in [&breakable.witness_contained, &breakable.witness_broken] {
        let hash = hash.as_ref().expect("bracket ends are witnessed");
        assert!(
            dir.join("runs").join(format!("run-{hash}.jsonl")).is_file(),
            "witness artifact run-{hash}.jsonl missing"
        );
    }

    // The break sits at or above the analytical containment guarantee.
    let (_, bound) = breakable.analytical.as_ref().expect("magnitude axis");
    let contained_below = bound
        .contained_below
        .expect("c > f cells are breakable")
        .as_nanos();
    assert!(
        broken_at as i64 >= contained_below,
        "containment broke at {broken_at} ns, below the {contained_below} ns guarantee"
    );

    // c = f keeps the adversary below quorum: analytically unbreakable,
    // and the search settles it with just the two endpoint probes.
    let unbreakable = &doc.cells[1];
    let (_, bound) = unbreakable.analytical.as_ref().expect("magnitude axis");
    assert_eq!(bound.steered, 0);
    assert_eq!(bound.contained_below, None);
    assert_eq!(
        unbreakable.empirical.outcome,
        Some(BisectOutcome::ContainedThroughout)
    );
    assert_eq!(unbreakable.empirical.probes, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_artifact_is_byte_identical_across_dirs_fork_and_resume() {
    let spec = accept_spec();
    let dir_a = scratch("det-a");
    let dir_b = scratch("det-b");
    let dir_cold = scratch("det-cold");

    let (first_doc, first) = frontier::execute(&spec, &opts(&dir_a)).expect("first run");
    assert!(first.executed > 0);
    // Every probe is a campaign of one run per seed, so nothing forks
    // within a probe: the first probe of each (seed, f) simulates that
    // warm prefix into the shared cache and all later probes fork it.
    let trim_degrees: std::collections::BTreeSet<_> = spec.cells.iter().map(|c| c.f).collect();
    assert_eq!(first.prefix_runs, spec.seeds.len() * trim_degrees.len());
    assert_eq!(first.forked_groups, first.executed, "a probe ran cold");
    assert!(first.prefix_events_skipped > 0);
    frontier::execute(&spec, &opts(&dir_b)).expect("second run");
    let (_, cold) = frontier::execute(&spec, &cold_opts(&dir_cold)).expect("cold run");
    assert_eq!(cold.forked_groups, 0);

    let artifact = |dir: &Path| std::fs::read(dir.join("frontier.json")).expect("frontier.json");
    assert_eq!(
        artifact(&dir_a),
        artifact(&dir_b),
        "fresh directories disagree"
    );
    assert_eq!(
        artifact(&dir_a),
        artifact(&dir_cold),
        "forked and cold execution disagree"
    );

    // Every probe artifact is also byte-identical between fork and cold.
    assert_eq!(
        artifact_bytes(&dir_a),
        artifact_bytes(&dir_cold),
        "probe artifacts differ"
    );

    // Resuming a completed directory re-executes nothing and leaves the
    // document bytes untouched (total_runs is spec-derived, not
    // invocation-derived).
    let before = artifact(&dir_a);
    let (resumed_doc, resumed) = frontier::execute(&spec, &opts(&dir_a)).expect("resume");
    assert_eq!(resumed.executed, 0, "resume re-executed probes");
    assert_eq!(resumed.skipped, first.executed + first.skipped);
    assert_eq!(resumed_doc, first_doc);
    assert_eq!(artifact(&dir_a), before, "resume rewrote frontier.json");

    // Replaying the bisection from the probe artifacts renders the exact
    // same bytes.
    let loaded = frontier::load(&spec, &dir_a).expect("frontier dir loads");
    assert_eq!(loaded, first_doc);
    assert_eq!(loaded.render().into_bytes(), before);

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_cold);
}

#[test]
fn frontier_spec_file_matches_builtin() {
    // The builtin is `specs/frontier_sweep.json` parsed; the file must
    // be canonical, so its render is the file byte for byte.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/frontier_sweep.json");
    let text = std::fs::read_to_string(&path).expect("specs/frontier_sweep.json exists");
    let from_file = FrontierSpec::parse(&text).expect("spec file parses");
    assert_eq!(from_file.render(), text, "spec file is not canonical");
    assert_eq!(FrontierSpec::builtin("frontier-sweep"), Some(from_file));
}
