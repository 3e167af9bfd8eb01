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

use clocksync::scenario::ScenarioKind;
use common::{artifact_bytes, cold_opts, opts, scratch};
use std::path::Path;
use tsn_campaign::{frontier, BaseSpec, Bisect, BisectOutcome, CampaignSpec, Grid};

/// A frontier spec over the quick preset (12 s after a 4 s warm-up) and
/// one seed that bisects the magnitude axis at 300 ns resolution in
/// every cell of the colluding strategy × `grid`.
fn frontier_spec(name: &str, grid: Grid) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        base: BaseSpec {
            preset: tsn_campaign::Preset::Quick,
            duration_s: Some(12),
            warmup_s: Some(4),
        },
        scenarios: vec![ScenarioKind::Baseline],
        grid: Grid {
            seeds: vec![21],
            strategies: vec!["colluding"],
            ..grid
        },
        bisect: Some(Bisect {
            axis: "adv_offset_ns",
            min: 1_000,
            max: 64_000,
            resolution: 300,
            budget_per_cell: 12,
        }),
    }
}

/// One breakable cell (colluding c = f + 1) and one analytically
/// unbreakable cell (colluding c = f), one seed, short horizon: the
/// boundary bracket converges in 10 probes and the unbreakable cell
/// settles after its two endpoint probes.
fn accept_spec() -> CampaignSpec {
    frontier_spec(
        "frontier-accept",
        Grid {
            compromised: vec![2, 1],
            ..Grid::default()
        },
    )
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
        doc.total_runs < frontier::GRID_REFERENCE_RUNS,
        "adaptive search used {} runs, the fixed grid only {}",
        doc.total_runs,
        frontier::GRID_REFERENCE_RUNS
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
    let bisect = spec.bisect.unwrap();
    let width = broken_at - contained_at;
    assert!(width <= bisect.resolution, "bracket wider than resolution");
    assert!(
        width * 4 <= doc.grid_spacing(),
        "bracket {width} ns is not 4x tighter than the grid's {} ns spacing",
        doc.grid_spacing()
    );
    assert!(breakable.empirical.probes <= bisect.budget_per_cell);

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
    let trim_degrees: std::collections::BTreeSet<_> =
        first_doc.cells.iter().map(|c| c.effective_f).collect();
    assert_eq!(
        first.prefix_runs,
        spec.grid.seeds.len() * trim_degrees.len()
    );
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
    // be canonical, so its render is the file byte for byte, and it is
    // a frontier: a campaign spec with a `bisect` block.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/frontier_sweep.json");
    let text = std::fs::read_to_string(&path).expect("specs/frontier_sweep.json exists");
    let from_file = CampaignSpec::parse(&text).expect("spec file parses");
    assert_eq!(from_file.render(), text, "spec file is not canonical");
    assert!(from_file.bisect.is_some());
    assert_eq!(CampaignSpec::builtin("frontier-sweep"), Some(from_file));
}

/// A cell is any grid point, so cells may differ in the domain count:
/// each cell's analytical bound takes N (and f) from its own
/// materialized configuration, not from the base preset.
#[test]
fn each_cell_takes_its_own_domain_count_into_the_bound() {
    let mut spec = frontier_spec(
        "frontier-domains",
        Grid {
            domains: vec![4, 7],
            compromised: vec![2],
            ..Grid::default()
        },
    );
    spec.base.duration_s = Some(6);
    spec.base.warmup_s = Some(3);
    if let Some(b) = spec.bisect.as_mut() {
        (b.resolution, b.budget_per_cell) = (32_000, 2);
    }
    let dir = scratch("domains");
    let (doc, report) = frontier::execute(&spec, &opts(&dir)).expect("frontier runs");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let domains: Vec<usize> = doc
        .cells
        .iter()
        .map(|c| c.analytical.as_ref().expect("magnitude axis").0.domains)
        .collect();
    assert_eq!(domains, [4, 7]);
    for cell in &doc.cells {
        let (params, _) = cell.analytical.as_ref().unwrap();
        assert_eq!(params.f, cell.effective_f);
        assert_eq!(cell.cell.domains, Some(params.domains));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
