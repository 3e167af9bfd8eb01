//! Adaptive resilience-frontier exploration.
//!
//! The paper's experiment (ii) demonstrates FTA containment at one
//! fixed adversary point; arXiv:2006.15832 derives where containment
//! *must* hold and where it *must* fail analytically
//! ([`tsn_fta::containment_bound`]). This module closes the loop. A
//! frontier is a [`CampaignSpec`] with a [`Bisect`] block; each of its
//! grid points (scenario × every non-seed axis) is a *cell*, and for
//! each cell the explorer bisects the block's continuous axis — the
//! attack-magnitude axis `adv_offset_ns` in the `frontier-sweep` builtin
//! — until the empirical containment-failure boundary is bracketed to
//! the requested resolution, then checks the bracket against the
//! analytical bound.
//!
//! Three properties drive the design:
//!
//! * **Determinism** — probe selection is pure bisection (no RNG) and
//!   per-run seeds derive from the grid coordinate exactly as in a
//!   plain campaign, so the same spec reproduces `frontier.json`
//!   byte-for-byte (`tests/builtins.rs` proves it). A frontier directory
//!   is therefore its `manifest.json` spec plus its probe artifacts:
//!   [`load`] replays the bisection over the artifacts and re-derives
//!   the document, so `frontier.json` is written and never parsed.
//! * **Work sharing** — every probe executes through
//!   [`runner::execute_with`] with one shared [`SnapshotCache`]. A probe
//!   is one run per seed and shares no prefix within itself; but the
//!   magnitude, the strategy and the compromised count are
//!   intervention-only, so the first probe of a `(seed, f)` pair
//!   simulates that warm prefix into the cache and every later probe of
//!   any cell forks it.
//! * **Fewer runs than the grid** — a fixed sweep in the style of the
//!   `adversary-sweep` builtin spends [`GRID_REFERENCE_RUNS`] runs for
//!   a spacing of `span / (runs/seeds − 1)`; bisection reaches a
//!   bracket of `resolution` width in `2 + ⌈log₂(span/resolution)⌉`
//!   probes per cell. Both counts are reported so the trade is visible.

use crate::artifact::{RunRecord, ARTIFACT_SCHEMA};
use crate::axis::{AxisDef, AxisValue, Coord, AXES, MAGNITUDE_AXIS};
use crate::json::Json;
use crate::matrix::expand;
use crate::runner::{self, CampaignReport, RunnerOptions, SnapshotCache};
use crate::spec::{Bisect, CampaignSpec, Grid};
use std::io;
use std::path::Path;
use tsn_fta::{containment_bound, ResilienceBound, ResilienceParams};
use tsn_time::Nanos;

/// Schema version of `frontier.json` (2: a cell is its coordinate).
pub const FRONTIER_SCHEMA: u64 = 2;

/// Run count of the fixed reference grid the frontier is compared
/// against: 6 strategies × 2 compromised counts × 2 loss rates × 2
/// seeds, an `adversary-sweep`-style grid.
pub const GRID_REFERENCE_RUNS: usize = 48;

/// The campaign of one probe: the cell's coordinate with the bisected
/// axis set to `value`, one run per seed of `spec`. Probes are
/// content-addressed like any campaign run, so a repeated probe resumes.
fn probe_spec(spec: &CampaignSpec, axis: &AxisDef, cell: &Coord, value: u64) -> CampaignSpec {
    let mut coord = *cell;
    (axis.coord_set)(&mut coord, AxisValue::UInt(value)).expect("validated ends bound every probe");
    let mut probe = CampaignSpec {
        scenarios: vec![coord.scenario],
        grid: Grid::default(),
        bisect: None,
        ..spec.clone()
    };
    probe.grid.seeds.clone_from(&spec.grid.seeds);
    for a in AXES {
        if let Some(v) = (a.coord_get)(&coord) {
            (a.grid_push)(&mut probe.grid, v).expect("a coordinate's value fits its grid list");
        }
    }
    probe
}

/// A cell's display label: its group label with the trim degree in
/// effect, e.g. `baseline adv=colluding byz=2 f=1`.
fn label(cell: &Coord, effective_f: usize) -> String {
    Coord {
        fta_f: Some(effective_f),
        ..*cell
    }
    .group_label()
}

/// Deterministic bisection of a monotone break predicate over
/// `[min, max]`.
///
/// Protocol: [`Bisection::next_probe`] yields the next axis value to
/// evaluate (both interval ends first, then midpoints);
/// [`Bisection::report`] feeds back whether containment broke there.
/// Refinement stops when the bracket is at most `resolution` wide, the
/// probe budget is exhausted, or an endpoint settles the cell
/// ([`BisectOutcome::BrokenAtMin`] / [`BisectOutcome::ContainedThroughout`]).
///
/// Probe selection involves no randomness and no wall-clock state, so
/// identical report sequences produce identical probe sequences —
/// `tests/frontier_props.rs` holds it to that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bisection {
    resolution: u64,
    budget: usize,
    probes: usize,
    lo: u64,
    hi: u64,
    lo_broken: Option<bool>,
    hi_broken: Option<bool>,
}

/// Where a cell's containment frontier was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisectOutcome {
    /// Containment was already broken at the interval minimum.
    BrokenAtMin,
    /// Containment held through the interval maximum.
    ContainedThroughout,
    /// The boundary lies in `(contained_at, broken_at]`.
    Bracket {
        /// Largest probed value where containment held.
        contained_at: u64,
        /// Smallest probed value where containment broke.
        broken_at: u64,
    },
}

impl Bisection {
    /// A fresh search over `[min, max]` (`min < max`, `resolution ≥ 1`,
    /// `budget ≥ 2` — enforced by [`CampaignSpec::validate`]).
    pub fn new(min: u64, max: u64, resolution: u64, budget: usize) -> Bisection {
        assert!(min < max, "empty interval");
        assert!(resolution >= 1, "zero resolution");
        assert!(budget >= 2, "budget below 2 cannot settle an interval");
        Bisection {
            resolution,
            budget,
            probes: 0,
            lo: min,
            hi: max,
            lo_broken: None,
            hi_broken: None,
        }
    }

    /// Probes evaluated so far.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Current bracket `[lo, hi]`.
    pub fn bracket(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// The next axis value to evaluate, or `None` when the search is
    /// settled (see [`Bisection::outcome`]). Idempotent: the same value
    /// is returned until it is [`Bisection::report`]ed.
    pub fn next_probe(&self) -> Option<u64> {
        if self.probes >= self.budget {
            return None;
        }
        match (self.lo_broken, self.hi_broken) {
            (None, _) => Some(self.lo),
            (Some(true), _) => None,
            (Some(false), None) => Some(self.hi),
            (Some(false), Some(false)) => None,
            (Some(false), Some(true)) => {
                if self.hi - self.lo <= self.resolution {
                    None
                } else {
                    Some(self.lo + (self.hi - self.lo) / 2)
                }
            }
        }
    }

    /// Feeds back the empirical verdict for the value
    /// [`Bisection::next_probe`] returned.
    ///
    /// # Panics
    ///
    /// Panics when `probe` is not the pending probe.
    pub fn report(&mut self, probe: u64, broken: bool) {
        assert_eq!(
            Some(probe),
            self.next_probe(),
            "report must answer the pending probe"
        );
        self.probes += 1;
        match (self.lo_broken, self.hi_broken) {
            (None, _) => self.lo_broken = Some(broken),
            (Some(false), None) => self.hi_broken = Some(broken),
            _ => {
                if broken {
                    self.hi = probe;
                } else {
                    self.lo = probe;
                }
            }
        }
    }

    /// The settled outcome, or `None` while probes are still pending.
    pub fn outcome(&self) -> Option<BisectOutcome> {
        if self.next_probe().is_some() {
            return None;
        }
        Some(match (self.lo_broken, self.hi_broken) {
            (Some(true), _) => BisectOutcome::BrokenAtMin,
            (Some(false), Some(false)) => BisectOutcome::ContainedThroughout,
            (Some(false), Some(true)) => BisectOutcome::Bracket {
                contained_at: self.lo,
                broken_at: self.hi,
            },
            // budget ≥ 2 always settles both ends before exhausting.
            _ => unreachable!("outcome requested before both interval ends were probed"),
        })
    }
}

/// The empirical side of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpiricalDoc {
    /// How the search settled (`None` when a probe failed before the
    /// search settled: it panicked — see [`CampaignReport::failed`] — or,
    /// for [`load`], its artifact is missing or unreadable).
    pub outcome: Option<BisectOutcome>,
    /// Probes evaluated.
    pub probes: usize,
    /// Simulated runs the probes required (probes × seeds).
    pub runs: usize,
}

/// One cell of a frontier document.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDoc {
    /// The cell: a grid point of the spec, its seed cleared.
    pub cell: Coord,
    /// Trim degree in effect in the cell's materialized configuration.
    pub effective_f: usize,
    /// The bound [`containment_bound`] returned (only for the magnitude
    /// axis), with the parameters it was computed from — N and f are
    /// those of the cell's materialized configuration, Π and γ those of
    /// its first probe record.
    pub analytical: Option<(ResilienceParams, ResilienceBound)>,
    /// Empirical search result.
    pub empirical: EmpiricalDoc,
    /// Artifact hash of a run witnessing containment at the bracket's
    /// contained end.
    pub witness_contained: Option<String>,
    /// Artifact hash of a run witnessing the break at the bracket's
    /// broken end.
    pub witness_broken: Option<String>,
    /// Empirical boundary consistent with the analytical bound: no
    /// break observed below `contained_below`, and analytically
    /// unbreakable cells observed contained throughout.
    pub consistent: bool,
}

impl CellDoc {
    /// The cell's entry in `frontier.json`: its coordinate (scenario and
    /// active axes, keyed as in an artifact's `coord`), its effective f
    /// and its results.
    fn to_json(&self, bisect: &Bisect) -> Json {
        let opt_ns = |v: Option<Nanos>| v.map_or(Json::Null, |ns| Json::Int(ns.as_nanos()));
        let opt_at = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
        let opt_hash = |v: &Option<String>| v.as_ref().map_or(Json::Null, |h| Json::Str(h.clone()));
        let mut coord = vec![("scenario", Json::Str(self.cell.scenario.name().to_string()))];
        coord.extend(
            AXES.iter()
                .filter_map(|a| Some((a.coord_key, (a.coord_get)(&self.cell)?.to_json()))),
        );
        let analytical = match &self.analytical {
            None => Json::Null,
            Some((p, b)) => Json::object(vec![
                ("pi_ns", Json::Int(p.pi.as_nanos())),
                ("gamma_ns", Json::Int(p.gamma.as_nanos())),
                ("quorum", Json::Bool(b.quorum)),
                ("kept", Json::UInt(b.kept as u64)),
                ("steered", Json::UInt(b.steered as u64)),
                ("contained_below_ns", opt_ns(b.contained_below)),
                ("break_point_ns", opt_ns(b.break_point)),
                ("broken_above_ns", opt_ns(b.broken_above)),
            ]),
        };
        let outcome = match self.empirical.outcome {
            None => "failed",
            Some(BisectOutcome::BrokenAtMin) => "broken_at_min",
            Some(BisectOutcome::ContainedThroughout) => "contained_throughout",
            Some(BisectOutcome::Bracket { .. }) => "bracket",
        };
        let (contained_at, broken_at) = bracket_ends(self.empirical.outcome, bisect);
        let empirical = Json::object(vec![
            ("outcome", Json::Str(outcome.to_string())),
            ("contained_at", opt_at(contained_at)),
            ("broken_at", opt_at(broken_at)),
            ("probes", Json::UInt(self.empirical.probes as u64)),
            ("runs", Json::UInt(self.empirical.runs as u64)),
        ]);
        let witness = Json::object(vec![
            ("contained", opt_hash(&self.witness_contained)),
            ("broken", opt_hash(&self.witness_broken)),
        ]);
        Json::object(vec![
            ("coord", Json::object(coord)),
            ("f", Json::UInt(self.effective_f as u64)),
            ("analytical", analytical),
            ("empirical", empirical),
            ("witness", witness),
            ("consistent", Json::Bool(self.consistent)),
        ])
    }
}

/// The complete frontier document — what `frontier.json` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDoc {
    /// The spec that produced the document (it has a bisect block).
    pub spec: CampaignSpec,
    /// Simulated runs the search required in total (deterministic:
    /// resume does not change it).
    pub total_runs: usize,
    /// Per-cell results, in spec order.
    pub cells: Vec<CellDoc>,
}

impl FrontierDoc {
    /// The spec's bisect block.
    pub fn bisect(&self) -> Bisect {
        self.spec.bisect.expect("a frontier bisects")
    }

    /// Spacing of the fixed reference grid the frontier is compared
    /// against: [`GRID_REFERENCE_RUNS`] runs spread over the bisected
    /// interval at the spec's seed count, ns.
    pub fn grid_spacing(&self) -> u64 {
        let points = (GRID_REFERENCE_RUNS / self.spec.grid.seeds.len().max(1)).max(2);
        (self.bisect().max - self.bisect().min) / (points as u64 - 1)
    }

    /// `true` when every cell's empirical boundary is consistent with
    /// its analytical bound.
    pub fn consistent(&self) -> bool {
        self.cells.iter().all(|c| c.consistent)
    }

    /// The canonical JSON form of `frontier.json`.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| c.to_json(&self.bisect()));
        Json::object(vec![
            ("schema", Json::UInt(FRONTIER_SCHEMA)),
            ("spec", self.spec.to_json()),
            (
                "grid",
                Json::object(vec![
                    ("runs", Json::UInt(GRID_REFERENCE_RUNS as u64)),
                    ("spacing_ns", Json::UInt(self.grid_spacing())),
                ]),
            ),
            ("total_runs", Json::UInt(self.total_runs as u64)),
            ("cells", Json::Array(cells.collect())),
            ("consistent", Json::Bool(self.consistent())),
        ])
    }

    /// Renders the canonical `frontier.json` text (trailing newline).
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json().render())
    }

    /// Renders the human-readable frontier report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let axis = self.bisect();
        out.push_str(&format!(
            "resilience frontier `{}`: axis {} in [{}, {}] ns, resolution {} ns, {} seed(s)\n",
            self.spec.name,
            axis.axis,
            axis.min,
            axis.max,
            axis.resolution,
            self.spec.grid.seeds.len(),
        ));
        for c in &self.cells {
            let label = label(&c.cell, c.effective_f);
            let analytical = match &c.analytical {
                None => "-".to_string(),
                Some((_, b)) => match (b.contained_below, b.broken_above) {
                    (Some(lo), Some(hi)) => {
                        let pt = b
                            .break_point
                            .map_or("-".to_string(), |p| p.as_nanos().to_string());
                        let (lo, hi) = (lo.as_nanos(), hi.as_nanos());
                        format!("contained<{lo} break~{pt} broken>={hi}")
                    }
                    _ => "unbreakable".to_string(),
                },
            };
            let empirical = match c.empirical.outcome {
                None => "failed".to_string(),
                Some(BisectOutcome::BrokenAtMin) => format!("broken at min {}", axis.min),
                Some(BisectOutcome::ContainedThroughout) => {
                    format!("contained through max {}", axis.max)
                }
                Some(BisectOutcome::Bracket {
                    contained_at,
                    broken_at,
                }) => format!(
                    "boundary in ({contained_at}, {broken_at}] (width {})",
                    broken_at - contained_at
                ),
            };
            out.push_str(&format!(
                "  {label:<34} analytical: {analytical:<42} empirical: {empirical} \
                 [{} probe(s), {} run(s), {}]\n",
                c.empirical.probes,
                c.empirical.runs,
                if c.consistent {
                    "consistent"
                } else {
                    "INCONSISTENT"
                },
            ));
        }
        out.push_str(&format!(
            "frontier: {} simulated run(s) total vs {GRID_REFERENCE_RUNS} for a fixed grid at {} \
             ns spacing",
            self.total_runs,
            self.grid_spacing()
        ));
        // Compared with the widest bracket any cell produced.
        let widths = self
            .cells
            .iter()
            .map(|c| bracket_ends(c.empirical.outcome, &axis));
        match widths.filter_map(|ends| Some(ends.1? - ends.0?)).max() {
            Some(w) if w > 0 => out.push_str(&format!(
                " ({:.1}x tighter)\n",
                self.grid_spacing() as f64 / w as f64
            )),
            _ => out.push('\n'),
        }
        out
    }
}

/// Explores the frontier spec into `opts.dir`.
///
/// Writes `manifest.json` (the spec, where every campaign directory
/// keeps it), one `runs/run-<hash>.jsonl` per probe run
/// (content-addressed exactly like a plain campaign, so re-running
/// resumes), and the `frontier.json` document. One [`SnapshotCache`]
/// spans every probe: when the runner forks ([`RunnerOptions::fork`])
/// each distinct warm prefix (one per seed and trim degree) is simulated
/// once, by the first probe that needs it, and forked by all the others.
///
/// Returns the document with one report summed over every probe
/// ([`CampaignReport::absorb`]); the probes' records went to the
/// exploration, so the report's `records` is empty.
pub fn execute(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
) -> io::Result<(FrontierDoc, CampaignReport)> {
    let bisect = checked(spec)?;
    std::fs::create_dir_all(&opts.dir)?;
    let manifest = Json::object(vec![
        ("schema", Json::UInt(ARTIFACT_SCHEMA)),
        ("spec", spec.to_json()),
    ]);
    runner::write_atomic(&opts.dir.join("manifest.json"), &manifest.render())?;

    let inner_opts = RunnerOptions {
        quiet: true,
        trace: None,
        trace_max_events: None,
        ..opts.clone()
    };
    let mut cache = SnapshotCache::default();
    let mut report = CampaignReport::default();
    let doc = explore(spec, bisect, opts.quiet, |probe_spec| {
        let mut probe = runner::execute_with(probe_spec, &inner_opts, Some(&mut cache), false)?;
        let records = std::mem::take(&mut probe.records);
        let complete = probe.failed.is_empty();
        report.absorb(probe);
        Ok(complete.then_some(records))
    })?;
    runner::write_atomic(&opts.dir.join("frontier.json"), &doc.render())?;
    if !opts.quiet {
        eprintln!(
            "frontier: {} simulated run(s) required ({} executed now, {} resumed) vs {} for \
             the fixed grid; artifact {}",
            doc.total_runs,
            report.executed,
            report.skipped,
            GRID_REFERENCE_RUNS,
            opts.dir.join("frontier.json").display()
        );
    }
    Ok((doc, report))
}

/// Re-derives the document [`execute`] wrote into `dir` from the probe
/// artifacts alone: the same bisection, with each probe's records read
/// back instead of simulated. A probe with a missing or unreadable
/// artifact counts as failed, as a panicking probe does in [`execute`],
/// so the document renders `dir`'s `frontier.json` byte for byte.
///
/// # Errors
///
/// `InvalidInput` for an invalid spec or one without a bisect block,
/// `NotFound` when `dir` has no `runs/` directory (nothing was explored
/// there).
pub fn load(spec: &CampaignSpec, dir: &Path) -> io::Result<FrontierDoc> {
    let bisect = checked(spec)?;
    if !dir.join("runs").is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "frontier at {} has no runs/ directory (explore it first)",
                dir.display()
            ),
        ));
    }
    explore(spec, bisect, true, |probe_spec| {
        Ok(runner::load(probe_spec, dir).ok())
    })
}

/// The bisect block of a spec that validates.
fn checked(spec: &CampaignSpec) -> io::Result<Bisect> {
    let invalid = |msg| io::Error::new(io::ErrorKind::InvalidInput, msg);
    spec.validate()
        .map_err(|e| invalid(format!("invalid spec: {e}")))?;
    spec.bisect
        .ok_or_else(|| invalid(format!("spec {:?} has no bisect block", spec.name)))
}

/// Bisects every cell of `spec`, round by round in expansion order, and
/// assembles the document. `probe` maps a probe's campaign spec to its
/// records in canonical order, or to `None` when the probe failed: the
/// cell is then frozen (outcome `failed`) and the others go on.
fn explore(
    spec: &CampaignSpec,
    bisect: Bisect,
    quiet: bool,
    mut probe: impl FnMut(&CampaignSpec) -> io::Result<Option<Vec<RunRecord>>>,
) -> io::Result<FrontierDoc> {
    let axis = AxisDef::by_spec_key(bisect.axis).expect("a validated axis");
    // The cells are the grid points. Each one's plan at the first seed
    // carries its materialized configuration: the N and f in effect.
    let first_seed = CampaignSpec {
        grid: Grid {
            seeds: spec.grid.seeds[..1].to_vec(),
            ..spec.grid.clone()
        },
        bisect: None,
        ..spec.clone()
    };
    let cells: Vec<(Coord, usize, usize)> = expand(&first_seed)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
        .into_iter()
        .map(|p| {
            let agg = &p.config.aggregation;
            let cell = Coord { seed: 0, ..p.coord };
            (cell, agg.domains, agg.method.f().unwrap_or(0))
        })
        .collect();

    struct CellState {
        bisect: Bisection,
        // (probe value, per-seed (artifact hash, fraction within bound)).
        probed: Vec<(u64, Vec<(String, f64)>)>,
        // Π/γ from the first probed record (config-derived with the cell's
        // own f, identical across its probes on the magnitude axis).
        bounds: Option<(i64, i64)>,
        failed: bool,
    }
    let fresh = Bisection::new(
        bisect.min,
        bisect.max,
        bisect.resolution,
        bisect.budget_per_cell,
    );
    let mut states: Vec<CellState> = cells
        .iter()
        .map(|_| CellState {
            bisect: fresh.clone(),
            probed: Vec::new(),
            bounds: None,
            failed: false,
        })
        .collect();

    let mut round = 0usize;
    loop {
        let active: Vec<(usize, u64)> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.failed)
            .filter_map(|(i, s)| s.bisect.next_probe().map(|p| (i, p)))
            .collect();
        if active.is_empty() {
            break;
        }
        round += 1;
        if !quiet {
            eprintln!(
                "frontier: round {round}: probing {} cell(s): {}",
                active.len(),
                active
                    .iter()
                    .map(|&(i, p)| format!("{}@{p}", label(&cells[i].0, cells[i].2)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        for (i, value) in active {
            let state = &mut states[i];
            let Some(records) = probe(&probe_spec(spec, axis, &cells[i].0, value))? else {
                // A failed probe leaves the cell unsettled; freeze it and
                // keep exploring the other cells.
                state.failed = true;
                continue;
            };
            let broken = records.iter().any(|r| r.fraction_within_bound < 1.0);
            if state.bounds.is_none() {
                let b = &records[0].bounds;
                state.bounds = Some((b.pi_ns, b.gamma_ns));
            }
            state.probed.push((
                value,
                records
                    .iter()
                    .map(|r| (r.hash.clone(), r.fraction_within_bound))
                    .collect(),
            ));
            state.bisect.report(value, broken);
        }
    }

    let mut docs = Vec::with_capacity(cells.len());
    for (&(cell, domains, effective_f), state) in cells.iter().zip(&states) {
        let analytical = if bisect.axis == MAGNITUDE_AXIS {
            state.bounds.map(|(pi_ns, gamma_ns)| {
                let params = ResilienceParams {
                    domains,
                    f: effective_f,
                    compromised: cell.compromised(),
                    partitioned: 0,
                    pi: Nanos::from_nanos(pi_ns),
                    gamma: Nanos::from_nanos(gamma_ns),
                };
                (params, containment_bound(&params))
            })
        } else {
            None
        };
        let outcome = if state.failed {
            None
        } else {
            state.bisect.outcome()
        };
        let witness_at = |probe: Option<u64>, want_broken: bool| -> Option<String> {
            let (_, runs) = state.probed.iter().find(|(p, _)| Some(*p) == probe)?;
            let (hash, _) = runs.iter().find(|(_, frac)| (*frac < 1.0) == want_broken)?;
            Some(hash.clone())
        };
        let (contained_at, broken_at) = bracket_ends(outcome, &bisect);
        let consistent = consistent_with(analytical.as_ref().map(|(_, b)| b), outcome, &bisect);
        docs.push(CellDoc {
            cell,
            effective_f,
            analytical,
            empirical: EmpiricalDoc {
                outcome,
                probes: state.bisect.probes(),
                runs: state.bisect.probes() * spec.grid.seeds.len(),
            },
            witness_contained: witness_at(contained_at, false),
            witness_broken: witness_at(broken_at, true),
            consistent,
        });
    }
    Ok(FrontierDoc {
        spec: spec.clone(),
        total_runs: docs.iter().map(|c| c.empirical.runs).sum(),
        cells: docs,
    })
}

/// The bracket ends `(contained_at, broken_at)` of an outcome: an
/// endpoint outcome has one end, the axis min or max it settled at, and
/// a failed cell (`None`) has neither.
fn bracket_ends(outcome: Option<BisectOutcome>, axis: &Bisect) -> (Option<u64>, Option<u64>) {
    match outcome {
        None => (None, None),
        Some(BisectOutcome::BrokenAtMin) => (None, Some(axis.min)),
        Some(BisectOutcome::ContainedThroughout) => (Some(axis.max), None),
        Some(BisectOutcome::Bracket {
            contained_at,
            broken_at,
        }) => (Some(contained_at), Some(broken_at)),
    }
}

/// "Bound violated ⇒ containment actually observed broken": the
/// analytical guarantees that must hold empirically. Below
/// `contained_below` no magnitude may break containment, and a cell the
/// model calls unbreakable must be observed contained throughout. (The
/// converse — breaking at or above `broken_above` — is guaranteed only
/// for the model's ideal adversary, so a weaker preset staying
/// contained longer is not an inconsistency.)
fn consistent_with(
    bound: Option<&ResilienceBound>,
    outcome: Option<BisectOutcome>,
    axis: &Bisect,
) -> bool {
    let Some(bound) = bound else { return true };
    if outcome.is_none() || !bound.quorum {
        return true; // nothing observed, or degraded regardless of the adversary
    }
    match bound.contained_below {
        None => outcome == Some(BisectOutcome::ContainedThroughout), // unbreakable
        Some(floor) => {
            let (_, broken_at) = bracket_ends(outcome, axis);
            broken_at.is_none_or(|b| b as i64 >= floor.as_nanos())
        }
    }
}

/// Compares two frontier documents cell-by-cell.
///
/// `INCOMPARABLE` when specs disagree on the bisected interval or the
/// cells; `REGRESSION`
/// when any cell's outcome kind changed, a bracket end moved by more
/// than the baseline axis's resolution, or consistency was lost; `OK`
/// otherwise. The returned lines explain every verdict-relevant
/// difference.
pub fn diff(base: &FrontierDoc, cand: &FrontierDoc) -> (crate::summary::DiffVerdict, Vec<String>) {
    use crate::summary::DiffVerdict;
    let interval = |doc: &FrontierDoc| {
        let b = doc.bisect();
        (b.axis, b.min, b.max, b.resolution)
    };
    let tol_ns = base.bisect().resolution;
    let mut lines = Vec::new();
    if interval(base) != interval(cand) {
        lines.push(format!(
            "axis differs: {:?} vs {:?}",
            interval(base),
            interval(cand)
        ));
        return (DiffVerdict::Incomparable, lines);
    }
    if base.cells.len() != cand.cells.len()
        || base
            .cells
            .iter()
            .zip(&cand.cells)
            .any(|(b, c)| (b.cell, b.effective_f) != (c.cell, c.effective_f))
    {
        lines.push("cell sets differ".to_string());
        return (DiffVerdict::Incomparable, lines);
    }
    let mut verdict = DiffVerdict::Parity;
    for (b, c) in base.cells.iter().zip(&cand.cells) {
        let label = label(&b.cell, b.effective_f);
        match (b.empirical.outcome, c.empirical.outcome) {
            (
                Some(BisectOutcome::Bracket {
                    contained_at: b_lo,
                    broken_at: b_hi,
                }),
                Some(BisectOutcome::Bracket {
                    contained_at: c_lo,
                    broken_at: c_hi,
                }),
            ) => {
                let moved = b_lo.abs_diff(c_lo).max(b_hi.abs_diff(c_hi));
                if moved > tol_ns {
                    verdict = DiffVerdict::Regression;
                    lines.push(format!(
                        "{label}: bracket moved {moved} ns (({b_lo}, {b_hi}] -> ({c_lo}, {c_hi}], tol {tol_ns})"
                    ));
                } else {
                    lines.push(format!("{label}: bracket within {tol_ns} ns"));
                }
            }
            (b_out, c_out) if b_out == c_out => {
                lines.push(format!("{label}: outcome unchanged"));
            }
            (b_out, c_out) => {
                verdict = DiffVerdict::Regression;
                lines.push(format!("{label}: outcome changed {b_out:?} -> {c_out:?}"));
            }
        }
        if b.consistent && !c.consistent {
            verdict = DiffVerdict::Regression;
            lines.push(format!("{label}: lost analytical consistency"));
        }
    }
    (verdict, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BaseSpec, Preset, SpecError};
    use clocksync::scenario::ScenarioKind;

    #[test]
    fn bisection_brackets_a_monotone_threshold() {
        // broken(x) ⇔ x ≥ 37 500; span 63 000 at resolution 684 needs
        // 2 endpoint probes + 7 halvings.
        let mut b = Bisection::new(1_000, 64_000, 684, 16);
        while let Some(p) = b.next_probe() {
            b.report(p, p >= 37_500);
        }
        assert_eq!(b.probes(), 9);
        match b.outcome().unwrap() {
            BisectOutcome::Bracket {
                contained_at,
                broken_at,
            } => {
                assert!(contained_at < 37_500 && 37_500 <= broken_at);
                assert!(broken_at - contained_at <= 684);
            }
            other => panic!("expected bracket, got {other:?}"),
        }
    }

    #[test]
    fn bisection_settles_endpoints_without_refining() {
        let mut b = Bisection::new(10, 100, 5, 8);
        b.report(10, true);
        assert_eq!(b.outcome(), Some(BisectOutcome::BrokenAtMin));
        assert_eq!(b.probes(), 1);

        let mut b = Bisection::new(10, 100, 5, 8);
        b.report(10, false);
        b.report(100, false);
        assert_eq!(b.outcome(), Some(BisectOutcome::ContainedThroughout));
    }

    #[test]
    fn bisection_respects_budget() {
        let mut b = Bisection::new(0, 1 << 20, 1, 4);
        while let Some(p) = b.next_probe() {
            b.report(p, p >= 1000);
        }
        assert_eq!(b.probes(), 4);
        // Budget-exhausted searches still report the bracket they have.
        assert!(matches!(b.outcome(), Some(BisectOutcome::Bracket { .. })));
    }

    #[test]
    fn builtin_roundtrips_and_validates() {
        let spec = CampaignSpec::builtin("frontier-sweep").unwrap();
        assert!(spec.bisect.is_some());
        spec.validate().unwrap();
        let back = CampaignSpec::parse(&spec.render()).unwrap();
        assert_eq!(back, spec, "frontier-sweep did not roundtrip");
        // Without the block the spec is a plain campaign and renders no
        // `bisect` key, so every other spec keeps its bytes.
        let plain = CampaignSpec {
            bisect: None,
            ..spec
        };
        assert!(!plain.render().contains("bisect"));
        assert!(CampaignSpec::builtin("nope").is_none());
    }

    #[test]
    fn builtin_beats_the_grid_on_paper() {
        // The frontier-sweep must be able to reach a bracket ≥ 4×
        // tighter than the 48-run grid within its probe budget.
        let doc = doc_with_bracket(31_000, 31_400);
        let bisect = doc.bisect();
        let spacing = doc.grid_spacing();
        assert_eq!(spacing, 2_739); // 63 000 ns / 23 intervals
        assert!(bisect.resolution * 4 <= spacing);
        let span = bisect.max - bisect.min;
        let halvings = (64 - u64::leading_zeros(span / bisect.resolution) as usize) + 1;
        assert!(2 + halvings <= bisect.budget_per_cell);
    }

    #[test]
    fn validate_rejects_broken_axes_and_cells() {
        let sweep = || CampaignSpec::builtin("frontier-sweep").unwrap();
        let with = |edit: fn(&mut Bisect)| {
            let mut spec = sweep();
            edit(spec.bisect.as_mut().unwrap());
            spec.validate()
        };
        assert!(with(|b| b.min = b.max).is_err());
        assert!(with(|b| b.resolution = 0).is_err());
        assert!(with(|b| b.budget_per_cell = 1).is_err());
        assert!(matches!(
            with(|b| b.axis = "voltage"),
            Err(SpecError::Value(..))
        ));
        // An axis the table does not mark bisectable.
        assert!(matches!(
            with(|b| b.axis = "domains"),
            Err(SpecError::Value(..))
        ));
        // Magnitude 0 is rejected by the grid's range check of the
        // interval ends.
        assert!(with(|b| b.min = 0).is_err());

        let mut spec = sweep();
        spec.grid.strategies[0] = "trim-edge";
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        // The bisected axis takes no grid values.
        let mut spec = sweep();
        spec.grid.adv_offset_ns.push(5_000);
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        // A cell is a grid point, so a repeated cell is a repeated value.
        let mut spec = sweep();
        spec.grid.compromised.push(2);
        assert!(matches!(spec.validate(),
            Err(SpecError::Invalid(ref m)) if m.contains("grid.compromised")));
    }

    #[test]
    fn consistency_requires_breaks_above_the_guarantee() {
        let axis = Bisect {
            axis: MAGNITUDE_AXIS,
            min: 1_000,
            max: 64_000,
            resolution: 500,
            budget_per_cell: 12,
        };
        let bound = |compromised| {
            containment_bound(&ResilienceParams {
                domains: 4,
                f: 1,
                compromised,
                partitioned: 0,
                pi: Nanos::from_nanos(12_000),
                gamma: Nanos::from_nanos(1_500),
            })
        };
        // Contained below 3 000 ns, break point 27 000 ns.
        let breakable = bound(2);
        let bracket = |lo, hi| {
            Some(BisectOutcome::Bracket {
                contained_at: lo,
                broken_at: hi,
            })
        };
        assert!(consistent_with(
            Some(&breakable),
            bracket(26_000, 26_500),
            &axis
        ));
        // A break below the analytical floor is a real anomaly.
        assert!(!consistent_with(
            Some(&breakable),
            bracket(2_000, 2_500),
            &axis
        ));
        assert!(!consistent_with(
            Some(&breakable),
            Some(BisectOutcome::BrokenAtMin),
            &axis
        ));
        // Unbreakable cells must be observed contained.
        let unbreakable = bound(1);
        assert!(consistent_with(
            Some(&unbreakable),
            Some(BisectOutcome::ContainedThroughout),
            &axis
        ));
        assert!(!consistent_with(
            Some(&unbreakable),
            bracket(26_000, 26_500),
            &axis
        ));
        // No analytical model: nothing to contradict.
        assert!(consistent_with(
            None,
            Some(BisectOutcome::BrokenAtMin),
            &axis
        ));
    }

    fn doc_with_bracket(lo: u64, hi: u64) -> FrontierDoc {
        let spec = CampaignSpec::builtin("frontier-sweep").unwrap();
        let cell = CellDoc {
            cell: Coord {
                strategy: Some("colluding"),
                compromised: Some(2),
                ..Coord::new(ScenarioKind::Baseline, 0)
            },
            effective_f: 1,
            analytical: None,
            empirical: EmpiricalDoc {
                outcome: Some(BisectOutcome::Bracket {
                    contained_at: lo,
                    broken_at: hi,
                }),
                probes: 9,
                runs: 18,
            },
            witness_contained: Some("aaaa".to_string()),
            witness_broken: Some("bbbb".to_string()),
            consistent: true,
        };
        FrontierDoc {
            total_runs: 18,
            cells: vec![cell],
            spec,
        }
    }

    /// A frontier directory is its spec plus its artifacts: `load`
    /// replays the bisection to the document `execute` wrote, and a
    /// probe whose artifact is gone fails its cell, as a panicking probe
    /// does (`tests/cli.rs` replays a directory where one panicked).
    #[test]
    fn load_replays_the_written_document() {
        let spec = CampaignSpec {
            name: "frontier-load".to_string(),
            base: BaseSpec {
                preset: Preset::Quick,
                duration_s: Some(6),
                warmup_s: Some(3),
            },
            scenarios: vec![ScenarioKind::Baseline],
            grid: Grid {
                seeds: vec![1],
                strategies: vec!["colluding"],
                compromised: vec![2, 1],
                ..Grid::default()
            },
            bisect: Some(Bisect {
                axis: MAGNITUDE_AXIS,
                min: 1_000,
                max: 64_000,
                resolution: 16_000,
                budget_per_cell: 4,
            }),
        };
        let dir = std::env::temp_dir().join(format!("tsn-frontier-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            threads: 2,
            quiet: true,
            ..RunnerOptions::new(&dir)
        };
        let (doc, _) = execute(&spec, &opts).expect("the exploration finishes");
        // The directory keeps its spec where a campaign directory does.
        let manifest = Json::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap());
        let kept = manifest.unwrap().get("spec").unwrap().render();
        assert_eq!(CampaignSpec::parse(&kept).unwrap(), spec);
        let loaded = load(&spec, &dir).expect("the directory loads");
        assert_eq!(loaded, doc);
        let written = std::fs::read_to_string(dir.join("frontier.json")).unwrap();
        assert_eq!(loaded.render(), written);

        let axis = AxisDef::by_spec_key(MAGNITUDE_AXIS).unwrap();
        let probe = probe_spec(&spec, axis, &doc.cells[0].cell, 1_000);
        let lost = crate::matrix::expand(&probe).unwrap().remove(0).hash;
        std::fs::remove_file(dir.join("runs").join(format!("run-{lost}.jsonl"))).unwrap();
        let reloaded = load(&spec, &dir).expect("the directory loads");
        assert_eq!(reloaded.cells[0].empirical.outcome, None);
        assert_eq!(reloaded.cells[0].empirical.probes, 0);
        assert_eq!(reloaded.cells[1], loaded.cells[1]);
        let text = reloaded.render_text();
        assert!(
            text.contains("baseline adv=colluding byz=2 f=1") && text.contains("failed"),
            "{text}"
        );

        let missing = load(&spec, &dir.join("nowhere")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        let plain = CampaignSpec {
            bisect: None,
            ..spec
        };
        assert_eq!(
            load(&plain, &dir).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_flags_moved_brackets() {
        use crate::summary::DiffVerdict;
        let base = doc_with_bracket(31_000, 31_400);
        let same = doc_with_bracket(31_100, 31_500);
        let (verdict, _) = diff(&base, &same);
        assert_eq!(verdict, DiffVerdict::Parity);
        let moved = doc_with_bracket(40_000, 40_400);
        let (verdict, lines) = diff(&base, &moved);
        assert_eq!(verdict, DiffVerdict::Regression);
        assert!(lines.iter().any(|l| l.contains("bracket moved")));
        let mut incomparable = doc_with_bracket(31_000, 31_400);
        incomparable.spec.bisect.as_mut().unwrap().max = 128_000;
        let (verdict, _) = diff(&base, &incomparable);
        assert_eq!(verdict, DiffVerdict::Incomparable);
        let mut other_cell = doc_with_bracket(31_000, 31_400);
        other_cell.cells[0].cell.compromised = Some(1);
        let (verdict, lines) = diff(&base, &other_cell);
        assert_eq!(verdict, DiffVerdict::Incomparable);
        assert_eq!(lines, ["cell sets differ"]);
    }
}
