//! Adaptive resilience-frontier exploration.
//!
//! The paper's experiment (ii) demonstrates FTA containment at one
//! fixed adversary point; arXiv:2006.15832 derives where containment
//! *must* hold and where it *must* fail analytically
//! ([`tsn_fta::containment_bound`]). This module closes the loop: for
//! each discrete cell (strategy × compromised count × trim degree `f`)
//! it bisects one continuous adversary axis — the attack-magnitude axis
//! `adv_offset_ns` by default — until the empirical
//! containment-failure boundary is bracketed to a requested resolution,
//! then checks the bracket against the analytical bound.
//!
//! Three properties drive the design:
//!
//! * **Determinism** — probe selection is pure bisection (no RNG) and
//!   per-run seeds derive from the grid coordinate exactly as in a
//!   plain campaign, so the same [`FrontierSpec`] + seeds reproduce
//!   `frontier.json` byte-for-byte (`tests/builtins.rs` proves it). A
//!   frontier directory is therefore its spec plus its probe artifacts:
//!   [`load`] replays the bisection over the artifacts and re-derives
//!   the document, so `frontier.json` is written and never parsed.
//! * **Work sharing** — every probe executes through
//!   [`runner::execute_with`] with one shared [`SnapshotCache`]. A probe
//!   is one run per seed and shares no prefix within itself; but the
//!   axis, the strategy and the compromised count are intervention-only,
//!   so the first probe of a `(seed, f)` pair simulates that warm prefix
//!   into the cache and every later probe of any cell forks it.
//! * **Fewer runs than the grid** — a fixed sweep in the style of the
//!   `adversary-sweep` builtin spends [`GRID_REFERENCE_RUNS`] runs for
//!   a spacing of `span / (runs/seeds − 1)`; bisection reaches a
//!   bracket of `resolution` width in `2 + ⌈log₂(span/resolution)⌉`
//!   probes per cell. Both counts are reported so the trade is visible.

use crate::artifact::RunRecord;
use crate::axis::{AxisDef, AxisValue, MAGNITUDE_AXIS};
use crate::json::Json;
use crate::runner::{self, CampaignReport, RunnerOptions, SnapshotCache};
use crate::spec::{field, BaseSpec, CampaignSpec, Grid, SpecError};
use clocksync::scenario::ScenarioKind;
use std::io;
use std::path::Path;
use tsn_fta::{containment_bound, ResilienceBound, ResilienceParams};
use tsn_time::Nanos;

/// Schema version of `frontier.json` and frontier spec files.
pub const FRONTIER_SCHEMA: u64 = 1;

/// Run count of the fixed reference grid the frontier is compared
/// against (the `adversary-sweep` builtin's 48 runs).
pub const GRID_REFERENCE_RUNS: usize = 48;

/// One discrete frontier cell: the adversary shape whose continuous
/// break point is searched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierCell {
    /// Strategy preset name ([`tsn_faults::ByzantineStrategy::NAMES`]).
    pub strategy: String,
    /// Compromised GM domains `c`.
    pub compromised: usize,
    /// Trim degree `f` override (`None` keeps the preset's `f`).
    pub f: Option<usize>,
}

impl FrontierCell {
    /// Canonical display label, e.g. `colluding c=2 f=1`.
    pub fn label(&self, default_f: usize) -> String {
        format!(
            "{} c={} f={}",
            self.strategy,
            self.compromised,
            self.f.unwrap_or(default_f)
        )
    }
}

/// The continuous axis to bisect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierAxis {
    /// Spec key of a grid axis the axis table marks bisectable
    /// (`adv_offset_ns`, `loss_permille`, `partition_s`,
    /// `sync_interval_ms`). Only `adv_offset_ns` has an analytical bound
    /// in magnitude space; the other axes get an empirical bracket only.
    pub name: String,
    /// Inclusive lower end of the search interval.
    pub min: u64,
    /// Inclusive upper end of the search interval.
    pub max: u64,
    /// Stop refining once the bracket is at most this wide.
    pub resolution: u64,
}

/// A declarative frontier-exploration specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSpec {
    /// Campaign name (also stamped into every run artifact).
    pub name: String,
    /// Base testbed configuration shared by every probe.
    pub base: BaseSpec,
    /// Replication seeds; a probe counts as broken when *any* seed
    /// observes containment broken.
    pub seeds: Vec<u64>,
    /// Discrete cells to search.
    pub cells: Vec<FrontierCell>,
    /// The continuous axis and search interval.
    pub axis: FrontierAxis,
    /// Maximum probes per cell (each probe simulates one run per seed).
    pub budget_per_cell: usize,
}

impl FrontierSpec {
    /// Names of the built-in frontier specs:
    ///
    /// * `frontier-sweep` — the ROADMAP item 5 search: magnitude axis
    ///   1 µs..64 µs at 684 ns resolution (4× tighter than a 48-run
    ///   grid's 2739 ns spacing) over colluding c ∈ {1, 2} and constant
    ///   c = 2, 2 seeds.
    pub const BUILTINS: [&'static str; 1] = ["frontier-sweep"];

    /// A built-in frontier spec by name: its committed file, like
    /// [`CampaignSpec::builtin`].
    pub fn builtin(name: &str) -> Option<FrontierSpec> {
        let text = match name {
            "frontier-sweep" => include_str!("../../../specs/frontier_sweep.json"),
            _ => return None,
        };
        FrontierSpec::parse(text).ok()
    }

    /// The synthetic one-probe campaign spec for a cell: the cell's
    /// discrete coordinates plus the probe value on the continuous
    /// axis. Probes are content-addressed exactly like ordinary
    /// campaign runs, so repeated probes resume instead of re-running.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Value`] for an axis that is not bisectable,
    /// a strategy outside [`tsn_faults::ByzantineStrategy::NAMES`], or
    /// a probe value the axis cannot hold.
    pub fn probe_spec(&self, cell: &FrontierCell, probe: u64) -> Result<CampaignSpec, SpecError> {
        let mut grid = Grid {
            seeds: self.seeds.clone(),
            compromised: vec![cell.compromised],
            fta_f: cell.f.map(|f| vec![f]).unwrap_or_default(),
            ..Grid::default()
        };
        let strategy = tsn_faults::ByzantineStrategy::NAMES
            .into_iter()
            .find(|n| *n == cell.strategy)
            .ok_or_else(|| SpecError::Value("cells[].strategy".into(), cell.strategy.clone()))?;
        grid.strategies.push(strategy);
        let axis = AxisDef::by_spec_key(&self.axis.name)
            .filter(|a| a.bisect)
            .ok_or_else(|| SpecError::Value("axis.name".into(), self.axis.name.clone()))?;
        (axis.grid_push)(&mut grid, AxisValue::UInt(probe))
            .ok_or_else(|| SpecError::Value(self.axis.name.clone(), probe.to_string()))?;
        Ok(CampaignSpec {
            name: self.name.clone(),
            base: self.base.clone(),
            scenarios: vec![ScenarioKind::Baseline],
            grid,
        })
    }

    /// Checks structural invariants. Every cell is validated by
    /// materializing its probe spec at both interval ends, so all grid
    /// range rules (magnitude bounds, trim degrees, partition windows)
    /// apply unchanged.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.axis.min >= self.axis.max {
            return Err(SpecError::Invalid(format!(
                "axis.min {} must be below axis.max {}",
                self.axis.min, self.axis.max
            )));
        }
        if self.axis.resolution == 0 {
            return Err(SpecError::Invalid("axis.resolution of 0".to_string()));
        }
        if self.budget_per_cell < 2 {
            return Err(SpecError::Invalid(
                "budget_per_cell below 2 (both interval ends must be probed)".to_string(),
            ));
        }
        if self.cells.is_empty() {
            return Err(SpecError::Invalid("no cells".to_string()));
        }
        for cell in &self.cells {
            if self.axis.name == MAGNITUDE_AXIS && cell.strategy == "trim-edge" {
                return Err(SpecError::Invalid(
                    "trim-edge cannot be bisected on adv_offset_ns: its magnitude is the \
                     trim margin, so larger values are *weaker* attacks (the bisection \
                     assumes broken(x) is monotone increasing)"
                        .to_string(),
                ));
            }
            self.probe_spec(cell, self.axis.min)?.validate()?;
            self.probe_spec(cell, self.axis.max)?.validate()?;
        }
        Ok(())
    }

    /// The canonical JSON form (deterministic; also what spec files
    /// use).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::UInt(FRONTIER_SCHEMA)),
            ("name", Json::Str(self.name.clone())),
            ("base", self.base.to_json()),
            (
                "seeds",
                Json::Array(self.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "axis",
                Json::object(vec![
                    ("name", Json::Str(self.axis.name.clone())),
                    ("min", Json::UInt(self.axis.min)),
                    ("max", Json::UInt(self.axis.max)),
                    ("resolution", Json::UInt(self.axis.resolution)),
                ]),
            ),
            (
                "cells",
                Json::Array(
                    self.cells
                        .iter()
                        .map(|c| {
                            let mut pairs = vec![
                                ("strategy", Json::Str(c.strategy.clone())),
                                ("compromised", Json::UInt(c.compromised as u64)),
                            ];
                            if let Some(f) = c.f {
                                pairs.push(("f", Json::UInt(f as u64)));
                            }
                            Json::object(pairs)
                        })
                        .collect(),
                ),
            ),
            ("budget_per_cell", Json::UInt(self.budget_per_cell as u64)),
        ])
    }

    /// Renders the canonical spec file text (trailing newline).
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json().render())
    }

    /// Parses and validates a frontier spec document.
    pub fn parse(text: &str) -> Result<FrontierSpec, SpecError> {
        let v = Json::parse(text)?;
        let spec = FrontierSpec::from_json(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    fn from_json(v: &Json) -> Result<FrontierSpec, SpecError> {
        let schema = field(v, "schema", Json::as_u64)?;
        if schema != FRONTIER_SCHEMA {
            return Err(SpecError::Invalid(format!(
                "unsupported frontier schema {schema} (expected {FRONTIER_SCHEMA})"
            )));
        }
        let name = field(v, "name", Json::as_str)?.to_string();
        let base = BaseSpec::from_json(field(v, "base", Some)?)?;
        let seeds = field(v, "seeds", Json::as_array)?
            .iter()
            .map(|s| s.as_u64().ok_or_else(|| SpecError::field("seeds[]")))
            .collect::<Result<Vec<u64>, _>>()?;
        let axis_v = field(v, "axis", Some)?;
        let axis = FrontierAxis {
            name: field(axis_v, "axis.name", Json::as_str)?.to_string(),
            min: field(axis_v, "axis.min", Json::as_u64)?,
            max: field(axis_v, "axis.max", Json::as_u64)?,
            resolution: field(axis_v, "axis.resolution", Json::as_u64)?,
        };
        let cells = field(v, "cells", Json::as_array)?
            .iter()
            .map(|c| {
                let strategy = field(c, "cells[].strategy", Json::as_str)?;
                if !tsn_faults::ByzantineStrategy::NAMES.contains(&strategy) {
                    return Err(SpecError::value("cells[].strategy", strategy));
                }
                let compromised = field(c, "cells[].compromised", Json::as_u64)? as usize;
                let f = match c.get("f") {
                    None => None,
                    Some(f) => Some(f.as_u64().ok_or_else(|| SpecError::field("cells[].f"))?),
                };
                Ok(FrontierCell {
                    strategy: strategy.to_string(),
                    compromised,
                    f: f.map(|f| f as usize),
                })
            })
            .collect::<Result<Vec<FrontierCell>, SpecError>>()?;
        let budget_per_cell = field(v, "budget_per_cell", Json::as_u64)? as usize;
        Ok(FrontierSpec {
            name,
            base,
            seeds,
            cells,
            axis,
            budget_per_cell,
        })
    }

    /// Spacing of the fixed reference grid this spec is compared
    /// against: [`GRID_REFERENCE_RUNS`] runs spread over the axis at
    /// this spec's seed count.
    pub fn grid_spacing(&self) -> u64 {
        let points = (GRID_REFERENCE_RUNS / self.seeds.len().max(1)).max(2);
        (self.axis.max - self.axis.min) / (points as u64 - 1)
    }
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
    /// `budget ≥ 2` — enforced by [`FrontierSpec::validate`]).
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
    /// The discrete cell.
    pub cell: FrontierCell,
    /// Trim degree actually in effect (cell override or preset).
    pub effective_f: usize,
    /// The bound [`containment_bound`] returned (only for the magnitude
    /// axis), with the parameters it was computed from — Π and γ are
    /// those of the cell's first probe record.
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

/// The complete frontier document — what `frontier.json` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDoc {
    /// The spec that produced the document.
    pub spec: FrontierSpec,
    /// Fixed reference grid run count ([`GRID_REFERENCE_RUNS`]).
    pub grid_runs: usize,
    /// Reference grid spacing along the axis, ns.
    pub grid_spacing: u64,
    /// Simulated runs the search required in total (deterministic:
    /// resume does not change it).
    pub total_runs: usize,
    /// Per-cell results, in spec order.
    pub cells: Vec<CellDoc>,
}

impl FrontierDoc {
    /// `true` when every cell's empirical boundary is consistent with
    /// its analytical bound.
    pub fn consistent(&self) -> bool {
        self.cells.iter().all(|c| c.consistent)
    }

    /// Widest empirical bracket across cells that produced one, ns.
    pub fn worst_bracket_width(&self) -> Option<u64> {
        self.cells
            .iter()
            .filter_map(|c| match c.empirical.outcome {
                Some(BisectOutcome::Bracket {
                    contained_at,
                    broken_at,
                }) => Some(broken_at - contained_at),
                _ => None,
            })
            .max()
    }

    /// The canonical JSON form of `frontier.json`.
    pub fn to_json(&self) -> Json {
        let opt_ns = |v: Option<Nanos>| v.map_or(Json::Null, |ns| Json::Int(ns.as_nanos()));
        let opt_at = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
        let opt_hash = |v: &Option<String>| v.as_ref().map_or(Json::Null, |h| Json::Str(h.clone()));
        Json::object(vec![
            ("schema", Json::UInt(FRONTIER_SCHEMA)),
            ("spec", self.spec.to_json()),
            (
                "grid",
                Json::object(vec![
                    ("runs", Json::UInt(self.grid_runs as u64)),
                    ("spacing_ns", Json::UInt(self.grid_spacing)),
                ]),
            ),
            ("total_runs", Json::UInt(self.total_runs as u64)),
            (
                "cells",
                Json::Array(
                    self.cells
                        .iter()
                        .map(|c| {
                            let analytical = match &c.analytical {
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
                            let outcome = match c.empirical.outcome {
                                None => "failed",
                                Some(BisectOutcome::BrokenAtMin) => "broken_at_min",
                                Some(BisectOutcome::ContainedThroughout) => "contained_throughout",
                                Some(BisectOutcome::Bracket { .. }) => "bracket",
                            };
                            let (contained_at, broken_at) =
                                bracket_ends(c.empirical.outcome, &self.spec.axis);
                            Json::object(vec![
                                ("strategy", Json::Str(c.cell.strategy.clone())),
                                ("compromised", Json::UInt(c.cell.compromised as u64)),
                                ("f", Json::UInt(c.effective_f as u64)),
                                ("analytical", analytical),
                                (
                                    "empirical",
                                    Json::object(vec![
                                        ("outcome", Json::Str(outcome.to_string())),
                                        ("contained_at", opt_at(contained_at)),
                                        ("broken_at", opt_at(broken_at)),
                                        ("probes", Json::UInt(c.empirical.probes as u64)),
                                        ("runs", Json::UInt(c.empirical.runs as u64)),
                                    ]),
                                ),
                                (
                                    "witness",
                                    Json::object(vec![
                                        ("contained", opt_hash(&c.witness_contained)),
                                        ("broken", opt_hash(&c.witness_broken)),
                                    ]),
                                ),
                                ("consistent", Json::Bool(c.consistent)),
                            ])
                        })
                        .collect(),
                ),
            ),
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
        let axis = &self.spec.axis;
        out.push_str(&format!(
            "resilience frontier `{}`: axis {} in [{}, {}] ns, resolution {} ns, {} seed(s)\n",
            self.spec.name,
            axis.name,
            axis.min,
            axis.max,
            axis.resolution,
            self.spec.seeds.len(),
        ));
        for c in &self.cells {
            let label = format!(
                "{} c={} f={}",
                c.cell.strategy, c.cell.compromised, c.effective_f
            );
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
                Some(BisectOutcome::BrokenAtMin) => format!("broken at min {}", self.spec.axis.min),
                Some(BisectOutcome::ContainedThroughout) => {
                    format!("contained through max {}", self.spec.axis.max)
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
                "  {label:<24} analytical: {analytical:<42} empirical: {empirical} \
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
            "frontier: {} simulated run(s) total vs {} for a fixed grid at {} ns spacing",
            self.total_runs, self.grid_runs, self.grid_spacing
        ));
        match self.worst_bracket_width() {
            Some(w) if w > 0 => out.push_str(&format!(
                " ({:.1}x tighter)\n",
                self.grid_spacing as f64 / w as f64
            )),
            _ => out.push('\n'),
        }
        out
    }
}

/// Explores the frontier spec into `opts.dir`.
///
/// Writes `frontier-spec.json`, one `runs/run-<hash>.jsonl` per probe
/// run (content-addressed exactly like a plain campaign, so re-running
/// resumes), and the `frontier.json` document. One [`SnapshotCache`]
/// spans every probe: when the runner forks ([`RunnerOptions::fork`])
/// each distinct warm prefix (one per seed and trim degree) is simulated
/// once, by the first probe that needs it, and forked by all the others.
///
/// Returns the document with one report summed over every probe
/// ([`CampaignReport::absorb`]); the probes' records went to the
/// exploration, so the report's `records` is empty.
pub fn execute(
    spec: &FrontierSpec,
    opts: &RunnerOptions,
) -> io::Result<(FrontierDoc, CampaignReport)> {
    spec.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("invalid spec: {e}")))?;
    std::fs::create_dir_all(&opts.dir)?;
    runner::write_atomic(&opts.dir.join("frontier-spec.json"), &spec.render())?;

    let inner_opts = RunnerOptions {
        quiet: true,
        trace: None,
        trace_max_events: None,
        ..opts.clone()
    };
    let mut cache = SnapshotCache::new();
    let mut report = CampaignReport::default();
    let doc = explore(spec, opts.quiet, |probe_spec| {
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
            doc.grid_runs,
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
/// `InvalidInput` for an invalid spec, `NotFound` when `dir` has no
/// `runs/` directory (nothing was explored there).
pub fn load(spec: &FrontierSpec, dir: &Path) -> io::Result<FrontierDoc> {
    spec.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("invalid spec: {e}")))?;
    if !dir.join("runs").is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "frontier at {} has no runs/ directory (explore it first)",
                dir.display()
            ),
        ));
    }
    explore(spec, true, |probe_spec| {
        Ok(runner::load(probe_spec, dir).ok())
    })
}

/// Bisects every cell of `spec`, round by round in spec order, and
/// assembles the document. `probe` maps a probe's campaign spec to its
/// records in canonical order, or to `None` when the probe failed: the
/// cell is then frozen (outcome `failed`) and the others go on.
fn explore(
    spec: &FrontierSpec,
    quiet: bool,
    mut probe: impl FnMut(&CampaignSpec) -> io::Result<Option<Vec<RunRecord>>>,
) -> io::Result<FrontierDoc> {
    // Per-seed defaults the cells inherit from the base configuration.
    let base_cfg = spec.base.materialize(spec.seeds[0]);
    let domains = base_cfg.aggregation.domains;
    let preset_f = base_cfg.aggregation.method.f().unwrap_or(0);

    struct CellState {
        bisect: Bisection,
        // (probe value, per-seed (artifact hash, fraction within bound)).
        probed: Vec<(u64, Vec<(String, f64)>)>,
        // Π/γ from the first probed record (config-derived with the
        // cell's own f, identical across a cell's probes on the
        // magnitude axis).
        bounds: Option<(i64, i64)>,
        failed: bool,
    }
    let mut states: Vec<CellState> = spec
        .cells
        .iter()
        .map(|_| CellState {
            bisect: Bisection::new(
                spec.axis.min,
                spec.axis.max,
                spec.axis.resolution,
                spec.budget_per_cell,
            ),
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
                    .map(|&(i, p)| format!("{}@{p}", spec.cells[i].label(preset_f)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        for (i, value) in active {
            let probe_spec = spec
                .probe_spec(&spec.cells[i], value)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            let state = &mut states[i];
            let Some(records) = probe(&probe_spec)? else {
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

    let mut cells = Vec::with_capacity(spec.cells.len());
    for (cell, state) in spec.cells.iter().zip(&states) {
        let effective_f = cell.f.unwrap_or(preset_f);
        let analytical = if spec.axis.name == MAGNITUDE_AXIS {
            state.bounds.map(|(pi_ns, gamma_ns)| {
                let params = ResilienceParams {
                    domains,
                    f: effective_f,
                    compromised: cell.compromised,
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
        let (contained_at, broken_at) = bracket_ends(outcome, &spec.axis);
        let consistent = consistent_with(analytical.as_ref().map(|(_, b)| b), outcome, &spec.axis);
        cells.push(CellDoc {
            cell: cell.clone(),
            effective_f,
            analytical,
            empirical: EmpiricalDoc {
                outcome,
                probes: state.bisect.probes(),
                runs: state.bisect.probes() * spec.seeds.len(),
            },
            witness_contained: witness_at(contained_at, false),
            witness_broken: witness_at(broken_at, true),
            consistent,
        });
    }
    Ok(FrontierDoc {
        spec: spec.clone(),
        grid_runs: GRID_REFERENCE_RUNS,
        grid_spacing: spec.grid_spacing(),
        total_runs: cells.iter().map(|c| c.empirical.runs).sum(),
        cells,
    })
}

/// The bracket ends `(contained_at, broken_at)` of an outcome: an
/// endpoint outcome has one end, the axis min or max it settled at, and
/// a failed cell (`None`) has neither.
fn bracket_ends(outcome: Option<BisectOutcome>, axis: &FrontierAxis) -> (Option<u64>, Option<u64>) {
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
    axis: &FrontierAxis,
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
/// `INCOMPARABLE` when specs disagree on axis or cells; `REGRESSION`
/// when any cell's outcome kind changed, a bracket end moved by more
/// than the baseline axis's resolution, or consistency was lost; `OK`
/// otherwise. The returned lines explain every verdict-relevant
/// difference.
pub fn diff(base: &FrontierDoc, cand: &FrontierDoc) -> (crate::summary::DiffVerdict, Vec<String>) {
    use crate::summary::DiffVerdict;
    let tol_ns = base.spec.axis.resolution;
    let mut lines = Vec::new();
    if base.spec.axis != cand.spec.axis {
        lines.push(format!(
            "axis differs: {:?} vs {:?}",
            base.spec.axis, cand.spec.axis
        ));
        return (DiffVerdict::Incomparable, lines);
    }
    if base.cells.len() != cand.cells.len()
        || base.cells.iter().zip(&cand.cells).any(|(b, c)| {
            b.cell.strategy != c.cell.strategy
                || b.cell.compromised != c.cell.compromised
                || b.effective_f != c.effective_f
        })
    {
        lines.push("cell sets differ".to_string());
        return (DiffVerdict::Incomparable, lines);
    }
    let mut verdict = DiffVerdict::Parity;
    for (b, c) in base.cells.iter().zip(&cand.cells) {
        let label = format!(
            "{} c={} f={}",
            b.cell.strategy, b.cell.compromised, b.effective_f
        );
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
    use crate::spec::Preset;

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
        for name in FrontierSpec::BUILTINS {
            let spec = FrontierSpec::builtin(name).unwrap();
            spec.validate().unwrap();
            let back = FrontierSpec::parse(&spec.render()).unwrap();
            assert_eq!(back, spec, "{name} did not roundtrip");
        }
        assert!(FrontierSpec::builtin("nope").is_none());
    }

    #[test]
    fn builtin_beats_the_grid_on_paper() {
        // The frontier-sweep must be able to reach a bracket ≥ 4×
        // tighter than the 48-run grid within its probe budget.
        let spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        let spacing = spec.grid_spacing();
        assert_eq!(spacing, 2_739); // 63 000 ns / 23 intervals
        assert!(spec.axis.resolution * 4 <= spacing);
        let span = spec.axis.max - spec.axis.min;
        let halvings = (64 - u64::leading_zeros(span / spec.axis.resolution) as usize) + 1;
        assert!(2 + halvings <= spec.budget_per_cell);
    }

    #[test]
    fn validate_rejects_broken_axes_and_cells() {
        let mut spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        spec.axis.min = spec.axis.max;
        assert!(spec.validate().is_err());

        let mut spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        spec.axis.name = "voltage".to_string();
        assert!(matches!(spec.validate(), Err(SpecError::Value(..))));

        let mut spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        spec.cells[0].strategy = "trim-edge".to_string();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mut spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        spec.budget_per_cell = 1;
        assert!(spec.validate().is_err());

        // Magnitude 0 is rejected through the probe-spec validation.
        let mut spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        spec.axis.min = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn consistency_requires_breaks_above_the_guarantee() {
        let axis = FrontierAxis {
            name: "adv_offset_ns".to_string(),
            min: 1_000,
            max: 64_000,
            resolution: 500,
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
        let spec = FrontierSpec::builtin("frontier-sweep").unwrap();
        let cell = CellDoc {
            cell: spec.cells[0].clone(),
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
            grid_runs: GRID_REFERENCE_RUNS,
            grid_spacing: spec.grid_spacing(),
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
        let cell = |compromised| FrontierCell {
            strategy: "colluding".to_string(),
            compromised,
            f: None,
        };
        let spec = FrontierSpec {
            name: "frontier-load".to_string(),
            base: BaseSpec {
                preset: Preset::Quick,
                duration_s: Some(6),
                warmup_s: Some(3),
            },
            seeds: vec![1],
            cells: vec![cell(2), cell(1)],
            axis: FrontierAxis {
                name: MAGNITUDE_AXIS.to_string(),
                min: 1_000,
                max: 64_000,
                resolution: 16_000,
            },
            budget_per_cell: 4,
        };
        let dir = std::env::temp_dir().join(format!("tsn-frontier-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            threads: 2,
            quiet: true,
            ..RunnerOptions::new(&dir)
        };
        let (doc, _) = execute(&spec, &opts).expect("the exploration finishes");
        let loaded = load(&spec, &dir).expect("the directory loads");
        assert_eq!(loaded, doc);
        let written = std::fs::read_to_string(dir.join("frontier.json")).unwrap();
        assert_eq!(loaded.render(), written);

        let probe = spec.probe_spec(&spec.cells[0], spec.axis.min).unwrap();
        let lost = crate::matrix::expand(&probe).unwrap().remove(0).hash;
        std::fs::remove_file(dir.join("runs").join(format!("run-{lost}.jsonl"))).unwrap();
        let reloaded = load(&spec, &dir).expect("the directory loads");
        assert_eq!(reloaded.cells[0].empirical.outcome, None);
        assert_eq!(reloaded.cells[0].empirical.probes, 0);
        assert_eq!(reloaded.cells[1], loaded.cells[1]);
        let text = reloaded.render_text();
        assert!(
            text.contains("colluding c=2 f=1") && text.contains("failed"),
            "{text}"
        );

        let missing = load(&spec, &dir.join("nowhere")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
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
        incomparable.spec.axis.max = 128_000;
        let (verdict, _) = diff(&base, &incomparable);
        assert_eq!(verdict, DiffVerdict::Incomparable);
    }
}
