//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] is a base testbed configuration plus a parameter
//! grid: scenarios × seeds × domains M × sync interval S × kernel
//! assignment × injector rates × clock discipline. The spec is plain
//! data — expanding it into concrete runs is [`crate::matrix`]'s job —
//! and has a canonical JSON form used both for spec files and for
//! content-addressing run artifacts. A spec with a [`Bisect`] block is a
//! frontier: [`crate::frontier`] searches the block's axis at every grid
//! point instead of running the grid.

use crate::axis::{AxisDef, AxisValue, Family, AXES, MAGNITUDE_AXIS};
use crate::json::{Json, JsonError};
use clocksync::scenario::ScenarioKind;
use clocksync::{PartitionWindow, TestbedConfig};
use tsn_hyp::SyncClockDiscipline;
use tsn_time::Nanos;

/// The named base configuration a spec starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`TestbedConfig::paper_default`] (1 h, paper §III-A1).
    Paper,
    /// [`TestbedConfig::quick`] (60 s, for tests and smoke runs).
    Quick,
}

impl Preset {
    /// The stable textual name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::Quick => "quick",
        }
    }

    /// Parses a preset name.
    pub fn parse(name: &str) -> Option<Preset> {
        match name {
            "paper" => Some(Preset::Paper),
            "quick" => Some(Preset::Quick),
            _ => None,
        }
    }
}

/// The base testbed configuration: a preset plus scalar overrides.
///
/// Only knobs that are not grid axes live here; everything else comes
/// from the preset so specs stay small and the canonical form stays
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseSpec {
    /// The preset to start from.
    pub preset: Preset,
    /// Measured-duration override, in seconds.
    pub duration_s: Option<i64>,
    /// Warm-up override, in seconds.
    pub warmup_s: Option<i64>,
}

impl BaseSpec {
    /// A quick base with the given measured duration.
    pub fn quick(duration_s: i64) -> BaseSpec {
        BaseSpec {
            preset: Preset::Quick,
            duration_s: Some(duration_s),
            warmup_s: None,
        }
    }

    /// Materializes the base configuration for one run seed.
    pub fn materialize(&self, seed: u64) -> TestbedConfig {
        let mut cfg = match self.preset {
            Preset::Paper => TestbedConfig::paper_default(seed),
            Preset::Quick => TestbedConfig::quick(seed),
        };
        if let Some(s) = self.duration_s {
            cfg.duration = Nanos::from_secs(s);
        }
        if let Some(s) = self.warmup_s {
            cfg.warmup = Nanos::from_secs(s);
        }
        cfg
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![("preset", Json::Str(self.preset.name().to_string()))];
        if let Some(s) = self.duration_s {
            pairs.push(("duration_s", Json::Int(s)));
        }
        if let Some(s) = self.warmup_s {
            pairs.push(("warmup_s", Json::Int(s)));
        }
        Json::object(pairs)
    }

    fn from_json(v: &Json) -> Result<BaseSpec, SpecError> {
        known_keys(v, "base.", |k| {
            ["preset", "duration_s", "warmup_s"].contains(&k)
        })?;
        let preset = field(v, "base.preset", Json::as_str)?;
        let seconds = |path: &str| {
            let key = path.trim_start_matches("base.");
            let read = |s: &Json| s.as_i64().ok_or_else(|| SpecError::field(path));
            v.get(key).map(read).transpose()
        };
        Ok(BaseSpec {
            preset: Preset::parse(preset).ok_or_else(|| SpecError::value("base.preset", preset))?,
            duration_s: seconds("base.duration_s")?,
            warmup_s: seconds("base.warmup_s")?,
        })
    }
}

/// A kernel-assignment axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Every GM clock-sync VM runs the same (exploitable) kernel.
    Identical,
    /// Diversified kernels; one node stays exploitable.
    Diverse,
}

impl KernelChoice {
    /// The stable textual name.
    pub const fn name(self) -> &'static str {
        match self {
            KernelChoice::Identical => "identical",
            KernelChoice::Diverse => "diverse",
        }
    }

    /// Parses an axis value.
    pub fn parse(name: &str) -> Option<KernelChoice> {
        match name {
            "identical" => Some(KernelChoice::Identical),
            "diverse" => Some(KernelChoice::Diverse),
            _ => None,
        }
    }
}

/// Textual names for [`SyncClockDiscipline`] (the campaign layer owns
/// the naming; core keeps only the enum).
pub const fn discipline_name(d: SyncClockDiscipline) -> &'static str {
    match d {
        SyncClockDiscipline::FeedForward => "feed_forward",
        SyncClockDiscipline::Feedback => "feedback",
    }
}

/// Parses a [`SyncClockDiscipline`] name.
pub fn parse_discipline(name: &str) -> Option<SyncClockDiscipline> {
    match name {
        "feed_forward" => Some(SyncClockDiscipline::FeedForward),
        "feedback" => Some(SyncClockDiscipline::Feedback),
        _ => None,
    }
}

/// The link-fault window a `partition_s` axis value generates: node 0
/// is cut off the switch mesh 2 s after the warm-up for `seconds`.
/// [`crate::matrix::materialize`] installs exactly this window, and
/// [`CampaignSpec::validate`] checks its end against the measured
/// duration — one definition, so the check can never drift from the
/// schedule.
pub fn partition_window(seconds: u64) -> PartitionWindow {
    PartitionWindow {
        node: 0,
        from: Nanos::from_secs(2),
        until: Nanos::from_secs(2 + seconds as i64),
    }
}

/// Fabric topology axis values, in a stable order (the spellings of
/// [`clocksync::fabric::FabricTopology`]'s variants).
pub const TOPOLOGY_NAMES: [&str; 3] = ["line", "ring", "tree"];

/// Parses a topology-axis value into the fabric's enum.
pub fn parse_topology(name: &str) -> Option<clocksync::fabric::FabricTopology> {
    use clocksync::fabric::FabricTopology;
    match name {
        "line" => Some(FabricTopology::Line),
        "ring" => Some(FabricTopology::Ring),
        "tree" => Some(FabricTopology::Tree),
        _ => None,
    }
}

pub use crate::axis::Grid;

impl Grid {
    /// Number of runs this grid expands to (per scenario).
    pub fn runs_per_scenario(&self) -> usize {
        AXES.iter()
            .map(|a| (a.grid_len)(self).max(1))
            .product::<usize>()
            * self.seeds.len()
    }

    fn to_json(&self) -> Json {
        let seeds = Json::Array(self.seeds.iter().map(|&s| Json::UInt(s)).collect());
        let mut pairs = vec![("seeds", seeds)];
        pairs.extend(AXES.iter().map(|a| (a.spec_key, a.grid_to_json(self))));
        Json::object(pairs)
    }

    fn from_json(v: &Json) -> Result<Grid, SpecError> {
        known_keys(v, "grid.", |k| {
            k == "seeds" || AxisDef::by_spec_key(k).is_some()
        })?;
        let mut grid = Grid::default();
        if let Some(seeds) = v.get("seeds") {
            grid.seeds = seeds
                .as_array()
                .ok_or_else(|| SpecError::field("grid.seeds"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| SpecError::field("grid.seeds[]")))
                .collect::<Result<_, _>>()?;
        }
        for a in AXES {
            let Some(values) = v.get(a.spec_key) else {
                continue;
            };
            let list = format!("grid.{}", a.spec_key);
            let item = format!("{list}[]");
            let values = values.as_array().ok_or_else(|| SpecError::field(&list))?;
            for x in values {
                let value = a.value_from_json(x).ok_or_else(|| match x.as_str() {
                    Some(name) => SpecError::value(&item, name),
                    None => SpecError::field(&item),
                })?;
                a.check(value)?;
                (a.grid_push)(&mut grid, value).ok_or_else(|| SpecError::field(&item))?;
            }
        }
        Ok(grid)
    }
}

/// Spec schema version, bumped on incompatible format changes.
pub const SPEC_SCHEMA: u64 = 1;

/// A declarative experiment campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Human-readable campaign name (also the default directory name).
    pub name: String,
    /// The base configuration.
    pub base: BaseSpec,
    /// Scenarios to sweep (at least one).
    pub scenarios: Vec<ScenarioKind>,
    /// The parameter grid.
    pub grid: Grid,
    /// The axis a frontier bisects at every grid point (`None`: a plain
    /// campaign that runs its grid).
    pub bisect: Option<Bisect>,
}

/// The continuous axis a frontier bisects. Every grid point of the spec
/// is a cell; a probe is a cell with this axis set, one run per seed,
/// and a probe counts as broken when *any* seed observes containment
/// broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bisect {
    /// Spec key of a grid axis the axis table marks bisectable
    /// (`adv_offset_ns`, `loss_permille`, `partition_s`,
    /// `sync_interval_ms`). Only `adv_offset_ns` has an analytical bound
    /// in magnitude space; the other axes get an empirical bracket only.
    pub axis: &'static str,
    /// Inclusive lower end of the search interval.
    pub min: u64,
    /// Inclusive upper end of the search interval.
    pub max: u64,
    /// Stop refining once the bracket is at most this wide.
    pub resolution: u64,
    /// Maximum probes per cell.
    pub budget_per_cell: usize,
}

impl Bisect {
    fn to_json(self) -> Json {
        Json::object(vec![
            ("axis", Json::Str(self.axis.to_string())),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("resolution", Json::UInt(self.resolution)),
            ("budget_per_cell", Json::UInt(self.budget_per_cell as u64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Bisect, SpecError> {
        known_keys(v, "bisect.", |k| {
            ["axis", "min", "max", "resolution", "budget_per_cell"].contains(&k)
        })?;
        let axis = field(v, "bisect.axis", Json::as_str)?;
        Ok(Bisect {
            axis: AxisDef::by_spec_key(axis)
                .ok_or_else(|| SpecError::value("bisect.axis", axis))?
                .spec_key,
            min: field(v, "bisect.min", Json::as_u64)?,
            max: field(v, "bisect.max", Json::as_u64)?,
            resolution: field(v, "bisect.resolution", Json::as_u64)?,
            budget_per_cell: field(v, "bisect.budget_per_cell", Json::as_u64)? as usize,
        })
    }
}

/// A spec validation/parse error.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A required field is missing or has the wrong type.
    Field(String),
    /// A field has an unknown value.
    Value(String, String),
    /// The spec is structurally invalid.
    Invalid(String),
}

impl SpecError {
    fn field(name: &str) -> SpecError {
        SpecError::Field(name.to_string())
    }

    fn value(name: &str, got: &str) -> SpecError {
        SpecError::Value(name.to_string(), got.to_string())
    }
}

/// `v`'s member named by the last segment of `path`, read by `read`; a
/// [`SpecError::Field`] naming `path` when it is missing or mistyped.
fn field<'a, T>(
    v: &'a Json,
    path: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, SpecError> {
    let key = path.rsplit('.').next().unwrap_or(path);
    v.get(key)
        .and_then(read)
        .ok_or_else(|| SpecError::field(path))
}

/// Rejects a member of the object `v` that `known` does not accept,
/// naming it by `path` + key: a misspelt or retired key would otherwise
/// be ignored, and the spec would run as if it were absent.
fn known_keys(v: &Json, path: &str, known: impl Fn(&str) -> bool) -> Result<(), SpecError> {
    let Json::Object(pairs) = v else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !known(k)) {
        Some((k, _)) => Err(SpecError::Invalid(format!("{path}{k}: unknown key"))),
        None => Ok(()),
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Field(name) => write!(f, "missing or mistyped field `{name}`"),
            SpecError::Value(name, got) => write!(f, "unknown value {got:?} for `{name}`"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl CampaignSpec {
    /// Total number of runs the spec expands to (for a frontier: its
    /// cells × seeds, the runs of one probe per cell).
    pub fn total_runs(&self) -> usize {
        self.scenarios.len() * self.grid.runs_per_scenario()
    }

    /// Checks structural invariants (non-empty axes, domain counts the
    /// FTA topology supports, positive durations).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SpecError::Invalid(
                "name must be non-empty [A-Za-z0-9_-]".to_string(),
            ));
        }
        if self.scenarios.is_empty() {
            return Err(SpecError::Invalid("no scenarios".to_string()));
        }
        if self.grid.seeds.is_empty() {
            return Err(SpecError::Invalid("grid.seeds is empty".to_string()));
        }
        let scenarios: Vec<&str> = self.scenarios.iter().map(|s| s.name()).collect();
        distinct("scenarios", &scenarios)?;
        distinct("grid.seeds", &self.grid.seeds)?;
        if self.base.duration_s.is_some_and(|d| d <= 0) {
            return Err(SpecError::Invalid("non-positive duration".to_string()));
        }
        if self.base.warmup_s.is_some_and(|w| w < 0) {
            return Err(SpecError::Invalid("negative warmup".to_string()));
        }
        // Per-axis ranges and name lists come from the axis table; the
        // rules below only relate axes to each other and to the base.
        for a in AXES {
            let values: Vec<AxisValue> = a.grid_values(&self.grid).collect();
            values.iter().try_for_each(|&v| a.check(v))?;
            distinct(&format!("grid.{}", a.spec_key), &values)?;
        }
        let attack_swept = AXES
            .iter()
            .any(|a| a.family == Some(Family::Attack) && (a.grid_len)(&self.grid) > 0);
        if self.grid.rogue_master.iter().any(|&n| n > 0) && attack_swept {
            return Err(SpecError::Invalid(
                "rogue_master cannot combine with the strategies/compromised/adv_offset_ns \
                 axes (both materialize strikes on the highest node indices)"
                    .to_string(),
            ));
        }
        let min_domains = self.grid.domains.iter().copied().min().unwrap_or(4);
        for &f in &self.grid.fta_f {
            check_fta_f(f, min_domains)?;
        }
        if let Some(&latest) = self.grid.gm_failure_at_s.iter().max() {
            let Some(duration) = self.base.duration_s else {
                return Err(SpecError::Invalid(
                    "gm_failure_at_s axis requires an explicit base.duration_s \
                     (the kill time is checked against the measured duration)"
                        .to_string(),
                ));
            };
            if i64::try_from(latest).map_or(true, |latest| latest >= duration) {
                return Err(SpecError::Invalid(format!(
                    "gm_failure_at_s axis reaches {latest} s, beyond the {duration} s \
                     measured duration (no time left to observe the re-election)"
                )));
            }
        }
        if let Some(&longest) = self.grid.partition_s.iter().max() {
            // Check against the window the axis actually generates
            // (same schedule `matrix::materialize` installs) — no
            // hardcoded start, no silently assumed duration.
            let Some(duration) = self.base.duration_s else {
                return Err(SpecError::Invalid(
                    "partition_s axis requires an explicit base.duration_s \
                     (the window end is checked against the measured duration)"
                        .to_string(),
                ));
            };
            let window = partition_window(longest);
            let end = window.until.as_nanos() / 1_000_000_000;
            if end >= duration {
                return Err(SpecError::Invalid(format!(
                    "partition_s axis reaches {end} s (window {}..{} ns), beyond the \
                     {duration} s measured duration",
                    window.from.as_nanos(),
                    window.until.as_nanos(),
                )));
            }
        }
        match self.bisect {
            Some(bisect) => self.validate_bisect(bisect),
            None => Ok(()),
        }
    }

    /// A bisect block names a bisectable axis the grid leaves empty and
    /// an interval the bisection can settle, whose ends every cell can
    /// hold: the grid with both ends swept on the axis validates.
    fn validate_bisect(&self, b: Bisect) -> Result<(), SpecError> {
        let axis = AxisDef::by_spec_key(b.axis)
            .filter(|a| a.bisect)
            .ok_or_else(|| SpecError::value("bisect.axis", b.axis))?;
        if b.min >= b.max || b.resolution == 0 || b.budget_per_cell < 2 {
            return Err(SpecError::Invalid(format!(
                "bisect needs min < max, a resolution ≥ 1 and a budget_per_cell ≥ 2 \
                 (both ends are probed), not {b:?}"
            )));
        }
        if (axis.grid_len)(&self.grid) > 0 {
            return Err(SpecError::Invalid(format!(
                "grid.{} is bisected, so it takes no grid values",
                b.axis
            )));
        }
        if b.axis == MAGNITUDE_AXIS && self.grid.strategies.contains(&"trim-edge") {
            return Err(SpecError::Invalid(
                "trim-edge cannot be bisected on adv_offset_ns: a larger trim margin is a \
                 weaker attack, and the bisection assumes breaks are monotone increasing"
                    .to_string(),
            ));
        }
        let mut ends = CampaignSpec {
            bisect: None,
            ..self.clone()
        };
        for end in [b.min, b.max] {
            (axis.grid_push)(&mut ends.grid, AxisValue::UInt(end))
                .ok_or_else(|| SpecError::value(b.axis, &end.to_string()))?;
        }
        ends.validate()
    }

    /// The canonical JSON form (deterministic; also what spec files use).
    /// The `bisect` block is written only when present.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::UInt(SPEC_SCHEMA)),
            ("name", Json::Str(self.name.clone())),
            ("base", self.base.to_json()),
            (
                "scenarios",
                Json::Array(
                    self.scenarios
                        .iter()
                        .map(|s| Json::Str(s.name().to_string()))
                        .collect(),
                ),
            ),
            ("grid", self.grid.to_json()),
        ];
        if let Some(bisect) = self.bisect {
            pairs.push(("bisect", bisect.to_json()));
        }
        Json::object(pairs)
    }

    /// Renders the spec as pretty-enough JSON (one canonical line).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses and validates a spec document; a key nothing reads is an
    /// error.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let v = Json::parse(text)?;
        known_keys(&v, "", |k| {
            ["schema", "name", "base", "scenarios", "grid", "bisect"].contains(&k)
        })?;
        if let Some(schema) = v.get("schema") {
            let schema = schema.as_u64().ok_or_else(|| SpecError::field("schema"))?;
            if schema != SPEC_SCHEMA {
                return Err(SpecError::Invalid(format!(
                    "unsupported schema {schema} (this build reads {SPEC_SCHEMA})"
                )));
            }
        }
        let name = field(&v, "name", Json::as_str)?.to_string();
        let base = BaseSpec::from_json(field(&v, "base", Some)?)?;
        let scenarios = field(&v, "scenarios", Json::as_array)?
            .iter()
            .map(|s| {
                let name = s.as_str().ok_or_else(|| SpecError::field("scenarios[]"))?;
                ScenarioKind::parse(name).ok_or_else(|| SpecError::value("scenarios[]", name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let grid = Grid::from_json(field(&v, "grid", Some)?)?;
        let bisect = v.get("bisect").map(Bisect::from_json).transpose()?;
        let spec = CampaignSpec {
            name,
            base,
            scenarios,
            grid,
            bisect,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Names of the built-in specs (see [`CampaignSpec::builtin`]):
    ///
    /// * `quick-baseline` — 8 seeds × 2 disciplines of the quick
    ///   baseline (16 runs; the acceptance smoke campaign);
    /// * `repro-all` — all five paper scenarios × 3 seeds, 300 s each:
    ///   the paper's strikes land at +1302 s and +1912 s, so the two
    ///   cyber scenarios run the baseline's world (as does
    ///   `fault_injection` while no injected fault lands);
    /// * `abl2-domains` — domains M ∈ {4,5,6,7} × 4 seeds (ABL2);
    /// * `abl3-sync-interval` — S ∈ {62,125,250,500} ms × 4 seeds,
    ///   staleness = 4·S (ABL3);
    /// * `adversary-sweep` — every [`tsn_faults::ByzantineStrategy`]
    ///   preset × compromised ∈ {1, 2} (≤ f and f + 1) × loss ∈
    ///   {0, 20} ‰ × 2 seeds, reporting worst-case observed precision
    ///   per cell (56 runs);
    /// * `election-sweep` — dynamic BMCA election with a scheduled kill
    ///   of node 0's GM at +10 s × rogue masters ∈ {0, 1} × 2 seeds
    ///   (4 runs);
    /// * `fabric-sweep` — the network depth sweep: topology ∈ {line,
    ///   ring, tree} × hops ∈ {1, 3, 6, 16, 64} (64 is the hop budget)
    ///   through the TSN switch fabric × 30 % cross-traffic ×
    ///   transparent clocks {off, on} × 2 seeds (60 runs);
    /// * `frontier-sweep` — a frontier: bisects the magnitude axis over
    ///   1 µs..64 µs to 684 ns (4× tighter than the 48-run grid's 2739 ns
    ///   spacing) in each cell of strategies {colluding, constant} ×
    ///   compromised {2, 1}, 2 seeds.
    pub const BUILTINS: [&'static str; 8] = [
        "quick-baseline",
        "repro-all",
        "abl2-domains",
        "abl3-sync-interval",
        "adversary-sweep",
        "election-sweep",
        "fabric-sweep",
        "frontier-sweep",
    ];

    /// A built-in spec by name: its committed file `specs/<name>.json`
    /// (`-` written `_`), compiled in and parsed. `None` for an unknown
    /// name; every committed file parses and is canonical
    /// (`tests/axis_table.rs`).
    pub fn builtin(name: &str) -> Option<CampaignSpec> {
        let text = match name {
            "quick-baseline" => include_str!("../../../specs/quick_baseline.json"),
            "repro-all" => include_str!("../../../specs/repro_all.json"),
            "abl2-domains" => include_str!("../../../specs/abl2_domains.json"),
            "abl3-sync-interval" => include_str!("../../../specs/abl3_sync_interval.json"),
            "adversary-sweep" => include_str!("../../../specs/adversary_sweep.json"),
            "election-sweep" => include_str!("../../../specs/election_sweep.json"),
            "fabric-sweep" => include_str!("../../../specs/fabric_sweep.json"),
            "frontier-sweep" => include_str!("../../../specs/frontier_sweep.json"),
            _ => return None,
        };
        CampaignSpec::parse(text).ok()
    }
}

/// Rejects a list that holds a value twice: both copies would expand to
/// runs with one content hash, which two workers race to write.
fn distinct<T: PartialEq + std::fmt::Display>(list: &str, values: &[T]) -> Result<(), SpecError> {
    match (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
        Some(i) => Err(SpecError::Invalid(format!(
            "{list} repeats the value {}",
            values[i]
        ))),
        None => Ok(()),
    }
}

/// Π = u(N, f)(E + Γ) needs N > 3f (Kopetz–Ochsenreiter): the one
/// precondition an `fta_f` axis value puts on the domain count, checked
/// before any run starts (`TestbedConfig::validate` asserts it too).
pub(crate) fn check_fta_f(f: usize, domains: usize) -> Result<(), SpecError> {
    if domains > 3 * f {
        return Ok(());
    }
    Err(SpecError::Invalid(format!(
        "fta_f axis value {f} needs N > 3f, at least {} domains, not {domains}",
        3 * f + 1
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_roundtrip_through_json() {
        for name in CampaignSpec::BUILTINS {
            let spec = CampaignSpec::builtin(name).unwrap();
            spec.validate().unwrap();
            let text = spec.render();
            let back = CampaignSpec::parse(&text).unwrap();
            assert_eq!(back, spec, "{name} did not roundtrip");
        }
        assert!(CampaignSpec::builtin("nope").is_none());
    }

    #[test]
    fn quick_baseline_has_sixteen_runs() {
        let spec = CampaignSpec::builtin("quick-baseline").unwrap();
        assert_eq!(spec.total_runs(), 16);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(CampaignSpec::parse("{}").is_err());
        // Empty seeds.
        let bad = r#"{"name":"x","base":{"preset":"quick"},"scenarios":["baseline"],"grid":{"seeds":[]}}"#;
        assert!(matches!(
            CampaignSpec::parse(bad),
            Err(SpecError::Invalid(_))
        ));
        // Unknown scenario.
        let bad =
            r#"{"name":"x","base":{"preset":"quick"},"scenarios":["warp"],"grid":{"seeds":[1]}}"#;
        assert!(matches!(
            CampaignSpec::parse(bad),
            Err(SpecError::Value(..))
        ));
        // Unsupported domain count (FTA needs N > 3f).
        let bad = r#"{"name":"x","base":{"preset":"quick"},"scenarios":["baseline"],"grid":{"seeds":[1],"domains":[3]}}"#;
        assert!(matches!(
            CampaignSpec::parse(bad),
            Err(SpecError::Invalid(_))
        ));
        // A repeated value in any list: its runs would share one
        // content hash (and one artifact file two workers race on).
        for (grid, list) in [
            (
                r#""scenarios":["baseline"],"grid":{"seeds":[1,2,1]}"#,
                "grid.seeds",
            ),
            (
                r#""scenarios":["baseline","baseline"],"grid":{"seeds":[1]}"#,
                "scenarios",
            ),
            (
                r#""scenarios":["baseline"],"grid":{"seeds":[1],"compromised":[2,2]}"#,
                "grid.compromised",
            ),
        ] {
            let bad = format!(r#"{{"name":"x","base":{{"preset":"quick"}},{grid}}}"#);
            assert!(
                matches!(CampaignSpec::parse(&bad), Err(SpecError::Invalid(ref m)) if m.contains(list)),
                "{bad}"
            );
        }
    }

    /// Π = u(N, f)(E + Γ) needs N > 3f: five domains cannot carry f = 2
    /// (2f + 1 = 5 is the quorum, not the bound's precondition), seven
    /// can.
    #[test]
    fn fta_f_needs_more_than_three_f_domains() {
        let spec = |domains: usize| {
            format!(
                r#"{{"name":"x","base":{{"preset":"quick"}},"scenarios":["baseline"],"grid":{{"seeds":[1],"domains":[{domains}],"fta_f":[2]}}}}"#
            )
        };
        let err = CampaignSpec::parse(&spec(5)).expect_err("N = 5 is not > 3f = 6");
        assert!(
            matches!(err, SpecError::Invalid(ref m) if m.contains("N > 3f")),
            "{err}"
        );
        CampaignSpec::parse(&spec(7)).expect("N = 7 > 3f = 6");
    }

    /// Regression: the partition check used to hardcode `2 + max` and
    /// silently assume 60 s when `duration_s` was omitted, so a spec
    /// could pass validation yet schedule a window past its real
    /// (preset) duration. The end now derives from [`partition_window`]
    /// and a partition axis without an explicit duration is an error.
    #[test]
    fn partition_axis_requires_explicit_duration() {
        // Missing duration_s with a partition axis: error, not a silent
        // 60 s assumption.
        let bad = r#"{"name":"x","base":{"preset":"quick"},"scenarios":["baseline"],"grid":{"seeds":[1],"partition_s":[5]}}"#;
        let err = CampaignSpec::parse(bad).expect_err("missing duration_s must be rejected");
        assert!(matches!(err, SpecError::Invalid(ref m) if m.contains("duration_s")));
        // Window end derived from the generated schedule: 2 + 9 = 11 s
        // ≥ 10 s duration.
        let bad = r#"{"name":"x","base":{"preset":"quick","duration_s":10},"scenarios":["baseline"],"grid":{"seeds":[1],"partition_s":[9]}}"#;
        assert!(matches!(
            CampaignSpec::parse(bad),
            Err(SpecError::Invalid(_))
        ));
        // Same axis with room to spare is fine.
        let ok = r#"{"name":"x","base":{"preset":"quick","duration_s":20},"scenarios":["baseline"],"grid":{"seeds":[1],"partition_s":[9]}}"#;
        CampaignSpec::parse(ok).expect("window inside the measured duration");
    }

    #[test]
    fn partition_window_matches_materialized_schedule() {
        let w = partition_window(5);
        assert_eq!(w.node, 0);
        assert_eq!(w.from, Nanos::from_secs(2));
        assert_eq!(w.until, Nanos::from_secs(7));
    }

    #[test]
    fn omitted_axes_default_to_empty() {
        let text = r#"{"name":"tiny","base":{"preset":"quick","duration_s":10},"scenarios":["baseline"],"grid":{"seeds":[1,2]}}"#;
        let spec = CampaignSpec::parse(text).unwrap();
        assert_eq!(spec.total_runs(), 2);
        assert!(spec.grid.domains.is_empty());
    }

    #[test]
    fn base_materializes_overrides() {
        let base = BaseSpec {
            preset: Preset::Quick,
            duration_s: Some(10),
            warmup_s: Some(5),
        };
        let cfg = base.materialize(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.duration, Nanos::from_secs(10));
        assert_eq!(cfg.warmup, Nanos::from_secs(5));
    }
}
