//! The campaign axis table: every sweep axis is declared exactly once.
//!
//! One row of [`AXES`] states everything the engine needs to know about
//! an axis — its spec key, coordinate/artifact key, label key, whether
//! its label segment is always rendered, its group-label format, its
//! legal values, its family and whether it shapes the warm prefix. The
//! spec codec ([`crate::spec`]), coordinate labels and matrix expansion
//! ([`crate::matrix`]), the artifact coordinate codec
//! ([`crate::artifact`]), cross-seed group labels ([`crate::summary`])
//! and the frontier's probe axis ([`crate::frontier`]) are all loops
//! over this table. Adding an axis is one row here plus one arm in
//! [`crate::matrix::materialize`].
//!
//! Row order is part of the byte contract: it is the order of the
//! label segments (and therefore of content hashes), of the spec and
//! artifact JSON keys, and of the expansion odometer.

use crate::json::{Json, Reader};
use crate::spec::{discipline_name, parse_discipline, KernelChoice, SpecError, TOPOLOGY_NAMES};
use clocksync::scenario::ScenarioKind;
use tsn_faults::ByzantineStrategy;
use tsn_hyp::SyncClockDiscipline;
use Kind::{Bool, Name, UInt};

/// One axis value with its field type erased, so table-driven code can
/// move values between spec, grid, coordinate and artifact. Names are
/// interned `&'static str` (the spellings listed in the axis's
/// [`Kind::Name`]), which keeps [`Coord`] `Copy` and decode
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisValue {
    /// A count, duration or magnitude.
    UInt(u64),
    /// An on/off switch.
    Bool(bool),
    /// An interned name.
    Name(&'static str),
}

impl AxisValue {
    pub(crate) fn to_json(self) -> Json {
        match self {
            AxisValue::UInt(v) => Json::UInt(v),
            AxisValue::Bool(v) => Json::Bool(v),
            AxisValue::Name(v) => Json::Str(v.to_string()),
        }
    }
}

/// The coordinate-label rendering (`true`/`false` for switches).
impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisValue::UInt(v) => v.fmt(f),
            AxisValue::Bool(v) => v.fmt(f),
            AxisValue::Name(v) => f.write_str(v),
        }
    }
}

/// The legal values of an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An integer in `min..=max`; the third field is appended to the
    /// out-of-range error (why the range is what it is).
    UInt(u64, u64, &'static str),
    /// `true` / `false`.
    Bool,
    /// One of the listed spellings.
    Name(&'static [&'static str]),
}

/// Axes that switch a subsystem on together: any active member
/// activates the family, with the other members at their defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Byzantine strikes on the highest-index GMs.
    Attack,
    /// Dynamic BMCA grandmaster election.
    Election,
    /// The multi-hop TSN switch fabric.
    Fabric,
}

/// A field type an axis can have in [`Grid`] and [`Coord`].
trait AxisType: Copy {
    fn to_value(self) -> AxisValue;
    /// `None` when the value has the wrong kind or does not fit.
    fn from_value(v: AxisValue) -> Option<Self>;
}

macro_rules! uint_axis_type {
    ($($ty:ty)*) => {$(
        impl AxisType for $ty {
            fn to_value(self) -> AxisValue {
                AxisValue::UInt(self as u64)
            }
            fn from_value(v: AxisValue) -> Option<Self> {
                match v {
                    AxisValue::UInt(v) => <$ty>::try_from(v).ok(),
                    _ => None,
                }
            }
        }
    )*};
}
uint_axis_type!(u64 u32 usize);

impl AxisType for bool {
    fn to_value(self) -> AxisValue {
        AxisValue::Bool(self)
    }
    fn from_value(v: AxisValue) -> Option<Self> {
        match v {
            AxisValue::Bool(v) => Some(v),
            _ => None,
        }
    }
}

impl AxisType for &'static str {
    fn to_value(self) -> AxisValue {
        AxisValue::Name(self)
    }
    fn from_value(v: AxisValue) -> Option<Self> {
        match v {
            AxisValue::Name(v) => Some(v),
            _ => None,
        }
    }
}

impl AxisType for KernelChoice {
    fn to_value(self) -> AxisValue {
        AxisValue::Name(self.name())
    }
    fn from_value(v: AxisValue) -> Option<Self> {
        match v {
            AxisValue::Name(v) => KernelChoice::parse(v),
            _ => None,
        }
    }
}

impl AxisType for SyncClockDiscipline {
    fn to_value(self) -> AxisValue {
        AxisValue::Name(discipline_name(self))
    }
    fn from_value(v: AxisValue) -> Option<Self> {
        match v {
            AxisValue::Name(v) => parse_discipline(v),
            _ => None,
        }
    }
}

/// One row of the axis table.
pub struct AxisDef {
    /// Key of the axis's value list in a spec's `grid` object.
    pub spec_key: &'static str,
    /// Key of the axis's value in an artifact's `coord` object.
    pub coord_key: &'static str,
    /// Key of the axis's segment in [`Coord::label`](crate::matrix).
    pub label_key: &'static str,
    /// Whether the label segment is rendered (as `-`) even when the
    /// axis is inactive. Only the axes that existed when the first
    /// artifacts were recorded are; every later axis renders only when
    /// active, so labels — and the hashes and seeds derived from them —
    /// of campaigns that never touch it are unchanged.
    pub always: bool,
    /// Group-label format, `{}` standing for the value (switches
    /// render as `on`/`off` here).
    pub group: &'static str,
    /// The subsystem family the axis activates, if any.
    pub family: Option<Family>,
    /// Whether the axis alters the world before any intervention can
    /// act, i.e. shapes the warm prefix and the derived seed.
    pub prefix: bool,
    /// Whether a frontier spec may bisect the axis.
    pub bisect: bool,
    /// The legal values.
    pub kind: Kind,
    /// Number of values the grid sweeps on this axis.
    pub grid_len: fn(&Grid) -> usize,
    /// The grid's `i`-th value on this axis.
    pub grid_get: fn(&Grid, usize) -> Option<AxisValue>,
    /// Appends a value to the grid's list (`None`: wrong kind or size).
    pub grid_push: fn(&mut Grid, AxisValue) -> Option<()>,
    /// Copies the grid's `i`-th value (or inactivity) into a coordinate.
    pub fill: fn(&Grid, usize, &mut Coord),
    /// The coordinate's value on this axis, if active.
    pub coord_get: fn(&Coord) -> Option<AxisValue>,
    /// Activates the axis on a coordinate (`None`: wrong kind or size).
    pub coord_set: fn(&mut Coord, AxisValue) -> Option<()>,
}

impl AxisDef {
    /// The table row with the given spec key.
    pub fn by_spec_key(key: &str) -> Option<&'static AxisDef> {
        AXES.iter().find(|a| a.spec_key == key)
    }

    /// Checks a value against the axis's legal range or name list.
    /// This is the single range check of the crate: it runs on every
    /// grid value before anything casts or materializes it.
    pub fn check(&self, v: AxisValue) -> Result<(), SpecError> {
        match (self.kind, v) {
            (UInt(min, max, why), AxisValue::UInt(x)) => {
                if (min..=max).contains(&x) {
                    Ok(())
                } else {
                    Err(SpecError::Invalid(format!(
                        "{} axis value {x} outside the supported {min}..={max}{why}",
                        self.spec_key
                    )))
                }
            }
            (Bool, AxisValue::Bool(_)) => Ok(()),
            (Name(names), AxisValue::Name(s)) if names.contains(&s) => Ok(()),
            (_, v) => Err(SpecError::Value(
                format!("grid.{}[]", self.spec_key),
                v.to_string(),
            )),
        }
    }

    /// Reads one value from spec or artifact JSON, interning names.
    /// `None` when the JSON has the wrong type or an unknown name.
    pub fn value_from_json(&self, x: &Json) -> Option<AxisValue> {
        match self.kind {
            UInt(..) => x.as_u64().map(AxisValue::UInt),
            Bool => x.as_bool().map(AxisValue::Bool),
            Name(names) => intern(names, x.as_str()?),
        }
    }

    /// [`AxisDef::value_from_json`] for the lexer's next value, read as
    /// the axis's kind (the artifact decoder builds no tree).
    pub(crate) fn read_value(&self, r: &mut Reader<'_>) -> Option<AxisValue> {
        match self.kind {
            UInt(..) => r.u64().ok().map(AxisValue::UInt),
            Bool => r.bool().ok().map(AxisValue::Bool),
            Name(names) => intern(names, &r.str().ok()?),
        }
    }

    /// The values the grid sweeps on this axis, in order.
    pub fn grid_values<'a>(&'a self, grid: &'a Grid) -> impl Iterator<Item = AxisValue> + 'a {
        (0..(self.grid_len)(grid)).filter_map(|i| (self.grid_get)(grid, i))
    }

    /// The axis's spec JSON: the grid's value list.
    pub(crate) fn grid_to_json(&self, grid: &Grid) -> Json {
        Json::Array(self.grid_values(grid).map(AxisValue::to_json).collect())
    }

    /// Appends the axis's `/key=value` label segment (`-` for an
    /// inactive always-rendered axis, nothing for an inactive
    /// conditional one).
    pub(crate) fn push_segment(&self, label: &mut String, coord: &Coord) {
        use std::fmt::Write;
        match (self.coord_get)(coord) {
            Some(v) => write!(label, "/{}={v}", self.label_key),
            None if self.always => write!(label, "/{}=-", self.label_key),
            None => Ok(()),
        }
        .expect("writing to a String cannot fail");
    }

    /// The axis's group-label part, if the axis is active.
    pub(crate) fn group_part(&self, coord: &Coord) -> Option<String> {
        let text = match (self.coord_get)(coord)? {
            AxisValue::Bool(on) => if on { "on" } else { "off" }.to_string(),
            v => v.to_string(),
        };
        Some(self.group.replacen("{}", &text, 1))
    }
}

/// The listed spelling equal to `s`, as the interned axis value.
fn intern(names: &'static [&'static str], s: &str) -> Option<AxisValue> {
    names.iter().find(|n| **n == s).map(|n| AxisValue::Name(n))
}

/// Spec key of the adversary-magnitude axis: the one axis
/// [`crate::frontier`] has an analytical containment bound for.
pub const MAGNITUDE_AXIS: &str = "adv_offset_ns";

/// [`clocksync::MIN_SYNC_INTERVAL`] in the sync-interval axis's unit.
const MIN_SYNC_INTERVAL_MS: u64 = clocksync::MIN_SYNC_INTERVAL.as_nanos() as u64 / 1_000_000;
const KERNEL_NAMES: &[&str] = &[KernelChoice::Identical.name(), KernelChoice::Diverse.name()];
const DISCIPLINE_NAMES: &[&str] = &[
    discipline_name(SyncClockDiscipline::FeedForward),
    discipline_name(SyncClockDiscipline::Feedback),
];

macro_rules! axes {
    (@key _, $default:expr) => { $default };
    (@key $key:literal, $default:expr) => { $key };
    (@family _) => { None };
    (@family $family:ident) => { Some(Family::$family) };
    (@flag Always) => { true };
    (@flag IfActive) => { false };
    (@flag Prefix) => { true };
    (@flag Post) => { false };
    (@flag Bisect) => { true };
    (@flag Fixed) => { false };
    (@effective $coord:ident, $ty:ty, _) => {};
    (@effective $coord:ident, $ty:ty, $default:expr) => {
        impl Coord {
            /// The axis's effective value: the coordinate's, or the
            /// table's default while the axis is inactive — what a run
            /// uses when another member of the axis's family switched
            /// the subsystem on.
            pub fn $coord(&self) -> $ty {
                self.$coord.unwrap_or($default)
            }
        }
    };
    ($(
        $(#[$doc:meta])*
        $grid:ident / $coord:ident : $ty:ty, $spec:expr, $ckey:tt, $lkey:tt,
        $segment:ident, $group:literal, $family:tt, $phase:ident, $bisect:ident, $kind:expr,
        $default:tt;
    )*) => {
        /// The parameter grid. Every axis except `seeds` may be empty,
        /// meaning "keep the base/scenario value"; the run matrix is the
        /// cross product of all non-empty axes. The axis fields are
        /// generated from the axis table ([`AXES`]).
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct Grid {
            /// Experiment seeds (the replication axis; must be
            /// non-empty).
            pub seeds: Vec<u64>,
            $($(#[$doc])* pub $grid: Vec<$ty>,)*
        }

        /// One point of the campaign grid: a scenario, a grid seed and,
        /// per axis of the table ([`AXES`]), the value if the axis is
        /// active. With the seed cleared it doubles as the cross-seed
        /// grouping key of [`crate::summary`].
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct Coord {
            /// The scenario.
            pub scenario: ScenarioKind,
            /// The grid seed (replication axis).
            pub seed: u64,
            $($(#[$doc])* pub $coord: Option<$ty>,)*
        }

        impl Coord {
            /// The coordinate with every axis inactive.
            pub fn new(scenario: ScenarioKind, seed: u64) -> Coord {
                Coord { scenario, seed, $($coord: None,)* }
            }
        }

        /// The axis table, in canonical (label, JSON and enumeration)
        /// order.
        pub const AXES: &[AxisDef] = &[$(AxisDef {
            spec_key: $spec,
            coord_key: axes!(@key $ckey, $spec),
            label_key: axes!(@key $lkey, axes!(@key $ckey, $spec)),
            always: axes!(@flag $segment),
            group: $group,
            family: axes!(@family $family),
            prefix: axes!(@flag $phase),
            bisect: axes!(@flag $bisect),
            kind: $kind,
            grid_len: |g| g.$grid.len(),
            grid_get: |g, i| g.$grid.get(i).map(|v| v.to_value()),
            grid_push: |g, v| <$ty as AxisType>::from_value(v).map(|v| g.$grid.push(v)),
            fill: |g, i, c| c.$coord = g.$grid.get(i).copied(),
            coord_get: |c| c.$coord.map(AxisType::to_value),
            coord_set: |c, v| <$ty as AxisType>::from_value(v).map(|v| c.$coord = Some(v)),
        }),*];

        $(axes!(@effective $coord, $ty, $default);)*
    };
}

// Columns: grid field / coord field : type, spec key, coord key (`_`:
// same as spec key), label key (`_`: same as coord key), label segment
// Always | IfActive, group-label format, family (`_`: none), Prefix |
// Post (intervention-only), Bisect | Fixed, legal values, default
// while inactive in an active family (`_`: none; read through the
// `Coord` method of the coord field's name).
axes! {
    /// Domain count M (sets `nodes` and `aggregation.domains`, ABL2).
    domains / domains: usize, "domains", _, _,
    Always, "M={}", _, Prefix, Fixed, UInt(4, 16, " (FTA needs N > 3f)"), _;
    /// Sync interval S in milliseconds (staleness follows as 4·S, ABL3).
    sync_interval_ms / sync_interval_ms: u64, "sync_interval_ms", _, "sync_ms",
    Always, "S={}ms", _, Prefix, Bisect, UInt(MIN_SYNC_INTERVAL_MS, 60_000, " (ms; 2^-7 s is the fastest logSyncInterval the World models)"), _;
    /// Kernel assignment (overrides the scenario's choice).
    kernels / kernel: KernelChoice, "kernels", "kernel", _,
    Always, "kernels={}", _, Post, Fixed, Name(KERNEL_NAMES), _;
    /// Injector rate: random redundant-VM shutdowns per node per hour
    /// (sets `random_per_hour_max`, enabling the injector if needed).
    fault_rate_per_hour / fault_rate_per_hour: u32, "fault_rate_per_hour", _, "rate",
    Always, "rate={}/h", _, Post, Fixed, UInt(0, 3_600, " (one shutdown per node per second)"), _;
    /// `CLOCK_SYNCTIME` discipline.
    disciplines / discipline: SyncClockDiscipline, "disciplines", "discipline", _,
    Always, "{}", _, Prefix, Fixed, Name(DISCIPLINE_NAMES), _;
    /// Adversary strategy preset ([`ByzantineStrategy::NAMES`]
    /// spelling), applied to the compromised GMs from strike time
    /// onward (activates the attack; default `constant`).
    strategies / strategy: &'static str, "strategies", "strategy", _,
    Always, "adv={}", Attack, Post, Fixed, Name(&ByzantineStrategy::NAMES), "constant";
    /// Number of compromised GM domains (`0` is the honest control
    /// cell; `f + 1` and beyond are negative-control cells; activates
    /// the attack; default 1).
    compromised / compromised: usize, "compromised", _, "byz",
    Always, "byz={}", Attack, Post, Fixed, UInt(0, 3, " (the 3 strikeable GM domains)"), 1;
    /// Per-link i.i.d. frame-loss probability, in permille (‰).
    loss_permille / loss_permille: u32, "loss_permille", _, "loss_pm",
    Always, "loss={}pm", _, Post, Bisect, UInt(0, 999, " (permille; a loss of 1.0 would sever every link)"), _;
    /// Partition duration in seconds: node 0 is cut off the switch
    /// mesh 2 s after the warm-up for this long (`0` means no cut).
    partition_s / partition_s: u64, "partition_s", _, _,
    Always, "partition={}s", _, Post, Bisect, UInt(0, 604_800, " (s; one week)"), _;
    /// Dynamic BMCA grandmaster election on/off. Omitted, the election
    /// activates implicitly whenever any other election axis is
    /// active; an explicit `false` keeps the paper's static assignment
    /// and ignores those axes (the honest control).
    election / election: bool, "election", _, _,
    IfActive, "election={}", Election, Prefix, Fixed, Bool, _;
    /// Announce interval of acting masters, in milliseconds (activates
    /// the election; default 250 ms).
    announce_interval_ms / announce_interval_ms: u64, "announce_interval_ms", _, "announce_ms",
    IfActive, "announce={}ms", Election, Prefix, Fixed, UInt(1, 60_000, " (ms; receipt timeouts are a few intervals)"), 250;
    /// Scheduled grandmaster kill: seconds after the warm-up at which
    /// node 0's GM VM is permanently shut down, forcing domain 0 to
    /// re-elect its second-best master (activates the election).
    gm_failure_at_s / gm_failure_at_s: u64, "gm_failure_at_s", _, "gm_kill_s",
    IfActive, "gm-kill={}s", Election, Post, Fixed, UInt(0, 604_800, " (s; one week)"), _;
    /// Number of rogue masters: compromised nodes (highest indices)
    /// that forge a best-possible priority vector on their foreign
    /// target domain (`0` is the honest control; activates the
    /// election).
    rogue_master / rogue_master: usize, "rogue_master", _, "rogue",
    IfActive, "rogue={}", Election, Post, Fixed, UInt(0, 3, " (the 3 capturable foreign domains)"), _;
    /// Fabric depth: hops through the TSN switches between sender and
    /// receiver (activates the fabric; default 1 hop).
    hops / hops: u32, "hops", _, _,
    IfActive, "hops={}", Fabric, Prefix, Fixed, UInt(1, 64, ""), 1;
    /// Best-effort cross-traffic load on each fabric egress port, in
    /// percent of the gate-open window (activates the fabric).
    cross_traffic_pct / cross_traffic_pct: u32, "cross_traffic_pct", _, "xload_pct",
    IfActive, "xload={}%", Fabric, Prefix, Fixed, UInt(0, 95, " (the 95 % gate-load ceiling)"), 0;
    /// Directional link-delay asymmetry per fabric hop, in nanoseconds
    /// (activates the fabric).
    asymmetry_ns / asymmetry_ns: u64, "asymmetry_ns", _, "asym_ns",
    IfActive, "asym={}ns", Fabric, Prefix, Fixed, UInt(0, 1_000_000, " (1 ms per hop is not a plausible link)"), 0;
    /// Transparent-clock mode: `true` accumulates per-hop residence
    /// into the gPTP correction field, `false` leaves the raw
    /// end-to-end queuing error (activates the fabric).
    tc_mode / tc_mode: bool, "tc_mode", _, "tc",
    IfActive, "tc={}", Fabric, Prefix, Fixed, Bool, false;
    /// Fabric topology ([`TOPOLOGY_NAMES`] spelling; activates the
    /// fabric). Omitted, fabric runs use a line of switches.
    topology / topology: &'static str, "topology", _, "topo",
    IfActive, "topo={}", Fabric, Prefix, Fixed, Name(&TOPOLOGY_NAMES), _;
    /// Adversary shift magnitude in nanoseconds: replaces the strategy
    /// preset's dominant waveform parameter via
    /// [`ByzantineStrategy::with_magnitude`] (activates the attack).
    /// This is the continuous axis the `frontier-sweep` builtin bisects.
    adv_offset_ns / adv_offset_ns: u64, MAGNITUDE_AXIS, _, "adv_ns",
    IfActive, "adv_ns={}", Attack, Post, Bisect, UInt(1, 10_000_000, " (a zero magnitude is the honest cell; 10 ms dwarfs every bound)"), _;
    /// Aggregation trim degree `f`: replaces the preset's `f` in the
    /// configured fault-tolerant method (FTA or midpoint). Acts from
    /// t = 0, so it is prefix-relevant.
    fta_f / fta_f: usize, "fta_f", _, _,
    IfActive, "f={}", _, Prefix, Fixed, UInt(1, 5, " (3f + 1 domains of at most 16)"), _;
}
