//! Run artifacts: the per-run JSONL record and its (de)serialization.
//!
//! Every run writes one self-describing record to
//! `runs/run-<hash>.jsonl` under the campaign directory. The record
//! deliberately contains **no wall-clock data** — it is a pure function
//! of the run plan and the simulation result, so re-running the same
//! spec with any thread count reproduces the file byte for byte (which
//! the determinism test asserts, and which makes artifacts diffable
//! across machines).

use crate::axis::{AxisValue, AXES};
use crate::json::{write_escaped, write_float, ObjectWriter, Reader};
use crate::matrix::{Coord, RunPlan};
use clocksync::scenario::ScenarioKind;
use clocksync::{RunCounters, RunResult};
use std::fmt::{self, Write as _};
use std::sync::OnceLock;
use tsn_metrics::ExperimentEvent;
use tsn_time::SyncState;

/// Artifact schema version, bumped on incompatible format changes.
///
/// 2: run seeds are derived from the prefix-relevant coordinates only
/// (see [`Coord::derived_seed`]), so records produced under schema 1
/// carry different seeds and must not be resumed.
///
/// 3: coordinates gained the adversary axes (strategy, compromised,
/// loss, partition), counters gained the degradation/diagnostic fields
/// (`sync_transitions`, `holdover_ns`, `freerun_ns`,
/// `uncovered_failures`), and records carry the run's sync-state
/// transition sequence.
///
/// 4: coordinates gained the election axes (election,
/// announce_interval_ms, gm_failure_at_s, rogue_master) and counters
/// gained the election/diagnostic fields (`unhandled_frames`,
/// `announce_tx`, `elected_gm_changes`, `reconvergence_ns`).
///
/// 5: coordinates gained the fabric axes (hops, cross_traffic_pct,
/// asymmetry_ns, tc_mode) and counters gained the fabric fields
/// (`fabric_frames_forwarded`, `fabric_frames_dropped`,
/// `max_residence_ns`, `path_asymmetry_ns`).
///
/// 6: coordinates gained the fabric topology axis (`topology`) and the
/// frontier axes (`adv_offset_ns`, `fta_f`).
///
/// 7: coordinates gained two switch-population axes.
///
/// 8: coordinates lost those two axes again; a hop count on the fabric
/// axes says what they did.
pub const ARTIFACT_SCHEMA: u64 = 8;

/// One sync-state transition of one aggregator, as recorded in the run's
/// event log (times are absolute simulation nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Simulation time of the transition.
    pub at_ns: u64,
    /// Node index.
    pub node: usize,
    /// Clock-sync VM slot (0 = GM VM, 1 = redundant VM).
    pub slot: usize,
    /// State left.
    pub from: SyncState,
    /// State entered.
    pub to: SyncState,
}

impl TransitionRecord {
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut object = ObjectWriter::open(out)?;
        self.at_ns.write(object.key("at_ns")?)?;
        (self.node as u64).write(object.key("node")?)?;
        (self.slot as u64).write(object.key("slot")?)?;
        write_escaped(self.from.name(), object.key("from")?)?;
        write_escaped(self.to.name(), object.key("to")?)?;
        object.close()
    }
}

/// A scalar field type of a record table: how it is written to and read
/// from artifact JSON.
trait Scalar: Copy {
    fn write<W: fmt::Write>(self, out: &mut W) -> fmt::Result;
    /// `None` unless the reader's next value is a number this type
    /// holds losslessly.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

impl Scalar for u64 {
    fn write<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        write!(out, "{self}")
    }
    fn read(r: &mut Reader<'_>) -> Option<u64> {
        r.u64().ok()
    }
}

impl Scalar for i64 {
    fn write<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        write!(out, "{self}")
    }
    fn read(r: &mut Reader<'_>) -> Option<i64> {
        r.i64().ok()
    }
}

impl Scalar for f64 {
    fn write<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        write_float(self, out)
    }
    fn read(r: &mut Reader<'_>) -> Option<f64> {
        r.f64().ok()
    }
}

/// A flat record of scalar fields, declared once: the table emits the
/// struct, its key list, its writer and its decoder. Row order is the
/// artifact's key order.
macro_rules! record_fields {
    ($(#[$meta:meta])* $record:ident { $( $(#[$doc:meta])* $name:ident: $ty:ty, )* }) => {
        $(#[$meta])*
        pub struct $record {
            $( $(#[$doc])* pub $name: $ty, )*
        }

        impl $record {
            const KEYS: &'static [&'static str] = &[$(stringify!($name)),*];

            fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
                let mut object = ObjectWriter::open(out)?;
                $( self.$name.write(object.key(stringify!($name))?)?; )*
                object.close()
            }

            /// Reads the record from the members of an object the
            /// reader has just opened.
            fn from_members(r: &mut Reader<'_>) -> Option<$record> {
                let mut out = $record::default();
                let fields: &mut [&mut dyn FnMut(&mut Reader<'_>) -> Option<()>] =
                    &mut [$( &mut |r| {
                        out.$name = Scalar::read(r)?;
                        Some(())
                    } ),*];
                read_members(r, Self::KEYS, |i, r| fields[i](r))?;
                Some(out)
            }
        }
    };
}

record_fields! {
    /// Per-run precision statistics (all times in nanoseconds).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    PrecisionRecord {
        /// Number of probe samples.
        count: u64,
        /// Mean measured precision Π*_s.
        mean_ns: f64,
        /// Standard deviation of Π*_s.
        std_ns: f64,
        /// Minimum sample.
        min_ns: i64,
        /// Maximum sample.
        max_ns: i64,
        /// Median sample.
        p50_ns: i64,
        /// 90th percentile.
        p90_ns: i64,
        /// 95th percentile.
        p95_ns: i64,
        /// 99th percentile.
        p99_ns: i64,
    }
}

record_fields! {
    /// Derived bounds (all times in nanoseconds).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    BoundsRecord {
        /// Minimum path delay `d_min`.
        d_min_ns: i64,
        /// Maximum path delay `d_max`.
        d_max_ns: i64,
        /// Reading error `E`.
        reading_error_ns: i64,
        /// Drift offset `Γ`.
        drift_offset_ns: i64,
        /// Precision bound `Π`.
        pi_ns: i64,
        /// Measurement error `γ`.
        gamma_ns: i64,
        /// `Π + γ`, the bound the measured series is checked against.
        pi_plus_gamma_ns: i64,
    }
}

/// One run's complete artifact record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Campaign name the run belongs to.
    pub campaign: String,
    /// Content hash (matches the artifact filename).
    pub hash: String,
    /// The grid coordinate.
    pub coord: Coord,
    /// The derived per-run seed.
    pub seed: u64,
    /// Simulation counters.
    pub counters: RunCounters,
    /// Derived bounds.
    pub bounds: BoundsRecord,
    /// Precision statistics (`None` when no probe completed).
    pub precision: Option<PrecisionRecord>,
    /// Fraction of samples within `Π + γ`.
    pub fraction_within_bound: f64,
    /// The run's degradation-state transitions, in event-log order.
    pub transitions: Vec<TransitionRecord>,
}

impl RunRecord {
    /// Builds the record for a finished run.
    pub fn new(campaign: &str, plan: &RunPlan, result: &RunResult) -> RunRecord {
        let b = &result.bounds;
        let precision = result.series.stats().map(|s| PrecisionRecord {
            count: s.count as u64,
            mean_ns: s.mean,
            std_ns: s.std,
            min_ns: s.min.as_nanos(),
            max_ns: s.max.as_nanos(),
            p50_ns: quantile_ns(result, 0.50),
            p90_ns: quantile_ns(result, 0.90),
            p95_ns: quantile_ns(result, 0.95),
            p99_ns: quantile_ns(result, 0.99),
        });
        RunRecord {
            campaign: campaign.to_string(),
            hash: plan.hash.clone(),
            coord: plan.coord,
            seed: plan.seed,
            counters: result.counters.clone(),
            bounds: BoundsRecord {
                d_min_ns: b.d_min.as_nanos(),
                d_max_ns: b.d_max.as_nanos(),
                reading_error_ns: b.reading_error.as_nanos(),
                drift_offset_ns: b.drift_offset.as_nanos(),
                pi_ns: b.pi.as_nanos(),
                gamma_ns: b.gamma.as_nanos(),
                pi_plus_gamma_ns: b.pi_plus_gamma().as_nanos(),
            },
            precision,
            fraction_within_bound: result.series.fraction_within(b.pi_plus_gamma()),
            transitions: result
                .events
                .entries()
                .iter()
                .filter_map(|(t, e)| match e {
                    ExperimentEvent::SyncStateChange {
                        node,
                        slot,
                        from,
                        to,
                    } => Some(TransitionRecord {
                        at_ns: t.as_nanos(),
                        node: *node,
                        slot: *slot,
                        from: *from,
                        to: *to,
                    }),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Encodes the record as one JSONL line (with trailing newline).
    pub fn encode(&self) -> String {
        // A dry run sizes the line, so the `String` is allocated once.
        let mut size = ByteCount(1);
        self.write_to(&mut size).expect("counting cannot fail");
        let mut line = String::with_capacity(size.0);
        self.write_to(&mut line)
            .expect("writing to a String cannot fail");
        line.push('\n');
        line
    }

    /// Streams the JSONL line (with trailing newline) into `out`,
    /// byte-identical to [`RunRecord::encode`]. The runner writes
    /// artifacts through this via a bounded `BufWriter`.
    pub fn encode_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let mut sink = IoSink { out, error: None };
        self.write_to(&mut sink)
            .and_then(|()| sink.write_char('\n'))
            .map_err(|fmt::Error| {
                sink.error
                    .unwrap_or_else(|| std::io::Error::other("formatter error"))
            })
    }

    /// The one writer of the line: every member goes straight into the
    /// sink, in the order [`RunRecord::decode`] tries first, from where
    /// the fields are declared — the axis table, `RunCounters::fields`
    /// and the `record_fields!` tables.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut record = ObjectWriter::open(out)?;
        ARTIFACT_SCHEMA.write(record.key("schema")?)?;
        write_escaped(&self.campaign, record.key("campaign")?)?;
        write_escaped(&self.hash, record.key("hash")?)?;
        write_coord(&self.coord, record.key("coord")?)?;
        self.seed.write(record.key("run_seed")?)?;
        let mut counters = ObjectWriter::open(record.key("counters")?)?;
        for (name, value) in self.counters.fields() {
            value.write(counters.key(name)?)?;
        }
        counters.close()?;
        self.bounds.write_to(record.key("bounds")?)?;
        match &self.precision {
            Some(p) => p.write_to(record.key("precision")?)?,
            None => record.key("precision")?.write_str("null")?,
        }
        self.fraction_within_bound
            .write(record.key("fraction_within_bound")?)?;
        let out = record.key("transitions")?;
        out.write_char('[')?;
        for (i, t) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            t.write_to(out)?;
        }
        out.write_char(']')?;
        record.close()
    }

    /// Decodes a record from its JSONL line. Returns `None` on any
    /// schema mismatch or malformed field (the caller treats the run as
    /// not-yet-completed and re-executes it).
    ///
    /// The line is read straight off the lexer ([`Reader`]), no tree in
    /// between; the only allocations are `campaign`, `hash` and the
    /// `transitions` vector. Accepted is any line that is one valid
    /// JSON object holding every key of the schema with a value of the
    /// right kind: keys may come in any order, unknown keys are skipped
    /// (their values still have to be valid JSON), and the first of a
    /// duplicated key counts.
    pub fn decode(line: &str) -> Option<RunRecord> {
        const KEYS: &[&str] = &[
            "schema",
            "campaign",
            "hash",
            "coord",
            "run_seed",
            "counters",
            "bounds",
            "precision",
            "fraction_within_bound",
            "transitions",
        ];
        let mut record = RunRecord {
            campaign: String::new(),
            hash: String::new(),
            coord: Coord::new(ScenarioKind::Baseline, 0),
            seed: 0,
            counters: RunCounters::default(),
            bounds: BoundsRecord::default(),
            precision: None,
            fraction_within_bound: 0.0,
            transitions: Vec::new(),
        };
        let mut r = Reader::new(line.trim_end());
        read_object(&mut r, KEYS, |i, r| {
            match KEYS[i] {
                "schema" => (u64::read(r)? == ARTIFACT_SCHEMA).then_some(())?,
                "campaign" => record.campaign = r.str().ok()?.into_owned(),
                "hash" => record.hash = r.str().ok()?.into_owned(),
                "coord" => record.coord = read_coord(r)?,
                "run_seed" => record.seed = u64::read(r)?,
                "counters" => record.counters = read_counters(r)?,
                "bounds" => {
                    r.begin_object().ok()?;
                    record.bounds = BoundsRecord::from_members(r)?;
                }
                "precision" => {
                    record.precision = if r.null().ok()? {
                        None
                    } else {
                        r.begin_object().ok()?;
                        Some(PrecisionRecord::from_members(r)?)
                    }
                }
                "fraction_within_bound" => record.fraction_within_bound = f64::read(r)?,
                _ => {
                    r.begin_array().ok()?;
                    while r.next_element().ok()? {
                        record.transitions.push(read_transition(r)?);
                    }
                }
            }
            Some(())
        })?;
        r.end().ok()?;
        Some(record)
    }

    /// Per-run scalar used for cross-seed aggregation of a precision
    /// field; `None` when the run recorded no samples.
    pub fn precision_scalar(&self, pick: impl Fn(&PrecisionRecord) -> f64) -> Option<f64> {
        self.precision.as_ref().map(pick)
    }

    /// The run's bound-violation rate (fraction of samples *outside*
    /// `Π + γ`).
    pub fn violation_rate(&self) -> f64 {
        1.0 - self.fraction_within_bound
    }
}

fn quantile_ns(result: &RunResult, q: f64) -> i64 {
    result.series.quantile(q).map(|n| n.as_nanos()).unwrap_or(0)
}

/// Adapts an [`std::io::Write`] sink to the writer's [`fmt::Write`],
/// keeping the I/O error the formatter interface cannot carry.
struct IoSink<'a, W> {
    out: &'a mut W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> fmt::Write for IoSink<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// A sink that only counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// The `coord` object: scenario and seed, then one key per axis of the
/// table holding the axis's value, or `null` while it is inactive.
fn write_coord<W: fmt::Write>(coord: &Coord, out: &mut W) -> fmt::Result {
    let mut object = ObjectWriter::open(out)?;
    write_escaped(coord.scenario.name(), object.key("scenario")?)?;
    coord.seed.write(object.key("seed")?)?;
    for axis in AXES {
        let out = object.key(axis.coord_key)?;
        match (axis.coord_get)(coord) {
            None => out.write_str("null")?,
            Some(AxisValue::UInt(v)) => v.write(out)?,
            Some(AxisValue::Bool(b)) => out.write_str(if b { "true" } else { "false" })?,
            Some(AxisValue::Name(name)) => write_escaped(name, out)?,
        }
    }
    object.close()
}

/// Reads the members of an object the reader has just opened:
/// `field(i, r)` reads the value of the first member named `keys[i]`;
/// members with another name, and later duplicates, are skipped
/// (validated, not interpreted). `None` unless every key was found.
/// The key the writer puts next is tried first, in the writer's exact
/// spelling, so a canonical line costs one slice comparison per key;
/// any other spelling takes the general path through
/// [`Reader::next_key`].
fn read_members<'a>(
    r: &mut Reader<'a>,
    keys: &[&str],
    mut field: impl FnMut(usize, &mut Reader<'a>) -> Option<()>,
) -> Option<()> {
    assert!(keys.len() <= 64, "one bit per key");
    let mut seen = 0u64;
    let mut next = 0;
    loop {
        let i = if keys.get(next).is_some_and(|k| r.canonical_key(k)) {
            Some(next)
        } else {
            let Some(key) = r.next_key().ok()? else {
                break;
            };
            keys.iter().position(|k| *k == key)
        };
        match i {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                next = i + 1;
                field(i, r)?;
            }
            _ => r.skip_value().ok()?,
        }
    }
    (seen.count_ones() as usize == keys.len()).then_some(())
}

/// [`read_members`] of the reader's next value, which must be an
/// object.
fn read_object<'a>(
    r: &mut Reader<'a>,
    keys: &[&str],
    field: impl FnMut(usize, &mut Reader<'a>) -> Option<()>,
) -> Option<()> {
    r.begin_object().ok()?;
    read_members(r, keys, field)
}

/// The `coord` object: scenario and seed, then one key per axis of the
/// table holding `null` (inactive) or a value of the axis's kind.
fn read_coord(r: &mut Reader<'_>) -> Option<Coord> {
    const KEYS: [&str; AXES.len() + 2] = {
        let mut keys = ["scenario"; AXES.len() + 2];
        keys[1] = "seed";
        let mut i = 0;
        while i < AXES.len() {
            keys[i + 2] = AXES[i].coord_key;
            i += 1;
        }
        keys
    };
    let mut coord = Coord::new(ScenarioKind::Baseline, 0);
    read_object(r, &KEYS, |i, r| {
        match i {
            0 => coord.scenario = ScenarioKind::parse(&r.str().ok()?)?,
            1 => coord.seed = u64::read(r)?,
            _ => {
                let axis = &AXES[i - 2];
                if !r.null().ok()? {
                    (axis.coord_set)(&mut coord, axis.read_value(r)?)?;
                }
            }
        }
        Some(())
    })?;
    Some(coord)
}

fn read_counters(r: &mut Reader<'_>) -> Option<RunCounters> {
    static KEYS: OnceLock<Vec<&'static str>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| RunCounters::default().fields().map(|(k, _)| k).collect());
    let mut values = [0u64; 64];
    read_object(r, keys, |i, r| {
        values[i] = u64::read(r)?;
        Some(())
    })?;
    let mut counters = RunCounters::default();
    for ((_, slot), value) in counters.fields_mut().zip(values) {
        *slot = value;
    }
    Some(counters)
}

fn read_transition(r: &mut Reader<'_>) -> Option<TransitionRecord> {
    const KEYS: &[&str] = &["at_ns", "node", "slot", "from", "to"];
    let mut t = TransitionRecord {
        at_ns: 0,
        node: 0,
        slot: 0,
        from: SyncState::Synchronized,
        to: SyncState::Synchronized,
    };
    read_object(r, KEYS, |i, r| {
        match KEYS[i] {
            "at_ns" => t.at_ns = u64::read(r)?,
            "node" => t.node = u64::read(r)? as usize,
            "slot" => t.slot = u64::read(r)? as usize,
            "from" => t.from = SyncState::parse(&r.str().ok()?)?,
            _ => t.to = SyncState::parse(&r.str().ok()?)?,
        }
        Some(())
    })?;
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::KernelChoice;
    use tsn_hyp::SyncClockDiscipline;

    fn record() -> RunRecord {
        RunRecord {
            campaign: "t".to_string(),
            hash: "00ff".to_string(),
            coord: Coord {
                domains: Some(5),
                kernel: Some(KernelChoice::Diverse),
                discipline: Some(SyncClockDiscipline::FeedForward),
                strategy: Some("trim-edge"),
                compromised: Some(2),
                loss_permille: Some(20),
                election: Some(true),
                announce_interval_ms: Some(250),
                rogue_master: Some(1),
                hops: Some(3),
                cross_traffic_pct: Some(30),
                tc_mode: Some(true),
                topology: Some("ring"),
                adv_offset_ns: Some(20_000),
                fta_f: Some(2),
                ..Coord::new(ScenarioKind::Baseline, 42)
            },
            seed: u64::MAX - 3,
            counters: RunCounters::default(),
            bounds: BoundsRecord {
                d_min_ns: 2_500,
                d_max_ns: 7_600,
                reading_error_ns: 5_100,
                drift_offset_ns: 1_250,
                pi_ns: 12_700,
                gamma_ns: 1_200,
                pi_plus_gamma_ns: 13_900,
            },
            precision: Some(PrecisionRecord {
                count: 60,
                mean_ns: 3_120.5,
                std_ns: 800.25,
                min_ns: 900,
                max_ns: 9_800,
                p50_ns: 3_000,
                p90_ns: 4_500,
                p95_ns: 5_200,
                p99_ns: 8_100,
            }),
            fraction_within_bound: 0.9833,
            transitions: vec![
                TransitionRecord {
                    at_ns: 7_000_000_000,
                    node: 0,
                    slot: 1,
                    from: SyncState::Synchronized,
                    to: SyncState::Holdover,
                },
                TransitionRecord {
                    at_ns: 9_500_000_000,
                    node: 0,
                    slot: 1,
                    from: SyncState::Holdover,
                    to: SyncState::Freerun,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = record();
        let line = r.encode();
        assert!(line.ends_with('\n'));
        assert!(!line.trim_end().contains('\n'), "one JSONL line");
        let back = RunRecord::decode(&line).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(record().encode(), record().encode());
    }

    #[test]
    fn decode_rejects_other_schemas_and_garbage() {
        for other in ["\"schema\":7", "\"schema\":9"] {
            let line = record().encode().replace("\"schema\":8", other);
            assert!(line.contains(other));
            assert!(RunRecord::decode(&line).is_none());
        }
        assert!(RunRecord::decode("not json").is_none());
        assert!(RunRecord::decode("{}").is_none());
    }

    #[test]
    fn encode_to_matches_encode() {
        let r = record();
        let mut buf = Vec::new();
        r.encode_to(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), r.encode());
    }

    #[test]
    fn null_precision_roundtrips() {
        let mut r = record();
        r.precision = None;
        let back = RunRecord::decode(&r.encode()).unwrap();
        assert_eq!(back.precision, None);
    }
}
