//! Run artifacts: the per-run JSONL record and its (de)serialization.
//!
//! Every run writes one self-describing record to
//! `runs/run-<hash>.jsonl` under the campaign directory. The record
//! deliberately contains **no wall-clock data** — it is a pure function
//! of the run plan and the simulation result, so re-running the same
//! spec with any thread count reproduces the file byte for byte (which
//! the determinism test asserts, and which makes artifacts diffable
//! across machines).

use crate::axis::AXES;
use crate::json::Json;
use crate::matrix::{Coord, RunPlan};
use clocksync::scenario::ScenarioKind;
use clocksync::{RunCounters, RunResult};
use tsn_metrics::{ExperimentEvent, SampleSummary};
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
/// 7: coordinates gained the fleet axes (`fleet_nodes`,
/// `fleet_topology`).
pub const ARTIFACT_SCHEMA: u64 = 7;

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

/// Per-run precision statistics (all times in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecord {
    /// Number of probe samples.
    pub count: u64,
    /// Mean measured precision Π*_s.
    pub mean_ns: f64,
    /// Standard deviation of Π*_s.
    pub std_ns: f64,
    /// Minimum sample.
    pub min_ns: i64,
    /// Maximum sample.
    pub max_ns: i64,
    /// Median sample.
    pub p50_ns: i64,
    /// 90th percentile.
    pub p90_ns: i64,
    /// 95th percentile.
    pub p95_ns: i64,
    /// 99th percentile.
    pub p99_ns: i64,
}

/// Derived bounds (all times in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundsRecord {
    /// Minimum path delay `d_min`.
    pub d_min_ns: i64,
    /// Maximum path delay `d_max`.
    pub d_max_ns: i64,
    /// Reading error `E`.
    pub reading_error_ns: i64,
    /// Drift offset `Γ`.
    pub drift_offset_ns: i64,
    /// Precision bound `Π`.
    pub pi_ns: i64,
    /// Measurement error `γ`.
    pub gamma_ns: i64,
    /// `Π + γ`, the bound the measured series is checked against.
    pub pi_plus_gamma_ns: i64,
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
        let mut line = self.to_json().render();
        line.push('\n');
        line
    }

    /// Streams the JSONL line (with trailing newline) into `out`,
    /// byte-identical to [`RunRecord::encode`]. The runner writes
    /// artifacts through this via a bounded `BufWriter`.
    pub fn encode_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        self.to_json().render_to(out)?;
        out.write_all(b"\n")
    }

    /// The record as a JSON document (the single source of truth for
    /// both encoders).
    fn to_json(&self) -> Json {
        // Scenario and seed, then one key per axis of the table: the
        // value, or `null` when the axis is inactive.
        let mut coord = vec![
            (
                "scenario",
                Json::Str(self.coord.scenario.name().to_string()),
            ),
            ("seed", Json::UInt(self.coord.seed)),
        ];
        coord.extend(
            AXES.iter()
                .map(|a| (a.coord_key, a.coord_to_json(&self.coord))),
        );
        let coord = Json::object(coord);
        let counters = Json::object(
            self.counters
                .fields()
                .map(|(name, value)| (name, Json::UInt(value)))
                .collect(),
        );
        let b = &self.bounds;
        let bounds = Json::object(vec![
            ("d_min_ns", Json::Int(b.d_min_ns)),
            ("d_max_ns", Json::Int(b.d_max_ns)),
            ("reading_error_ns", Json::Int(b.reading_error_ns)),
            ("drift_offset_ns", Json::Int(b.drift_offset_ns)),
            ("pi_ns", Json::Int(b.pi_ns)),
            ("gamma_ns", Json::Int(b.gamma_ns)),
            ("pi_plus_gamma_ns", Json::Int(b.pi_plus_gamma_ns)),
        ]);
        let precision = match &self.precision {
            None => Json::Null,
            Some(p) => Json::object(vec![
                ("count", Json::UInt(p.count)),
                ("mean_ns", Json::Float(p.mean_ns)),
                ("std_ns", Json::Float(p.std_ns)),
                ("min_ns", Json::Int(p.min_ns)),
                ("max_ns", Json::Int(p.max_ns)),
                ("p50_ns", Json::Int(p.p50_ns)),
                ("p90_ns", Json::Int(p.p90_ns)),
                ("p95_ns", Json::Int(p.p95_ns)),
                ("p99_ns", Json::Int(p.p99_ns)),
            ]),
        };
        let transitions = Json::Array(
            self.transitions
                .iter()
                .map(|t| {
                    Json::object(vec![
                        ("at_ns", Json::UInt(t.at_ns)),
                        ("node", Json::UInt(t.node as u64)),
                        ("slot", Json::UInt(t.slot as u64)),
                        ("from", Json::Str(t.from.name().to_string())),
                        ("to", Json::Str(t.to.name().to_string())),
                    ])
                })
                .collect(),
        );
        Json::object(vec![
            ("schema", Json::UInt(ARTIFACT_SCHEMA)),
            ("campaign", Json::Str(self.campaign.clone())),
            ("hash", Json::Str(self.hash.clone())),
            ("coord", coord),
            ("run_seed", Json::UInt(self.seed)),
            ("counters", counters),
            ("bounds", bounds),
            ("precision", precision),
            (
                "fraction_within_bound",
                Json::Float(self.fraction_within_bound),
            ),
            ("transitions", transitions),
        ])
    }

    /// Decodes a record from its JSONL line. Returns `None` on any
    /// schema mismatch or malformed field (the caller treats the run as
    /// not-yet-completed and re-executes it).
    pub fn decode(line: &str) -> Option<RunRecord> {
        let v = Json::parse(line.trim_end()).ok()?;
        let schema = v.get("schema")?.as_u64()?;
        if schema != ARTIFACT_SCHEMA {
            return None;
        }
        let coord_v = v.get("coord")?;
        let mut coord = Coord::new(
            ScenarioKind::parse(coord_v.get("scenario")?.as_str()?)?,
            coord_v.get("seed")?.as_u64()?,
        );
        // One rule per axis key: present, and either `null` (inactive)
        // or a value of the axis's kind.
        for a in AXES {
            match coord_v.get(a.coord_key)? {
                Json::Null => {}
                x => (a.coord_set)(&mut coord, a.value_from_json(x)?)?,
            }
        }
        let c = v.get("counters")?;
        let mut counters = RunCounters::default();
        for (name, slot) in counters.fields_mut() {
            *slot = c.get(name)?.as_u64()?;
        }
        let b = v.get("bounds")?;
        let bounds = BoundsRecord {
            d_min_ns: b.get("d_min_ns")?.as_i64()?,
            d_max_ns: b.get("d_max_ns")?.as_i64()?,
            reading_error_ns: b.get("reading_error_ns")?.as_i64()?,
            drift_offset_ns: b.get("drift_offset_ns")?.as_i64()?,
            pi_ns: b.get("pi_ns")?.as_i64()?,
            gamma_ns: b.get("gamma_ns")?.as_i64()?,
            pi_plus_gamma_ns: b.get("pi_plus_gamma_ns")?.as_i64()?,
        };
        let precision = match v.get("precision")? {
            Json::Null => None,
            p => Some(PrecisionRecord {
                count: p.get("count")?.as_u64()?,
                mean_ns: p.get("mean_ns")?.as_f64()?,
                std_ns: p.get("std_ns")?.as_f64()?,
                min_ns: p.get("min_ns")?.as_i64()?,
                max_ns: p.get("max_ns")?.as_i64()?,
                p50_ns: p.get("p50_ns")?.as_i64()?,
                p90_ns: p.get("p90_ns")?.as_i64()?,
                p95_ns: p.get("p95_ns")?.as_i64()?,
                p99_ns: p.get("p99_ns")?.as_i64()?,
            }),
        };
        let transitions = v
            .get("transitions")?
            .as_array()?
            .iter()
            .map(|t| {
                Some(TransitionRecord {
                    at_ns: t.get("at_ns")?.as_u64()?,
                    node: t.get("node")?.as_u64()? as usize,
                    slot: t.get("slot")?.as_u64()? as usize,
                    from: SyncState::parse(t.get("from")?.as_str()?)?,
                    to: SyncState::parse(t.get("to")?.as_str()?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunRecord {
            campaign: v.get("campaign")?.as_str()?.to_string(),
            hash: v.get("hash")?.as_str()?.to_string(),
            coord,
            seed: v.get("run_seed")?.as_u64()?,
            counters,
            bounds,
            precision,
            fraction_within_bound: v.get("fraction_within_bound")?.as_f64()?,
            transitions,
        })
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

    /// Cross-seed summary of one scalar over a set of runs.
    pub fn summarize(
        records: &[&RunRecord],
        f: impl Fn(&RunRecord) -> Option<f64>,
    ) -> Option<SampleSummary> {
        let values: Vec<f64> = records.iter().filter_map(|r| f(r)).collect();
        SampleSummary::from_values(&values)
    }
}

fn quantile_ns(result: &RunResult, q: f64) -> i64 {
    result.series.quantile(q).map(|n| n.as_nanos()).unwrap_or(0)
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
                fleet_nodes: Some(256),
                fleet_topology: Some("fat-tree"),
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
        let line = record().encode().replace("\"schema\":7", "\"schema\":6");
        assert!(RunRecord::decode(&line).is_none());
        let line = record().encode().replace("\"schema\":7", "\"schema\":8");
        assert!(RunRecord::decode(&line).is_none());
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

    #[test]
    fn summarize_skips_missing_precision() {
        let mut a = record();
        a.fraction_within_bound = 0.9;
        let mut b = record();
        b.precision = None;
        b.fraction_within_bound = 1.0;
        let refs = vec![&a, &b];
        let s = RunRecord::summarize(&refs, |r| r.precision_scalar(|p| p.mean_ns)).unwrap();
        assert_eq!(s.count, 1);
        let v = RunRecord::summarize(&refs, |r| Some(r.violation_rate())).unwrap();
        assert_eq!(v.count, 2);
        assert!((v.mean - 0.05).abs() < 1e-12);
    }
}
