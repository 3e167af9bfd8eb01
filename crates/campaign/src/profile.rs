//! Per-run profiling of traced campaigns.
//!
//! When a campaign runs with tracing (`campaign run --trace <dir>`),
//! every executed run leaves two things in the trace directory: its
//! Chrome trace-event file `trace-<hash>.json` and one line in
//! `profile.jsonl`. The trace file carries only *simulated* time (so it
//! stays deterministic); the profile line is where host wall-clock time
//! lives — per-run wall seconds, dispatched event counts, and the
//! per-subsystem activity split from [`tsn_trace::TraceReport`].
//!
//! `campaign profile` loads the stream back and aggregates it per
//! scenario: runs, total wall time, events/s throughput, and each
//! subsystem's activity share, sorted hottest (most wall time) first.
//! A subsystem's activity is its queue pops plus its recorded trace
//! events: a count of what it did, not of the time it took.

use crate::json::Json;
use std::io;
use std::path::Path;
use tsn_trace::TraceReport;

/// File name of the profile stream inside a trace directory.
pub const PROFILE_FILE: &str = "profile.jsonl";

/// One run's profile: identity, host wall time, and event accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Position in the canonical matrix order.
    pub index: usize,
    /// Canonical coordinate label ([`crate::matrix::Coord::label`]).
    pub label: String,
    /// Scenario name (the aggregation key of `campaign profile`).
    pub scenario: String,
    /// Content hash (names the sibling `trace-<hash>.json`).
    pub hash: String,
    /// Host wall-clock seconds the run took.
    pub wall_s: f64,
    /// Event-queue pops the run dispatched.
    pub sim_events: u64,
    /// Trace events recorded (instants + spans, excludes counted pops).
    pub recorded: u64,
    /// Trace events dropped at the sink cap.
    pub dropped: u64,
    /// Activity per subsystem, in [`tsn_trace::Subsystem::ALL`] order.
    pub subsystems: Vec<(String, u64)>,
}

impl ProfileEntry {
    /// Builds the entry for one executed run.
    pub fn new(
        index: usize,
        label: &str,
        scenario: &str,
        hash: &str,
        wall_s: f64,
        report: &TraceReport,
    ) -> ProfileEntry {
        ProfileEntry {
            index,
            label: label.to_string(),
            scenario: scenario.to_string(),
            hash: hash.to_string(),
            wall_s,
            sim_events: report.sim_events,
            recorded: report.events.len() as u64,
            dropped: report.dropped,
            subsystems: report
                .subsystems
                .iter()
                .map(|&(s, n)| (s.name().to_string(), n))
                .collect(),
        }
    }

    /// Renders the entry as one JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        Json::object(vec![
            ("index", Json::UInt(self.index as u64)),
            ("label", Json::Str(self.label.clone())),
            ("scenario", Json::Str(self.scenario.clone())),
            ("hash", Json::Str(self.hash.clone())),
            ("wall_s", Json::Float(self.wall_s)),
            ("sim_events", Json::UInt(self.sim_events)),
            ("recorded", Json::UInt(self.recorded)),
            ("dropped", Json::UInt(self.dropped)),
            (
                "subsystems",
                Json::object(
                    self.subsystems
                        .iter()
                        .map(|(name, n)| (name.as_str(), Json::UInt(*n)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses one JSONL line back into an entry.
    pub fn decode(line: &str) -> Option<ProfileEntry> {
        let v = Json::parse(line).ok()?;
        let subsystems = match v.get("subsystems")? {
            Json::Object(pairs) => pairs
                .iter()
                .map(|(name, n)| Some((name.clone(), n.as_u64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(ProfileEntry {
            index: v.get("index")?.as_u64()? as usize,
            label: v.get("label")?.as_str()?.to_string(),
            scenario: v.get("scenario")?.as_str()?.to_string(),
            hash: v.get("hash")?.as_str()?.to_string(),
            wall_s: v.get("wall_s")?.as_f64()?,
            sim_events: v.get("sim_events")?.as_u64()?,
            recorded: v.get("recorded")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
            subsystems,
        })
    }
}

/// Loads a `profile.jsonl` stream, skipping blank lines; a malformed
/// line is an error (the stream is machine-written).
pub fn load(dir: &Path) -> io::Result<Vec<ProfileEntry>> {
    let path = dir.join(PROFILE_FILE);
    let text = std::fs::read_to_string(&path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            ProfileEntry::decode(line).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed profile line in {}: {line}", path.display()),
                )
            })
        })
        .collect()
}

/// Aggregate profile of one scenario across its runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioProfile {
    /// Scenario name.
    pub scenario: String,
    /// Number of profiled runs.
    pub runs: usize,
    /// Total host wall-clock seconds.
    pub wall_s: f64,
    /// Total dispatched event-queue pops.
    pub sim_events: u64,
    /// Trace events dropped at the sink cap, summed.
    pub dropped: u64,
    /// Summed activity per subsystem, insertion-ordered.
    pub subsystems: Vec<(String, u64)>,
}

impl ScenarioProfile {
    /// Simulation throughput in dispatched events per wall second
    /// (0 when no wall time was accumulated).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.sim_events as f64 / self.wall_s
    }

    /// Share of this scenario's activity (pops plus recorded trace
    /// events, not time) attributed to `name`, in `[0, 1]`.
    pub fn subsystem_share(&self, name: &str) -> f64 {
        let total = self
            .subsystems
            .iter()
            .fold(0u64, |sum, (_, n)| sum.saturating_add(*n));
        if total == 0 {
            return 0.0;
        }
        let own = self
            .subsystems
            .iter()
            .find(|(s, _)| s == name)
            .map_or(0, |(_, n)| *n);
        own as f64 / total as f64
    }
}

/// Groups entries per scenario and sorts hottest (most wall time)
/// first.
pub fn aggregate(entries: &[ProfileEntry]) -> Vec<ScenarioProfile> {
    let mut out: Vec<ScenarioProfile> = Vec::new();
    for e in entries {
        let agg = match out.iter_mut().find(|a| a.scenario == e.scenario) {
            Some(agg) => agg,
            None => {
                out.push(ScenarioProfile {
                    scenario: e.scenario.clone(),
                    ..ScenarioProfile::default()
                });
                out.last_mut().expect("just pushed")
            }
        };
        // Counts come from a file: they saturate rather than overflow.
        agg.runs += 1;
        agg.wall_s += e.wall_s;
        agg.sim_events = agg.sim_events.saturating_add(e.sim_events);
        agg.dropped = agg.dropped.saturating_add(e.dropped);
        for (name, n) in &e.subsystems {
            match agg.subsystems.iter_mut().find(|(s, _)| s == name) {
                Some((_, total)) => *total = total.saturating_add(*n),
                None => agg.subsystems.push((name.clone(), *n)),
            }
        }
    }
    out.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    out
}

/// Renders the aggregate as the `campaign profile` report table.
pub fn render(aggregates: &[ScenarioProfile]) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario                  runs   wall      events/s   busiest subsystems \
         (share of pops + trace events, not of time)\n",
    );
    for a in aggregates {
        let mut shares: Vec<(&str, f64)> = a
            .subsystems
            .iter()
            .map(|(name, _)| (name.as_str(), a.subsystem_share(name)))
            .collect();
        shares.sort_by(|x, y| y.1.total_cmp(&x.1));
        let hottest = shares
            .iter()
            .take(3)
            .filter(|(_, share)| *share > 0.0)
            .map(|(name, share)| format!("{name} {:.0}%", share * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "{:<25} {:>4}   {:>7}   {:>8.0}   {hottest}\n",
            a.scenario,
            a.runs,
            format!("{:.2}s", a.wall_s),
            a.events_per_sec(),
        ));
        if a.dropped > 0 {
            out.push_str(&format!(
                "{:<25}        ({} trace event(s) dropped at the sink cap)\n",
                "", a.dropped
            ));
        }
    }
    out
}

/// Renders the aggregate as a machine-readable JSON document
/// (`campaign profile --json`): one object per scenario, hottest
/// first, with throughput and per-subsystem shares precomputed so
/// scripts don't re-derive them. `subsystem_share` is the activity
/// share of [`ScenarioProfile::subsystem_share`], not a share of time.
pub fn render_json(aggregates: &[ScenarioProfile]) -> String {
    Json::Array(
        aggregates
            .iter()
            .map(|a| {
                Json::object(vec![
                    ("scenario", Json::Str(a.scenario.clone())),
                    ("runs", Json::UInt(a.runs as u64)),
                    ("wall_s", Json::Float(a.wall_s)),
                    ("sim_events", Json::UInt(a.sim_events)),
                    ("events_per_sec", Json::Float(a.events_per_sec())),
                    ("dropped", Json::UInt(a.dropped)),
                    (
                        "subsystems",
                        Json::object(
                            a.subsystems
                                .iter()
                                .map(|(name, n)| (name.as_str(), Json::UInt(*n)))
                                .collect(),
                        ),
                    ),
                    (
                        "subsystem_share",
                        Json::object(
                            a.subsystems
                                .iter()
                                .map(|(name, _)| {
                                    (name.as_str(), Json::Float(a.subsystem_share(name)))
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_time::SimTime;
    use tsn_trace::{Subsystem, TraceSink, DEFAULT_MAX_EVENTS};

    fn entry(scenario: &str, wall_s: f64, pops: u64) -> ProfileEntry {
        let mut sink = TraceSink::new(DEFAULT_MAX_EVENTS);
        for i in 0..pops {
            sink.pop(SimTime::from_millis(i), "transmit", Subsystem::Netsim);
        }
        sink.instant(SimTime::from_millis(1), "servo", Subsystem::Servo, 100, 0);
        let report = sink.finish(SimTime::from_secs(1));
        ProfileEntry::new(0, "label", scenario, "abc123", wall_s, &report)
    }

    #[test]
    fn entries_roundtrip_through_jsonl() {
        let e = entry("baseline", 0.25, 10);
        let back = ProfileEntry::decode(&e.encode()).expect("roundtrip");
        assert_eq!(back, e);
    }

    #[test]
    fn aggregate_groups_and_ranks_by_wall_time() {
        let entries = vec![
            entry("baseline", 0.5, 100),
            entry("fault_injection", 2.0, 300),
            entry("baseline", 0.5, 100),
        ];
        let aggs = aggregate(&entries);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].scenario, "fault_injection"); // hottest first
        assert_eq!(aggs[1].runs, 2);
        assert_eq!(aggs[1].sim_events, 200);
        assert!((aggs[0].events_per_sec() - 150.0).abs() < 1e-9);
        let netsim = aggs[0].subsystem_share("netsim");
        let servo = aggs[0].subsystem_share("servo");
        assert!((netsim + servo - 1.0).abs() < 1e-12);
        let table = render(&aggs);
        assert!(table.contains("fault_injection"));
        assert!(table.contains("events/s"));
    }

    /// Pins the machine-readable schema: scripts key off these exact
    /// field names, so renaming any of them is a breaking change.
    #[test]
    fn profile_json_schema_is_pinned() {
        let aggs = aggregate(&[entry("baseline", 0.5, 100)]);
        let json = render_json(&aggs);
        for key in [
            "\"scenario\"",
            "\"runs\"",
            "\"wall_s\"",
            "\"sim_events\"",
            "\"events_per_sec\"",
            "\"dropped\"",
            "\"subsystems\"",
            "\"subsystem_share\"",
        ] {
            assert!(json.contains(key), "profile --json must carry {key}");
        }
        let parsed = Json::parse(&json).expect("valid JSON");
        let Json::Array(rows) = &parsed else {
            panic!("top level must be an array");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("events_per_sec").and_then(Json::as_f64),
            Some(200.0)
        );
        let share = rows[0]
            .get("subsystem_share")
            .and_then(|s| s.get("netsim"))
            .and_then(Json::as_f64)
            .expect("netsim share");
        assert!(share > 0.0 && share <= 1.0);
    }

    #[test]
    fn load_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("tsn-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(PROFILE_FILE),
            format!("{}\n\nnot json\n", entry("baseline", 0.1, 5).encode()),
        )
        .unwrap();
        assert!(load(&dir).is_err());
        std::fs::write(
            dir.join(PROFILE_FILE),
            format!("{}\n", entry("baseline", 0.1, 5).encode()),
        )
        .unwrap();
        assert_eq!(load(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
