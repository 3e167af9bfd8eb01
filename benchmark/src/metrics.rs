//! The metric tables — the names, units and directions `BENCHMARK.json`
//! declares — and the result line built from them. A test holds the two
//! to each other, so a metric cannot be declared without being emitted
//! or emitted without being declared.

use std::collections::BTreeMap;

/// One declared metric: name, unit, `true` when higher is better.
pub type Def = (&'static str, &'static str, bool);

/// End-to-end metrics (`--trace 0`), measured with every observer off.
/// Bounds live in `BENCHMARK.json` only.
pub const END_TO_END: [Def; 5] = [
    ("wall_s", "s", false),
    ("sim_s_per_wall_s", "sim-s/s", true),
    ("setup_s", "s", false),
    ("peak_rss_mib", "MiB", false),
    ("within_bound_fraction", "fraction", true),
];

/// Per-layer metrics (`--trace 1`). Sources: C = exact count from the
/// traced execution, P = isolated probe, S = harness span, D = derived.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: [Def; 103] = [
    // accuracy — C. A simulated statistic: it repeats exactly for a
    // seed and moves by tens of percent between seeds, so it is compared
    // at equal seeds and has no place among the bounded metrics.
    ("accuracy.precision_mean_ns", "ns", false),
    // core (World) — C, S
    ("core.events", "count", false),
    ("core.ns_per_event", "ns", false),
    ("core.events_per_s", "1/s", true),
    ("core.world_new_s", "s", false),
    ("core.into_result_s", "s", false),
    ("core.slice_drift", "ratio", false),
    ("core.pops.transmit", "count", false),
    ("core.pops.port_free", "count", false),
    ("core.pops.arrive", "count", false),
    ("core.pops.gm_sync_tick", "count", false),
    ("core.pops.pdelay_tick", "count", false),
    ("core.pops.phc2sys_tick", "count", false),
    ("core.pops.monitor_tick", "count", false),
    ("core.pops.election_tick", "count", false),
    ("core.pops.probe_tick", "count", false),
    ("core.pops.wander_tick", "count", false),
    ("core.pops.fault", "count", false),
    // netsim — P, C
    ("netsim.queue.push_pop_ns", "ns", false),
    ("netsim.queue.reference_push_pop_ns", "ns", false),
    ("netsim.frame.encode_ns", "ns", false),
    ("netsim.frame.decode_ns", "ns", false),
    ("netsim.switch.forward_ns", "ns", false),
    ("netsim.qdisc.enqueue_pop_ns", "ns", false),
    ("netsim.frames_queued", "count", false),
    ("trace.activity.netsim", "count", false),
    // gptp — P, C
    ("gptp.msg.sync_encode_ns", "ns", false),
    ("gptp.msg.sync_decode_ns", "ns", false),
    ("gptp.msg.follow_up_encode_ns", "ns", false),
    ("gptp.msg.follow_up_decode_ns", "ns", false),
    ("gptp.msg.pdelay_roundtrip_ns", "ns", false),
    ("gptp.msg.announce_roundtrip_ns", "ns", false),
    ("gptp.bridge.relay_ns", "ns", false),
    ("gptp.port.master_sync_ns", "ns", false),
    ("gptp.port.slave_offset_ns", "ns", false),
    ("gptp.pdelay.exchange_ns", "ns", false),
    ("gptp.bmca.decide_ns", "ns", false),
    ("gptp.tx_timestamp_timeouts", "count", false),
    ("trace.activity.gptp", "count", false),
    // fta + time — P, C
    ("fta.average_ns", "ns", false),
    ("fta.round_ns", "ns", false),
    ("fta.aggregations", "count", false),
    ("fta.no_quorum", "count", false),
    ("time.servo.sample_ns", "ns", false),
    ("time.phc.read_adjust_ns", "ns", false),
    ("time.oscillator.advance_ns", "ns", false),
    ("trace.activity.fta", "count", false),
    ("trace.activity.servo", "count", false),
    ("trace.activity.time", "count", false),
    // hyp + faults — P, C
    ("hyp.phc2sys.tick_ns", "ns", false),
    ("hyp.monitor.tick_ns", "ns", false),
    ("hyp.stshmem.read_ns", "ns", false),
    ("hyp.takeovers", "count", false),
    ("faults.schedule_generate_ns", "ns", false),
    ("trace.activity.hyp", "count", false),
    ("trace.activity.faults", "count", false),
    // fabric — P, C
    ("fabric.traverse_tc_ns", "ns", false),
    ("fabric.traverse_e2e_ns", "ns", false),
    ("fabric.frames_forwarded", "count", false),
    ("fabric.frames_dropped", "count", false),
    ("trace.activity.fabric", "count", false),
    // election — P, C
    ("election.announce_rx_ns", "ns", false),
    ("election.step_ns", "ns", false),
    ("election.announce_tx", "count", false),
    ("trace.activity.election", "count", false),
    // metrics — P, C
    ("metrics.precision.push_ns", "ns", false),
    ("metrics.precision.stats_ns", "ns", false),
    ("metrics.sketch.push_ns", "ns", false),
    ("trace.activity.measure", "count", false),
    // snapshot — P
    ("snapshot.capture_ns", "ns", false),
    ("snapshot.encode_ns", "ns", false),
    ("snapshot.decode_ns", "ns", false),
    ("snapshot.restore_ns", "ns", false),
    ("snapshot.bytes", "bytes", false),
    // campaign — P, S, C
    ("campaign.spec.parse_ns", "ns", false),
    ("campaign.matrix.expand_ns_per_plan", "ns", false),
    ("campaign.matrix.materialize_ns", "ns", false),
    ("campaign.artifact.encode_ns", "ns", false),
    ("campaign.artifact.decode_ns", "ns", false),
    ("campaign.artifact.bytes", "bytes", false),
    ("campaign.json.parse_mb_per_s", "MB/s", true),
    ("campaign.summary.push_ns", "ns", false),
    ("campaign.summary.render_ns", "ns", false),
    ("campaign.runner.resume_ns_per_run", "ns", false),
    ("campaign.runner.overhead_share", "fraction", false),
    ("campaign.runner.prefix_events_skipped", "count", true),
    ("campaign.runner.forked_groups", "count", true),
    ("campaign.runner.parallel_speedup", "ratio", true),
    // observers — S
    ("oracle.overhead_share", "fraction", false),
    ("trace.overhead_share", "fraction", false),
    // allocation proxies — C
    ("alloc.count_per_event", "count", false),
    ("alloc.bytes_per_run", "bytes", false),
    ("alloc.peak_mib", "MiB", false),
    // the model: count x probe ns / traced wall — D
    ("model.share.queue", "fraction", false),
    ("model.share.netsim", "fraction", false),
    ("model.share.gptp", "fraction", false),
    ("model.share.fta_servo", "fraction", false),
    ("model.share.hyp", "fraction", false),
    ("model.share.fabric", "fraction", false),
    ("model.share.election", "fraction", false),
    ("model.share.metrics", "fraction", false),
    ("model.share.artifact", "fraction", false),
    ("model.share.unattributed", "fraction", false),
];

/// The values of one run, against one of the tables above.
pub struct Metrics {
    defs: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a typo must not emit a metric the
    /// contract does not know.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.0 == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Adds the values of `other`, which is checked against the same
    /// table.
    pub fn extend(&mut self, other: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in other {
            self.set(name, value);
        }
    }

    /// A metric's value; 0 for a layer this run did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric by name, with its unit.
    pub fn print_table(&self) {
        for (name, unit, higher) in self.defs {
            let arrow = if *higher { "higher" } else { "lower" };
            println!(
                "{name:<40} {:>18} {unit:<9} ({arrow} is better)",
                format_value(self.get(name))
            );
        }
    }

    /// The last line of standard output: one JSON object with exactly
    /// the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .map(|(name, unit, _)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    format_value(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            attempted.max(1),
            metrics.join(",")
        )
    }
}

/// A value as measured, with all its digits; JSON has no NaN or
/// infinity, which are reported as 0.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use tsn_campaign::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    /// `(name, unit, better)` of each entry of a `BENCHMARK.json` list.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn as_declared(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|(n, u, higher)| {
                let better = if *higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_run_emits() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), as_declared(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), as_declared(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn benchmark_json_is_inside_the_contract_limits() {
        let doc = benchmark_json();
        for (name, unit, _) in declared(&doc, "end_to_end")
            .into_iter()
            .chain(declared(&doc, "per_layer"))
        {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(&unit), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound));
        }
        assert!(declared(&doc, "end_to_end")
            .iter()
            .any(|(n, u, b)| n == "setup_s" && u == "s" && b == "lower"));
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("wall_s", 1.25);
        m.set("peak_rss_mib", f64::NAN);
        let line = m.result_line(true, 0, 0);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        // `attempted` is at least 1 by contract.
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit, _) in END_TO_END {
            let entry = metrics.get(name).unwrap();
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
        }
        let wall = metrics.get("wall_s").unwrap().get("value").unwrap();
        assert_eq!(wall.as_f64(), Some(1.25));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::new(&END_TO_END).set("wall_seconds", 1.0);
    }
}
