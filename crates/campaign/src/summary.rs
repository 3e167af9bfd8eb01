//! Cross-seed summarization and baseline comparison of run artifacts.
//!
//! Runs are grouped by every grid coordinate except the seed; each
//! group's per-run scalars (mean/max/quantiles of Π*_s, bound-violation
//! rate, fault counters) are aggregated across seeds with
//! [`SampleSummary`]. The diff mode compares two summarized campaigns
//! group by group and classifies the result as parity or regression
//! against fixed tolerances (`RULES`).

use crate::artifact::RunRecord;
use crate::json::Json;
use crate::matrix::Coord;
use tsn_metrics::{SampleSummary, StreamingSummary};

/// The cross-seed metrics, declared once: each row is a
/// [`GroupSummary`] field, its `--json` key and the per-run value it
/// aggregates (`None` — a run without a precision record — is not
/// pushed). The table emits the struct, `metric_values`, the `finish`
/// mapping and the key list `render_json` loops over; row order is the
/// JSON key order.
macro_rules! metrics {
    (|$r:ident| $( $(#[$doc:meta])* $field:ident $key:literal = $value:expr; )*) => {
        /// Cross-seed aggregates of one grid point.
        #[derive(Debug, Clone)]
        pub struct GroupSummary {
            /// The grid point, with the seed cleared: the unit of
            /// cross-seed grouping.
            pub key: Coord,
            /// Number of runs (seeds) aggregated.
            pub runs: usize,
            $( $(#[$doc])* pub $field: Option<SampleSummary>, )*
            /// Mean derived bound Π + γ across seeds (ns).
            pub bound_ns_mean: f64,
        }

        /// Number of per-run scalar metrics aggregated per group.
        const METRIC_COUNT: usize = [$($key),*].len();

        /// One run's metric scalars, in row order.
        fn metric_values($r: &RunRecord) -> [Option<f64>; METRIC_COUNT] {
            [$($value),*]
        }

        impl GroupSummary {
            fn finish(key: Coord, accum: GroupAccum) -> GroupSummary {
                let [$($field),*] = accum.metrics.map(|m| m.finalize());
                GroupSummary {
                    key,
                    runs: accum.runs,
                    $($field,)*
                    bound_ns_mean: accum.bound_sum / accum.runs as f64,
                }
            }

            /// The statistics with their `--json` keys, in row order.
            fn metrics(&self) -> [(&'static str, &Option<SampleSummary>); METRIC_COUNT] {
                [$(($key, &self.$field)),*]
            }
        }
    };
}

metrics! { |r|
    /// Per-run mean Π*_s, aggregated across seeds (ns).
    pi_star_mean "pi_star_mean_ns" = r.precision_scalar(|p| p.mean_ns);
    /// Per-run median Π*_s across seeds (ns).
    pi_star_p50 "pi_star_p50_ns" = r.precision_scalar(|p| p.p50_ns as f64);
    /// Per-run p95 of Π*_s across seeds (ns).
    pi_star_p95 "pi_star_p95_ns" = r.precision_scalar(|p| p.p95_ns as f64);
    /// Per-run p99 of Π*_s across seeds (ns).
    pi_star_p99 "pi_star_p99_ns" = r.precision_scalar(|p| p.p99_ns as f64);
    /// Per-run maximum Π*_s across seeds (ns).
    pi_star_max "pi_star_max_ns" = r.precision_scalar(|p| p.max_ns as f64);
    /// Per-run bound-violation rate (fraction outside Π + γ).
    violation_rate "violation_rate" = Some(r.violation_rate());
    /// Injected fail-silent VM shutdowns per run.
    vm_failures "vm_failures" = Some(r.counters.vm_failures as f64);
    /// Injected GM shutdowns per run.
    gm_failures "gm_failures" = Some(r.counters.gm_failures as f64);
    /// Monitor takeovers per run.
    takeovers "takeovers" = Some(r.counters.takeovers as f64);
    /// Degradation-machine edges (SyncState transitions) per run.
    sync_transitions "sync_transitions" = Some(r.counters.sync_transitions as f64);
    /// Total Holdover + Freerun dwell per run (ms).
    degraded_dwell_ms "degraded_dwell_ms" =
        Some((r.counters.holdover_ns + r.counters.freerun_ns) as f64 / 1e6);
    /// Failures the monitor could not cover with a standby, per run.
    uncovered_failures "uncovered_failures" = Some(r.counters.uncovered_failures as f64);
    /// Elected-GM changes (BMCA winner churn) per run.
    elected_gm_changes "elected_gm_changes" = Some(r.counters.elected_gm_changes as f64);
    /// Kill-to-re-election latency per run (ms; 0 when no GM was
    /// killed).
    reconvergence_ms "reconvergence_ms" = Some(r.counters.reconvergence_ns as f64 / 1e6);
    /// Frames delivered to a port with no handler per run.
    unhandled_frames "unhandled_frames" = Some(r.counters.unhandled_frames as f64);
    /// Frames the fabric forwarded per run.
    fabric_forwarded "fabric_forwarded" = Some(r.counters.fabric_frames_forwarded as f64);
    /// Frames the fabric dropped (gate overruns) per run.
    fabric_dropped "fabric_dropped" = Some(r.counters.fabric_frames_dropped as f64);
    /// Worst per-frame switch residence per run (ns).
    max_residence_ns "max_residence_ns" = Some(r.counters.max_residence_ns as f64);
    /// Accumulated forward/reverse path asymmetry per run (ns).
    path_asymmetry_ns "path_asymmetry_ns" = Some(r.counters.path_asymmetry_ns as f64);
}

/// Bounded-memory accumulator for one group.
#[derive(Default)]
struct GroupAccum {
    runs: usize,
    bound_sum: f64,
    metrics: [StreamingSummary; METRIC_COUNT],
}

/// Streaming cross-seed summarizer: accepts run records one at a time
/// and holds memory proportional to the number of *groups* (grid points
/// minus the seed axis), not the number of records. Each metric is
/// tracked with [`StreamingSummary`], so groups small enough for the
/// old in-memory path ([`StreamingSummary::EXACT_CAP`] runs) summarize
/// byte-identically, and larger groups degrade to a bounded sketch.
#[derive(Default)]
pub struct StreamSummarizer {
    // Vec keyed by linear search: groups stay in first-appearance
    // (canonical matrix) order, and campaigns have few groups.
    groups: Vec<(Coord, GroupAccum)>,
}

impl StreamSummarizer {
    /// An empty summarizer.
    pub fn new() -> StreamSummarizer {
        StreamSummarizer::default()
    }

    /// Folds one run record into its group.
    pub fn push(&mut self, r: &RunRecord) {
        let key = Coord { seed: 0, ..r.coord };
        let idx = match self.groups.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.groups.push((key, GroupAccum::default()));
                self.groups.len() - 1
            }
        };
        let accum = &mut self.groups[idx].1;
        accum.runs += 1;
        accum.bound_sum += r.bounds.pi_plus_gamma_ns as f64;
        for (slot, value) in accum.metrics.iter_mut().zip(metric_values(r)) {
            if let Some(v) = value {
                slot.push(v);
            }
        }
    }

    /// Finalizes every group, in first-appearance order.
    pub fn finish(self) -> Vec<GroupSummary> {
        self.groups
            .into_iter()
            .map(|(key, accum)| GroupSummary::finish(key, accum))
            .collect()
    }
}

/// Groups records by non-seed coordinates (in first-appearance order,
/// i.e. canonical matrix order) and aggregates each group. Delegates to
/// [`StreamSummarizer`]; callers with an artifact directory should
/// stream records through the summarizer directly instead of collecting
/// them first.
pub fn summarize(records: &[RunRecord]) -> Vec<GroupSummary> {
    let mut s = StreamSummarizer::new();
    for r in records {
        s.push(r);
    }
    s.finish()
}

/// Renders summaries as a readable text report.
pub fn render(groups: &[GroupSummary]) -> String {
    let mut out = String::new();
    for g in groups {
        out.push_str(&format!("## {}  ({} seeds)\n", g.key.group_label(), g.runs));
        out.push_str(&format!(
            "bound Pi+gamma: {:.0} ns (mean)\n",
            g.bound_ns_mean
        ));
        let rows: [(&str, &Option<SampleSummary>); 6] = [
            ("Pi* mean", &g.pi_star_mean),
            ("Pi* p50 ", &g.pi_star_p50),
            ("Pi* p95 ", &g.pi_star_p95),
            ("Pi* p99 ", &g.pi_star_p99),
            ("Pi* max ", &g.pi_star_max),
            ("viol rate", &g.violation_rate),
        ];
        for (name, s) in rows {
            if let Some(s) = s {
                out.push_str(&format!(
                    "  {name}: mean {:10.1}  std {:9.1}  min {:10.1}  p50 {:10.1}  p95 {:10.1}  p99 {:10.1}  max {:10.1}\n",
                    s.mean, s.std, s.min, s.p50, s.p95, s.p99, s.max
                ));
            }
        }
        if let (Some(vm), Some(gm), Some(tk)) = (&g.vm_failures, &g.gm_failures, &g.takeovers) {
            out.push_str(&format!(
                "  faults/run: vm mean {:.1} (max {:.0})  gm mean {:.1} (max {:.0})  takeovers mean {:.1} (max {:.0})\n",
                vm.mean, vm.max, gm.mean, gm.max, tk.mean, tk.max
            ));
        }
        if let (Some(tr), Some(dw), Some(uc)) = (
            &g.sync_transitions,
            &g.degraded_dwell_ms,
            &g.uncovered_failures,
        ) {
            out.push_str(&format!(
                "  degradation/run: edges mean {:.1} (max {:.0})  dwell mean {:.1} ms (max {:.1} ms)  uncovered mean {:.1} (max {:.0})\n",
                tr.mean, tr.max, dw.mean, dw.max, uc.mean, uc.max
            ));
        }
        if let (Some(ch), Some(rc), Some(uf)) = (
            &g.elected_gm_changes,
            &g.reconvergence_ms,
            &g.unhandled_frames,
        ) {
            out.push_str(&format!(
                "  election/run: churn mean {:.1} (max {:.0})  reconv mean {:.1} ms (max {:.1} ms)  unhandled mean {:.1} (max {:.0})\n",
                ch.mean, ch.max, rc.mean, rc.max, uf.mean, uf.max
            ));
        }
        // Fabric line only when the group actually carried fabric
        // traffic — paper-default campaigns render exactly as before.
        if let (Some(ff), Some(fd), Some(mr), Some(pa)) = (
            &g.fabric_forwarded,
            &g.fabric_dropped,
            &g.max_residence_ns,
            &g.path_asymmetry_ns,
        ) {
            if ff.max > 0.0 {
                out.push_str(&format!(
                    "  fabric/run: fwd mean {:.0} (max {:.0})  drop mean {:.1} (max {:.0})  residence max {:.0} ns  asym max {:.0} ns\n",
                    ff.mean, ff.max, fd.mean, fd.max, mr.max, pa.max
                ));
            }
        }
    }
    out
}

/// Renders summaries as a JSON document (for scripting).
pub fn render_json(groups: &[GroupSummary]) -> String {
    fn stat(s: &Option<SampleSummary>) -> Json {
        match s {
            None => Json::Null,
            Some(s) => Json::object(vec![
                ("count", Json::UInt(s.count as u64)),
                ("mean", Json::Float(s.mean)),
                ("std", Json::Float(s.std)),
                ("min", Json::Float(s.min)),
                ("max", Json::Float(s.max)),
                ("p50", Json::Float(s.p50)),
                ("p95", Json::Float(s.p95)),
                ("p99", Json::Float(s.p99)),
            ]),
        }
    }
    Json::Array(
        groups
            .iter()
            .map(|g| {
                let mut members = vec![
                    ("group", Json::Str(g.key.group_label())),
                    ("runs", Json::UInt(g.runs as u64)),
                    ("bound_ns_mean", Json::Float(g.bound_ns_mean)),
                ];
                members.extend(g.metrics().map(|(key, s)| (key, stat(s))));
                Json::object(members)
            })
            .collect(),
    )
    .render()
}

/// A metric's statistics, read off a [`GroupSummary`].
type Metric = fn(&GroupSummary) -> &Option<SampleSummary>;
/// Why candidate mean `c` regresses against baseline mean `b` at
/// tolerance `tol` (`|b, c, tol|`), or `None` within it.
type Reason = fn(f64, f64, f64) -> Option<String>;

/// The rules of `diff` — tried in order; a group reports the first it
/// breaks. A campaign is stochastic: exact equality across code changes
/// is not the bar, staying within these margins is.
const RULES: [(Metric, f64, Reason); 6] = [
    (
        |g| &g.violation_rate,
        0.02,
        |b, c, tol| {
            (c > b + tol).then(|| format!("violation rate {b:.4} -> {c:.4} (tol +{tol:.4})"))
        },
    ),
    // 10 % of the baseline plus 500 ns, so near-zero baselines don't
    // flag noise.
    (
        |g| &g.pi_star_p95,
        500.0,
        |b, c, tol| {
            let limit = b * (1.0 + 0.10) + tol;
            (c > limit).then(|| format!("Pi* p95 {b:.0} ns -> {c:.0} ns (limit {limit:.0} ns)"))
        },
    ),
    // Jitter in when a holdover starts or ends is noise.
    (
        |g| &g.degraded_dwell_ms,
        250.0,
        |b, c, tol| {
            (c > b + tol)
                .then(|| format!("degraded dwell {b:.1} ms -> {c:.1} ms (tol +{tol:.0} ms)"))
        },
    ),
    // One extra Holdover ⇄ Synchronized bounce.
    (
        |g| &g.sync_transitions,
        2.0,
        |b, c, tol| {
            (c > b + tol).then(|| format!("degradation edges {b:.1} -> {c:.1} (tol +{tol:.1})"))
        },
    ),
    // Any new uncovered window is a regression.
    (
        |g| &g.uncovered_failures,
        0.0,
        |b, c, tol| {
            (c > b + tol).then(|| format!("uncovered failures {b:.2} -> {c:.2} (tol +{tol:.2})"))
        },
    ),
    // 50 ms in ns: slower BMCA reconvergence regresses on its own.
    (
        |g| &g.reconvergence_ms,
        50_000_000.0,
        |b, c, tol| {
            (c * 1e6 > b * 1e6 + tol).then(|| {
                format!(
                    "reconvergence {b:.1} ms -> {c:.1} ms (tol +{:.1} ms)",
                    tol / 1e6
                )
            })
        },
    ),
];

/// Verdict of a baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Candidate is within tolerance of (or better than) the baseline.
    Parity,
    /// Candidate is worse than the baseline beyond tolerance.
    Regression,
    /// The campaigns are not comparable (mismatched groups).
    Incomparable,
}

impl DiffVerdict {
    /// The CLI exit code: 0 parity, 1 regression, 2 error.
    pub fn exit_code(self) -> i32 {
        match self {
            DiffVerdict::Parity => 0,
            DiffVerdict::Regression => 1,
            DiffVerdict::Incomparable => 2,
        }
    }
}

/// Result of comparing a candidate campaign against a baseline.
#[derive(Debug)]
pub struct DiffReport {
    /// Overall verdict.
    pub verdict: DiffVerdict,
    /// One human-readable line per group (plus mismatch notes).
    pub lines: Vec<String>,
}

/// Compares summarized campaigns: every baseline group must exist in
/// the candidate, and each group is checked against the `RULES`.
pub fn diff(baseline: &[GroupSummary], candidate: &[GroupSummary]) -> DiffReport {
    let mut lines = Vec::new();
    let mut verdict = DiffVerdict::Parity;
    for b in baseline {
        let Some(c) = candidate.iter().find(|c| c.key == b.key) else {
            lines.push(format!(
                "MISSING  {}: group absent from candidate",
                b.key.group_label()
            ));
            verdict = DiffVerdict::Incomparable;
            continue;
        };
        let worst = RULES.iter().find_map(|(metric, tol, reason)| {
            let (bs, cs) = (metric(b).as_ref()?, metric(c).as_ref()?);
            reason(bs.mean, cs.mean, *tol)
        });
        match worst {
            Some(reason) => {
                lines.push(format!("REGRESS  {}: {reason}", b.key.group_label()));
                if verdict == DiffVerdict::Parity {
                    verdict = DiffVerdict::Regression;
                }
            }
            None => lines.push(format!("ok       {}", b.key.group_label())),
        }
    }
    for c in candidate {
        if !baseline.iter().any(|b| b.key == c.key) {
            lines.push(format!(
                "extra    {}: group absent from baseline (ignored)",
                c.key.group_label()
            ));
        }
    }
    if baseline.is_empty() {
        lines.push("baseline has no groups".to_string());
        verdict = DiffVerdict::Incomparable;
    }
    DiffReport { verdict, lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{BoundsRecord, PrecisionRecord};
    use crate::spec::discipline_name;
    use clocksync::scenario::ScenarioKind;
    use clocksync::RunCounters;
    use tsn_hyp::SyncClockDiscipline;

    fn rec(seed: u64, discipline: SyncClockDiscipline, p95: i64, within: f64) -> RunRecord {
        RunRecord {
            campaign: "t".to_string(),
            hash: format!("{seed:x}-{}", discipline_name(discipline)),
            coord: Coord {
                discipline: Some(discipline),
                ..Coord::new(ScenarioKind::Baseline, seed)
            },
            seed: seed * 1000,
            counters: RunCounters::default(),
            bounds: BoundsRecord {
                d_min_ns: 0,
                d_max_ns: 0,
                reading_error_ns: 0,
                drift_offset_ns: 0,
                pi_ns: 12_000,
                gamma_ns: 1_000,
                pi_plus_gamma_ns: 13_000,
            },
            precision: Some(PrecisionRecord {
                count: 10,
                mean_ns: p95 as f64 / 2.0,
                std_ns: 10.0,
                min_ns: 100,
                max_ns: p95 + 1000,
                p50_ns: p95 / 2,
                p90_ns: p95 - 100,
                p95_ns: p95,
                p99_ns: p95 + 500,
            }),
            fraction_within_bound: within,
            transitions: Vec::new(),
        }
    }

    fn records(p95: i64, within: f64) -> Vec<RunRecord> {
        let mut v = Vec::new();
        for seed in 1..=4 {
            v.push(rec(seed, SyncClockDiscipline::Feedback, p95, within));
            v.push(rec(seed, SyncClockDiscipline::FeedForward, p95 / 2, within));
        }
        v
    }

    #[test]
    fn groups_by_non_seed_axes() {
        let groups = summarize(&records(4000, 1.0));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].runs, 4);
        let s = groups[0].pi_star_p95.as_ref().unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 4000.0);
        assert_eq!(groups[1].pi_star_p95.as_ref().unwrap().mean, 2000.0);
        assert!(render(&groups).contains("feed_forward"));
        assert!(render_json(&groups).contains("\"runs\":4"));
        // A run without a precision record counts toward the run-level
        // metrics only.
        let mut recs = records(4000, 0.9);
        recs[0].precision = None;
        let g = &summarize(&recs)[0];
        assert_eq!(g.pi_star_mean.as_ref().unwrap().count, 3);
        let v = g.violation_rate.as_ref().unwrap();
        assert_eq!(v.count, 4);
        assert!((v.mean - 0.1).abs() < 1e-12);
    }

    #[test]
    fn diff_detects_parity_and_regression() {
        let base = summarize(&records(4000, 1.0));
        // Slightly different but within tolerance.
        let ok = summarize(&records(4200, 0.99));
        let d = diff(&base, &ok);
        assert_eq!(d.verdict, DiffVerdict::Parity);
        assert_eq!(d.verdict.exit_code(), 0);
        // p95 blowup → regression.
        let bad = summarize(&records(9000, 1.0));
        let d = diff(&base, &bad);
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert_eq!(d.verdict.exit_code(), 1);
        assert!(d.lines.iter().any(|l| l.starts_with("REGRESS")));
        // Violation-rate blowup → regression even with identical p95.
        let bad = summarize(&records(4000, 0.90));
        let d = diff(&base, &bad);
        assert_eq!(d.verdict, DiffVerdict::Regression);
    }

    #[test]
    fn diff_flags_degradation_regressions() {
        let base = summarize(&records(4000, 1.0));
        // Longer degraded dwell beyond tolerance → regression.
        let mut worse: Vec<RunRecord> = records(4000, 1.0);
        for r in &mut worse {
            r.counters.sync_transitions = 3;
            r.counters.holdover_ns = 400_000_000; // 400 ms
        }
        let d = diff(&base, &summarize(&worse));
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("degraded dwell")));
        // A single new uncovered failure regresses at zero tolerance.
        let mut uncovered: Vec<RunRecord> = records(4000, 1.0);
        uncovered[0].counters.uncovered_failures = 1;
        let d = diff(&base, &summarize(&uncovered));
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("uncovered failures")));
        // Small dwell within tolerance stays parity.
        let mut ok: Vec<RunRecord> = records(4000, 1.0);
        for r in &mut ok {
            r.counters.holdover_ns = 100_000_000; // 100 ms < 250 ms slack
        }
        let d = diff(&base, &summarize(&ok));
        assert_eq!(d.verdict, DiffVerdict::Parity);
    }

    #[test]
    fn diff_flags_reconvergence_regressions() {
        let base = summarize(&records(4000, 1.0));
        // A re-election 80 ms slower than baseline exceeds the 50 ms
        // default slack.
        let mut slow: Vec<RunRecord> = records(4000, 1.0);
        for r in &mut slow {
            r.counters.reconvergence_ns = 80_000_000;
        }
        let d = diff(&base, &summarize(&slow));
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("reconvergence")));
        // 40 ms slower stays within the slack.
        for r in &mut slow {
            r.counters.reconvergence_ns = 40_000_000;
        }
        let d = diff(&base, &summarize(&slow));
        assert_eq!(d.verdict, DiffVerdict::Parity);
    }

    #[test]
    fn fabric_axes_group_and_render() {
        let mut recs = records(4000, 1.0);
        for r in &mut recs {
            r.coord.hops = Some(3);
            r.coord.tc_mode = Some(true);
            r.counters.fabric_frames_forwarded = 120;
            r.counters.max_residence_ns = 900;
        }
        let groups = summarize(&recs);
        assert_eq!(groups.len(), 2, "fabric axes join the grouping key");
        assert!(groups[0].key.group_label().contains("hops=3"));
        assert!(groups[0].key.group_label().contains("tc=on"));
        let text = render(&groups);
        assert!(text.contains("fabric/run"));
        let json = render_json(&groups);
        assert!(json.contains("\"fabric_forwarded\""));
        assert!(json.contains("\"max_residence_ns\""));
        // Without fabric traffic the text line is suppressed.
        let plain = render(&summarize(&records(4000, 1.0)));
        assert!(!plain.contains("fabric/run"));
    }

    #[test]
    fn streaming_summarizer_matches_the_batch_path() {
        let recs = records(4000, 1.0);
        let batch = summarize(&recs);
        let mut s = StreamSummarizer::new();
        for r in &recs {
            s.push(r);
        }
        let streamed = s.finish();
        assert_eq!(batch.len(), streamed.len());
        for (b, c) in batch.iter().zip(&streamed) {
            assert_eq!(b.key, c.key);
            assert_eq!(b.runs, c.runs);
            assert_eq!(b.bound_ns_mean, c.bound_ns_mean);
            assert_eq!(b.pi_star_p95, c.pi_star_p95);
            assert_eq!(b.violation_rate, c.violation_rate);
        }
    }

    /// The feedback group of `records(4000, 1.0)` — Π* p95 mean 4000 ns,
    /// every other diffed mean 0 — with `set` applied to it.
    fn one_group(set: impl Fn(&mut GroupSummary)) -> Vec<GroupSummary> {
        let mut g = summarize(&records(4000, 1.0)).remove(0);
        set(&mut g);
        vec![g]
    }

    fn mean(s: &mut Option<SampleSummary>) -> &mut f64 {
        &mut s.as_mut().expect("summarized").mean
    }

    fn diff_lines(candidate: impl Fn(&mut GroupSummary)) -> (DiffVerdict, Vec<String>) {
        let d = diff(&one_group(|_| {}), &one_group(candidate));
        (d.verdict, d.lines)
    }

    /// Pins every rule of `diff`: its message, its tolerance (a candidate
    /// exactly at it is parity) and the order rules are tried in.
    #[test]
    fn diff_rules_pin_message_tolerance_and_order() {
        type Set = fn(&mut GroupSummary);
        let g = "baseline feedback";
        let regressions: [(Set, String); 8] = [
            (
                |g| *mean(&mut g.violation_rate) = 0.03,
                format!("REGRESS  {g}: violation rate 0.0000 -> 0.0300 (tol +0.0200)"),
            ),
            (
                |g| *mean(&mut g.pi_star_p95) = 5000.0,
                format!("REGRESS  {g}: Pi* p95 4000 ns -> 5000 ns (limit 4900 ns)"),
            ),
            (
                |g| *mean(&mut g.degraded_dwell_ms) = 250.5,
                format!("REGRESS  {g}: degraded dwell 0.0 ms -> 250.5 ms (tol +250 ms)"),
            ),
            (
                |g| *mean(&mut g.sync_transitions) = 2.5,
                format!("REGRESS  {g}: degradation edges 0.0 -> 2.5 (tol +2.0)"),
            ),
            (
                |g| *mean(&mut g.uncovered_failures) = 0.25,
                format!("REGRESS  {g}: uncovered failures 0.00 -> 0.25 (tol +0.00)"),
            ),
            (
                |g| *mean(&mut g.reconvergence_ms) = 50.25,
                format!("REGRESS  {g}: reconvergence 0.0 ms -> 50.2 ms (tol +50.0 ms)"),
            ),
            // Two rules broken: the first in rule order is reported.
            (
                |g| {
                    *mean(&mut g.violation_rate) = 0.5;
                    *mean(&mut g.pi_star_p95) = 9000.0;
                },
                format!("REGRESS  {g}: violation rate 0.0000 -> 0.5000 (tol +0.0200)"),
            ),
            (
                |g| {
                    *mean(&mut g.degraded_dwell_ms) = 1000.0;
                    *mean(&mut g.sync_transitions) = 10.0;
                },
                format!("REGRESS  {g}: degraded dwell 0.0 ms -> 1000.0 ms (tol +250 ms)"),
            ),
        ];
        for (set, line) in regressions {
            assert_eq!(diff_lines(set), (DiffVerdict::Regression, vec![line]));
        }
        let at_tolerance: [Set; 6] = [
            |g| *mean(&mut g.violation_rate) = 0.02,
            |g| *mean(&mut g.pi_star_p95) = 4000.0 * (1.0 + 0.10) + 500.0,
            |g| *mean(&mut g.degraded_dwell_ms) = 250.0,
            |g| *mean(&mut g.sync_transitions) = 2.0,
            |g| *mean(&mut g.uncovered_failures) = 0.0,
            |g| *mean(&mut g.reconvergence_ms) = 50.0,
        ];
        for set in at_tolerance {
            assert_eq!(
                diff_lines(set),
                (DiffVerdict::Parity, vec![format!("ok       {g}")])
            );
        }
    }

    #[test]
    fn diff_flags_missing_groups() {
        let base = summarize(&records(4000, 1.0));
        let partial: Vec<RunRecord> = records(4000, 1.0)
            .into_iter()
            .filter(|r| r.coord.discipline == Some(SyncClockDiscipline::Feedback))
            .collect();
        let d = diff(&base, &summarize(&partial));
        assert_eq!(d.verdict, DiffVerdict::Incomparable);
        assert_eq!(d.verdict.exit_code(), 2);
    }
}
