//! Cross-seed summarization and baseline comparison of run artifacts.
//!
//! Runs are grouped by every grid coordinate except the seed; each
//! group's per-run scalars (mean/max/quantiles of Π*_s, bound-violation
//! rate, fault counters) are aggregated across seeds with
//! [`SampleSummary`]. The diff mode compares two summarized campaigns
//! group by group and classifies the result as parity or regression
//! with explicit tolerances.

use crate::artifact::RunRecord;
use crate::json::Json;
use crate::matrix::Coord;
use tsn_metrics::{SampleSummary, StreamingSummary};

/// Cross-seed aggregates of one grid point.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// The grid point, with the seed cleared: the unit of cross-seed
    /// grouping.
    pub key: Coord,
    /// Number of runs (seeds) aggregated.
    pub runs: usize,
    /// Per-run mean Π*_s, aggregated across seeds (ns).
    pub pi_star_mean: Option<SampleSummary>,
    /// Per-run median Π*_s across seeds (ns).
    pub pi_star_p50: Option<SampleSummary>,
    /// Per-run p95 of Π*_s across seeds (ns).
    pub pi_star_p95: Option<SampleSummary>,
    /// Per-run p99 of Π*_s across seeds (ns).
    pub pi_star_p99: Option<SampleSummary>,
    /// Per-run maximum Π*_s across seeds (ns).
    pub pi_star_max: Option<SampleSummary>,
    /// Per-run bound-violation rate (fraction outside Π + γ).
    pub violation_rate: Option<SampleSummary>,
    /// Injected fail-silent VM shutdowns per run.
    pub vm_failures: Option<SampleSummary>,
    /// Injected GM shutdowns per run.
    pub gm_failures: Option<SampleSummary>,
    /// Monitor takeovers per run.
    pub takeovers: Option<SampleSummary>,
    /// Degradation-machine edges (SyncState transitions) per run.
    pub sync_transitions: Option<SampleSummary>,
    /// Total Holdover + Freerun dwell per run (ms).
    pub degraded_dwell_ms: Option<SampleSummary>,
    /// Failures the monitor could not cover with a standby, per run.
    pub uncovered_failures: Option<SampleSummary>,
    /// Elected-GM changes (BMCA winner churn) per run.
    pub elected_gm_changes: Option<SampleSummary>,
    /// Kill-to-re-election latency per run (ms; 0 when no GM was
    /// killed).
    pub reconvergence_ms: Option<SampleSummary>,
    /// Frames delivered to a port with no handler per run.
    pub unhandled_frames: Option<SampleSummary>,
    /// Frames the fabric forwarded per run.
    pub fabric_forwarded: Option<SampleSummary>,
    /// Frames the fabric dropped (gate overruns) per run.
    pub fabric_dropped: Option<SampleSummary>,
    /// Worst per-frame switch residence per run (ns).
    pub max_residence_ns: Option<SampleSummary>,
    /// Accumulated forward/reverse path asymmetry per run (ns).
    pub path_asymmetry_ns: Option<SampleSummary>,
    /// Mean derived bound Π + γ across seeds (ns).
    pub bound_ns_mean: f64,
}

/// Number of per-run scalar metrics aggregated per group.
const METRIC_COUNT: usize = 19;

/// Extracts the per-run metric scalars, in the exact order of the
/// [`GroupSummary`] statistic fields (`pi_star_mean` … `path_asymmetry_ns`).
/// `None` slots (a run without a precision record) are simply not
/// pushed, matching the old `filter_map` collection.
fn metric_values(r: &RunRecord) -> [Option<f64>; METRIC_COUNT] {
    [
        r.precision_scalar(|p| p.mean_ns),
        r.precision_scalar(|p| p.p50_ns as f64),
        r.precision_scalar(|p| p.p95_ns as f64),
        r.precision_scalar(|p| p.p99_ns as f64),
        r.precision_scalar(|p| p.max_ns as f64),
        Some(r.violation_rate()),
        Some(r.counters.vm_failures as f64),
        Some(r.counters.gm_failures as f64),
        Some(r.counters.takeovers as f64),
        Some(r.counters.sync_transitions as f64),
        Some((r.counters.holdover_ns + r.counters.freerun_ns) as f64 / 1e6),
        Some(r.counters.uncovered_failures as f64),
        Some(r.counters.elected_gm_changes as f64),
        Some(r.counters.reconvergence_ns as f64 / 1e6),
        Some(r.counters.unhandled_frames as f64),
        Some(r.counters.fabric_frames_forwarded as f64),
        Some(r.counters.fabric_frames_dropped as f64),
        Some(r.counters.max_residence_ns as f64),
        Some(r.counters.path_asymmetry_ns as f64),
    ]
}

/// Bounded-memory accumulator for one group.
struct GroupAccum {
    runs: usize,
    bound_sum: f64,
    metrics: [StreamingSummary; METRIC_COUNT],
}

impl GroupAccum {
    fn new() -> GroupAccum {
        GroupAccum {
            runs: 0,
            bound_sum: 0.0,
            metrics: std::array::from_fn(|_| StreamingSummary::new()),
        }
    }
}

/// Streaming cross-seed summarizer: accepts run records one at a time
/// and holds memory proportional to the number of *groups* (grid points
/// minus the seed axis), not the number of records. Each metric is
/// tracked with [`StreamingSummary`], so groups small enough for the
/// old in-memory path ([`StreamingSummary::EXACT_CAP`] runs) summarize
/// byte-identically, and fleet-scale groups degrade to a bounded
/// sketch.
pub struct StreamSummarizer {
    // Vec keyed by linear search: groups stay in first-appearance
    // (canonical matrix) order, and campaigns have few groups.
    groups: Vec<(Coord, GroupAccum)>,
}

impl Default for StreamSummarizer {
    fn default() -> Self {
        StreamSummarizer::new()
    }
}

impl StreamSummarizer {
    /// An empty summarizer.
    pub fn new() -> StreamSummarizer {
        StreamSummarizer { groups: Vec::new() }
    }

    /// Folds one run record into its group.
    pub fn push(&mut self, r: &RunRecord) {
        let key = Coord { seed: 0, ..r.coord };
        let idx = match self.groups.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.groups.push((key, GroupAccum::new()));
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
            .map(|(key, accum)| {
                let f = |i: usize| accum.metrics[i].finalize();
                GroupSummary {
                    key,
                    runs: accum.runs,
                    pi_star_mean: f(0),
                    pi_star_p50: f(1),
                    pi_star_p95: f(2),
                    pi_star_p99: f(3),
                    pi_star_max: f(4),
                    violation_rate: f(5),
                    vm_failures: f(6),
                    gm_failures: f(7),
                    takeovers: f(8),
                    sync_transitions: f(9),
                    degraded_dwell_ms: f(10),
                    uncovered_failures: f(11),
                    elected_gm_changes: f(12),
                    reconvergence_ms: f(13),
                    unhandled_frames: f(14),
                    fabric_forwarded: f(15),
                    fabric_dropped: f(16),
                    max_residence_ns: f(17),
                    path_asymmetry_ns: f(18),
                    bound_ns_mean: accum.bound_sum / accum.runs as f64,
                }
            })
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
                Json::object(vec![
                    ("group", Json::Str(g.key.group_label())),
                    ("runs", Json::UInt(g.runs as u64)),
                    ("bound_ns_mean", Json::Float(g.bound_ns_mean)),
                    ("pi_star_mean_ns", stat(&g.pi_star_mean)),
                    ("pi_star_p50_ns", stat(&g.pi_star_p50)),
                    ("pi_star_p95_ns", stat(&g.pi_star_p95)),
                    ("pi_star_p99_ns", stat(&g.pi_star_p99)),
                    ("pi_star_max_ns", stat(&g.pi_star_max)),
                    ("violation_rate", stat(&g.violation_rate)),
                    ("vm_failures", stat(&g.vm_failures)),
                    ("gm_failures", stat(&g.gm_failures)),
                    ("takeovers", stat(&g.takeovers)),
                    ("sync_transitions", stat(&g.sync_transitions)),
                    ("degraded_dwell_ms", stat(&g.degraded_dwell_ms)),
                    ("uncovered_failures", stat(&g.uncovered_failures)),
                    ("elected_gm_changes", stat(&g.elected_gm_changes)),
                    ("reconvergence_ms", stat(&g.reconvergence_ms)),
                    ("unhandled_frames", stat(&g.unhandled_frames)),
                    ("fabric_forwarded", stat(&g.fabric_forwarded)),
                    ("fabric_dropped", stat(&g.fabric_dropped)),
                    ("max_residence_ns", stat(&g.max_residence_ns)),
                    ("path_asymmetry_ns", stat(&g.path_asymmetry_ns)),
                ])
            })
            .collect(),
    )
    .render()
}

/// Diff tolerances (a campaign is stochastic; exact equality across
/// code changes is not the bar — staying within these margins is).
#[derive(Debug, Clone, Copy)]
pub struct DiffTolerance {
    /// Absolute slack on the mean violation rate (default 0.02).
    pub violation_abs: f64,
    /// Relative slack on the mean per-run p95 of Π*_s (default 10%).
    pub p95_rel: f64,
    /// Absolute slack on the same (default 500 ns), so near-zero
    /// baselines don't flag noise.
    pub p95_abs_ns: f64,
    /// Absolute slack on the mean degraded dwell per run, in ms
    /// (default 250 ms): sub-interval jitter in when a holdover entry
    /// or re-acquisition lands is noise, not a regression.
    pub dwell_ms_abs: f64,
    /// Absolute slack on the mean degradation edges per run (default 2,
    /// one extra Holdover ⇄ Synchronized bounce).
    pub transitions_abs: f64,
    /// Absolute slack on the mean uncovered failures per run
    /// (default 0: any new uncovered window is a regression).
    pub uncovered_abs: f64,
    /// Absolute slack on the mean kill-to-re-election latency per run,
    /// in ns (default 50 ms): a slower BMCA reconvergence beyond this
    /// is a regression even when precision stats look fine.
    pub reconvergence_abs_ns: f64,
}

impl Default for DiffTolerance {
    fn default() -> Self {
        DiffTolerance {
            violation_abs: 0.02,
            p95_rel: 0.10,
            p95_abs_ns: 500.0,
            dwell_ms_abs: 250.0,
            transitions_abs: 2.0,
            uncovered_abs: 0.0,
            reconvergence_abs_ns: 50_000_000.0,
        }
    }
}

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
/// the candidate; each group's violation rate and p95 are checked
/// against `tol`.
pub fn diff(
    baseline: &[GroupSummary],
    candidate: &[GroupSummary],
    tol: DiffTolerance,
) -> DiffReport {
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
        let mut worst: Option<String> = None;
        if let (Some(bv), Some(cv)) = (&b.violation_rate, &c.violation_rate) {
            if cv.mean > bv.mean + tol.violation_abs {
                worst = Some(format!(
                    "violation rate {:.4} -> {:.4} (tol +{:.4})",
                    bv.mean, cv.mean, tol.violation_abs
                ));
            }
        }
        if worst.is_none() {
            if let (Some(bp), Some(cp)) = (&b.pi_star_p95, &c.pi_star_p95) {
                let limit = bp.mean * (1.0 + tol.p95_rel) + tol.p95_abs_ns;
                if cp.mean > limit {
                    worst = Some(format!(
                        "Pi* p95 {:.0} ns -> {:.0} ns (limit {:.0} ns)",
                        bp.mean, cp.mean, limit
                    ));
                }
            }
        }
        if worst.is_none() {
            if let (Some(bd), Some(cd)) = (&b.degraded_dwell_ms, &c.degraded_dwell_ms) {
                if cd.mean > bd.mean + tol.dwell_ms_abs {
                    worst = Some(format!(
                        "degraded dwell {:.1} ms -> {:.1} ms (tol +{:.0} ms)",
                        bd.mean, cd.mean, tol.dwell_ms_abs
                    ));
                }
            }
        }
        if worst.is_none() {
            if let (Some(bt), Some(ct)) = (&b.sync_transitions, &c.sync_transitions) {
                if ct.mean > bt.mean + tol.transitions_abs {
                    worst = Some(format!(
                        "degradation edges {:.1} -> {:.1} (tol +{:.1})",
                        bt.mean, ct.mean, tol.transitions_abs
                    ));
                }
            }
        }
        if worst.is_none() {
            if let (Some(bu), Some(cu)) = (&b.uncovered_failures, &c.uncovered_failures) {
                if cu.mean > bu.mean + tol.uncovered_abs {
                    worst = Some(format!(
                        "uncovered failures {:.2} -> {:.2} (tol +{:.2})",
                        bu.mean, cu.mean, tol.uncovered_abs
                    ));
                }
            }
        }
        if worst.is_none() {
            if let (Some(br), Some(cr)) = (&b.reconvergence_ms, &c.reconvergence_ms) {
                if cr.mean * 1e6 > br.mean * 1e6 + tol.reconvergence_abs_ns {
                    worst = Some(format!(
                        "reconvergence {:.1} ms -> {:.1} ms (tol +{:.1} ms)",
                        br.mean,
                        cr.mean,
                        tol.reconvergence_abs_ns / 1e6
                    ));
                }
            }
        }
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
    }

    #[test]
    fn diff_detects_parity_and_regression() {
        let base = summarize(&records(4000, 1.0));
        // Slightly different but within tolerance.
        let ok = summarize(&records(4200, 0.99));
        let d = diff(&base, &ok, DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Parity);
        assert_eq!(d.verdict.exit_code(), 0);
        // p95 blowup → regression.
        let bad = summarize(&records(9000, 1.0));
        let d = diff(&base, &bad, DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert_eq!(d.verdict.exit_code(), 1);
        assert!(d.lines.iter().any(|l| l.starts_with("REGRESS")));
        // Violation-rate blowup → regression even with identical p95.
        let bad = summarize(&records(4000, 0.90));
        let d = diff(&base, &bad, DiffTolerance::default());
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
        let d = diff(&base, &summarize(&worse), DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("degraded dwell")));
        // A single new uncovered failure regresses at zero tolerance.
        let mut uncovered: Vec<RunRecord> = records(4000, 1.0);
        uncovered[0].counters.uncovered_failures = 1;
        let d = diff(&base, &summarize(&uncovered), DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("uncovered failures")));
        // Small dwell within tolerance stays parity.
        let mut ok: Vec<RunRecord> = records(4000, 1.0);
        for r in &mut ok {
            r.counters.holdover_ns = 100_000_000; // 100 ms < 250 ms slack
        }
        let d = diff(&base, &summarize(&ok), DiffTolerance::default());
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
        let d = diff(&base, &summarize(&slow), DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Regression);
        assert!(d.lines.iter().any(|l| l.contains("reconvergence")));
        // Within a loosened tolerance it is parity again (the
        // --tol-reconvergence-ns CLI path).
        let tol = DiffTolerance {
            reconvergence_abs_ns: 100_000_000.0,
            ..DiffTolerance::default()
        };
        let d = diff(&base, &summarize(&slow), tol);
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
    fn fleet_axes_group_and_render() {
        let mut recs = records(4000, 1.0);
        for r in &mut recs {
            r.coord.fleet_nodes = Some(1024);
            r.coord.fleet_topology = Some("fat-tree");
        }
        let groups = summarize(&recs);
        assert_eq!(groups.len(), 2, "fleet axes join the grouping key");
        assert!(groups[0].key.group_label().contains("fleet_n=1024"));
        assert!(groups[0].key.group_label().contains("fleet_topo=fat-tree"));
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

    #[test]
    fn diff_flags_missing_groups() {
        let base = summarize(&records(4000, 1.0));
        let partial: Vec<RunRecord> = records(4000, 1.0)
            .into_iter()
            .filter(|r| r.coord.discipline == Some(SyncClockDiscipline::Feedback))
            .collect();
        let d = diff(&base, &summarize(&partial), DiffTolerance::default());
        assert_eq!(d.verdict, DiffVerdict::Incomparable);
        assert_eq!(d.verdict.exit_code(), 2);
    }
}
