//! Cross-seed summarization, the paper's claims, and baseline
//! comparison of run artifacts.
//!
//! Runs are grouped by every grid coordinate except the seed; each
//! group's per-run scalars (mean/max/quantiles of Π*_s, bound-violation
//! rate, fault counters) are aggregated across seeds with
//! [`SampleSummary`]. The paper's claims ([`CLAIMS`]) are judged over
//! the runs in the paper's configuration. [`diff`] compares two
//! campaigns' per-run values ([`Samples`]) group by group and judges
//! every diffed metric by one rule: the 95 % Student-t interval of the
//! shift of its mean — paired by seed when both sides ran the same
//! seeds, Welch's otherwise — against the metric's floor, one column of
//! the `metrics!` table.

use crate::artifact::RunRecord;
use crate::json::Json;
use crate::matrix::Coord;
use clocksync::scenario::ScenarioKind::{self, *};
use clocksync::{FtaAccounting, TrimCounts};
use std::fmt;
use std::ops::RangeBounds;
use tsn_metrics::{nearest_rank, SampleSummary, StreamingSummary};
use tsn_time::Nanos;

/// The cross-seed metrics, declared once: each row is a
/// [`GroupSummary`] field, its `--json` key, its [`diff`] floor as a
/// function of the baseline mean `b` (`_`: not diffed) and the per-run
/// value it aggregates (`None` — a run without a precision record — is
/// not pushed). The table emits the struct, `metric_values`, the
/// `finish` mapping, the key list `render_json` loops over and
/// `FLOORS`; row order is the JSON key order and the diff's line order.
macro_rules! metrics {
    (@floor $key:literal $b:ident _) => { None };
    (@floor $key:literal $b:ident ($floor:expr)) => {
        Some(Floor { key: $key, text: stringify!($floor), at: |$b| $floor })
    };
    (@floor $key:literal $b:ident $floor:literal) => { metrics!(@floor $key $b ($floor)) };
    (|$r:ident, $b:ident| $( $(#[$doc:meta])* $field:ident $key:literal $floor:tt = $value:expr; )*) => {
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

        /// Each row's diff floor; `None` for a row that is not diffed.
        #[allow(unused_variables)]
        const FLOORS: [Option<Floor>; METRIC_COUNT] = [$(metrics!(@floor $key $b $floor)),*];
    };
}

metrics! { |r, b|
    /// Per-run mean Π*_s, aggregated across seeds (ns).
    pi_star_mean "pi_star_mean_ns" _ = r.precision_scalar(|p| p.mean_ns);
    /// Per-run median Π*_s across seeds (ns).
    pi_star_p50 "pi_star_p50_ns" _ = r.precision_scalar(|p| p.p50_ns as f64);
    /// Per-run p95 of Π*_s across seeds (ns).
    // Floor: 10 % of the baseline plus 500 ns, so near-zero baselines
    // don't flag noise.
    pi_star_p95 "pi_star_p95_ns" (500.0 + 0.10 * b) = r.precision_scalar(|p| p.p95_ns as f64);
    /// Per-run p99 of Π*_s across seeds (ns).
    pi_star_p99 "pi_star_p99_ns" _ = r.precision_scalar(|p| p.p99_ns as f64);
    /// Per-run maximum Π*_s across seeds (ns).
    pi_star_max "pi_star_max_ns" _ = r.precision_scalar(|p| p.max_ns as f64);
    /// Per-run bound-violation rate (fraction outside Π + γ).
    violation_rate "violation_rate" 0.02 = Some(r.violation_rate());
    /// Injected fail-silent VM shutdowns per run.
    vm_failures "vm_failures" _ = Some(r.counters.vm_failures as f64);
    /// Injected GM shutdowns per run.
    gm_failures "gm_failures" _ = Some(r.counters.gm_failures as f64);
    /// Monitor takeovers per run.
    takeovers "takeovers" _ = Some(r.counters.takeovers as f64);
    /// Degradation-machine edges (SyncState transitions) per run.
    // Floor: one extra Holdover ⇄ Synchronized bounce.
    sync_transitions "sync_transitions" 2.0 = Some(r.counters.sync_transitions as f64);
    /// Total Holdover + Freerun dwell per run (ms).
    // Floor: jitter in when a holdover starts or ends is noise.
    degraded_dwell_ms "degraded_dwell_ms" 250.0 =
        Some((r.counters.holdover_ns + r.counters.freerun_ns) as f64 / 1e6);
    /// Failures the monitor could not cover with a standby, per run.
    // Floor: any new uncovered window is a change.
    uncovered_failures "uncovered_failures" 0.0 = Some(r.counters.uncovered_failures as f64);
    /// Elected-GM changes (BMCA winner churn) per run.
    elected_gm_changes "elected_gm_changes" _ = Some(r.counters.elected_gm_changes as f64);
    /// Kill-to-re-election latency per run (ms; 0 when no GM was
    /// killed).
    // Floor: a re-election 50 ms slower is a change on its own.
    reconvergence_ms "reconvergence_ms" 50.0 = Some(r.counters.reconvergence_ns as f64 / 1e6);
    /// Frames delivered to a port with no handler per run.
    unhandled_frames "unhandled_frames" _ = Some(r.counters.unhandled_frames as f64);
    /// Frames the fabric forwarded per run.
    fabric_forwarded "fabric_forwarded" _ = Some(r.counters.fabric_frames_forwarded as f64);
    /// Frames the fabric dropped (gate overruns) per run.
    fabric_dropped "fabric_dropped" _ = Some(r.counters.fabric_frames_dropped as f64);
    /// Worst per-frame switch residence per run (ns).
    max_residence_ns "max_residence_ns" _ = Some(r.counters.max_residence_ns as f64);
    /// Accumulated forward/reverse path asymmetry per run (ns).
    path_asymmetry_ns "path_asymmetry_ns" _ = Some(r.counters.path_asymmetry_ns as f64);
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

/// One of the paper's claims: a row of [`CLAIMS`].
pub struct Claim {
    /// The name its line carries.
    pub name: &'static str,
    /// The scenarios whose runs it reads: n/a without one.
    pub scenarios: &'static [ScenarioKind],
    /// What it reads.
    pub metric: &'static str,
    /// What must hold.
    pub band: &'static str,
    /// Why, with the paper's section.
    pub reason: &'static str,
    judge: fn(&Evidence) -> (Option<bool>, String),
}

/// The paper's claims, declared once. Each reads the runs whose
/// coordinate sets no axis (the paper's configuration), and a run's
/// FTA accounting where the run was armed (`--check`, `figure`).
pub const CLAIMS: [Claim; 4] = [
    Claim {
        name: "paper-mean",
        scenarios: &[FaultInjection],
        metric: "per-run mean Π*, fault injection",
        band: "322 ns within the nearest-rank p5–p95 of the runs (n/a below 20 seeds)",
        reason: "§III-C, Fig. 4: 322 ± 421 ns is one run's mean ± σ, not a per-run bound",
        judge: paper_mean,
    },
    Claim {
        name: "within-bound",
        scenarios: &[Baseline, FaultInjection, CyberDiverseKernels],
        metric: "violation rate, baseline / fault injection / diverse kernels",
        band: "0 in every run",
        reason: "§III-A3, Eq. 3.2: with at most f faulty GMs every Π* stays within Π + γ",
        judge: within_bound,
    },
    Claim {
        name: "identical-loses-sync",
        scenarios: &[CyberIdenticalKernels],
        metric: "strikes, FTA accounting and max Π*, identical kernels",
        band: "both strikes land; strike 1's domain trimmed in every round until strike 2 and a compromised domain kept after it; max Π* > 2× the same seed's diverse run",
        reason: "§III-B, Fig. 3a: f = 1 masks one Byzantine GM and is overwhelmed by two",
        judge: identical_loses_sync,
    },
    Claim {
        name: "diverse-masked",
        scenarios: &[CyberDiverseKernels],
        metric: "strikes and FTA accounting, diverse kernels",
        band: "strike 1 lands and strike 2 fails; the compromised domain trimmed in every round after strike 1",
        reason: "§III-B, Fig. 3b: OS diversity stops the second exploit and the FTA masks the first",
        judge: diverse_masked,
    },
];

/// One claim's verdict on a campaign: `PASS`, `FAIL`, or `n/a` for a
/// campaign without the runs it reads.
#[derive(Debug, Clone)]
pub struct ClaimLine {
    /// The claim's name.
    pub name: &'static str,
    /// Whether it holds; `None` for n/a.
    pub holds: Option<bool>,
    /// What it measured, with the margin.
    pub detail: String,
}

impl fmt::Display for ClaimLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.holds {
            Some(true) => "PASS",
            Some(false) => "FAIL",
            None => "n/a",
        };
        write!(f, "{verdict} {}: {}", self.name, self.detail)
    }
}

/// A claim's runs: the paper-configuration runs of a campaign, each
/// with its FTA accounting if it was armed.
type Evidence<'a> = [(&'a RunRecord, Option<&'a FtaAccounting>)];

/// The runs of scenario `kind`.
fn of<'a>(e: &Evidence<'a>, kind: ScenarioKind) -> Vec<(&'a RunRecord, Option<&'a FtaAccounting>)> {
    e.iter()
        .copied()
        .filter(|(r, _)| r.coord.scenario == kind)
        .collect()
}

/// Judges every claim over `records`, reading a run's accounting from
/// `fta` by run hash. Empty when no record is in the paper's
/// configuration, so a sweep prints no claim lines.
pub fn judge_claims(records: &[RunRecord], fta: &[(String, FtaAccounting)]) -> Vec<ClaimLine> {
    let armed = |r: &RunRecord| fta.iter().find(|(h, _)| *h == r.hash).map(|(_, a)| a);
    let paper = records.iter().filter(|r| r.coord.sets_no_axis());
    let evidence: Vec<_> = paper.map(|r| (r, armed(r))).collect();
    if evidence.is_empty() {
        return Vec::new();
    }
    let judge = |c: &Claim| {
        let read = |k: &ScenarioKind| evidence.iter().any(|(r, _)| r.coord.scenario == *k);
        let (holds, detail) = match c.scenarios.iter().any(read) {
            true => (c.judge)(&evidence),
            false => {
                let names: Vec<&str> = c.scenarios.iter().map(|k| k.name()).collect();
                (None, format!("no {} run", names.join(" / ")))
            }
        };
        ClaimLine {
            name: c.name,
            holds,
            detail,
        }
    };
    CLAIMS.iter().map(judge).collect()
}

/// The claim lines as the commands print them, after the summary.
pub fn render_claims(lines: &[ClaimLine]) -> String {
    let body: String = lines.iter().map(|l| format!("  {l}\n")).collect();
    let head = "claims (paper configuration; EXPERIMENTS.md \"Paper claims\"):\n";
    if body.is_empty() {
        body
    } else {
        head.to_string() + &body
    }
}

fn max_ns(r: &RunRecord) -> i64 {
    r.precision.map_or(0, |p| p.max_ns)
}

fn strikes(r: &RunRecord) -> (u64, u64) {
    (r.counters.strikes_succeeded, r.counters.strikes_failed)
}

/// Whether every one of `runs` `did`, and the line `k/n runs what`.
fn all<T>(runs: &[T], what: &str, did: impl Fn(&T) -> bool) -> (bool, String) {
    let k = runs.iter().filter(|r| did(r)).count();
    (k == runs.len(), format!("{k}/{} runs {what}", runs.len()))
}

/// [`all`] over the runs armed with the FTA accounting.
fn accounted(runs: &Evidence, what: &str, did: impl Fn(&FtaAccounting) -> bool) -> (bool, String) {
    let armed: Vec<&FtaAccounting> = runs.iter().filter_map(|(_, a)| *a).collect();
    match armed.is_empty() {
        true => (
            true,
            "FTA accounting not recorded (armed by --check and figure)".into(),
        ),
        false => all(&armed, what, |a| did(a)),
    }
}

/// No round kept the compromised domains, and some trimmed them.
fn masked(c: TrimCounts) -> bool {
    c.kept == 0 && c.below_quorum == 0 && c.low + c.high > 0
}

fn paper_mean(e: &Evidence) -> (Option<bool>, String) {
    let runs = of(e, FaultInjection).into_iter();
    let mut means: Vec<f64> = runs
        .filter_map(|(r, _)| Some(r.precision?.mean_ns))
        .collect();
    let n = means.len();
    if n < 20 {
        return (
            None,
            format!("{n} fault_injection seed(s), the band needs 20"),
        );
    }
    means.sort_by(f64::total_cmp);
    let (lo, hi) = (nearest_rank(&means, 0.05), nearest_rank(&means, 0.95));
    let margin = (322.0 - lo).min(hi - 322.0);
    let line = format!("p5–p95 of {n} run means [{lo:.1}, {hi:.1}] ns, margin {margin:.1} ns");
    (Some(margin >= 0.0), line)
}

fn within_bound(e: &Evidence) -> (Option<bool>, String) {
    let kinds = CLAIMS[1].scenarios.iter();
    let runs: Vec<&RunRecord> = kinds.flat_map(|&k| of(e, k)).map(|r| r.0).collect();
    let ns = |pick: fn(&RunRecord) -> i64, worst: fn(i64, i64) -> i64| {
        Nanos::from_nanos(runs.iter().map(|r| pick(r)).reduce(worst).unwrap_or(0))
    };
    let worst = ns(max_ns, i64::max);
    let bound = ns(|r| r.bounds.pi_plus_gamma_ns, i64::min);
    let margin = ns(|r| r.bounds.pi_plus_gamma_ns - max_ns(r), i64::min);
    let (holds, line) = all(&runs, "within Π + γ", |r| r.violation_rate() == 0.0);
    let line = format!("{line}; worst max {worst}, least Π + γ {bound}, margin {margin}");
    (Some(holds), line)
}

fn identical_loses_sync(e: &Evidence) -> (Option<bool>, String) {
    let (runs, diverse) = (of(e, CyberIdenticalKernels), of(e, CyberDiverseKernels));
    let (landed, mut line) = all(&runs, "strike (2, 0)", |(r, _)| strikes(r) == (2, 0));
    let paired = runs.iter().filter_map(|(r, _)| {
        let (d, _) = diverse.iter().find(|(d, _)| d.coord.seed == r.coord.seed)?;
        Some(max_ns(r) as f64 / max_ns(d).max(1) as f64)
    });
    let (pairs, ratio) = paired.fold((0, f64::INFINITY), |(n, m), x| (n + 1, x.min(m)));
    let margin = ratio - 2.0;
    line += &format!(
        "; max Π* ≥ {ratio:.2}× the seed's diverse run's ({pairs} pairs, margin {margin:.2}×)"
    );
    let left = all(&runs, "leave Π + γ", |(r, _)| {
        max_ns(r) > r.bounds.pi_plus_gamma_ns
    });
    let in_flight: u64 = runs
        .iter()
        .filter_map(|(_, a)| Some((*a)?.compromised_rounds(1..=1).in_flight))
        .sum();
    let what = format!("trim strike 1's domain in every round to strike 2 ({in_flight} in flight) and keep one after");
    let (trims, account) = accounted(&runs, &what, |a| {
        a.strikes == 2 && masked(a.compromised_rounds(1..=1)) && a.compromised_rounds(2..).kept > 0
    });
    let holds = landed && ratio > 2.0 && trims;
    let kept = kept_rounds(&runs, 1..=1);
    (Some(holds), format!("{line}; {}; {account}{kept}", left.1))
}

fn diverse_masked(e: &Evidence) -> (Option<bool>, String) {
    let runs = of(e, CyberDiverseKernels);
    let (landed, line) = all(&runs, "strike (1, 1)", |(r, _)| strikes(r) == (1, 1));
    let after = runs
        .iter()
        .filter_map(|(_, a)| Some((*a)?.compromised_rounds(1..)));
    let (trimmed, in_flight) =
        after.fold((0, 0), |(t, f), c| (t + c.low + c.high, f + c.in_flight));
    let what = format!("trim the compromised domain in every round after strike 1 ({trimmed} trimmed, {in_flight} in flight)");
    let (masks, account) = accounted(&runs, &what, |a| {
        a.strikes >= 1 && masked(a.compromised_rounds(1..))
    });
    let kept = kept_rounds(&runs, 1..);
    (Some(landed && masks), format!("{line}; {account}{kept}"))
}

/// The first rounds of `phases` that kept a compromised domain, as
/// listed by each run's accounting, and how many more were listed.
fn kept_rounds(runs: &Evidence, phases: impl RangeBounds<usize>) -> String {
    let (mut out, mut listed) = (String::new(), 0);
    for (r, a) in runs.iter().filter_map(|&(r, a)| Some((r, a?))) {
        let kept = a.kept_compromised.iter().filter(|k| phases.contains(&k.0));
        for &(_, at, node, slot, domain) in kept {
            listed += 1;
            if listed <= FtaAccounting::LISTED {
                let run = &r.hash;
                out += &format!("; run {run} kept domain {domain} at {at} on node{node}.vm{slot}");
            }
        }
    }
    match listed.saturating_sub(FtaAccounting::LISTED) {
        0 => out,
        more => format!("{out}; {more} more listed"),
    }
}

/// A diffed metric's floor: the least shift of its cross-seed mean that
/// [`diff`] reports, as a function of the baseline mean `b`.
#[derive(Clone, Copy)]
pub struct Floor {
    /// The metric's `--json` key.
    pub key: &'static str,
    /// The floor as the `metrics!` table writes it.
    pub text: &'static str,
    at: fn(f64) -> f64,
}

/// The diffed rows of the `metrics!` table, with their indices, in row
/// order.
fn diffed() -> impl Iterator<Item = (usize, Floor)> {
    FLOORS
        .iter()
        .enumerate()
        .filter_map(|(i, f)| Some((i, (*f)?)))
}

/// The floors of the diffed metrics, in row order.
pub fn floors() -> impl Iterator<Item = Floor> {
    diffed().map(|(_, f)| f)
}

/// One side of a [`diff`]: per group, each diffed metric's per-run
/// values with their grid seeds. It keeps these scalars only, not the
/// records, so a campaign directory streams into it.
#[derive(Default)]
pub struct Samples {
    groups: Vec<(Coord, Vec<Column>)>,
}

/// One metric's per-run values in one group, each with its grid seed.
type Column = Vec<(u64, f64)>;

impl Samples {
    /// Folds one run record's diffed values into its group.
    pub fn push(&mut self, r: &RunRecord) {
        let key = Coord { seed: 0, ..r.coord };
        let idx = match self.groups.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.groups.push((key, vec![Vec::new(); diffed().count()]));
                self.groups.len() - 1
            }
        };
        let values = metric_values(r);
        for (column, (i, _)) in self.groups[idx].1.iter_mut().zip(diffed()) {
            column.extend(values[i].map(|v| (r.coord.seed, v)));
        }
    }
}

impl<'a> FromIterator<&'a RunRecord> for Samples {
    fn from_iter<I: IntoIterator<Item = &'a RunRecord>>(records: I) -> Samples {
        let mut samples = Samples::default();
        records.into_iter().for_each(|r| samples.push(r));
        samples
    }
}

/// Δ = mean(candidate) − mean(baseline) of one metric in one group, with
/// its 95 % two-sided Student-t interval `[lo, hi]`.
struct Shift {
    delta: f64,
    lo: f64,
    hi: f64,
    /// The baseline mean, which a floor may scale with.
    base: f64,
    /// `paired n=N` or `welch B/C` (the values on each side).
    pairing: String,
}

impl Shift {
    /// The interval is paired on the per-seed differences when both
    /// sides ran the same seeds (one spec on two builds: common random
    /// numbers), and Welch's otherwise. Its width uses the sample
    /// standard deviation; a side of one value has an unknown variance,
    /// so its interval is unbounded, and values that do not scatter give
    /// a zero-width one.
    fn of(b: &[(u64, f64)], c: &[(u64, f64)]) -> Shift {
        let ((mb, vb), (mc, vc)) = (
            moments(b.iter().map(|p| p.1)),
            moments(c.iter().map(|p| p.1)),
        );
        let (nb, nc) = (b.len() as f64, c.len() as f64);
        let twin = |s| c.iter().find(|p: &&(u64, f64)| p.0 == s).map(|p| p.1);
        let diffs: Option<Vec<f64>> = b.iter().map(|&(s, v)| Some(twin(s)? - v)).collect();
        let (se2, nu, pairing) = match diffs.filter(|_| b.len() == c.len()) {
            Some(d) => (
                moments(d.into_iter()).1 / nb,
                nb - 1.0,
                format!("paired n={}", b.len()),
            ),
            None => {
                let (sb, sc) = (vb / nb, vc / nc);
                let nu = (sb + sc).powi(2) / (sb * sb / (nb - 1.0) + sc * sc / (nc - 1.0));
                (sb + sc, nu, format!("welch {}/{}", b.len(), c.len()))
            }
        };
        // ν < 1, or NaN, only when a side has one value.
        let half = match se2 == 0.0 {
            true => 0.0,
            false if nu >= 1.0 => t975(nu) * se2.sqrt(),
            false => f64::INFINITY,
        };
        let delta = mc - mb;
        let (lo, hi) = (delta - half, delta + half);
        Shift {
            delta,
            lo,
            hi,
            base: mb,
            pairing,
        }
    }

    /// The one rule: `ok` unless Δ exceeds the floor; `REGRESS` when the
    /// interval's low end does too, `UNRESOLVED` when the interval
    /// reaches the floor. The low end is never above Δ.
    fn verdict(&self, floor: f64) -> DiffVerdict {
        match (self.delta > floor, self.lo > floor) {
            (false, _) => DiffVerdict::Parity,
            (true, true) => DiffVerdict::Regression,
            (true, false) => DiffVerdict::Unresolved,
        }
    }
}

/// Mean and sample variance (n − 1; NaN for one value).
fn moments(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = xs.clone().count() as f64;
    let mean = xs.clone().sum::<f64>() / n;
    (
        mean,
        xs.map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0),
    )
}

/// Student's t quantile t₀.₉₇₅(ν) for real ν ≥ 1, the factor of a 95 %
/// two-sided interval. With t = √ν·cot u the t density is ∝ sin^(ν−1) u
/// on (0, π/2], so t₀.₉₇₅ = √ν·cot u* where 5 % of that mass lies below
/// u*. The trapezoid rule integrates it in s = √(2u/π), which smooths
/// the u^(ν−1) edge for ν < 2: within 3·10⁻⁵ of the published table up
/// to ν = 120 and 3·10⁻⁴ at ν = 1000.
fn t975(nu: f64) -> f64 {
    const N: usize = 4096;
    let u = |s: f64| std::f64::consts::FRAC_PI_2 * s * s;
    let density = |i: usize| {
        let s = i as f64 / N as f64;
        u(s).sin().powf(nu - 1.0) * s
    };
    let cells: Vec<f64> = (0..N)
        .map(|i| (density(i) + density(i + 1)) / 2.0)
        .collect();
    let target = 0.05 * cells.iter().sum::<f64>();
    let mut below = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        if below + cell >= target {
            let s = (i as f64 + (target - below) / cell) / N as f64;
            return nu.sqrt() / u(s).tan();
        }
        below += cell;
    }
    unreachable!("5 % of the mass lies below π/2")
}

/// Verdict of a baseline comparison, in rising order of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffVerdict {
    /// No candidate mean exceeds the baseline's by more than its floor.
    Parity,
    /// A candidate mean exceeds the baseline's by more than its floor,
    /// but its interval reaches the floor: the seeds do not resolve it.
    Unresolved,
    /// The whole interval of a shift lies beyond its floor.
    Regression,
    /// The campaigns are not comparable (mismatched groups).
    Incomparable,
}

impl DiffVerdict {
    /// The CLI exit code: 0 parity, 1 regression, 2 error, 3 unresolved.
    pub fn exit_code(self) -> i32 {
        match self {
            DiffVerdict::Parity => 0,
            DiffVerdict::Regression => 1,
            DiffVerdict::Incomparable => 2,
            DiffVerdict::Unresolved => 3,
        }
    }
}

/// Result of comparing a candidate campaign against a baseline.
#[derive(Debug)]
pub struct DiffReport {
    /// Overall verdict: the most severe of its lines.
    pub verdict: DiffVerdict,
    /// One line per group and diffed metric (plus mismatch notes).
    pub lines: Vec<String>,
}

/// Compares two campaigns' per-run values: every baseline group must
/// exist in the candidate, and each diffed metric of each group is
/// judged by one rule ([`Shift::verdict`] at the metric's [`Floor`]).
pub fn diff(baseline: &Samples, candidate: &Samples) -> DiffReport {
    let mut lines = Vec::new();
    let mut verdict = DiffVerdict::Parity;
    for (key, b) in &baseline.groups {
        let group = key.group_label();
        let Some((_, c)) = candidate.groups.iter().find(|(k, _)| k == key) else {
            lines.push(format!("MISSING  {group}: group absent from candidate"));
            verdict = DiffVerdict::Incomparable;
            continue;
        };
        for ((b, c), (_, floor)) in b.iter().zip(c).zip(diffed()) {
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let shift = Shift::of(b, c);
            let tau = (floor.at)(shift.base);
            let judged = shift.verdict(tau);
            verdict = verdict.max(judged);
            let label = match judged {
                DiffVerdict::Parity => "ok",
                DiffVerdict::Unresolved => "UNRESOLVED",
                _ => "REGRESS",
            };
            let Shift {
                delta,
                lo,
                hi,
                pairing,
                ..
            } = shift;
            let key = floor.key;
            lines.push(format!(
                "{label:<8} {group}: {key} Δ {delta:.3} [{lo:.3}, {hi:.3}] ({pairing}), floor {tau:.3}"
            ));
        }
    }
    for (key, _) in &candidate.groups {
        if !baseline.groups.iter().any(|(k, _)| k == key) {
            let group = key.group_label();
            lines.push(format!(
                "extra    {group}: group absent from baseline (ignored)"
            ));
        }
    }
    if baseline.groups.is_empty() {
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
    use proptest::prelude::*;
    use proptest::rand::{rngs::StdRng, Rng, SeedableRng};
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

    /// `paper-mean` reads the fault-injection runs' mean Π*: n/a below
    /// 20 seeds, PASS while 322 ns lies within their nearest-rank
    /// p5–p95 and FAIL outside it; no claim reads a run that sets an
    /// axis.
    #[test]
    fn paper_mean_is_a_band_over_run_means() {
        let runs = |n: u64, lowest: f64| -> Vec<RunRecord> {
            let run = |seed| {
                let mut r = rec(seed, SyncClockDiscipline::Feedback, 600, 1.0);
                r.coord = Coord::new(ScenarioKind::FaultInjection, seed);
                r.precision.as_mut().expect("samples").mean_ns = lowest + 10.0 * seed as f64;
                r
            };
            (0..n).map(run).collect()
        };
        let paper_mean = |records: &[RunRecord]| judge_claims(records, &[])[0].to_string();
        // 30 means 300, 310, …, 590: p5 is the 2nd, p95 the 29th.
        assert_eq!(
            paper_mean(&runs(30, 300.0)),
            "PASS paper-mean: p5–p95 of 30 run means [310.0, 580.0] ns, margin 12.0 ns"
        );
        assert_eq!(
            paper_mean(&runs(30, 313.0)),
            "FAIL paper-mean: p5–p95 of 30 run means [323.0, 593.0] ns, margin -1.0 ns"
        );
        assert_eq!(
            paper_mean(&runs(19, 300.0)),
            "n/a paper-mean: 19 fault_injection seed(s), the band needs 20"
        );
        let mut swept = runs(30, 300.0);
        for r in &mut swept {
            r.coord.discipline = Some(SyncClockDiscipline::FeedForward);
        }
        assert!(judge_claims(&swept, &[]).is_empty());
    }

    /// The feedback group of `records(4000, 1.0)` — seeds 1–4, Π* p95
    /// 4000 ns, every other diffed value 0 — with `set` applied to each
    /// run.
    fn feedback(set: impl Fn(&mut RunRecord)) -> Samples {
        let mut runs = records(4000, 1.0);
        runs.retain(|r| r.coord.discipline == Some(SyncClockDiscipline::Feedback));
        runs.iter_mut().for_each(set);
        runs.iter().collect()
    }

    /// The verdict of the feedback group against `set` applied to it,
    /// and its lines that are not `ok`.
    fn judged(set: impl Fn(&mut RunRecord)) -> (DiffVerdict, Vec<String>) {
        let d = diff(&feedback(|_| {}), &feedback(set));
        let flagged = d.lines.into_iter().filter(|l| !l.starts_with("ok"));
        (d.verdict, flagged.collect())
    }

    fn p95(r: &mut RunRecord) -> &mut i64 {
        &mut r.precision.as_mut().expect("samples").p95_ns
    }

    #[test]
    fn diff_detects_parity_and_regression() {
        let base: Samples = records(4000, 1.0).iter().collect();
        // Slightly different but within the floors.
        let d = diff(&base, &records(4200, 0.99).iter().collect());
        assert_eq!((d.verdict, d.verdict.exit_code()), (DiffVerdict::Parity, 0));
        // p95 blowup in every seed → regression.
        let d = diff(&base, &records(9000, 1.0).iter().collect());
        assert_eq!(
            (d.verdict, d.verdict.exit_code()),
            (DiffVerdict::Regression, 1)
        );
        assert!(d.lines.iter().any(|l| l.starts_with("REGRESS")));
        // Violation-rate blowup → regression even with identical p95.
        let d = diff(&base, &records(4000, 0.90).iter().collect());
        assert_eq!(d.verdict, DiffVerdict::Regression);
    }

    #[test]
    fn diff_flags_degradation_regressions() {
        // Longer degraded dwell in every seed beyond its floor →
        // regression.
        let (verdict, lines) = judged(|r| {
            r.counters.sync_transitions = 3;
            r.counters.holdover_ns = 400_000_000; // 400 ms
        });
        assert_eq!(verdict, DiffVerdict::Regression);
        assert!(lines.iter().any(|l| l.contains("degraded_dwell_ms")));
        // One new uncovered failure in four seeds moves the mean past its
        // zero floor, but the seeds do not resolve it.
        let (verdict, lines) =
            judged(|r| r.counters.uncovered_failures = u64::from(r.coord.seed == 1));
        assert_eq!((verdict, verdict.exit_code()), (DiffVerdict::Unresolved, 3));
        assert_eq!(
            lines,
            ["UNRESOLVED baseline feedback: uncovered_failures Δ 0.250 [-0.546, 1.046] (paired n=4), floor 0.000"]
        );
        // Small dwell within the floor stays parity.
        let (verdict, _) = judged(|r| r.counters.holdover_ns = 100_000_000);
        assert_eq!(verdict, DiffVerdict::Parity);
    }

    #[test]
    fn diff_flags_reconvergence_regressions() {
        // A re-election 80 ms slower than baseline exceeds the 50 ms
        // floor.
        let (verdict, lines) = judged(|r| r.counters.reconvergence_ns = 80_000_000);
        assert_eq!(verdict, DiffVerdict::Regression);
        assert!(lines.iter().any(|l| l.contains("reconvergence_ms")));
        // 40 ms slower stays within it.
        let (verdict, _) = judged(|r| r.counters.reconvergence_ns = 40_000_000);
        assert_eq!(verdict, DiffVerdict::Parity);
    }

    /// One line per group and diffed metric, in table order, each in the
    /// one format; and every floor: a shift up to it is `ok`, one beyond
    /// it that every seed shows is `REGRESS`.
    #[test]
    fn diff_pins_one_line_format_and_every_floor() {
        let d = diff(&feedback(|_| {}), &feedback(|r| *p95(r) = 5000));
        let g = "baseline feedback";
        let zero = "Δ 0.000 [0.000, 0.000] (paired n=4)";
        assert_eq!(
            d.lines,
            [
                format!("REGRESS  {g}: pi_star_p95_ns Δ 1000.000 [1000.000, 1000.000] (paired n=4), floor 900.000"),
                format!("ok       {g}: violation_rate {zero}, floor 0.020"),
                format!("ok       {g}: sync_transitions {zero}, floor 2.000"),
                format!("ok       {g}: degraded_dwell_ms {zero}, floor 250.000"),
                format!("ok       {g}: uncovered_failures {zero}, floor 0.000"),
                format!("ok       {g}: reconvergence_ms {zero}, floor 50.000"),
            ]
        );
        type Set = fn(&mut RunRecord);
        let within: [Set; 6] = [
            |r| *p95(r) = 4900,
            |r| r.fraction_within_bound = 0.985,
            |r| r.counters.sync_transitions = 2,
            |r| r.counters.holdover_ns = 250_000_000,
            |r| r.counters.uncovered_failures = 0,
            |r| r.counters.reconvergence_ns = 50_000_000,
        ];
        for set in within {
            assert_eq!(judged(set), (DiffVerdict::Parity, vec![]));
        }
        let beyond: [(Set, &str); 6] = [
            (
                |r| *p95(r) = 4901,
                "pi_star_p95_ns Δ 901.000 [901.000, 901.000] (paired n=4), floor 900.000",
            ),
            (
                |r| r.fraction_within_bound = 0.97,
                "violation_rate Δ 0.030 [0.030, 0.030] (paired n=4), floor 0.020",
            ),
            (
                |r| r.counters.sync_transitions = 3,
                "sync_transitions Δ 3.000 [3.000, 3.000] (paired n=4), floor 2.000",
            ),
            (
                |r| r.counters.holdover_ns = 250_500_000,
                "degraded_dwell_ms Δ 250.500 [250.500, 250.500] (paired n=4), floor 250.000",
            ),
            (
                |r| r.counters.uncovered_failures = 1,
                "uncovered_failures Δ 1.000 [1.000, 1.000] (paired n=4), floor 0.000",
            ),
            (
                |r| r.counters.reconvergence_ns = 50_250_000,
                "reconvergence_ms Δ 50.250 [50.250, 50.250] (paired n=4), floor 50.000",
            ),
        ];
        for (set, line) in beyond {
            let regress = format!("REGRESS  {g}: {line}");
            assert_eq!(judged(set), (DiffVerdict::Regression, vec![regress]));
        }
    }

    /// Values that scatter across seeds still diff against themselves
    /// with zero-width paired intervals.
    #[test]
    fn a_campaign_diffed_against_itself_is_ok_with_zero_width_intervals() {
        let mut runs = records(4000, 1.0);
        for r in &mut runs {
            *p95(r) += 37 * r.coord.seed as i64;
            r.counters.holdover_ns = r.coord.seed * 1_234_567;
        }
        let samples: Samples = runs.iter().collect();
        let d = diff(&samples, &samples);
        assert_eq!(d.verdict, DiffVerdict::Parity);
        assert_eq!(d.lines.len(), 2 * floors().count());
        for line in &d.lines {
            assert!(line.starts_with("ok       "), "{line}");
            assert!(
                line.contains(" Δ 0.000 [0.000, 0.000] (paired n=4)"),
                "{line}"
            );
        }
    }

    /// One seed leaves the variance unknown: the interval is unbounded,
    /// so a shift beyond the floor is `UNRESOLVED`, paired or not.
    #[test]
    fn a_one_seed_group_is_never_regress() {
        let one = |seed: u64, p95: i64| -> Samples {
            records(p95, 1.0)
                .iter()
                .filter(|r| r.coord.seed == seed)
                .collect()
        };
        for (candidate, pairing) in [(1, "paired n=1"), (2, "welch 1/1")] {
            let d = diff(&one(1, 4000), &one(candidate, 90_000));
            assert_eq!(d.verdict, DiffVerdict::Unresolved);
            assert_eq!(
                d.lines[0],
                format!("UNRESOLVED baseline feedback: pi_star_p95_ns Δ 86000.000 [-inf, inf] ({pairing}), floor 900.000")
            );
        }
    }

    /// t₀.₉₇₅(ν) against the published table, falling towards the
    /// normal quantile 1.960.
    #[test]
    fn t975_matches_the_published_table() {
        let table = [
            (1.0, 12.706),
            (2.0, 4.303),
            (3.0, 3.182),
            (4.0, 2.776),
            (7.0, 2.365),
            (10.0, 2.228),
            (29.0, 2.045),
            (30.0, 2.042),
            (120.0, 1.980),
            (1000.0, 1.962),
        ];
        for (nu, t) in table {
            assert!((t975(nu) - t).abs() <= 0.002, "t975({nu}) = {}", t975(nu));
        }
        let falling = [1.0, 1.5, 2.5, 30.0, 120.0, 1000.0].map(t975);
        assert!(falling.windows(2).all(|w| w[0] > w[1]), "{falling:?}");
        assert!(falling[5] - 1.960 < 0.003, "{falling:?}");
    }

    /// The Welch interval's degrees of freedom, worked by hand.
    #[test]
    fn the_welch_interval_takes_satterthwaites_degrees_of_freedom() {
        // Baseline mean 2, s² 1 (n 3); candidate mean 5, s² 20/3 (n 4):
        // s²/n is 1/3 and 5/3, so se² = 2 and
        // ν = 2² / ((1/3)²/2 + (5/3)²/3) = 216/53 ≈ 4.075.
        let b = [(1, 1.0), (2, 2.0), (3, 3.0)];
        let c = [(11, 2.0), (12, 4.0), (13, 6.0), (14, 8.0)];
        let s = Shift::of(&b, &c);
        assert_eq!(
            (s.delta, s.base, s.pairing.as_str()),
            (3.0, 2.0, "welch 3/4")
        );
        let t = t975(216.0 / 53.0);
        assert!((t - 2.756).abs() <= 0.002, "{t}");
        let half = t * 2f64.sqrt();
        assert!((s.hi - 3.0 - half).abs() < 1e-9 && (3.0 - s.lo - half).abs() < 1e-9);
    }

    /// No scatter, paired or not, gives a zero-width interval, not NaN.
    #[test]
    fn values_that_do_not_scatter_give_a_zero_width_interval() {
        let fives = [(1, 5.0), (2, 5.0), (3, 5.0)];
        let welch = Shift::of(&fives, &[(7, 5.0), (8, 5.0)]);
        assert_eq!((welch.lo, welch.delta, welch.hi), (0.0, 0.0, 0.0));
        assert_eq!(welch.pairing, "welch 3/2");
        // The same seeds in another order pair up: every difference is 2.
        let paired = Shift::of(
            &[(1, 1.0), (2, 2.0), (3, 3.0)],
            &[(3, 5.0), (1, 3.0), (2, 4.0)],
        );
        assert_eq!((paired.lo, paired.delta, paired.hi), (2.0, 2.0, 2.0));
        assert_eq!(paired.pairing, "paired n=3");
    }

    /// The rule `diff` applied before its intervals — six fixed
    /// tolerances on the cross-seed means `b` and `c` — kept here only
    /// as the reference its verdicts must cover.
    fn old_mean_rule(key: &str, b: f64, c: f64) -> bool {
        match key {
            "violation_rate" => c > b + 0.02,
            "pi_star_p95_ns" => c > b * (1.0 + 0.10) + 500.0,
            "degraded_dwell_ms" => c > b + 250.0,
            "sync_transitions" => c > b + 2.0,
            "uncovered_failures" => c > b + 0.0,
            "reconvergence_ms" => c * 1e6 > b * 1e6 + 50_000_000.0,
            other => panic!("{other} was not diffed"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Over random pairs of per-seed samples, paired and not, with n
        /// from 1 to 30 a side: the old mean rule says REGRESS exactly
        /// when the interval rule says REGRESS or UNRESOLVED, and the low
        /// end is never above Δ.
        #[test]
        fn the_interval_rule_flags_exactly_what_the_mean_rule_flagged(
            seed in any::<u64>(),
            (nb, nc, paired) in (1u64..31, 1u64..31, any::<bool>()),
            (level, noise, shift) in (0.0..5000.0f64, 0.0..3.0f64, -1.0..3.0f64),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for floor in floors() {
                let unit = Some((floor.at)(level)).filter(|&t| t > 0.0).unwrap_or(1.0);
                let mut draw = |at: f64| at + noise * unit * rng.gen_range(-1.0..1.0);
                let b: Vec<(u64, f64)> = (0..nb).map(|s| (s, draw(level))).collect();
                let c: Vec<(u64, f64)> = match paired {
                    true => b.iter().map(|&(s, v)| (s, draw(v + shift * unit))).collect(),
                    false => (0..nc).map(|s| (100 + s, draw(level + shift * unit))).collect(),
                };
                let mean = |x: &[(u64, f64)]| moments(x.iter().map(|p| p.1)).0;
                let (mb, mc) = (mean(&b), mean(&c));
                let s = Shift::of(&b, &c);
                let flagged = s.verdict((floor.at)(mb)) != DiffVerdict::Parity;
                prop_assert_eq!(flagged, old_mean_rule(floor.key, mb, mc));
                prop_assert!(s.lo <= s.delta);
            }
        }
    }

    #[test]
    fn diff_flags_missing_groups() {
        let base: Samples = records(4000, 1.0).iter().collect();
        let feedback = |r: &&RunRecord| r.coord.discipline == Some(SyncClockDiscipline::Feedback);
        let partial: Samples = records(4000, 1.0).iter().filter(feedback).collect();
        let d = diff(&base, &partial);
        assert_eq!(d.verdict, DiffVerdict::Incomparable);
        assert_eq!(d.verdict.exit_code(), 2);
    }
}
