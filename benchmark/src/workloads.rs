//! The six workloads: what each builds from the seed, what one
//! execution runs, and what must be true of its output.
//!
//! Load model: closed loop, one client, one execution in flight; the
//! timed region of every workload is single-threaded (campaigns run
//! with `threads = 1`). The program under test receives only the
//! generated configurations, specs and records — never the seed's
//! meaning. README.md records why each workload exists and which layer
//! it stresses.

use crate::spans::Spans;
use crate::stats;
use clocksync::election::ElectionConfig;
use clocksync::fabric::FabricConfig;
use clocksync::scenario::ScenarioKind;
use clocksync::time::{Nanos, SimTime};
use clocksync::trace::TraceReport;
use clocksync::{RunCounters, TestbedConfig, World};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tsn_campaign::{runner, summary, CampaignSpec, RunRecord, RunRecordReader, RunnerOptions};
use tsn_campaign::{CampaignReport, StreamSummarizer};
use tsn_snapshot::fnv1a64;

/// The paper's reported average precision, 322 ± 421 ns: the accuracy
/// reference the run's own mean is printed beside. Not a check — the
/// mean depends on the seed's oscillator and link draws (254–986 ns
/// over 150 seeds, 8 % of them above 322 + 421), and no seed may fail.
pub const PAPER_MEAN_NS: f64 = 322.0;

const REPRO_SPEC: &str = include_str!("../specs/campaign_repro.json");
pub const FORK_SPEC: &str = include_str!("../specs/campaign_fork_sweep.json");

/// Records `summarize_20k` streams, and how many of them the warm-up
/// execution reads (a tenth, so encode stays about half of set-up).
const SUMMARIZE_RECORDS: usize = 20_000;
const SUMMARIZE_WARMUP_RECORDS: usize = 2_000;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FaultInjection,
    ElectionFailover,
    FabricTc,
    CampaignRepro,
    CampaignForkSweep,
    Summarize,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::FaultInjection,
        Workload::ElectionFailover,
        Workload::FabricTc,
        Workload::CampaignRepro,
        Workload::CampaignForkSweep,
        Workload::Summarize,
    ];

    /// The name `BENCHMARK.json` and `--workload` use. Simulated
    /// lengths are part of the name: a resized workload is a new one.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultInjection => "fault_injection_1h",
            Workload::ElectionFailover => "election_failover_30min",
            Workload::FabricTc => "fabric_tc_depth6_40min",
            Workload::CampaignRepro => "campaign_repro_33min",
            Workload::CampaignForkSweep => "campaign_fork_sweep",
            Workload::Summarize => "summarize_20k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the campaign that runs with `fork = true`.
    pub fn forks(self) -> bool {
        self == Workload::CampaignForkSweep
    }

    /// `true` for the three workloads that are one `World` run.
    pub fn is_world(self) -> bool {
        matches!(
            self,
            Workload::FaultInjection | Workload::ElectionFailover | Workload::FabricTc
        )
    }
}

/// What set-up hands to the executions of one workload.
pub enum Inputs {
    World {
        workload: Workload,
        cfg: Box<TestbedConfig>,
    },
    Campaign {
        workload: Workload,
        /// The spec document the program parses, seeds filled in.
        spec_text: String,
        /// Simulated seconds the spec requests (Σ warm-up + duration).
        sim_s: f64,
        /// Each execution writes into a fresh directory under here.
        root: PathBuf,
    },
    Summarize {
        file: PathBuf,
        records: usize,
        /// Simulated seconds one template record stands for.
        sim_s_per_record: f64,
    },
}

/// How one execution is observed. Timed executions use
/// [`Observe::plain`]; only the traced run turns anything on.
pub struct Observe {
    pub spans: Spans,
    /// Arm `World::enable_trace_capped(0)`: exact pop and activity
    /// counts at flat memory.
    pub world_trace: bool,
    /// Arm the invariant oracle.
    pub oracle: bool,
    /// `run_until` calls the measured duration is cut into.
    pub slices: u32,
    /// Read only this many records (`summarize` warm-up).
    pub record_limit: Option<usize>,
    /// Leave the campaign directory in place and name it in
    /// [`Outcome::dir`] (the traced run inspects it afterwards).
    pub keep_dir: bool,
}

impl Observe {
    pub fn plain() -> Observe {
        Observe {
            spans: Spans::off(),
            world_trace: false,
            oracle: false,
            slices: 1,
            record_limit: None,
            keep_dir: false,
        }
    }
}

/// The result of one execution.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Simulated seconds requested of the program.
    pub sim_s: f64,
    /// Operations attempted (simulation runs, or records).
    pub attempted: u64,
    /// Operations that failed (panicked run, undecodable artifact or
    /// record, failed output check).
    pub failed: u64,
    /// Events + state hash, or the artifact digest, folded into one
    /// word. Must repeat exactly from rep to rep.
    pub identity: u64,
    /// The exact-compare fields, printed but not metrics.
    pub info: String,
    pub precision_mean_ns: f64,
    pub within_bound_fraction: f64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    pub events: u64,
    pub counters: RunCounters,
    pub trace: Option<TraceReport>,
    pub campaign: Option<CampaignCounts>,
    /// The campaign directory, when [`Observe::keep_dir`] asked for it.
    pub dir: Option<PathBuf>,
}

/// The `CampaignReport` fields the layer table uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignCounts {
    pub forked_groups: usize,
    pub prefix_events_skipped: u64,
}

/// Builds the inputs of `workload` from `seed`. `scratch` is a
/// directory of this process's own.
pub fn setup(workload: Workload, seed: u64, scratch: &Path) -> Result<Inputs, String> {
    match workload {
        Workload::FaultInjection => {
            let mut cfg = TestbedConfig::paper_default(seed);
            cfg.duration = Nanos::from_secs(3600);
            ScenarioKind::FaultInjection.apply(&mut cfg);
            Ok(Inputs::World {
                workload,
                cfg: Box::new(cfg),
            })
        }
        Workload::ElectionFailover => {
            let mut cfg = TestbedConfig::paper_default(seed);
            cfg.duration = Nanos::from_secs(30 * 60);
            cfg.election = Some(ElectionConfig {
                gm_failure_at: Some(Nanos::from_secs(8)),
                gm_failure_node: 0,
                ..Default::default()
            });
            Ok(Inputs::World {
                workload,
                cfg: Box::new(cfg),
            })
        }
        Workload::FabricTc => {
            let mut cfg = TestbedConfig::paper_default(seed);
            cfg.duration = Nanos::from_secs(40 * 60);
            cfg.fabric = Some(FabricConfig {
                transparent_clock: true,
                cross_traffic_load: 0.3,
                ..FabricConfig::line(6)
            });
            Ok(Inputs::World {
                workload,
                cfg: Box::new(cfg),
            })
        }
        Workload::CampaignRepro => campaign_inputs(workload, REPRO_SPEC, vec![seed], scratch),
        Workload::CampaignForkSweep => campaign_inputs(
            workload,
            FORK_SPEC,
            (0..3).map(|i| seed.wrapping_add(i)).collect(),
            scratch,
        ),
        Workload::Summarize => summarize_inputs(seed, scratch),
    }
}

fn campaign_inputs(
    workload: Workload,
    template: &str,
    seeds: Vec<u64>,
    scratch: &Path,
) -> Result<Inputs, String> {
    let mut spec = CampaignSpec::parse(template).map_err(|e| format!("spec template: {e}"))?;
    spec.grid.seeds = seeds;
    let cfg = spec.base.materialize(0);
    let sim_s = spec.total_runs() as f64 * (cfg.warmup + cfg.duration).as_secs_f64();
    Ok(Inputs::Campaign {
        workload,
        spec_text: spec.render(),
        sim_s,
        root: scratch.to_path_buf(),
    })
}

/// SplitMix64 step: the record synthesizer's only randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Runs the `quick-baseline` builtin once (seeds made from `seed`) for
/// 16 real template records, then writes `SUMMARIZE_RECORDS` variations
/// of them (seed, hash and p95 varied) into one JSONL file.
fn summarize_inputs(seed: u64, scratch: &Path) -> Result<Inputs, String> {
    let mut spec = CampaignSpec::builtin("quick-baseline").expect("builtin exists");
    spec.grid.seeds = (0..8).map(|i| seed.wrapping_add(i)).collect();
    let mut opts = RunnerOptions::new(scratch.join("templates"));
    opts.threads = 1;
    opts.quiet = true;
    let report = runner::execute(&spec, &opts).map_err(|e| format!("template campaign: {e}"))?;
    if !report.failed.is_empty() || report.records.is_empty() {
        return Err("template campaign produced no usable records".to_string());
    }
    let cfg = spec.base.materialize(0);
    let file = scratch.join("records.jsonl");
    let out = std::fs::File::create(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut out = BufWriter::new(out);
    let mut state = seed;
    for i in 0..SUMMARIZE_RECORDS {
        let mut r = report.records[i % report.records.len()].clone();
        let mix = splitmix(&mut state);
        r.coord.seed = i as u64;
        r.seed = mix;
        r.hash = format!("{mix:016x}");
        if let Some(p) = r.precision.as_mut() {
            p.p95_ns += (mix % 977) as i64;
        }
        r.encode_to(&mut out).map_err(|e| format!("encode: {e}"))?;
    }
    out.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(Inputs::Summarize {
        file,
        records: SUMMARIZE_RECORDS,
        sim_s_per_record: (cfg.warmup + cfg.duration).as_secs_f64(),
    })
}

impl Inputs {
    /// The warm-up execution: the same as a timed one, except that
    /// `summarize` reads only its first records.
    pub fn warm_up(&self) -> Result<Outcome, String> {
        let mut obs = Observe::plain();
        if matches!(self, Inputs::Summarize { .. }) {
            obs.record_limit = Some(SUMMARIZE_WARMUP_RECORDS);
        }
        self.execute(&mut obs)
    }

    /// Runs the workload once under `obs`.
    pub fn execute(&self, obs: &mut Observe) -> Result<Outcome, String> {
        match self {
            Inputs::World { workload, cfg } => Ok(run_world(*workload, cfg, obs)),
            Inputs::Campaign {
                workload,
                spec_text,
                sim_s,
                root,
            } => run_campaign(*workload, spec_text, *sim_s, root, obs),
            Inputs::Summarize {
                file,
                records,
                sim_s_per_record,
            } => run_summarize(file, *records, *sim_s_per_record, obs),
        }
    }
}

/// One `World` run: `World::new` → `run_until` → `into_result` →
/// `series.stats()`. Reading `events_processed` and `state_hash` for
/// the identity check happens with the clock stopped.
fn run_world(workload: Workload, cfg: &TestbedConfig, obs: &mut Observe) -> Outcome {
    let start = Instant::now();
    let s = obs.spans.begin("core.world_new");
    let mut world = World::new(cfg.clone());
    obs.spans.end(s);
    if obs.world_trace {
        world.enable_trace_capped(0);
    }
    if obs.oracle {
        world.enable_oracle();
    }
    let measured_from = SimTime::ZERO + cfg.warmup;
    let s = obs.spans.begin("core.run_until.warmup");
    world.run_until(measured_from);
    obs.spans.end(s);
    let slices = i64::from(obs.slices.max(1));
    for k in 1..=slices {
        let s = obs.spans.begin(&format!("core.run_until.slice_{k}"));
        world.run_until(measured_from + cfg.duration * k / slices);
        obs.spans.end(s);
    }
    let mut wall = start.elapsed();

    let events = world.events_processed();
    let state_hash = world.state_hash();

    let resumed = Instant::now();
    let s = obs.spans.begin("core.into_result");
    let result = world.into_result();
    obs.spans.end(s);
    let s = obs.spans.begin("metrics.stats");
    let stats = result.series.stats();
    let bound = result.bounds.pi_plus_gamma();
    let within = result.series.fraction_within(bound);
    obs.spans.end(s);
    wall += resumed.elapsed();

    let mut out = Outcome {
        wall_s: wall.as_secs_f64(),
        sim_s: (cfg.warmup + cfg.duration).as_secs_f64(),
        attempted: 1,
        identity: events ^ state_hash.rotate_left(17),
        info: format!("events={events} state_hash={state_hash:016x}"),
        events,
        within_bound_fraction: within,
        ..Outcome::default()
    };
    match stats {
        Some(stats) => {
            out.precision_mean_ns = stats.mean;
            if stats.max >= bound {
                out.problems.push(format!(
                    "precision max {} reaches Pi + gamma = {bound}",
                    stats.max
                ));
            }
        }
        None => out.problems.push("no precision sample".to_string()),
    }
    let c = &result.counters;
    let expectation = match workload {
        Workload::FaultInjection => (c.takeovers > 0, "takeovers > 0"),
        Workload::ElectionFailover => (c.elected_gm_changes > 0, "elected_gm_changes > 0"),
        Workload::FabricTc => (
            c.fabric_frames_forwarded > 0 && c.fabric_frames_dropped == 0,
            "fabric frames forwarded > 0 and none dropped",
        ),
        _ => unreachable!("not a World workload"),
    };
    if !expectation.0 {
        out.problems.push(format!("expected {}", expectation.1));
    }
    if !result.violations.is_empty() {
        out.problems
            .push(format!("{} oracle violation(s)", result.violations.len()));
    }
    out.failed = u64::from(!out.problems.is_empty());
    out.counters = result.counters;
    out.trace = result.trace;
    out
}

/// Digest of every artifact byte under `dir/runs` (file names in sorted
/// order, then contents), and the byte total.
fn artifact_digest(dir: &Path) -> Result<(u64, u64), String> {
    let runs = dir.join("runs");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&runs)
        .map_err(|e| format!("{}: {e}", runs.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    let (mut digest, mut bytes) = (0u64, 0u64);
    for path in names {
        let data = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_name()
            .expect("file has a name")
            .as_encoded_bytes();
        digest = digest.rotate_left(7) ^ fnv1a64(name) ^ fnv1a64(&data).rotate_left(29);
        bytes += data.len() as u64;
    }
    Ok((digest, bytes))
}

/// A fresh directory under `root`; executions never share artifacts.
pub fn fresh_dir(root: &Path) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = root.join(format!("campaign-{n}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// Runs `spec_text` cold or forked into `dir` and returns the report.
pub fn execute_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    fork: bool,
    threads: usize,
) -> Result<CampaignReport, String> {
    let mut opts = RunnerOptions::new(dir);
    opts.threads = threads;
    opts.quiet = true;
    opts.fork = fork;
    runner::execute(spec, &opts).map_err(|e| format!("campaign execute: {e}"))
}

/// One campaign, spec to summary in situ: parse → expand → execute
/// (artifacts written for real) → read back → summarize → render.
fn run_campaign(
    workload: Workload,
    spec_text: &str,
    sim_s: f64,
    root: &Path,
    obs: &mut Observe,
) -> Result<Outcome, String> {
    let dir = fresh_dir(root)?;
    let start = Instant::now();
    let s = obs.spans.begin("campaign.spec.parse");
    let spec = CampaignSpec::parse(spec_text).map_err(|e| format!("spec: {e}"))?;
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.execute");
    let report = execute_campaign(&spec, &dir, workload.forks(), 1)?;
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.expand");
    let reader = RunRecordReader::open(&spec, &dir).map_err(|e| format!("open: {e}"))?;
    obs.spans.end(s);
    let planned = reader.len() as u64;
    let s = obs.spans.begin("campaign.read");
    let mut summarizer = StreamSummarizer::new();
    let mut records = Vec::new();
    let mut unreadable = 0u64;
    for record in reader {
        match record {
            Ok(r) => {
                summarizer.push(&r);
                records.push(r);
            }
            Err(_) => unreadable += 1,
        }
    }
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.summarize");
    let groups = summarizer.finish();
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.render");
    let rendered = summary::render(&groups);
    obs.spans.end(s);
    let wall = start.elapsed();

    let (digest, artifact_bytes) = artifact_digest(&dir)?;
    if !obs.keep_dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut out = Outcome {
        wall_s: wall.as_secs_f64(),
        sim_s,
        attempted: planned,
        failed: report.failed.len() as u64 + unreadable,
        identity: digest ^ fnv1a64(rendered.as_bytes()).rotate_left(13),
        info: format!(
            "artifact_digest={digest:016x} artifact_bytes={artifact_bytes} groups={}",
            groups.len()
        ),
        dir: obs.keep_dir.then_some(dir),
        ..Outcome::default()
    };
    out.campaign = Some(CampaignCounts {
        forked_groups: report.forked_groups,
        prefix_events_skipped: report.prefix_events_skipped,
    });
    if out.failed > 0 {
        out.problems.push(format!(
            "{} run(s) panicked, {unreadable} artifact(s) did not decode",
            report.failed.len()
        ));
    }
    // The typical run of the campaign: the median over its records, so
    // the one scenario built to lose synchronization does not set it.
    let means: Vec<f64> = records
        .iter()
        .filter_map(|r| r.precision.as_ref().map(|p| p.mean_ns))
        .collect();
    let fractions: Vec<f64> = records.iter().map(|r| r.fraction_within_bound).collect();
    match (stats::reduce(&means), stats::reduce(&fractions)) {
        (Some(mean), Some(fraction)) => {
            out.precision_mean_ns = mean.median;
            out.within_bound_fraction = fraction.median;
        }
        _ => out.problems.push("no record carries precision".to_string()),
    }
    for r in &records {
        sum_counters(&mut out.counters, &r.counters);
    }
    match workload {
        Workload::CampaignRepro => check_repro(&records, &mut out.problems),
        Workload::CampaignForkSweep => {
            if report.forked_groups != 3 || report.prefix_runs != 3 {
                out.problems.push(format!(
                    "expected 3 forked groups from 3 prefix runs, got {} from {}",
                    report.forked_groups, report.prefix_runs
                ));
            }
        }
        _ => unreachable!("not a campaign workload"),
    }
    if !out.problems.is_empty() && out.failed == 0 {
        out.failed = 1;
    }
    Ok(out)
}

/// Adds the layer-table counters of one record into `total`.
fn sum_counters(total: &mut RunCounters, c: &RunCounters) {
    total.tx_timestamp_timeouts += c.tx_timestamp_timeouts;
    total.takeovers += c.takeovers;
    total.aggregations += c.aggregations;
    total.no_quorum += c.no_quorum;
    total.frames_queued += c.frames_queued;
    total.announce_tx += c.announce_tx;
    total.fabric_frames_forwarded += c.fabric_frames_forwarded;
    total.fabric_frames_dropped += c.fabric_frames_dropped;
}

/// The paper's two cyber-resilience results must both be in the
/// records: with identical kernels both strikes succeed and show in
/// the precision; with diverse kernels the one that lands is masked.
/// "Shows" is judged against the masked run, not against `Π + γ`: on
/// some seeds the excursion of the unmasked attack peaks just under the
/// bound.
fn check_repro(records: &[RunRecord], problems: &mut Vec<String>) {
    if records.len() != 5 {
        problems.push(format!("expected 5 decoded records, got {}", records.len()));
    }
    let find = |kind: ScenarioKind| records.iter().find(|r| r.coord.scenario == kind);
    let max_ns = |r: &RunRecord| r.precision.as_ref().map_or(0, |p| p.max_ns);
    let (Some(identical), Some(diverse)) = (
        find(ScenarioKind::CyberIdenticalKernels),
        find(ScenarioKind::CyberDiverseKernels),
    ) else {
        problems.push("a cyber-resilience record is missing".to_string());
        return;
    };
    if identical.counters.strikes_succeeded != 2 || max_ns(identical) <= 2 * max_ns(diverse) {
        problems.push(format!(
            "identical kernels: {} strike(s) succeeded, precision max {} ns vs {} ns masked",
            identical.counters.strikes_succeeded,
            max_ns(identical),
            max_ns(diverse)
        ));
    }
    if diverse.counters.strikes_succeeded != 1
        || diverse.counters.strikes_failed != 1
        || diverse.fraction_within_bound != 1.0
    {
        problems.push(format!(
            "diverse kernels: {} succeeded / {} failed strike(s), fraction within bound {}",
            diverse.counters.strikes_succeeded,
            diverse.counters.strikes_failed,
            diverse.fraction_within_bound
        ));
    }
}

/// Streams the record file line by line: decode → push → finish →
/// render. The World does nothing here.
fn run_summarize(
    file: &Path,
    records: usize,
    sim_s_per_record: f64,
    obs: &mut Observe,
) -> Result<Outcome, String> {
    let limit = obs.record_limit.unwrap_or(records);
    let timing = obs.spans.enabled();
    let start = Instant::now();
    let s = obs.spans.begin("campaign.read");
    let input = std::fs::File::open(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut input = BufReader::new(input);
    let mut summarizer = StreamSummarizer::new();
    let mut line = String::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut decode_ns, mut push_ns) = (0u64, 0u64);
    while (attempted as usize) < limit {
        line.clear();
        let n = input
            .read_line(&mut line)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        if n == 0 {
            break;
        }
        attempted += 1;
        let t0 = timing.then(Instant::now);
        let record = RunRecord::decode(&line);
        let t1 = timing.then(Instant::now);
        match &record {
            Some(r) => summarizer.push(r),
            None => failed += 1,
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            decode_ns += (t1 - t0).as_nanos() as u64;
            push_ns += t1.elapsed().as_nanos() as u64;
        }
    }
    obs.spans.fold("artifact.decode", attempted, decode_ns);
    obs.spans.fold("summary.push", attempted - failed, push_ns);
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.summarize");
    let groups = summarizer.finish();
    obs.spans.end(s);
    let s = obs.spans.begin("campaign.render");
    let rendered = summary::render(&groups);
    obs.spans.end(s);
    let wall = start.elapsed();

    let summary_digest = fnv1a64(rendered.as_bytes());
    let mut out = Outcome {
        wall_s: wall.as_secs_f64(),
        sim_s: attempted as f64 * sim_s_per_record,
        attempted,
        failed,
        identity: summary_digest ^ groups.len() as u64,
        info: format!(
            "groups={} summary_digest={summary_digest:016x} summary_bytes={}",
            groups.len(),
            rendered.len()
        ),
        ..Outcome::default()
    };
    if attempted as usize != limit {
        out.problems
            .push(format!("read {attempted} of {limit} records"));
    }
    if failed > 0 {
        out.problems
            .push(format!("{failed} record(s) did not decode"));
    }
    let means: Vec<f64> = groups
        .iter()
        .filter_map(|g| g.pi_star_mean.as_ref().map(|s| s.mean))
        .collect();
    let rates: Vec<f64> = groups
        .iter()
        .filter_map(|g| g.violation_rate.as_ref().map(|s| s.mean))
        .collect();
    if means.is_empty() || rates.is_empty() {
        out.problems
            .push("summary has no precision group".to_string());
    } else {
        out.precision_mean_ns = means.iter().sum::<f64>() / means.len() as f64;
        out.within_bound_fraction = 1.0 - rates.iter().sum::<f64>() / rates.len() as f64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_valid_and_unique() {
        let mut seen = Vec::new();
        for w in Workload::ALL {
            let name = w.name();
            assert!(!name.is_empty() && name.len() <= 64);
            assert!(name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "{name}"
            );
            assert_eq!(Workload::parse(name), Some(w));
            assert!(!seen.contains(&name));
            seen.push(name);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn spec_templates_parse_to_the_documented_shapes() {
        let repro = CampaignSpec::parse(REPRO_SPEC).unwrap();
        assert_eq!(repro.total_runs(), 5);
        let fork = CampaignSpec::parse(FORK_SPEC).unwrap();
        assert_eq!(fork.total_runs(), 84);
    }

    #[test]
    fn record_synthesis_is_a_function_of_the_seed() {
        let (mut a, mut b, mut c) = (7u64, 7u64, 8u64);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_ne!(splitmix(&mut a), splitmix(&mut c));
    }
}
