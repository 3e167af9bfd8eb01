//! Parallel, resumable campaign execution.
//!
//! The unit of parallelism is one single-threaded simulation
//! ([`clocksync::World::run`]); the runner fans the run matrix out
//! over a `std::thread::scope` worker pool fed by a shared atomic
//! index. Determinism does not depend on scheduling: each run's seed
//! and artifact content are pure functions of its grid coordinate (see
//! [`crate::matrix`]), so any thread count produces byte-identical
//! artifacts.
//!
//! Resume is content-addressed: a run whose artifact
//! `runs/run-<hash>.jsonl` already exists and decodes with a matching
//! hash is skipped without re-execution. Changing the spec's base
//! configuration changes every hash, so stale artifacts are never
//! silently reused.

use crate::artifact::RunRecord;
use crate::matrix::{expand, RunPlan};
use crate::spec::CampaignSpec;
use clocksync::snapshot::{checkpoint_time, warm_prefix_config, warm_prefix_fingerprint};
use clocksync::{World, WorldSnapshot};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use tsn_time::Nanos;

/// Runner options.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Campaign directory (created if missing).
    pub dir: PathBuf,
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Suppress the progress line (tests, scripting).
    pub quiet: bool,
    /// Fork-based execution, on by default: runs sharing a warm prefix
    /// (same prefix-relevant coordinates, interventions stripped)
    /// simulate it once and fork their continuations from it, with the
    /// bytes of cold execution. Runs go cold anyway with an oracle or
    /// tracer armed, without warm-up, and in a group of one that no cache
    /// serves. `false` is the cold reference path the tests diff against.
    pub fork: bool,
    /// Enable the runtime invariant oracle ([`World::enable_oracle`])
    /// for every executed run and collect violations into
    /// [`CampaignReport::violations`]. Artifacts stay byte-identical to
    /// an unchecked campaign. Checked runs execute cold: a forked run
    /// skips the warm prefix, which would blind the oracle's
    /// frame-conservation ledger.
    pub check: bool,
    /// Enable structured tracing ([`World::enable_trace`]) for every
    /// executed run and write, into this directory, one Chrome
    /// trace-event file `trace-<hash>.json` per run. Artifacts stay
    /// byte-identical to an untraced campaign. Traced runs execute cold
    /// (a forked run's trace would miss the shared warm prefix).
    /// Resumed runs are not re-executed and leave no trace.
    pub trace: Option<PathBuf>,
    /// Override the tracer's bounded-sink event cap (default 2^20).
    /// Events past the cap are dropped and counted; the per-run drop
    /// count lands in the trace file's `otherData.dropped` and sums into
    /// [`CampaignReport::trace_dropped_events`], and a truncated trace
    /// fails a `--check` campaign.
    pub trace_max_events: Option<usize>,
    /// Test-injection hook: the run whose coordinate label equals this
    /// string — or the warm prefix whose `Coord::prefix_label` does —
    /// panics instead of simulating, exercising the panic isolation
    /// paths (the campaign must finish, siblings unperturbed).
    pub panic_label: Option<String>,
}

impl RunnerOptions {
    /// Options for a campaign directory, with auto thread count and
    /// forking on.
    pub fn new(dir: impl Into<PathBuf>) -> RunnerOptions {
        RunnerOptions {
            dir: dir.into(),
            threads: 0,
            quiet: false,
            fork: true,
            check: false,
            trace: None,
            trace_max_events: None,
            panic_label: None,
        }
    }

    fn effective_threads(&self, pending: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        n.clamp(1, pending.max(1))
    }
}

/// What the runner did for one campaign invocation, or, summed with
/// [`CampaignReport::absorb`], for all the probes of a frontier.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// All run records, in canonical matrix order (freshly executed and
    /// resumed ones alike); empty in the report a frontier sums.
    pub records: Vec<RunRecord>,
    /// Runs executed by this invocation.
    pub executed: usize,
    /// Runs skipped because a valid artifact already existed.
    pub skipped: usize,
    /// Worker threads used (1 when everything was resumed).
    pub threads: usize,
    /// Warm-prefix groups that forked a checkpoint: groups of two or
    /// more runs, and with a shared [`SnapshotCache`] single runs too
    /// (0 when the runs ran cold).
    pub forked_groups: usize,
    /// Prefix simulations executed (one per group not yet in the cache).
    pub prefix_runs: usize,
    /// Events that were *not* re-simulated thanks to forking: per group,
    /// prefix events × (members − 1), or × members from the cache.
    pub prefix_events_skipped: u64,
    /// Invariant violations reported by the oracle, in canonical matrix
    /// order (empty unless [`RunnerOptions::check`] was set). Only runs
    /// executed by this invocation are checked — resumed artifacts carry
    /// no oracle state.
    pub violations: Vec<RunViolation>,
    /// Runs that panicked, in canonical matrix order. A panicking run is
    /// isolated — the campaign finishes, sibling artifacts are written
    /// normally — and leaves no artifact, so a later resume retries it.
    pub failed: Vec<FailedRun>,
    /// Pre-existing artifacts that were unreadable (truncated or
    /// corrupt) and were moved to `runs/corrupt/` before re-running.
    pub quarantined: usize,
    /// Trace events dropped at the bounded sink's cap, summed over the
    /// runs this invocation executed with tracing armed (0 without
    /// [`RunnerOptions::trace`]). Non-zero means at least one trace
    /// file is incomplete; `campaign run --check --trace` treats that
    /// as a failure.
    pub trace_dropped_events: u64,
}

impl CampaignReport {
    /// Adds `other` to this report: its records, violations and
    /// failures are appended, its counts added, and the thread count is
    /// the larger of the two.
    pub fn absorb(&mut self, other: CampaignReport) {
        self.records.extend(other.records);
        self.executed += other.executed;
        self.skipped += other.skipped;
        self.threads = self.threads.max(other.threads);
        self.forked_groups += other.forked_groups;
        self.prefix_runs += other.prefix_runs;
        self.prefix_events_skipped += other.prefix_events_skipped;
        self.violations.extend(other.violations);
        self.failed.extend(other.failed);
        self.quarantined += other.quarantined;
        self.trace_dropped_events += other.trace_dropped_events;
    }
}

/// One isolated per-run failure (the worker caught a panic).
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// Position in the canonical enumeration order.
    pub index: usize,
    /// Canonical coordinate label of the failed run.
    pub label: String,
    /// Content hash the run would have written.
    pub hash: String,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl FailedRun {
    fn new(plan: &RunPlan, message: &str) -> FailedRun {
        FailedRun {
            index: plan.index,
            label: plan.coord.label(),
            hash: plan.hash.clone(),
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for FailedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: panicked: {}", self.label, self.message)
    }
}

/// Warm-prefix snapshots keyed by [`warm_prefix_fingerprint`], reusable
/// across [`execute_with`] invocations. The frontier explorer threads
/// one cache through all its probes: each probe is a campaign of one run
/// per seed, the first one simulates the seed's prefix into the cache,
/// and every later probe of any cell with that prefix forks it.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    snapshots: HashMap<u64, WorldSnapshot>,
}

/// One oracle violation attributed to the run that produced it.
#[derive(Debug, Clone)]
pub struct RunViolation {
    /// Canonical coordinate label ([`crate::matrix::Coord::label`]) of
    /// the offending run.
    pub run: String,
    /// The structured violation record.
    pub record: tsn_metrics::ViolationRecord,
}

impl std::fmt::Display for RunViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.run, self.record)
    }
}

/// Executes (or resumes) a campaign spec into `opts.dir`.
///
/// Writes `manifest.json` and one `runs/run-<hash>.jsonl` per run, then
/// returns every record in canonical order.
pub fn execute(spec: &CampaignSpec, opts: &RunnerOptions) -> io::Result<CampaignReport> {
    execute_with(spec, opts, None, true)
}

/// [`execute`] with an external warm-prefix snapshot cache and control
/// over the manifest write.
///
/// A cache handed in outlives the invocation, so a prefix is worth
/// keeping even for a run that is the only member of its group: it
/// simulates the prefix into the cache and forks it, and whichever
/// later invocation has a run with that fingerprint forks it too. The
/// frontier explorer calls this once per probe with `write_manifest =
/// false`: its directory's manifest is the frontier's own.
pub fn execute_with(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
    cache: Option<&mut SnapshotCache>,
    write_manifest: bool,
) -> io::Result<CampaignReport> {
    let cache_outlives = cache.is_some();
    let mut throw_away = SnapshotCache::default();
    let cache = cache.unwrap_or(&mut throw_away);
    let plans = expand(spec)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("invalid spec: {e}")))?;
    let runs_dir = opts.dir.join("runs");
    std::fs::create_dir_all(&runs_dir)?;
    if let Some(trace_dir) = &opts.trace {
        std::fs::create_dir_all(trace_dir)?;
    }
    if write_manifest {
        write_atomic(
            &opts.dir.join("manifest.json"),
            &manifest(spec, &plans).render(),
        )?;
    }

    // Partition into resumable and pending runs. An artifact that exists
    // but does not decode (truncated write, bit rot, stale schema) is
    // quarantined to `runs/corrupt/` and its run re-executed — a damaged
    // file must never abort or poison a resume.
    let mut records: Vec<Option<RunRecord>> = Vec::with_capacity(plans.len());
    let mut pending: Vec<&RunPlan> = Vec::new();
    let mut quarantined = 0usize;
    for plan in &plans {
        match resume_record(&runs_dir, plan) {
            Some(record) => records.push(Some(record)),
            None => {
                if artifact_path(&runs_dir, plan).exists() {
                    quarantine(&runs_dir, plan)?;
                    quarantined += 1;
                }
                records.push(None);
                pending.push(plan);
            }
        }
    }
    if quarantined > 0 && !opts.quiet {
        eprintln!(
            "resume: quarantined {quarantined} corrupt artifact(s) to {}, re-running",
            runs_dir.join("corrupt").display()
        );
    }
    let skipped = plans.len() - pending.len();
    let threads = opts.effective_threads(pending.len());

    // Group pending runs whose configurations project to the same warm
    // prefix, unless an armed observer needs every run cold. A group
    // forks when it has two or more members (the prefix is simulated
    // once), when the cache already holds its prefix from an earlier
    // invocation, or when the cache will carry its prefix to a later
    // one; a singleton group of a throw-away cache gains nothing and
    // runs cold.
    let mut groups: Vec<ForkGroup> = Vec::new();
    if opts.fork && !opts.check && opts.trace.is_none() {
        for (i, plan) in pending.iter().enumerate() {
            let Some(at) = checkpoint_time(&plan.config) else {
                continue; // no warm-up, nothing to share
            };
            let fingerprint = warm_prefix_fingerprint(&plan.config);
            match groups.iter_mut().find(|g| g.fingerprint == fingerprint) {
                Some(group) => group.members.push(i),
                None => groups.push(ForkGroup {
                    fingerprint,
                    at,
                    members: vec![i],
                    prefix: OnceLock::new(),
                    cached: false,
                }),
            }
        }
        groups.retain(|g| {
            g.members.len() >= 2 || cache_outlives || cache.snapshots.contains_key(&g.fingerprint)
        });
    }
    // A cached prefix moves into its group; an uncached one is simulated
    // by the first member that needs it, while later ones wait for it.
    let mut group_of: Vec<Option<usize>> = vec![None; pending.len()];
    let mut restores = vec![false; pending.len()];
    for (g, group) in groups.iter_mut().enumerate() {
        if let Some(snap) = cache.snapshots.remove(&group.fingerprint) {
            group.prefix = OnceLock::from(Ok(snap));
            group.cached = true;
        }
        for (k, &i) in group.members.iter().enumerate() {
            group_of[i] = Some(g);
            restores[i] = group.cached || k > 0;
        }
    }
    let uncached = groups.iter().filter(|g| !g.cached);
    let prefix_runs = uncached.clone().count();
    if prefix_runs > 0 && !opts.quiet {
        let members: usize = uncached.map(|g| g.members.len()).sum();
        eprintln!("fork: simulating {prefix_runs} shared warm prefix(es) for {members} run(s)");
    }

    // Every pending run goes into one pool, with no barrier: a cold run
    // starts at once, and a forked one waits at most for its own group's
    // prefix, which it would otherwise simulate itself; the dispatch
    // order puts members that restore behind those that simulate. Fork
    // or cold, the bytes are the same (tests/fork.rs). A panicking run
    // or prefix fails its own runs only, and the worker moves on.
    let prefix = |g: usize| {
        let group: &ForkGroup = &groups[g];
        let first = pending[group.members[0]];
        let simulated = group.prefix.get_or_init(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                injected_panic(opts, &first.coord.prefix_label());
                let mut world = World::new(warm_prefix_config(&first.config));
                world.run_until(group.at);
                world.snapshot()
            }))
            .map_err(panic_message)
        });
        match simulated {
            Ok(snap) => snap,
            Err(message) => std::panic::resume_unwind(Box::new(message.clone())),
        }
    };
    let order = dispatch_order(&pending, &restores, threads);
    let loud = !opts.quiet && !order.is_empty();
    if loud && skipped > 0 {
        eprintln!("resume: {skipped} run(s) already complete, skipping");
    }
    let started = Instant::now();
    let run = |i: usize| {
        let snap = group_of[i].map(&prefix);
        injected_panic(opts, &pending[i].coord.label());
        run_one(spec, pending[i], snap, opts, &runs_dir)
    };
    let outcomes = pool(threads, &order, run, |completed| {
        if loud {
            progress_line(completed, order.len(), started);
        }
    })?;
    if loud {
        eprintln!(); // ends the progress line
    }

    // Prefixes go (back) into the cache. Every member skipped its
    // prefix, except the one that simulated an uncached prefix.
    let forked_groups = groups.len();
    let mut prefix_events_skipped = 0u64;
    for group in groups {
        if let Some(Ok(snap)) = group.prefix.into_inner() {
            let skips = group.members.len() - usize::from(!group.cached);
            prefix_events_skipped += skips as u64 * snap.events_processed;
            cache.snapshots.insert(group.fingerprint, snap);
        }
    }

    // Merge in canonical matrix order: `pending` is in plan order and the
    // pool hands its outcomes back sorted by pending index.
    let mut failed: Vec<FailedRun> = Vec::new();
    let mut violations: Vec<RunViolation> = Vec::new();
    let mut trace_dropped_events = 0u64;
    for (i, outcome) in outcomes {
        match outcome {
            Ok((record, found, dropped)) => {
                records[pending[i].index] = Some(record);
                violations.extend(found);
                trace_dropped_events += dropped;
            }
            Err(message) => failed.push(FailedRun::new(pending[i], &message)),
        }
    }

    Ok(CampaignReport {
        // Every pending run is in `failed` (no record, and no artifact,
        // so resume retries it) or the pool handed its record back.
        records: records.into_iter().flatten().collect(),
        executed: pending.len() - failed.len(),
        skipped,
        threads,
        forked_groups,
        prefix_runs,
        prefix_events_skipped,
        violations,
        failed,
        quarantined,
        trace_dropped_events,
    })
}

/// Pending runs (indices into the pending list) that share one warm
/// prefix, simulated once to `at` and forked by every member.
struct ForkGroup {
    fingerprint: u64,
    at: tsn_time::SimTime,
    members: Vec<usize>,
    /// The checkpoint, or its simulation's panic message; set once.
    prefix: OnceLock<Result<WorldSnapshot, String>>,
    /// `prefix` was moved in from the cache.
    cached: bool,
}

/// The [`RunnerOptions::panic_label`] test hook.
fn injected_panic(opts: &RunnerOptions, label: &str) {
    if opts.panic_label.as_deref() == Some(label) {
        panic!("injected test panic");
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The runner's one worker pool: calls `work(i)` for every `i` in
/// `order` on up to `threads` scoped workers and returns every
/// `(i, outcome)` sorted by `i` — the same list for any worker count
/// and schedule. A worker keeps what it made and hands it back through
/// its join handle; shared are only the cursor and the completed count
/// `report` is called with (they publish no data, hence `Relaxed`).
///
/// An item that panics becomes `Err(message)` for that `i` alone and
/// its worker moves on. An item's `io::Error` is the call's error: no
/// worker starts another item.
fn pool<T: Send>(
    threads: usize,
    order: &[usize],
    work: impl Fn(usize) -> io::Result<T> + Sync,
    report: impl Fn(usize) + Sync,
) -> io::Result<Vec<(usize, Result<T, String>)>> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let worker = || {
        let mut made = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i)));
            made.push(match outcome {
                Ok(Ok(output)) => (i, Ok(output)),
                Ok(Err(e)) => {
                    next.store(order.len(), Ordering::Relaxed);
                    return Err(e);
                }
                Err(payload) => (i, Err(panic_message(payload))),
            });
            report(done.fetch_add(1, Ordering::Relaxed) + 1);
        }
        Ok(made)
    };
    let mut merged = Vec::with_capacity(order.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(order.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        // Join every worker before returning the first error.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        for made in joined {
            // A worker can only unwind out of `report`.
            merged.extend(made.map_err(|p| io::Error::other(panic_message(p)))??);
        }
        Ok::<(), io::Error>(())
    })?;
    merged.sort_by_key(|&(i, _)| i);
    Ok(merged)
}

/// The order in which workers take the pending runs (indices into
/// `pending`). One worker takes them in canonical order. Several take
/// the longest simulations first, ties in canonical order, so the pool
/// does not end with one worker on a long run it started last while the
/// others idle. A run that `restores` a warm prefix simulates only its
/// continuation, so it counts without the warm-up and goes behind the
/// run that simulates its prefix. Only the schedule changes: records,
/// progress counts and artifacts are keyed by the plan, not by who ran
/// it when.
fn dispatch_order(pending: &[&RunPlan], restores: &[bool], threads: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    if threads > 1 {
        order.sort_by_key(|&i| {
            let cfg = &pending[i].config;
            let prefix = if restores[i] { Nanos::ZERO } else { cfg.warmup };
            std::cmp::Reverse(prefix + cfg.duration)
        });
    }
    order
}

/// Executes one run, either cold from `t = 0` or forked from a shared
/// warm-prefix checkpoint, and writes its artifact. Both paths end in
/// the same [`RunRecord`]; the cold path additionally arms the oracle
/// and the tracer on request, returning what the former reported and
/// writing the latter's file, whose dropped-event count it returns
/// (both observers are passive, so the record is unaffected).
fn run_one(
    spec: &CampaignSpec,
    plan: &RunPlan,
    snap: Option<&WorldSnapshot>,
    opts: &RunnerOptions,
    runs_dir: &Path,
) -> io::Result<(RunRecord, Vec<RunViolation>, u64)> {
    let result = match snap {
        Some(snap) => {
            let mut world = World::restore(plan.config.clone(), snap).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("fork restore for {}: {e}", plan.coord.label()),
                )
            })?;
            let end = world.end_time();
            world.run_until(end);
            world.into_result()
        }
        None => {
            let mut world = World::new(plan.config.clone());
            if opts.check {
                world.enable_oracle();
            }
            if opts.trace.is_some() {
                match opts.trace_max_events {
                    Some(cap) => world.enable_trace_capped(cap),
                    None => world.enable_trace(),
                }
            }
            world.run()
        }
    };
    let record = RunRecord::new(&spec.name, plan, &result);
    write_record_atomic(&artifact_path(runs_dir, plan), &record)?;
    if let (Some(trace_dir), Some(report)) = (&opts.trace, &result.trace) {
        let path = trace_dir.join(format!("trace-{}.json", plan.hash));
        write_atomic(&path, &report.to_chrome_json())?;
    }
    let dropped = result.trace.as_ref().map_or(0, |report| report.dropped);
    let label = plan.coord.label();
    let violations = result
        .violations
        .into_iter()
        .map(|record| RunViolation {
            run: label.clone(),
            record,
        })
        .collect();
    Ok((record, violations, dropped))
}

/// Streaming reader over a previously executed campaign's artifacts, in
/// canonical matrix order. Decodes one record per `next()` call, so
/// consumers that fold records as they arrive (summaries, diffs, the
/// frontier) hold a single record in memory regardless of campaign
/// size. Yields an error for a missing or unreadable artifact (the
/// campaign must be `run` to completion first).
pub struct RunRecordReader {
    plans: std::vec::IntoIter<RunPlan>,
    runs_dir: PathBuf,
}

impl RunRecordReader {
    /// Opens a campaign directory for streaming reads. Fails only on an
    /// invalid spec; per-record problems surface from the iterator.
    pub fn open(spec: &CampaignSpec, dir: &Path) -> io::Result<RunRecordReader> {
        let plans = expand(spec).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("invalid spec: {e}"))
        })?;
        Ok(RunRecordReader {
            plans: plans.into_iter(),
            runs_dir: dir.join("runs"),
        })
    }

    /// Records remaining to be yielded.
    pub fn len(&self) -> usize {
        self.plans.as_slice().len()
    }

    /// `true` when the reader is exhausted (or the campaign is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for RunRecordReader {
    type Item = io::Result<RunRecord>;

    fn next(&mut self) -> Option<io::Result<RunRecord>> {
        let plan = self.plans.next()?;
        Some(resume_record(&self.runs_dir, &plan).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "missing or unreadable artifact for {} (expected {})",
                    plan.coord.label(),
                    artifact_path(&self.runs_dir, &plan).display()
                ),
            )
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

/// Loads every artifact of a previously executed campaign directory, in
/// canonical order, into memory. Prefer iterating [`RunRecordReader`]
/// for anything that can fold records incrementally.
pub fn load(spec: &CampaignSpec, dir: &Path) -> io::Result<Vec<RunRecord>> {
    RunRecordReader::open(spec, dir)?.collect()
}

fn artifact_path(runs_dir: &Path, plan: &RunPlan) -> PathBuf {
    runs_dir.join(format!("run-{}.jsonl", plan.hash))
}

fn resume_record(runs_dir: &Path, plan: &RunPlan) -> Option<RunRecord> {
    let text = std::fs::read_to_string(artifact_path(runs_dir, plan)).ok()?;
    let record = RunRecord::decode(&text)?;
    (record.hash == plan.hash).then_some(record)
}

/// Moves an unreadable artifact to `runs/corrupt/` (same filename) so
/// the evidence survives while resume re-executes the run.
fn quarantine(runs_dir: &Path, plan: &RunPlan) -> io::Result<()> {
    let corrupt_dir = runs_dir.join("corrupt");
    std::fs::create_dir_all(&corrupt_dir)?;
    let name = format!("run-{}.jsonl", plan.hash);
    std::fs::rename(runs_dir.join(&name), corrupt_dir.join(&name))
}

/// Writes a file atomically (temp file + rename) so a crashed run never
/// leaves a half-written artifact that resume would trust.
pub(crate) fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// [`write_atomic`] for a run record, streamed through a [`io::BufWriter`]
/// via [`RunRecord::encode_to`] — the encoded JSONL line is never
/// materialized as one in-memory string.
fn write_record_atomic(path: &Path, record: &RunRecord) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        record.encode_to(&mut w)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

fn manifest(spec: &CampaignSpec, plans: &[RunPlan]) -> crate::json::Json {
    use crate::json::Json;
    Json::object(vec![
        ("schema", Json::UInt(crate::artifact::ARTIFACT_SCHEMA)),
        ("spec", spec.to_json()),
        ("total_runs", Json::UInt(plans.len() as u64)),
        (
            "runs",
            Json::Array(
                plans
                    .iter()
                    .map(|p| {
                        Json::object(vec![
                            ("hash", Json::Str(p.hash.clone())),
                            ("label", Json::Str(p.coord.label())),
                            ("run_seed", Json::UInt(p.seed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One progress line on stderr: completed/total and an ETA
/// extrapolated from the mean run time so far. Wall-clock time feeds
/// only this display, never the artifacts.
fn progress_line(completed: usize, total: usize, started: Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = elapsed / completed as f64 * (total - completed) as f64;
    // Workers report concurrently: one locked write per line. A closed
    // stderr must not fail the run that reports to it.
    let mut stderr = io::stderr().lock();
    let _ = write!(
        stderr,
        "\r[{completed}/{total}] runs complete, elapsed {}, ETA {}   ",
        fmt_secs(elapsed),
        fmt_secs(eta),
    );
    let _ = stderr.flush();
}

fn fmt_secs(s: f64) -> String {
    let s = s.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_formatting() {
        assert_eq!(fmt_secs(12.2), "12s");
        assert_eq!(fmt_secs(75.0), "1m15s");
        assert_eq!(fmt_secs(3. * 3600. + 125.), "3h02m");
    }

    #[test]
    fn several_workers_take_the_longest_runs_first() {
        let spec = CampaignSpec::builtin("quick-baseline").expect("builtin");
        let mut plans = expand(&spec).expect("valid spec");
        plans.truncate(5);
        for (plan, seconds) in plans.iter_mut().zip([3, 9, 3, 20, 9]) {
            plan.config.warmup = Nanos::from_secs(5);
            plan.config.duration = Nanos::from_secs(seconds);
        }
        let pending: Vec<&RunPlan> = plans.iter().collect();
        let cold = [false; 5];
        assert_eq!(dispatch_order(&pending, &cold, 1), [0, 1, 2, 3, 4]);
        assert_eq!(dispatch_order(&pending, &cold, 2), [3, 1, 4, 0, 2]);
        // Run 1 restores a prefix: it simulates 9 s, not 14 s, so it
        // goes behind run 4 (14 s) and ahead of runs 0 and 2 (8 s).
        let mut restores = cold;
        restores[1] = true;
        assert_eq!(dispatch_order(&pending, &restores, 1), [0, 1, 2, 3, 4]);
        assert_eq!(dispatch_order(&pending, &restores, 2), [3, 4, 1, 0, 2]);
    }

    /// The pool on plain numbers, no `World`: a panic stays with its
    /// item, an `io::Error` fails the call, and the merged output does
    /// not depend on how many workers made it or in what order.
    #[test]
    fn pool_isolates_a_panic_fails_on_io_error_and_merges_by_index() {
        let order = [7, 2, 9, 0, 5, 3, 8, 1, 6, 4]; // any schedule
        let square = |i: usize| match i {
            3 => panic!("item three"),
            _ => Ok(i * i),
        };
        let one = pool(1, &order, square, |_| {}).expect("no io error");
        let expected: Vec<(usize, Result<usize, String>)> = (0..10)
            .map(|i| match i {
                3 => (3, Err("item three".to_string())),
                _ => (i, Ok(i * i)),
            })
            .collect();
        assert_eq!(one, expected);
        let reported = AtomicUsize::new(0);
        let four = pool(4, &order, square, |completed| {
            reported.fetch_max(completed, Ordering::Relaxed);
        })
        .expect("no io error");
        assert_eq!(four, expected, "4 workers merge to what 1 worker made");
        assert_eq!(reported.into_inner(), 10, "every item is reported");

        let denied = |i: usize| match i {
            5 => Err(io::Error::new(io::ErrorKind::PermissionDenied, "item five")),
            _ => Ok(i),
        };
        for threads in [1, 4] {
            let err = pool(threads, &order, denied, |_| {}).expect_err("io error");
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
            assert_eq!(err.to_string(), "item five");
        }
        let none = pool(4, &[], square, |_| {}).expect("nothing to do");
        assert!(none.is_empty());
    }

    fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("runs"))
            .expect("runs dir")
            .map(|e| e.expect("dir entry").path())
            .map(|p| {
                let name = p.file_name().expect("file name").to_string_lossy();
                (name.into_owned(), std::fs::read(&p).expect("artifact"))
            })
            .collect();
        files.sort();
        files
    }

    /// A warm prefix that panics is isolated like a run that panics:
    /// its group fails, with the prefix's message and no artifact, the
    /// sibling group's bytes are a clean campaign's, and resume retries.
    #[test]
    fn panicking_prefix_fails_its_group_and_no_other() {
        let spec = CampaignSpec {
            name: "prefix-panic".to_string(),
            base: crate::BaseSpec {
                preset: crate::Preset::Quick,
                duration_s: Some(6),
                warmup_s: Some(3),
            },
            scenarios: vec![
                clocksync::scenario::ScenarioKind::Baseline,
                clocksync::scenario::ScenarioKind::CyberIdenticalKernels,
            ],
            grid: crate::Grid {
                seeds: vec![1, 2],
                ..crate::Grid::default()
            },
            bisect: None,
        };
        let tmp = std::env::temp_dir().join(format!("tsn-campaign-pp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let fork_opts = |dir: &str| RunnerOptions {
            threads: 2,
            quiet: true,
            ..RunnerOptions::new(tmp.join(dir))
        };
        let clean = execute(&spec, &fork_opts("clean")).expect("clean campaign");
        assert_eq!((clean.executed, clean.forked_groups), (4, 2));
        let clean_bytes = artifacts(&tmp.join("clean"));

        let plans = expand(&spec).expect("valid spec");
        let victims: Vec<&RunPlan> = plans.iter().filter(|p| p.coord.seed == 2).collect();
        assert_eq!(victims.len(), 2);
        let report = execute(
            &spec,
            &RunnerOptions {
                panic_label: Some(victims[0].coord.prefix_label()),
                ..fork_opts("panic")
            },
        )
        .expect("campaign must finish despite the prefix panic");
        assert_eq!((report.executed, report.records.len()), (2, 2));
        assert_eq!((report.forked_groups, report.prefix_runs), (2, 2));
        assert_eq!(report.failed.len(), 2);
        for (failed, victim) in report.failed.iter().zip(&victims) {
            assert_eq!(failed.index, victim.index);
            assert_eq!(failed.label, victim.coord.label());
            assert_eq!(failed.hash, victim.hash);
            assert_eq!(failed.message, "injected test panic");
        }
        let with_panic = artifacts(&tmp.join("panic"));
        assert_eq!(with_panic.len(), 2, "the failed group left an artifact");
        for pair in &with_panic {
            assert!(clean_bytes.contains(pair), "{} perturbed", pair.0);
        }

        let resumed = execute(&spec, &fork_opts("panic")).expect("resume");
        assert_eq!((resumed.executed, resumed.skipped), (2, 2));
        assert!(resumed.failed.is_empty());
        assert_eq!(artifacts(&tmp.join("panic")), clean_bytes);
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("tsn-campaign-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        write_atomic(&path, "one\n").unwrap();
        write_atomic(&path, "two\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two\n");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
