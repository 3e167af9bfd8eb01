//! Parallel, resumable campaign execution.
//!
//! The unit of parallelism is one single-threaded simulation
//! ([`clocksync::scenario::run`]); the runner fans the run matrix out
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
use crate::profile::ProfileEntry;
use crate::spec::CampaignSpec;
use clocksync::snapshot::{checkpoint_time, warm_prefix_config, warm_prefix_fingerprint};
use clocksync::{World, WorldSnapshot};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runner options.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Campaign directory (created if missing).
    pub dir: PathBuf,
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Suppress the progress line (tests, scripting).
    pub quiet: bool,
    /// Fork-based execution: runs sharing a warm prefix (same
    /// prefix-relevant coordinates, interventions stripped) simulate the
    /// prefix once to a checkpoint and fork their divergent
    /// continuations from it. Artifacts are byte-identical to cold
    /// execution; only the work is shared.
    pub fork: bool,
    /// Enable the runtime invariant oracle ([`World::enable_oracle`])
    /// for every executed run and collect violations into
    /// [`CampaignReport::violations`]. Artifacts stay byte-identical to
    /// an unchecked campaign. Implies cold execution: forked runs skip
    /// the warm prefix, which would blind the oracle's frame-conservation
    /// ledger, so `check` overrides [`RunnerOptions::fork`].
    pub check: bool,
    /// Enable structured tracing ([`World::enable_trace`]) for every
    /// executed run and write, into this directory, one Chrome
    /// trace-event file `trace-<hash>.json` per run plus a
    /// [`crate::profile::PROFILE_FILE`] stream with per-run wall time
    /// and event accounting. Artifacts stay byte-identical to an
    /// untraced campaign. Implies cold execution (a forked run's trace
    /// would miss the shared warm prefix), so tracing overrides
    /// [`RunnerOptions::fork`]. Resumed runs are not re-executed and
    /// leave no trace.
    pub trace: Option<PathBuf>,
    /// Override the tracer's bounded-sink event cap (default 2^20).
    /// Events past the cap are dropped and counted; the per-run drop
    /// count flows into the profile stream and
    /// [`CampaignReport::trace_dropped_events`], and a truncated trace
    /// fails a `--check` campaign.
    pub trace_max_events: Option<usize>,
    /// Test-injection hook: the run whose coordinate label equals this
    /// string panics instead of simulating, exercising the per-run panic
    /// isolation path (the campaign must finish, siblings unperturbed).
    pub panic_label: Option<String>,
}

impl RunnerOptions {
    /// Options for a campaign directory, with auto thread count and cold
    /// (non-forking) execution.
    pub fn new(dir: impl Into<PathBuf>) -> RunnerOptions {
        RunnerOptions {
            dir: dir.into(),
            threads: 0,
            quiet: false,
            fork: false,
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

/// What the runner did for one campaign invocation.
#[derive(Debug)]
pub struct CampaignReport {
    /// All run records, in canonical matrix order (freshly executed and
    /// resumed ones alike).
    pub records: Vec<RunRecord>,
    /// Runs executed by this invocation.
    pub executed: usize,
    /// Runs skipped because a valid artifact already existed.
    pub skipped: usize,
    /// Worker threads used (1 when everything was resumed).
    pub threads: usize,
    /// Warm-prefix groups that forked a checkpoint: groups of two or
    /// more runs, and with a shared [`SnapshotCache`] single runs too
    /// (0 unless [`RunnerOptions::fork`] was set).
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

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
    }

    /// Cached warm prefixes.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` when no prefix has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
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
/// false` (it writes its own `frontier.json` instead).
pub fn execute_with(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
    cache: Option<&mut SnapshotCache>,
    write_manifest: bool,
) -> io::Result<CampaignReport> {
    let cache_outlives = cache.is_some();
    let mut throw_away = SnapshotCache::new();
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

    // Fork mode: group pending runs whose configurations project to the
    // same warm prefix. A group forks when it has two or more members
    // (the prefix is simulated once, phase 1), when the cache already
    // holds its prefix from an earlier invocation, or when the cache
    // will carry its prefix to a later one; a singleton group of a
    // throw-away cache gains nothing and runs cold.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_fp: Vec<u64> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; pending.len()];
    let cold = opts.check || opts.trace.is_some();
    if opts.fork && cold && !opts.quiet && !pending.is_empty() {
        if opts.check {
            eprintln!("check: oracle enabled, running cold (fork disabled)");
        } else {
            eprintln!("trace: tracing enabled, running cold (fork disabled)");
        }
    }
    if opts.fork && !cold {
        for (i, plan) in pending.iter().enumerate() {
            if checkpoint_time(&plan.config).is_none() {
                continue; // no warm-up, nothing to share
            }
            let fp = warm_prefix_fingerprint(&plan.config);
            let g = match group_fp.iter().position(|&f| f == fp) {
                Some(g) => g,
                None => {
                    group_fp.push(fp);
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            groups[g].push(i);
            group_of[i] = Some(g);
        }
        for (g, group) in groups.iter_mut().enumerate() {
            let useful = cache_outlives || cache.snapshots.contains_key(&group_fp[g]);
            if group.len() < 2 && !useful {
                for &i in group.iter() {
                    group_of[i] = None;
                }
                group.clear();
            }
        }
    }
    // Fresh prefixes to simulate vs. groups served from the cache.
    let to_simulate: Vec<usize> = (0..groups.len())
        .filter(|&g| !groups[g].is_empty() && !cache.snapshots.contains_key(&group_fp[g]))
        .collect();
    let forked_groups = (0..groups.len()).filter(|&g| !groups[g].is_empty()).count();
    let prefix_runs = to_simulate.len();
    let mut prefix_events_skipped = 0u64;

    // Phase 1: one shared-prefix simulation per uncached forkable group.
    if !to_simulate.is_empty() {
        if !opts.quiet {
            let members: usize = to_simulate.iter().map(|&g| groups[g].len()).sum();
            eprintln!("fork: simulating {prefix_runs} shared warm prefix(es) for {members} run(s)");
        }
        let next = AtomicUsize::new(0);
        let made: Mutex<Vec<(usize, WorldSnapshot)>> =
            Mutex::new(Vec::with_capacity(to_simulate.len()));
        std::thread::scope(|scope| {
            for _ in 0..threads.min(to_simulate.len()) {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&g) = to_simulate.get(j) else { break };
                    let cfg = &pending[groups[g][0]].config;
                    let at = checkpoint_time(cfg).expect("forkable groups have a warm-up");
                    let mut world = World::new(warm_prefix_config(cfg));
                    world.run_until(at);
                    made.lock()
                        .expect("prefix lock")
                        .push((g, world.snapshot()));
                });
            }
        });
        for (g, snap) in made.into_inner().expect("prefix lock") {
            prefix_events_skipped += (groups[g].len() as u64 - 1) * snap.events_processed;
            cache.snapshots.insert(group_fp[g], snap);
        }
    }
    // Groups served entirely from the cache skip the prefix for every
    // member (the simulation happened in an earlier invocation).
    for &g in (0..groups.len())
        .filter(|&g| !groups[g].is_empty() && !to_simulate.contains(&g))
        .collect::<Vec<_>>()
        .iter()
    {
        if let Some(snap) = cache.snapshots.get(&group_fp[g]) {
            prefix_events_skipped += groups[g].len() as u64 * snap.events_processed;
        }
    }

    // Phase 2: every pending run — forked members restore the group's
    // checkpoint and continue; the rest run cold from t = 0. Either way
    // the artifact bytes are identical (checked by tests/fork.rs). A
    // panicking run is caught, recorded as failed, and its worker moves
    // on — one diverging simulation must not poison the pool.
    let cache = &*cache; // immutable from here: workers only read snapshots
    let mut violations: Vec<RunViolation> = Vec::new();
    let mut failed: Vec<FailedRun> = Vec::new();
    let trace_dropped = AtomicU64::new(0);
    if !pending.is_empty() {
        let order = dispatch_order(&pending, threads);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let fresh: Mutex<Vec<(usize, RunRecord)>> = Mutex::new(Vec::with_capacity(pending.len()));
        let found: Mutex<Vec<(usize, RunViolation)>> = Mutex::new(Vec::new());
        let panicked: Mutex<Vec<FailedRun>> = Mutex::new(Vec::new());
        let profiles: Mutex<Vec<(usize, ProfileEntry)>> = Mutex::new(Vec::new());
        let io_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let progress = Progress::new(pending.len(), skipped, opts.quiet);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let turn = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(turn) else { break };
                    let plan = pending[i];
                    let snap = group_of[i].and_then(|g| cache.snapshots.get(&group_fp[g]));
                    let started = Instant::now();
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if opts.panic_label.as_deref() == Some(plan.coord.label().as_str()) {
                            panic!("injected test panic");
                        }
                        run_one(
                            spec,
                            plan,
                            snap,
                            opts.check,
                            opts.trace.is_some(),
                            opts.trace_max_events,
                        )
                    }));
                    let (record, run_violations, trace_report) = match outcome {
                        Ok(Ok(out)) => out,
                        Ok(Err(e)) => {
                            let mut slot = io_error.lock().expect("io_error lock");
                            slot.get_or_insert(e);
                            break;
                        }
                        Err(payload) => {
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            panicked.lock().expect("failed lock").push(FailedRun {
                                index: plan.index,
                                label: plan.coord.label(),
                                hash: plan.hash.clone(),
                                message,
                            });
                            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                            progress.report(completed);
                            continue;
                        }
                    };
                    let wall_s = started.elapsed().as_secs_f64();
                    if let Err(e) = write_record_atomic(&artifact_path(&runs_dir, plan), &record) {
                        let mut slot = io_error.lock().expect("io_error lock");
                        slot.get_or_insert(e);
                        break;
                    }
                    if let (Some(trace_dir), Some(report)) = (&opts.trace, trace_report) {
                        if report.dropped > 0 {
                            trace_dropped.fetch_add(report.dropped, Ordering::Relaxed);
                        }
                        let path = trace_dir.join(format!("trace-{}.json", plan.hash));
                        if let Err(e) = write_atomic(&path, &report.to_chrome_json()) {
                            let mut slot = io_error.lock().expect("io_error lock");
                            slot.get_or_insert(e);
                            break;
                        }
                        let entry = ProfileEntry::new(
                            plan.index,
                            &plan.coord.label(),
                            plan.coord.scenario.name(),
                            &plan.hash,
                            wall_s,
                            &report,
                        );
                        profiles
                            .lock()
                            .expect("profiles lock")
                            .push((plan.index, entry));
                    }
                    if !run_violations.is_empty() {
                        let label = plan.coord.label();
                        let mut sink = found.lock().expect("violations lock");
                        sink.extend(run_violations.into_iter().map(|record| {
                            (
                                plan.index,
                                RunViolation {
                                    run: label.clone(),
                                    record,
                                },
                            )
                        }));
                    }
                    fresh
                        .lock()
                        .expect("records lock")
                        .push((plan.index, record));
                    let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                    progress.report(completed);
                });
            }
        });
        progress.finish();
        if let Some(e) = io_error.into_inner().expect("io_error lock") {
            return Err(e);
        }
        for (index, record) in fresh.into_inner().expect("records lock") {
            records[index] = Some(record);
        }
        let mut found = found.into_inner().expect("violations lock");
        found.sort_by_key(|(index, _)| *index); // stable: keeps per-run order
        violations = found.into_iter().map(|(_, v)| v).collect();
        failed = panicked.into_inner().expect("failed lock");
        failed.sort_by_key(|f| f.index);
        if let Some(trace_dir) = &opts.trace {
            let mut profiles = profiles.into_inner().expect("profiles lock");
            profiles.sort_by_key(|(index, _)| *index);
            let mut stream = String::new();
            for (_, entry) in &profiles {
                stream.push_str(&entry.encode());
                stream.push('\n');
            }
            write_atomic(&trace_dir.join(crate::profile::PROFILE_FILE), &stream)?;
        }
    }

    let executed = pending.len() - failed.len();
    // Failed runs have no record (and no artifact, so resume retries
    // them); any other hole is an internal error.
    let records = plans
        .iter()
        .zip(records)
        .filter(|(plan, record)| record.is_some() || !failed.iter().any(|f| f.index == plan.index))
        .map(|(plan, record)| {
            record.ok_or_else(|| {
                io::Error::other(format!(
                    "run {} produced no artifact (expected {})",
                    plan.coord.label(),
                    artifact_path(&runs_dir, plan).display()
                ))
            })
        })
        .collect::<io::Result<Vec<RunRecord>>>()?;
    Ok(CampaignReport {
        records,
        executed,
        skipped,
        threads,
        forked_groups,
        prefix_runs,
        prefix_events_skipped,
        violations,
        failed,
        quarantined,
        trace_dropped_events: trace_dropped.into_inner(),
    })
}

/// The order in which workers take the pending runs (indices into
/// `pending`). One worker takes them in canonical order. Several take
/// the longest simulations first, ties in canonical order, so the pool
/// does not end with one worker on a long run it started last while the
/// others idle. Only the schedule changes: records, progress counts and
/// artifacts are keyed by the plan, not by who ran it when.
fn dispatch_order(pending: &[&RunPlan], threads: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    if threads > 1 {
        order.sort_by_key(|&i| {
            let cfg = &pending[i].config;
            std::cmp::Reverse(cfg.warmup + cfg.duration)
        });
    }
    order
}

/// Executes one run, either cold from `t = 0` or forked from a shared
/// warm-prefix checkpoint. Both paths end in the same [`RunRecord`];
/// the cold path additionally arms the invariant oracle (`check`) and
/// the structured tracer (`trace`) on request and returns whatever they
/// reported (both observers are passive, so the record is unaffected).
fn run_one(
    spec: &CampaignSpec,
    plan: &RunPlan,
    snap: Option<&WorldSnapshot>,
    check: bool,
    trace: bool,
    trace_max_events: Option<usize>,
) -> io::Result<(
    RunRecord,
    Vec<tsn_metrics::ViolationRecord>,
    Option<tsn_trace::TraceReport>,
)> {
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
            if check {
                world.enable_oracle();
            }
            if trace {
                match trace_max_events {
                    Some(cap) => world.enable_trace_capped(cap),
                    None => world.enable_trace(),
                }
            }
            world.run()
        }
    };
    let record = RunRecord::new(&spec.name, plan, &result);
    Ok((record, result.violations, result.trace))
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
/// via [`RunRecord::encode_to`] — the encoded JSONL line (which can be
/// large for fleet runs) is never materialized as one in-memory string.
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

/// Serialized progress reporting on stderr: completed/total and an ETA
/// extrapolated from the mean run time so far. Wall-clock time feeds
/// only this display, never the artifacts.
struct Progress {
    total: usize,
    skipped: usize,
    started: Instant,
    quiet: bool,
    line: Mutex<()>,
}

impl Progress {
    fn new(total: usize, skipped: usize, quiet: bool) -> Progress {
        let p = Progress {
            total,
            skipped,
            started: Instant::now(),
            quiet,
            line: Mutex::new(()),
        };
        if !p.quiet && p.skipped > 0 {
            eprintln!("resume: {} run(s) already complete, skipping", p.skipped);
        }
        p
    }

    fn report(&self, completed: usize) {
        if self.quiet {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let per_run = elapsed / completed as f64;
        let eta = per_run * (self.total - completed) as f64;
        let _guard = self.line.lock().expect("progress lock");
        eprint!(
            "\r[{completed}/{}] runs complete, elapsed {}, ETA {}   ",
            self.total,
            fmt_secs(elapsed),
            fmt_secs(eta),
        );
        let _ = io::stderr().flush();
    }

    fn finish(&self) {
        if !self.quiet && self.total > 0 {
            eprintln!();
        }
    }
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
            plan.config.duration = tsn_time::Nanos::from_secs(seconds);
        }
        let pending: Vec<&RunPlan> = plans.iter().collect();
        assert_eq!(dispatch_order(&pending, 1), [0, 1, 2, 3, 4]);
        assert_eq!(dispatch_order(&pending, 2), [3, 1, 4, 0, 2]);
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
