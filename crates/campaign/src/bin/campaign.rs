//! The `campaign` CLI: run, summarize, and diff experiment campaigns.
//!
//! The commands and their flags are listed once, in `USAGE` (printed by
//! `campaign --help`).
//!
//! `run` takes any spec. A spec without a `bisect` block runs its
//! matrix and prints the cross-seed summary. A spec with one is a
//! frontier (`tsn_campaign::frontier`): it bisects the block's axis at
//! every grid point until the containment-failure boundary is
//! bracketed, writes `frontier.json`, and prints the
//! empirical-vs-analytical report; it exits 1 when a cell is
//! inconsistent with the analytical bound. Both print one counts block.
//! Re-running a spec resumes: completed runs are recognized by content
//! hash. Runs that share a warm prefix fork it; the runner decides
//! (`RunnerOptions::fork`), and the bytes are those of a cold run.
//!
//! `summarize` and `diff` read the spec back from each directory's
//! `manifest.json`, so they need no spec argument; for a spec with a
//! `bisect` block they replay the bisection over the probe artifacts in
//! `runs/` and compare brackets instead of group summaries. `diff`
//! exits 0 on parity, 1 on regression, 2 on error/incomparable
//! campaigns; its tolerances are fixed (`summary::diff`,
//! `frontier::diff`).
//!
//! `--check` arms the runtime invariant oracle (`tsn-oracle`) on every
//! executed run, which then runs cold: violations are printed to stderr
//! and the command exits 1 if any were found. Artifacts are
//! byte-identical either way.
//!
//! `--trace DIR` (campaign specs only) arms the structured tracer
//! (`tsn-trace`) on every executed run and writes one Chrome
//! trace-event file `trace-<hash>.json` per run into DIR (open it in
//! `ui.perfetto.dev`); its `otherData` holds the run's event and drop
//! counts. Artifacts are byte-identical either way.
//!
//! `snapshot` saves, inspects, restores and verifies world checkpoints
//! of one campaign run, named by its spec and content hash (`--run
//! HASH`, as in `runs/run-HASH.jsonl`). `verify` steps the original and
//! a restored copy epoch by epoch and exits 1 at the first epoch whose
//! state hashes differ.

use clocksync::repro::Flags;
use clocksync::{TestbedConfig, World, WorldSnapshot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsn_campaign::json::Json;
use tsn_campaign::{frontier, runner, summary, CampaignReport, CampaignSpec, RunnerOptions};
use tsn_time::{Nanos, SimTime};

const USAGE: &str = "usage:
  campaign run       (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--check] [--trace DIR] [--trace-cap N]
  campaign summarize --dir DIR [--json]
  campaign diff      --baseline DIR --candidate DIR
  campaign spec      --builtin NAME
  campaign list
  campaign snapshot save    (--builtin NAME | --spec FILE) --run HASH --at SECS --out FILE
  campaign snapshot info    --file FILE
  campaign snapshot restore (--builtin NAME | --spec FILE) --run HASH --file FILE
  campaign snapshot verify  (--builtin NAME | --spec FILE) --run HASH [--at SECS] [--epoch-s SECS]

built-in specs: quick-baseline, repro-all, abl2-domains, abl3-sync-interval, adversary-sweep, election-sweep, fabric-sweep, frontier-sweep
exit codes (diff): 0 parity, 1 regression, 2 error
exit codes (run): 0 clean, 1 failed run(s) / invariant violation(s) under --check / inconsistent frontier cell, 2 error
exit codes (snapshot): 0 ok, 1 divergence (verify), 2 error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err("no subcommand".to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => cmd_run(rest),
        "summarize" => cmd_summarize(rest),
        "diff" => cmd_diff(rest),
        "spec" => cmd_spec(rest),
        "snapshot" => cmd_snapshot(rest),
        "list" => {
            Flags::parse(rest, &[], &[])?;
            for name in CampaignSpec::BUILTINS {
                let spec = CampaignSpec::builtin(name).expect("builtin exists");
                let runs = spec.total_runs();
                match spec.bisect {
                    None => println!("{name}  ({runs} runs)"),
                    Some(b) => println!("{name}  (frontier, ≤{} runs)", runs * b.budget_per_cell),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The spec `--builtin NAME` or `--spec FILE` names.
fn load(flags: &Flags) -> Result<CampaignSpec, String> {
    match (flags.get("--builtin"), flags.get("--spec")) {
        (Some(name), None) => CampaignSpec::builtin(name)
            .ok_or_else(|| format!("unknown builtin {name:?} (see `campaign list`)")),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("exactly one of --builtin or --spec is required".to_string()),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--builtin",
            "--spec",
            "--dir",
            "--threads",
            "--trace",
            "--trace-cap",
        ],
        &["--quiet", "--check"],
    )?;
    let spec = load(&flags)?;
    let dir = flags.get("--dir").map(PathBuf::from);
    let opts = RunnerOptions {
        threads: flags.get_parsed::<usize>("--threads")?.unwrap_or(0),
        quiet: flags.has("--quiet"),
        check: flags.has("--check"),
        trace: flags.get("--trace").map(PathBuf::from),
        trace_max_events: flags.get_parsed::<usize>("--trace-cap")?,
        ..RunnerOptions::new(
            dir.unwrap_or_else(|| PathBuf::from("target/campaigns").join(&spec.name)),
        )
    };
    if opts.trace_max_events.is_some() && opts.trace.is_none() {
        return Err("--trace-cap needs --trace DIR".to_string());
    }
    let (report, body, consistent) = match spec.bisect {
        None => {
            let report = runner::execute(&spec, &opts).map_err(|e| e.to_string())?;
            let body = summary::render(&summary::summarize(&report.records));
            (report, body, true)
        }
        Some(_) if opts.trace.is_some() => {
            return Err("--trace takes a spec without a `bisect` block".to_string());
        }
        Some(_) => {
            let (doc, report) = frontier::execute(&spec, &opts).map_err(|e| e.to_string())?;
            (report, doc.render_text(), doc.consistent())
        }
    };
    let failing = print_counts(&spec.name, &report, &opts, &body);
    if !consistent {
        eprintln!("frontier: empirical boundary inconsistent with the analytical bound");
    }
    Ok(ExitCode::from(u8::from(failing || !consistent)))
}

/// The counts block `run` prints around the body, with or without a
/// `bisect` block: runs executed and resumed and warm prefixes forked before it;
/// traces written, runs that panicked and, under `--check`, the
/// oracle's verdict after it. Returns whether the command fails: a run
/// panicked, or under `--check` an invariant was violated or a trace
/// truncated.
fn print_counts(name: &str, report: &CampaignReport, opts: &RunnerOptions, body: &str) -> bool {
    println!(
        "campaign {name}: {} run(s) total, {} executed, {} resumed, {} thread(s), artifacts in {}",
        report.executed + report.skipped,
        report.executed,
        report.skipped,
        report.threads,
        opts.dir.display()
    );
    if report.quarantined > 0 {
        println!(
            "resume: {} corrupt artifact(s) quarantined to {} and re-run",
            report.quarantined,
            opts.dir.join("runs").join("corrupt").display()
        );
    }
    if report.forked_groups > 0 {
        println!(
            "fork: {} group(s) shared {} warm prefix run(s), {} event(s) skipped",
            report.forked_groups, report.prefix_runs, report.prefix_events_skipped
        );
    }
    print!("{body}");
    if let Some(trace_dir) = &opts.trace {
        println!(
            "trace: {} run(s) traced into {} (open trace-<hash>.json in ui.perfetto.dev)",
            report.executed,
            trace_dir.display()
        );
    }
    let truncated = report.trace_dropped_events > 0;
    if truncated {
        eprintln!(
            "trace: {} event(s) dropped past the per-run cap — the trace is truncated \
             (raise --trace-cap; each trace file's otherData.dropped counts its run's drops)",
            report.trace_dropped_events
        );
    }
    if !report.failed.is_empty() {
        eprintln!(
            "failed: {} run(s) panicked (the rest finished; running the spec again retries them):",
            report.failed.len()
        );
        for f in &report.failed {
            eprintln!("  {f}");
        }
    }
    if opts.check && report.violations.is_empty() {
        println!("check: no invariant violations");
    } else if opts.check {
        eprintln!("check: {} invariant violation(s):", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
    }
    !report.failed.is_empty() || (opts.check && (truncated || !report.violations.is_empty()))
}

/// Reads the spec back from a campaign or frontier directory's manifest.
fn spec_of_dir(dir: &Path) -> Result<CampaignSpec, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let manifest =
        Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let spec = manifest
        .get("spec")
        .ok_or_else(|| format!("{} has no `spec`", path.display()))?;
    CampaignSpec::parse(&spec.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// What `summarize` and `diff` read from a directory: a frontier's
/// document, replayed from its probe artifacts, or a campaign's group
/// summaries.
enum View {
    Frontier(Box<frontier::FrontierDoc>),
    Campaign(Vec<summary::GroupSummary>),
}

fn view_of_dir(dir: &Path) -> Result<View, String> {
    let spec = spec_of_dir(dir)?;
    if spec.bisect.is_some() {
        let doc = frontier::load(&spec, dir).map_err(|e| e.to_string())?;
        return Ok(View::Frontier(Box::new(doc)));
    }
    // Stream records through the bounded summarizer — one record in
    // memory at a time, so large campaigns summarize in O(groups).
    let reader = runner::RunRecordReader::open(&spec, dir).map_err(|e| e.to_string())?;
    if reader.is_empty() {
        return Err(format!(
            "campaign at {} has no completed runs to summarize (run it first)",
            dir.display()
        ));
    }
    let mut summarizer = summary::StreamSummarizer::new();
    for record in reader {
        summarizer.push(&record.map_err(|e| e.to_string())?);
    }
    Ok(View::Campaign(summarizer.finish()))
}

fn cmd_summarize(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--dir"], &["--json"])?;
    let dir = PathBuf::from(flags.get("--dir").ok_or("--dir is required")?);
    match (view_of_dir(&dir)?, flags.has("--json")) {
        (View::Frontier(doc), true) => print!("{}", doc.render()),
        (View::Frontier(doc), false) => print!("{}", doc.render_text()),
        (View::Campaign(groups), true) => println!("{}", summary::render_json(&groups)),
        (View::Campaign(groups), false) => print!("{}", summary::render(&groups)),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--baseline", "--candidate"], &[])?;
    let baseline = PathBuf::from(flags.get("--baseline").ok_or("--baseline is required")?);
    let candidate = PathBuf::from(flags.get("--candidate").ok_or("--candidate is required")?);
    let (verdict, lines) = match (view_of_dir(&baseline)?, view_of_dir(&candidate)?) {
        // Two frontier directories diff by bracket, not by group summary.
        (View::Frontier(base), View::Frontier(cand)) => frontier::diff(&base, &cand),
        (View::Campaign(base), View::Campaign(cand)) => {
            let report = summary::diff(&base, &cand);
            (report.verdict, report.lines)
        }
        _ => return Err("cannot diff a frontier against a campaign".to_string()),
    };
    for line in &lines {
        println!("{line}");
    }
    println!("verdict: {verdict:?}");
    Ok(ExitCode::from(verdict.exit_code() as u8))
}

fn cmd_spec(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--builtin"], &[])?;
    flags.get("--builtin").ok_or("--builtin is required")?;
    print!("{}", load(&flags)?.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("no snapshot subcommand (save|info|restore|verify)")?;
    match command.as_str() {
        "save" => cmd_snapshot_save(rest),
        "info" => cmd_snapshot_info(rest),
        "restore" => cmd_snapshot_restore(rest),
        "verify" => cmd_snapshot_verify(rest),
        other => Err(format!("unknown snapshot subcommand {other:?}")),
    }
}

/// Parses the flags that name one campaign run plus `extra`; returns
/// them with the run's configuration: the plan of `matrix::expand`
/// whose content hash is `--run HASH`.
fn parse_run(args: &[String], extra: &[&str]) -> Result<(Flags, TestbedConfig), String> {
    let flags = Flags::parse(
        args,
        &[&["--builtin", "--spec", "--run"], extra].concat(),
        &[],
    )?;
    let spec = load(&flags)?;
    let hash = flags.get("--run").ok_or("--run HASH is required")?;
    let plans = tsn_campaign::expand(&spec).map_err(|e| e.to_string())?;
    let plan = plans.into_iter().find(|p| p.hash == hash);
    let cfg = plan.ok_or_else(|| format!("spec {:?} has no run {hash:?}", spec.name))?;
    Ok((flags, cfg.config))
}

fn check_at(at: SimTime, end: SimTime) -> Result<(), String> {
    if at > end {
        return Err(format!(
            "--at {}s is past the end of the run ({}s)",
            at.as_secs_f64(),
            end.as_secs_f64()
        ));
    }
    Ok(())
}

fn read_snapshot(path: &str) -> Result<WorldSnapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    WorldSnapshot::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn print_info(snap: &WorldSnapshot) {
    println!("state_version:    {}", snap.state_version);
    println!("config_fp:        {:016x}", snap.config_fingerprint);
    println!(
        "at:               {:.3}s ({} ns)",
        snap.at_ns as f64 / 1e9,
        snap.at_ns
    );
    println!("events_processed: {}", snap.events_processed);
    println!("payload:          {} byte(s)", snap.payload.len());
    println!("state_hash:       {:016x}", snap.state_hash());
}

fn cmd_snapshot_save(args: &[String]) -> Result<ExitCode, String> {
    let (flags, cfg) = parse_run(args, &["--at", "--out"])?;
    let at = SimTime::from_secs(
        flags
            .get_parsed::<u64>("--at")?
            .ok_or("--at SECS is required")?,
    );
    let out = PathBuf::from(flags.get("--out").ok_or("--out FILE is required")?);

    let mut world = World::new(cfg);
    check_at(at, world.end_time())?;
    world.run_until(at);
    let snap = world.snapshot();
    std::fs::write(&out, snap.encode())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("saved {}", out.display());
    print_info(&snap);
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshot_info(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--file"], &[])?;
    let snap = read_snapshot(flags.get("--file").ok_or("--file FILE is required")?)?;
    print_info(&snap);
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshot_restore(args: &[String]) -> Result<ExitCode, String> {
    let (flags, cfg) = parse_run(args, &["--file"])?;
    let snap = read_snapshot(flags.get("--file").ok_or("--file FILE is required")?)?;

    let mut world = World::restore(cfg, &snap).map_err(|e| format!("restore: {e}"))?;
    let end = world.end_time();
    world.run_until(end);
    println!(
        "restored at {:.3}s, continued to {:.3}s",
        snap.at_ns as f64 / 1e9,
        end.as_secs_f64()
    );
    println!("events_processed: {}", world.events_processed());
    println!("state_hash:       {:016x}", world.state_hash());
    let result = world.into_result();
    println!("counters:         {:?}", result.counters);
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshot_verify(args: &[String]) -> Result<ExitCode, String> {
    let (flags, cfg) = parse_run(args, &["--at", "--epoch-s"])?;
    let epoch = Nanos::from_secs(flags.get_parsed::<i64>("--epoch-s")?.unwrap_or(1).max(1));

    let mut original = World::new(cfg.clone());
    let end = original.end_time();
    // Default checkpoint: the end of the warm-up (where the campaign
    // engine forks), falling back to the midpoint for zero-warm-up runs.
    let at = match flags.get_parsed::<u64>("--at")? {
        Some(s) => SimTime::from_secs(s),
        None => clocksync::snapshot::checkpoint_time(&cfg)
            .unwrap_or(SimTime::from_nanos(end.as_nanos() / 2)),
    };
    check_at(at, end)?;

    original.run_until(at);
    let snap = original.snapshot();
    let mut restored = World::restore(cfg, &snap).map_err(|e| format!("restore: {e}"))?;
    if restored.state_hash() != original.state_hash() {
        println!(
            "DIVERGED at epoch 0 (t = {:.3}s): restore does not reproduce the checkpoint",
            at.as_secs_f64()
        );
        return Ok(ExitCode::from(1));
    }

    let mut t = at;
    let mut epochs = 0u64;
    while t < end {
        t = (t + epoch).min(end);
        epochs += 1;
        original.run_until(t);
        restored.run_until(t);
        let (a, b) = (original.state_hash(), restored.state_hash());
        if a != b {
            println!(
                "DIVERGED at epoch {epochs} (t = {:.3}s): original {:016x} != restored {:016x}",
                t.as_secs_f64(),
                a,
                b
            );
            println!(
                "first nondeterministic event lies in ({:.3}s, {:.3}s]",
                (t + Nanos::from_nanos(-epoch.as_nanos())).as_secs_f64(),
                t.as_secs_f64()
            );
            return Ok(ExitCode::from(1));
        }
    }
    println!(
        "verified: {epochs} epoch(s) of {:.0}s from {:.3}s to {:.3}s, no divergence (state_hash {:016x})",
        epoch.as_secs_f64(),
        at.as_secs_f64(),
        end.as_secs_f64(),
        original.state_hash()
    );
    Ok(ExitCode::SUCCESS)
}
