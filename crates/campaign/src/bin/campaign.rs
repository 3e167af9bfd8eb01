//! The `campaign` CLI: run, resume, summarize, and diff experiment
//! campaigns.
//!
//! ```text
//! campaign run       (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--fork] [--check] [--trace DIR] [--trace-cap N]
//! campaign resume    (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--fork] [--check] [--trace DIR] [--trace-cap N]
//! campaign frontier  (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--check] [--no-fork]
//! campaign summarize --dir DIR [--json]
//! campaign profile   --trace DIR [--json]
//! campaign diff      --baseline DIR --candidate DIR
//! campaign spec      --builtin NAME
//! campaign list
//! ```
//!
//! `resume` is an alias of `run` — resumption is automatic and
//! content-addressed, the alias only states intent. `summarize` and
//! `diff` read the spec back from each campaign directory's
//! `manifest.json`, so they need no spec argument. `diff` exits 0 on
//! parity, 1 on regression, 2 on error/incomparable campaigns; its
//! tolerances are fixed (`summary::diff`, `frontier::diff`).
//!
//! `frontier` explores a resilience-frontier spec
//! (`tsn_campaign::frontier`): per discrete adversary cell it bisects
//! the continuous axis until the containment-failure boundary is
//! bracketed, writes `frontier.json`, and prints the
//! empirical-vs-analytical report. Forking is on by default there (the
//! rounds exist to share warm prefixes); `--no-fork` runs cold.
//! `summarize` and `diff` recognize frontier directories by their
//! `frontier-spec.json`, replay the bisection over the probe artifacts
//! in `runs/`, and compare brackets instead of group summaries.
//! Exit is nonzero when any cell is inconsistent with the analytical
//! bound, a run failed, or (`--check`) the oracle reported violations.
//!
//! `--check` arms the runtime invariant oracle (`tsn-oracle`) on every
//! executed run: violations are printed to stderr and the command exits
//! 1 if any were found. Artifacts are byte-identical either way.
//!
//! `--trace DIR` arms the structured tracer (`tsn-trace`) on every
//! executed run and writes one Chrome trace-event file
//! `trace-<hash>.json` per run into DIR (open it in `ui.perfetto.dev`),
//! plus a `profile.jsonl` stream with per-run wall time and event
//! counts. `campaign profile --trace DIR` aggregates that stream into a
//! per-scenario hot-spot report (`--json` for the machine-readable
//! table). Artifacts are byte-identical either way.

use clocksync::repro::Flags;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsn_campaign::json::Json;
use tsn_campaign::{frontier, profile, runner, summary, CampaignSpec, FrontierSpec, RunnerOptions};

const USAGE: &str = "usage:
  campaign run       (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--fork] [--check] [--trace DIR] [--trace-cap N]
  campaign resume    (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--fork] [--check] [--trace DIR] [--trace-cap N]
  campaign frontier  (--builtin NAME | --spec FILE) [--dir DIR] [--threads N] [--quiet] [--check] [--no-fork]
  campaign summarize --dir DIR [--json]
  campaign profile   --trace DIR [--json]
  campaign diff      --baseline DIR --candidate DIR
  campaign spec      --builtin NAME
  campaign list

built-in specs: quick-baseline, repro-all, abl2-domains, abl3-sync-interval, adversary-sweep, election-sweep, fabric-sweep, fleet-sweep
built-in frontier specs: frontier-sweep
exit codes (diff): 0 parity, 1 regression, 2 error
exit codes (run --check): 0 clean, 1 invariant violation(s) or failed run(s), 2 error
exit codes (frontier): 0 consistent, 1 inconsistent cell / violation / failed run, 2 error";

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
        "run" | "resume" => cmd_run(rest),
        "frontier" => cmd_frontier(rest),
        "summarize" => cmd_summarize(rest),
        "profile" => cmd_profile(rest),
        "diff" => cmd_diff(rest),
        "spec" => cmd_spec(rest),
        "list" => {
            for name in CampaignSpec::BUILTINS {
                let spec = CampaignSpec::builtin(name).expect("builtin exists");
                println!("{name}  ({} runs)", spec.total_runs());
            }
            for name in FrontierSpec::BUILTINS {
                let spec = FrontierSpec::builtin(name).expect("builtin exists");
                println!(
                    "{name}  (frontier: {} cell(s), ≤{} runs)",
                    spec.cells.len(),
                    spec.cells.len() * spec.budget_per_cell * spec.seeds.len()
                );
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

fn load_spec(flags: &Flags) -> Result<CampaignSpec, String> {
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
        &["--quiet", "--fork", "--check"],
    )?;
    let spec = load_spec(&flags)?;
    let dir = flags
        .get("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/campaigns").join(&spec.name));
    let opts = RunnerOptions {
        dir: dir.clone(),
        threads: flags.get_parsed::<usize>("--threads")?.unwrap_or(0),
        quiet: flags.has("--quiet"),
        fork: flags.has("--fork"),
        check: flags.has("--check"),
        trace: flags.get("--trace").map(PathBuf::from),
        trace_max_events: flags.get_parsed::<usize>("--trace-cap")?,
        panic_label: None,
    };
    if opts.trace_max_events.is_some() && opts.trace.is_none() {
        return Err("--trace-cap needs --trace DIR".to_string());
    }
    let report = runner::execute(&spec, &opts).map_err(|e| e.to_string())?;
    println!(
        "campaign {}: {} run(s) total, {} executed, {} resumed, {} thread(s), artifacts in {}",
        spec.name,
        report.records.len(),
        report.executed,
        report.skipped,
        report.threads,
        dir.display()
    );
    if report.quarantined > 0 {
        println!(
            "resume: {} corrupt artifact(s) quarantined to {} and re-run",
            report.quarantined,
            dir.join("runs").join("corrupt").display()
        );
    }
    if report.forked_groups > 0 {
        println!(
            "fork: {} group(s) shared {} warm prefix run(s), {} event(s) skipped",
            report.forked_groups, report.prefix_runs, report.prefix_events_skipped
        );
    }
    print!("{}", summary::render(&summary::summarize(&report.records)));
    if let Some(trace_dir) = &opts.trace {
        println!(
            "trace: {} run(s) traced into {} (open trace-<hash>.json in ui.perfetto.dev; \
             `campaign profile --trace {}` for the hot-spot report)",
            report.executed,
            trace_dir.display(),
            trace_dir.display()
        );
    }
    let mut failing = false;
    if report.trace_dropped_events > 0 {
        eprintln!(
            "trace: {} event(s) dropped past the per-run cap — the trace is truncated \
             (raise --trace-cap; `campaign profile` shows per-scenario drop counts)",
            report.trace_dropped_events
        );
        if opts.check {
            failing = true;
        }
    }
    if !report.failed.is_empty() {
        eprintln!(
            "failed: {} run(s) panicked (campaign finished; resume retries them):",
            report.failed.len()
        );
        for f in &report.failed {
            eprintln!("  {f}");
        }
        failing = true;
    }
    if opts.check {
        if report.violations.is_empty() {
            println!("check: no invariant violations");
        } else {
            eprintln!("check: {} invariant violation(s):", report.violations.len());
            for v in &report.violations {
                eprintln!("  {v}");
            }
            failing = true;
        }
    }
    Ok(if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_frontier(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--builtin", "--spec", "--dir", "--threads"],
        &["--quiet", "--check", "--no-fork"],
    )?;
    let spec = match (flags.get("--builtin"), flags.get("--spec")) {
        (Some(name), None) => FrontierSpec::builtin(name)
            .ok_or_else(|| format!("unknown frontier builtin {name:?} (see `campaign list`)"))?,
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            FrontierSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        _ => return Err("exactly one of --builtin or --spec is required".to_string()),
    };
    let dir = flags
        .get("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/campaigns").join(&spec.name));
    let opts = RunnerOptions {
        dir: dir.clone(),
        threads: flags.get_parsed::<usize>("--threads")?.unwrap_or(0),
        quiet: flags.has("--quiet"),
        fork: !flags.has("--no-fork"),
        check: flags.has("--check"),
        trace: None,
        trace_max_events: None,
        panic_label: None,
    };
    let report = frontier::execute(&spec, &opts).map_err(|e| e.to_string())?;
    print!("{}", report.doc.render_text());
    println!(
        "frontier: {} executed, {} resumed; artifacts in {}",
        report.executed,
        report.skipped,
        dir.display()
    );
    if report.forked_groups > 0 {
        println!(
            "fork: {} group(s) shared {} warm prefix run(s) across rounds, {} event(s) skipped",
            report.forked_groups, report.prefix_runs, report.prefix_events_skipped
        );
    }
    let mut failing = false;
    if !report.failed.is_empty() {
        eprintln!("failed: {} run(s) panicked:", report.failed.len());
        for f in &report.failed {
            eprintln!("  {f}");
        }
        failing = true;
    }
    if opts.check {
        if report.violations.is_empty() {
            println!("check: no invariant violations");
        } else {
            eprintln!("check: {} invariant violation(s):", report.violations.len());
            for v in &report.violations {
                eprintln!("  {v}");
            }
            failing = true;
        }
    }
    if !report.doc.consistent() {
        eprintln!("frontier: empirical boundary inconsistent with the analytical bound");
        failing = true;
    }
    Ok(if failing {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Reads the spec back from a campaign directory's manifest.
fn spec_of_dir(dir: &Path) -> Result<CampaignSpec, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let manifest =
        Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let spec = manifest
        .get("spec")
        .ok_or_else(|| format!("{} has no `spec`", path.display()))?;
    let spec =
        CampaignSpec::parse(&spec.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    spec.validate()
        .map_err(|e| format!("{} holds an invalid spec: {e}", path.display()))?;
    Ok(spec)
}

fn load_summaries(dir: &Path) -> Result<Vec<summary::GroupSummary>, String> {
    let spec = spec_of_dir(dir)?;
    // Stream records through the bounded summarizer — one record in
    // memory at a time, so fleet-scale campaigns summarize in O(groups).
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
    Ok(summarizer.finish())
}

/// The document of a frontier directory — one with a
/// `frontier-spec.json` — replayed from its probe artifacts.
fn frontier_doc_of_dir(dir: &Path) -> Option<Result<frontier::FrontierDoc, String>> {
    let path = dir.join("frontier-spec.json");
    if !path.exists() {
        return None;
    }
    Some(
        std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                FrontierSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
            .and_then(|spec| frontier::load(&spec, dir).map_err(|e| e.to_string())),
    )
}

fn cmd_summarize(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--dir"], &["--json"])?;
    let dir = PathBuf::from(flags.get("--dir").ok_or("--dir is required")?);
    // A frontier directory has no manifest — its summary is the
    // frontier document itself.
    if !dir.join("manifest.json").exists() {
        if let Some(loaded) = frontier_doc_of_dir(&dir) {
            let doc = loaded?;
            if flags.has("--json") {
                print!("{}", doc.render());
            } else {
                print!("{}", doc.render_text());
            }
            return Ok(ExitCode::SUCCESS);
        }
    }
    let groups = load_summaries(&dir)?;
    if flags.has("--json") {
        println!("{}", summary::render_json(&groups));
    } else {
        print!("{}", summary::render(&groups));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--trace"], &["--json"])?;
    let dir = PathBuf::from(flags.get("--trace").ok_or("--trace is required")?);
    let entries = profile::load(&dir).map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return Err(format!(
            "no profiled runs in {} (run a campaign with --trace first)",
            dir.display()
        ));
    }
    if flags.has("--json") {
        println!("{}", profile::render_json(&profile::aggregate(&entries)));
        return Ok(ExitCode::SUCCESS);
    }
    let total_wall: f64 = entries.iter().map(|e| e.wall_s).sum();
    let total_events: u64 = entries.iter().map(|e| e.sim_events).sum();
    println!(
        "{} profiled run(s), {:.2}s wall, {} simulated event(s) ({:.0} events/s overall)",
        entries.len(),
        total_wall,
        total_events,
        if total_wall > 0.0 {
            total_events as f64 / total_wall
        } else {
            0.0
        },
    );
    print!("{}", profile::render(&profile::aggregate(&entries)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--baseline", "--candidate"], &[])?;
    let baseline = PathBuf::from(flags.get("--baseline").ok_or("--baseline is required")?);
    let candidate = PathBuf::from(flags.get("--candidate").ok_or("--candidate is required")?);
    // Two frontier directories diff by bracket, not by group summary.
    if let (Some(base), Some(cand)) = (
        frontier_doc_of_dir(&baseline),
        frontier_doc_of_dir(&candidate),
    ) {
        let (verdict, lines) = frontier::diff(&base?, &cand?);
        for line in &lines {
            println!("{line}");
        }
        println!("verdict: {verdict:?}");
        return Ok(ExitCode::from(verdict.exit_code() as u8));
    }
    let report = summary::diff(&load_summaries(&baseline)?, &load_summaries(&candidate)?);
    for line in &report.lines {
        println!("{line}");
    }
    println!("verdict: {:?}", report.verdict);
    Ok(ExitCode::from(report.verdict.exit_code() as u8))
}

fn cmd_spec(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--builtin"], &[])?;
    let name = flags.get("--builtin").ok_or("--builtin is required")?;
    if let Some(spec) = CampaignSpec::builtin(name) {
        print!("{}", spec.render());
    } else if let Some(spec) = FrontierSpec::builtin(name) {
        print!("{}", spec.render());
    } else {
        return Err(format!("unknown builtin {name:?} (see `campaign list`)"));
    }
    Ok(ExitCode::SUCCESS)
}
