//! The `snapshot` CLI: save, inspect, restore, and verify deterministic
//! world checkpoints.
//!
//! ```text
//! snapshot save    [config flags] --at SECS --out FILE
//! snapshot info    --file FILE
//! snapshot restore --file FILE [config flags]
//! snapshot verify  [config flags] [--at SECS] [--epoch-s SECS]
//! ```
//!
//! Config flags (shared by `save`, `restore`, and `verify`):
//! `[--preset quick|paper] [--scenario NAME] [--seed N] [--duration-s S]
//! [--warmup-s S]` — they must describe the *same* configuration when
//! restoring that was used when saving; [`World::restore`] rejects a
//! mismatched fingerprint rather than silently diverging.
//!
//! `verify` is the divergence detector: it checkpoints a run mid-flight,
//! restores a copy, then steps the original and the restored world epoch
//! by epoch, comparing state hashes. The first divergent epoch pinpoints
//! where nondeterminism crept in. Exits 0 when the runs stay identical,
//! 1 on divergence, 2 on usage errors.

use clocksync::repro::Flags;
use clocksync::scenario::ScenarioKind;
use clocksync::{TestbedConfig, World, WorldSnapshot};
use std::path::PathBuf;
use std::process::ExitCode;
use tsn_time::{Nanos, SimTime};

const USAGE: &str = "usage:
  snapshot save    [config flags] --at SECS --out FILE
  snapshot info    --file FILE
  snapshot restore --file FILE [config flags]
  snapshot verify  [config flags] [--at SECS] [--epoch-s SECS]

config flags: [--preset quick|paper] [--scenario NAME] [--seed N]
              [--duration-s S] [--warmup-s S]
scenarios: baseline, cyber_identical_kernels, cyber_diverse_kernels,
           fault_injection, prior_work_baseline
exit codes: 0 ok, 1 divergence (verify), 2 error";

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
        "save" => cmd_save(rest),
        "info" => cmd_info(rest),
        "restore" => cmd_restore(rest),
        "verify" => cmd_verify(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

const CONFIG_FLAGS: [&str; 5] = [
    "--preset",
    "--scenario",
    "--seed",
    "--duration-s",
    "--warmup-s",
];

/// Materializes a configuration from the shared config flags.
fn build_config(flags: &Flags) -> Result<TestbedConfig, String> {
    let seed = flags.get_parsed::<u64>("--seed")?.unwrap_or(1);
    let mut cfg = match flags.get("--preset").unwrap_or("quick") {
        "quick" => TestbedConfig::quick(seed),
        "paper" => TestbedConfig::paper_default(seed),
        other => return Err(format!("unknown preset {other:?} (quick|paper)")),
    };
    if let Some(s) = flags.get_parsed::<i64>("--duration-s")? {
        cfg.duration = Nanos::from_secs(s);
    }
    if let Some(s) = flags.get_parsed::<i64>("--warmup-s")? {
        cfg.warmup = Nanos::from_secs(s);
    }
    if let Some(name) = flags.get("--scenario") {
        let kind = ScenarioKind::parse(name)
            .ok_or_else(|| format!("unknown scenario {name:?} (see `snapshot help`)"))?;
        kind.apply(&mut cfg);
    }
    Ok(cfg)
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

fn cmd_save(args: &[String]) -> Result<ExitCode, String> {
    let mut known = CONFIG_FLAGS.to_vec();
    known.extend(["--at", "--out"]);
    let flags = Flags::parse(args, &known, &[])?;
    let cfg = build_config(&flags)?;
    let at = SimTime::from_secs(
        flags
            .get_parsed::<u64>("--at")?
            .ok_or("--at SECS is required")?,
    );
    let out = PathBuf::from(flags.get("--out").ok_or("--out FILE is required")?);

    let mut world = World::new(cfg);
    if at > world.end_time() {
        return Err(format!(
            "--at {}s is past the end of the run ({}s)",
            at.as_secs_f64(),
            world.end_time().as_secs_f64()
        ));
    }
    world.run_until(at);
    let snap = world.snapshot();
    std::fs::write(&out, snap.encode())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("saved {}", out.display());
    print_info(&snap);
    Ok(ExitCode::SUCCESS)
}

fn cmd_info(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--file"], &[])?;
    let snap = read_snapshot(flags.get("--file").ok_or("--file FILE is required")?)?;
    print_info(&snap);
    Ok(ExitCode::SUCCESS)
}

fn cmd_restore(args: &[String]) -> Result<ExitCode, String> {
    let mut known = CONFIG_FLAGS.to_vec();
    known.push("--file");
    let flags = Flags::parse(args, &known, &[])?;
    let snap = read_snapshot(flags.get("--file").ok_or("--file FILE is required")?)?;
    let cfg = build_config(&flags)?;

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

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut known = CONFIG_FLAGS.to_vec();
    known.extend(["--at", "--epoch-s"]);
    let flags = Flags::parse(args, &known, &[])?;
    let cfg = build_config(&flags)?;
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
    if at > end {
        return Err(format!(
            "--at {}s is past the end of the run ({}s)",
            at.as_secs_f64(),
            end.as_secs_f64()
        ));
    }

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
