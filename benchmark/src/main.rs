//! The repo benchmark. One command prints every metric by name with its
//! unit, checks the program's outputs, and exits non-zero on a failed
//! check:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload NAME] [--seed 7] [--seconds 10] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--trace 0` (the default) the last line of standard output holds
//! the end-to-end metrics of `BENCHMARK.json`, measured with every
//! observer off; with `--trace 1` it holds the per-layer metrics of one
//! separate traced run. Without `--workload` every workload runs, one
//! child process at a time, so `peak_rss_mib` is per workload.
//! README.md explains the workloads, the metrics and how to compare
//! two sets of runs.

mod alloc;
mod guard;
mod metrics;
mod probes;
mod spans;
mod stats;
mod traced;
mod workloads;

use metrics::Metrics;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Inputs, Observe, Outcome, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up is sampled this many times per run (this process plus fresh
/// child processes, so each sample pays its one-time costs) and the
/// median reported.
const SETUP_SAMPLES: usize = 3;
/// A timed run has at least this many timed executions, so the
/// rep-to-rep identity check always has something to compare.
const MIN_REPS: usize = 2;

const USAGE: &str = "usage: tsn-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&out.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// The benchmark's own directory in the checkout it was built from.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory of this process's own, beside the executable —
/// inside the build directory, hence inside the checkout and ignored
/// by git. Removed again by [`Scratch`]'s drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("bench-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only clutter in target/.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up as the benchmark times it: build the inputs from the seed,
/// then one warm-up execution.
fn set_up(workload: Workload, seed: u64, scratch: &Path) -> Result<Inputs, String> {
    let inputs = workloads::setup(workload, seed, scratch)?;
    inputs.warm_up()?;
    Ok(inputs)
}

/// `setup-sample`: one set-up in a fresh process; prints its seconds.
fn setup_sample(args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let workload = args.workload.ok_or("setup-sample needs --workload")?;
    let scratch = Scratch::new()?;
    set_up(workload, args.seed, &scratch.0)?;
    println!("{}", start.elapsed().as_secs_f64());
    Ok(())
}

/// Runs `setup-sample` in a child process and reads its one number.
fn setup_sample_in_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["setup-sample", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn setup-sample: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup-sample exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "setup-sample printed no number".to_string())
}

/// Folds one execution's verdict into the run's.
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    identity: Option<u64>,
}

impl Verdict {
    fn new() -> Verdict {
        Verdict {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            identity: None,
        }
    }

    /// Counts `out`'s operations; an execution whose identity differs
    /// from the first one's counts as failed.
    fn absorb(&mut self, label: &str, out: &Outcome) {
        self.attempted += out.attempted;
        let mut failed = out.failed;
        for p in &out.problems {
            self.problems.push(format!("{label}: {p}"));
        }
        match self.identity {
            None => self.identity = Some(out.identity),
            Some(first) if first != out.identity => {
                self.problems.push(format!(
                    "{label}: output differs from the first execution ({})",
                    out.info
                ));
                failed = failed.max(1);
            }
            Some(_) => {}
        }
        self.failed += failed;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The timed run: set-up samples, then timed executions until
/// `--seconds` of them have been measured.
fn run_timed(
    workload: Workload,
    args: &Args,
    scratch: &Path,
) -> Result<(Metrics, Verdict), String> {
    // `--smoke`: one execution, which doubles as the warm-up, and no
    // set-up sampling; every output check still runs.
    let (setup_samples, min_reps, seconds) = if args.smoke {
        (1, 1, 0.0)
    } else {
        (SETUP_SAMPLES, MIN_REPS, args.seconds)
    };
    let mut setup_s = Vec::new();
    for _ in 1..setup_samples {
        setup_s.push(setup_sample_in_child(workload, args.seed)?);
    }
    let start = Instant::now();
    let inputs = if args.smoke {
        workloads::setup(workload, args.seed, scratch)?
    } else {
        set_up(workload, args.seed, scratch)?
    };
    setup_s.push(start.elapsed().as_secs_f64());
    let timed = Instant::now();
    let mut outcomes = Vec::new();
    while outcomes.len() < min_reps || timed.elapsed().as_secs_f64() < seconds {
        outcomes.push(inputs.execute(&mut Observe::plain())?);
    }
    let mut verdict = Verdict::new();
    for (i, out) in outcomes.iter().enumerate() {
        verdict.absorb(&format!("rep {}", i + 1), out);
    }
    let first = &outcomes[0];
    println!(
        "info {} {} precision_mean_ns={}",
        workload.name(),
        first.info,
        first.precision_mean_ns
    );

    let walls: Vec<f64> = outcomes.iter().map(|o| o.wall_s).collect();
    let wall = stats::reduce(&walls).expect("at least one execution");
    let setup = stats::reduce(&setup_s).expect("at least one set-up sample");
    println!(
        "wall_s median {:.4} min {:.4} max {:.4} n {}; setup_s median {:.4} min {:.4} max {:.4} n {}",
        wall.median, wall.min, wall.max, wall.n, setup.median, setup.min, setup.max, setup.n
    );
    println!(
        "precision_mean_ns {:.2} vs paper {} +- 421 ns: error {:+.2} ns (simulated, exact for the seed)",
        first.precision_mean_ns,
        workloads::PAPER_MEAN_NS,
        first.precision_mean_ns - workloads::PAPER_MEAN_NS
    );
    let mut m = Metrics::new(&metrics::END_TO_END);
    m.set("wall_s", wall.median);
    m.set("sim_s_per_wall_s", first.sim_s / wall.median);
    m.set("setup_s", setup.median);
    m.set("peak_rss_mib", guard::peak_rss_mib()?);
    m.set("within_bound_fraction", first.within_bound_fraction);
    Ok((m, verdict))
}

/// One workload in this process; prints the result line last.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    guard::check_profiles(bench_dir())?;
    let pinned = guard::check_behaviour_pin(bench_dir())?;
    println!("behaviour pin ok: {pinned} events on quick-election-failover");
    let scratch = Scratch::new()?;
    let (metrics, verdict) = if args.trace {
        traced::run(workload, args.seed, &scratch.0)?
    } else {
        run_timed(workload, args, &scratch.0)?
    };
    for p in &verdict.problems {
        eprintln!("FAIL {}: {p}", workload.name());
    }
    metrics.print_table();
    println!(
        "{}",
        metrics.result_line(verdict.correct(), verdict.attempted, verdict.failed)
    );
    Ok(verdict.correct())
}

/// Every workload, each in a child process of its own, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (command.as_str(), args.workload) {
        ("run", Some(w)) => run_one(w, &args),
        ("run", None) => run_all(&args),
        ("setup-sample", _) => setup_sample(&args).map(|()| true),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
