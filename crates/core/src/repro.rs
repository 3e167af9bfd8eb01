//! Shared plumbing of the paper's regenerators — the `cyber_attack`,
//! `fault_injection_24h`, `congested_network`, `ablations` and
//! `clock_stability` examples. Each runs its experiment once, prints a
//! text rendering plus the comparison against the paper's reported
//! values, and writes artifacts for external plotting. Its strict
//! [`Flags`] parser is also the `campaign` binary's.

use crate::RunResult;
use std::path::{Path, PathBuf};
use tsn_metrics::{render_series, BoundsReport, WindowStat};
use tsn_time::{Nanos, SimTime};

/// Command-line options shared by the regenerators.
#[derive(Debug, Clone)]
pub struct ReproArgs {
    /// Experiment seed override, if given.
    pub seed: Option<u64>,
    /// Duration override in minutes, if given.
    pub minutes: Option<u64>,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
}

/// Usage text shared by every regenerator.
pub const REPRO_USAGE: &str = "options:
  --seed N      experiment seed (overrides the program's default)
  --minutes N   duration in minutes (overrides the program's default)
  --out DIR     CSV artifact directory (default target/repro)
  --help        print this help";

/// Strictly parsed command-line flags: every flag takes one value
/// except the listed switches, and an unknown or repeated argument is
/// an error, not a typo in waiting.
pub struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` against the known value flags and switches. An
    /// unlisted `--help`/`-h` is the error `help requested` (every front
    /// end prints its usage with an error).
    pub fn parse(
        args: &[String],
        known: &[&str],
        known_switches: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if flags.has(a) || flags.get(a).is_some() {
                return Err(format!("{a} given twice"));
            }
            if known_switches.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else if known.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((a.clone(), v.clone()));
            } else if a == "--help" || a == "-h" {
                return Err("help requested".to_string());
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(flags)
    }

    /// The value of flag `key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether switch `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The value of flag `key` parsed as `T`, if given.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("malformed value {v:?} for {key}"))
            })
            .transpose()
    }
}

impl ReproArgs {
    /// Parses `--seed N`, `--minutes N`, `--out DIR` (all optional)
    /// from the process arguments. Malformed or unknown arguments
    /// print the usage and exit with status 2; `--help` prints it and
    /// exits 0.
    pub fn parse() -> ReproArgs {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(ReproParse::Args(args)) => args,
            Ok(ReproParse::Help) => {
                println!("{REPRO_USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{REPRO_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The pure parser behind [`ReproArgs::parse`]. Rejects malformed
    /// values and unknown arguments instead of silently swallowing
    /// them (a mistyped `--seed` must not run the wrong experiment).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<ReproParse, String> {
        let args: Vec<String> = args.into_iter().collect();
        let flags = Flags::parse(&args, &["--seed", "--minutes", "--out"], &["--help", "-h"])?;
        if flags.has("--help") || flags.has("-h") {
            return Ok(ReproParse::Help);
        }
        let minutes = flags.get_parsed("--minutes")?;
        if minutes == Some(0) {
            return Err("--minutes must be positive".to_string());
        }
        Ok(ReproParse::Args(ReproArgs {
            seed: flags.get_parsed("--seed")?,
            minutes,
            out: PathBuf::from(flags.get("--out").unwrap_or("target/repro")),
        }))
    }

    /// The experiment seed: the override or `default`.
    pub fn seed(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The experiment duration: the override or `default_minutes`.
    pub fn duration(&self, default_minutes: u64) -> Nanos {
        Nanos::from_secs((self.minutes.unwrap_or(default_minutes) * 60) as i64)
    }
}

/// Outcome of [`ReproArgs::try_parse`].
#[derive(Debug, Clone)]
pub enum ReproParse {
    /// Parsed options.
    Args(ReproArgs),
    /// `--help` was requested.
    Help,
}

/// Writes a text artifact, creating the directory as needed.
pub fn write_artifact(dir: &Path, name: &str, content: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Prints the standard bound/measurement summary block.
pub fn print_summary(r: &RunResult) {
    println!(
        "bounds: d_min = {}  d_max = {}  E = {}  Gamma = {}  Pi = {}  gamma = {}",
        r.bounds.d_min,
        r.bounds.d_max,
        r.bounds.reading_error,
        r.bounds.drift_offset,
        r.bounds.pi,
        r.bounds.gamma
    );
    if let Some(s) = r.series.stats() {
        println!(
            "measured Pi*: avg = {:.0} ns  std = {:.0} ns  min = {}  max = {}  samples = {}",
            s.mean, s.std, s.min, s.max, s.count
        );
    }
    println!(
        "fraction within Pi + gamma: {:.5}",
        r.series.fraction_within(r.bounds.pi_plus_gamma())
    );
}

/// A figure's time series: `windows` drawn 16 rows high and `width`
/// columns wide against the run's Π and Π + γ.
pub fn bound_plot(r: &RunResult, windows: &[WindowStat], width: usize) -> String {
    let bounds = [("Pi", r.bounds.pi), ("Pi+gamma", r.bounds.pi_plus_gamma())];
    render_series(windows, &bounds, 16, width)
}

/// Prints the in-text bound derivation (TXT1/TXT2): a header, the
/// derived chain of `b` and the paper's `paper` values below it.
pub fn print_bounds(label: &str, b: &BoundsReport, paper: [&str; 6]) {
    let row = |label: &str, c: [String; 6]| {
        println!(
            "{label:<22} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
            c[0], c[1], c[2], c[3], c[4], c[5]
        )
    };
    row(
        "experiment",
        ["d_min", "d_max", "E", "Gamma", "Pi", "gamma"].map(String::from),
    );
    let chain = [
        b.d_min,
        b.d_max,
        b.reading_error,
        b.drift_offset,
        b.pi,
        b.gamma,
    ];
    row(label, chain.map(|n| n.to_string()));
    row("  paper", paper.map(String::from));
}

/// Max precision within `[from_min, to_min)` minutes of the measured
/// axis, if any samples exist there.
pub fn window_max(r: &RunResult, from_min: u64, to_min: u64) -> Option<Nanos> {
    let from = SimTime::ZERO + r.warmup + Nanos::from_secs((from_min * 60) as i64);
    let to = SimTime::ZERO + r.warmup + Nanos::from_secs((to_min * 60) as i64);
    r.series.window(from, to).stats().map(|s| s.max)
}

/// One line of a figure's shape check: the worst precision of a window
/// ([`window_max`]) against `bound`, or `n/a` for a window the run was
/// too short to reach.
pub fn shape_check_line(what: &str, max: Option<Nanos>, bound: Nanos) -> String {
    let what = format!("{what}:");
    match max {
        Some(max) => format!("  {what:<18}max = {max}  (within bound: {})", max <= bound),
        None => format!("  {what:<18}n/a (run shorter than the window)"),
    }
}
