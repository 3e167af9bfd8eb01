//! Shared plumbing for the figure regenerators and benches.
//!
//! Each `repro_*` binary regenerates one of the paper's figures (or
//! in-text results): it runs the corresponding scenario, prints a
//! text rendering plus the quantitative comparison against the paper's
//! reported values, and writes CSV artifacts for external plotting.

use clocksync::RunResult;
use std::path::{Path, PathBuf};
use tsn_time::{Nanos, SimTime};

/// Command-line options shared by the regenerators.
#[derive(Debug, Clone)]
pub struct ReproArgs {
    /// Experiment seed.
    pub seed: u64,
    /// Duration override in minutes, if given.
    pub minutes: Option<u64>,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
}

/// Usage text shared by every regenerator binary.
pub const REPRO_USAGE: &str = "options:
  --seed N      experiment seed (default 7)
  --minutes N   duration override in minutes
  --out DIR     CSV artifact directory (default target/repro)
  --help        print this help";

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
        let mut parsed = ReproArgs {
            seed: 7,
            minutes: None,
            out: PathBuf::from("target/repro"),
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--help" | "-h" => return Ok(ReproParse::Help),
                "--seed" => {
                    let v = value("--seed")?;
                    parsed.seed = v
                        .parse()
                        .map_err(|_| format!("malformed --seed value {v:?}"))?;
                }
                "--minutes" => {
                    let v = value("--minutes")?;
                    parsed.minutes = Some(
                        v.parse()
                            .map_err(|_| format!("malformed --minutes value {v:?}"))?,
                    );
                }
                "--out" => parsed.out = PathBuf::from(value("--out")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(ReproParse::Args(parsed))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_check_line_prints_the_max_or_says_the_window_is_empty() {
        let bound = Nanos::from_nanos(12_000);
        assert_eq!(
            shape_check_line("before attack", Some(Nanos::from_nanos(950)), bound),
            format!(
                "  before attack:    max = {}  (within bound: true)",
                Nanos::from_nanos(950)
            )
        );
        assert!(
            shape_check_line("strike 2 breaks", Some(Nanos::from_nanos(12_001)), bound)
                .ends_with("(within bound: false)")
        );
        assert_eq!(
            shape_check_line("strike 1 masked", None, bound),
            "  strike 1 masked:  n/a (run shorter than the window)"
        );
    }

    fn parse(args: &[&str]) -> Result<ReproParse, String> {
        ReproArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let ReproParse::Args(a) = parse(&[]).unwrap() else {
            panic!("expected args");
        };
        assert_eq!(a.seed, 7);
        assert_eq!(a.minutes, None);
        assert_eq!(a.out, PathBuf::from("target/repro"));
    }

    #[test]
    fn parses_all_flags() {
        let ReproParse::Args(a) =
            parse(&["--seed", "99", "--minutes", "3", "--out", "/tmp/x"]).unwrap()
        else {
            panic!("expected args");
        };
        assert_eq!(a.seed, 99);
        assert_eq!(a.minutes, Some(3));
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.duration(60), Nanos::from_secs(180));
    }

    #[test]
    fn malformed_values_error_instead_of_silently_defaulting() {
        assert!(parse(&["--seed", "banana"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--minutes", "-3"])
            .unwrap_err()
            .contains("--minutes"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn help_is_recognized() {
        assert!(matches!(parse(&["--help"]).unwrap(), ReproParse::Help));
        assert!(matches!(parse(&["-h"]).unwrap(), ReproParse::Help));
    }
}
