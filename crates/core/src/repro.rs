//! The paper's figures as views of one run ([`Figure::of`], shown by
//! `campaign figure`): a text rendering plus the comparison against the
//! paper's reported values, and files for external plotting. Also the
//! [`ReproArgs`] of the `congested_network`, `ablations` and
//! `clock_stability` examples, whose strict [`Flags`] parser is also
//! the `campaign` binary's.

use crate::scenario::ScenarioKind;
use crate::RunResult;
use std::fmt::{self, Write as _};
use tsn_metrics::{
    render_series, series_csv, BoundsReport,
    ExperimentEvent::{GmResumed, Strike},
    WindowStat,
};
use tsn_time::{Nanos, SimTime};

/// Command-line options shared by the regenerators.
#[derive(Debug, Clone)]
pub struct ReproArgs {
    /// Experiment seed override, if given.
    pub seed: Option<u64>,
    /// Duration override in minutes, if given.
    pub minutes: Option<u64>,
}

/// Usage text shared by every regenerator.
pub const REPRO_USAGE: &str = "options:
  --seed N      experiment seed (overrides the program's default)
  --minutes N   duration in minutes (overrides the program's default)
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
    /// Parses `--seed N` and `--minutes N` (both optional)
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
        let flags = Flags::parse(&args, &["--seed", "--minutes"], &["--help", "-h"])?;
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

/// The views of one run: the text they print and the files they write
/// for external plotting, as `(name, content)`.
#[derive(Debug, Default)]
pub struct Figure {
    /// What the views print.
    pub text: String,
    /// The CSV/TXT renderings, by file name.
    pub files: Vec<(&'static str, String)>,
}

impl Figure {
    /// The views of a run of scenario `kind` that measured `duration`:
    /// Fig. 3a with the strikes and TXT1 (identical kernels); Fig. 3b
    /// (diverse kernels); Fig. 4a with TXT3's fault counts, Fig. 4b,
    /// Fig. 5 (the 1 h window around the maximum, with its events) and
    /// TXT2 (fault injection); and for any other scenario the bounds /
    /// Π* summary block every figure prints.
    pub fn of(kind: ScenarioKind, duration: Nanos, r: &RunResult) -> Figure {
        let mut f = Figure::default();
        let hours = duration.as_secs_f64() / 3600.0;
        // Writing to a `String` cannot fail.
        let _ = match kind {
            ScenarioKind::CyberIdenticalKernels => fig3(&mut f, r, true),
            ScenarioKind::CyberDiverseKernels => fig3(&mut f, r, false),
            ScenarioKind::FaultInjection => fig4(&mut f, r, hours),
            _ => summary(&mut f.text, r),
        };
        f
    }
}

/// Fig. 3a (identical kernels) with TXT1, or Fig. 3b. Whether the FTA
/// masked a strike is a claim over the campaign (`tsn_campaign::summary`),
/// judged from the rounds it trimmed, not a line of this view.
fn fig3(f: &mut Figure, r: &RunResult, identical: bool) -> fmt::Result {
    let out = &mut f.text;
    let title = match identical {
        true => "Fig. 3a — identical kernels, attack at 00:21:42 / 00:31:52",
        false => "Fig. 3b — diverse kernels, same attacker",
    };
    writeln!(out, "{title}\n")?;
    summary(out, r)?;
    let windows = r.series.aggregate(Nanos::from_secs(60));
    let plot = bound_plot(r, &windows, 72);
    let (landed, failed) = (r.counters.strikes_succeeded, r.counters.strikes_failed);
    writeln!(
        out,
        "strikes: {landed} succeeded, {failed} failed\n\n{plot}"
    )?;
    let names = match identical {
        true => ["fig3a.csv", "fig3a.txt"],
        false => ["fig3b.csv", "fig3b.txt"],
    };
    f.files.push((names[0], series_csv(&windows)));
    f.files.push((names[1], plot));
    for (t, e) in r.events.entries() {
        if matches!(e, Strike { .. }) {
            writeln!(out, "  {} {e}", *t - r.warmup)?;
        }
    }
    if !identical {
        return Ok(());
    }
    let paper = ["4120ns", "9188ns", "5068ns", "1250ns", "12.636us", "1313ns"];
    writeln!(out)?;
    bounds(out, "exp 1 (cyber)", &r.bounds, paper)
}

/// Fig. 4a with TXT3's counts, Fig. 4b, Fig. 5 and TXT2.
fn fig4(f: &mut Figure, r: &RunResult, hours: f64) -> fmt::Result {
    let out = &mut f.text;
    writeln!(out, "Fig. 4a — fault injection over {hours:.1} h\n")?;
    summary(out, r)?;
    let c = &r.counters;
    let (vms, gms, takeovers) = (c.vm_failures, c.gm_failures, c.takeovers);
    let (timeouts, misses) = (c.tx_timestamp_timeouts, c.deadline_misses);
    writeln!(
        out,
        "\nfault counts (paper: 94 fail-silent VMs / 48 GM; 2992 tx timeouts; 347 deadline misses):\n  \
         fail-silent VMs = {vms} (GM = {gms})   takeovers = {takeovers}\n  \
         tx timestamp timeouts = {timeouts}   deadline misses = {misses}"
    )?;
    let windows = r.series.aggregate(Nanos::from_secs(120));
    let plot = bound_plot(r, &windows, 96);
    writeln!(out, "\n{plot}")?;
    f.files.push(("fig4a.csv", series_csv(&windows)));
    f.files.push(("fig4a.txt", plot));

    writeln!(
        out,
        "\nFig. 4b — precision distribution over {hours:.1} h\n"
    )?;
    let (Some(s), Some(top)) = (r.series.stats(), r.series.max()) else {
        return writeln!(out, "no precision samples");
    };
    let (mean, std, min, max) = (s.mean, s.std, s.min, s.max);
    writeln!(
        out,
        "measured: avg = {mean:.0} ns, std = {std:.0} ns, min = {min}, max = {max}\n\
         paper:    avg = 322 ns, std = 421 ns, min = 33 ns, max = 10 080 ns\n"
    )?;
    let (bars, csv) = crate::histogram::fig4b(r.series.samples().iter().map(|s| s.value));
    writeln!(out, "{bars}\n")?;
    f.files.push(("fig4b.csv", csv));
    f.files.push(("fig4b.txt", bars));

    let measured = |t: SimTime| SimTime::from_nanos((t - r.warmup).as_nanos());
    let (value, at) = (top.value, measured(top.at));
    writeln!(out, "maximum measured precision: {value} at runtime {at}")?;
    // Fig. 5 centers a 1 h window on the maximum (the paper shows
    // 06:15–07:15 around its 06:45:49 maximum).
    let half = Nanos::from_secs(30 * 60);
    let from = if top.at - SimTime::ZERO >= half + r.warmup {
        top.at - half
    } else {
        SimTime::ZERO + r.warmup
    };
    let to = from + Nanos::from_secs(3600);
    let windows = r.series.window(from, to).aggregate(Nanos::from_secs(60));
    let plot = bound_plot(r, &windows, 72);
    writeln!(out, "\n{plot}\nevents in the window:")?;
    let mut listing = String::new();
    for (t, e) in r.events.window(from, to) {
        writeln!(listing, "  {} [{}] {}", measured(t), e.marker(), e)?;
    }
    out.push_str(&listing);
    f.files.push(("fig5.csv", series_csv(&windows)));
    f.files.push(("fig5_events.txt", listing));

    writeln!(out)?;
    let paper = ["-", "-", "-", "1250ns", "11.42us", "856ns"];
    bounds(out, "exp 2 (fault inject)", &r.bounds, paper)?;
    let rejoins = r.events.count(|e| matches!(e, GmResumed { .. }));
    writeln!(out, "\nGM rejoins after reboot: {rejoins}")
}

/// The names of a bound derivation's chain, in [`chain`] order.
const CHAIN: [&str; 6] = ["d_min", "d_max", "E", "Gamma", "Pi", "gamma"];

/// The bound derivation's chain: d_min, d_max, E, Γ, Π, γ.
fn chain(b: &BoundsReport) -> [Nanos; 6] {
    [
        b.d_min,
        b.d_max,
        b.reading_error,
        b.drift_offset,
        b.pi,
        b.gamma,
    ]
}

/// The bounds / Π* summary block.
fn summary(out: &mut String, r: &RunResult) -> fmt::Result {
    let chain = CHAIN.iter().zip(chain(&r.bounds));
    let chain: Vec<String> = chain.map(|(name, v)| format!("{name} = {v}")).collect();
    writeln!(out, "bounds: {}", chain.join("  "))?;
    if let Some(s) = r.series.stats() {
        let (mean, std, min, max, count) = (s.mean, s.std, s.min, s.max, s.count);
        writeln!(
            out,
            "measured Pi*: avg = {mean:.0} ns  std = {std:.0} ns  min = {min}  max = {max}  samples = {count}"
        )?;
    }
    let within = r.series.fraction_within(r.bounds.pi_plus_gamma());
    writeln!(out, "fraction within Pi + gamma: {within:.5}")
}

/// The in-text bound derivation (TXT1/TXT2): a header, the derived
/// chain of `b` and the paper's `paper` values below it.
fn bounds(out: &mut String, label: &str, b: &BoundsReport, paper: [&str; 6]) -> fmt::Result {
    for (label, cells) in [
        ("experiment", CHAIN.map(String::from)),
        (label, chain(b).map(|n| n.to_string())),
        ("  paper", paper.map(String::from)),
    ] {
        let widths = [9, 9, 9, 9, 10, 9];
        let row: String = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!(" {c:>w$}"))
            .collect();
        writeln!(out, "{label:<22}{row}")?;
    }
    Ok(())
}

/// A figure's time series: `windows` drawn 16 rows high and `width`
/// columns wide against the run's Π and Π + γ.
fn bound_plot(r: &RunResult, windows: &[WindowStat], width: usize) -> String {
    let bounds = [("Pi", r.bounds.pi), ("Pi+gamma", r.bounds.pi_plus_gamma())];
    render_series(windows, &bounds, 16, width)
}
