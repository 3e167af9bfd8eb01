//! The paper's cyber-resilience experiment (Fig. 3a/3b, TXT1): an
//! attacker roots two virtual grandmasters via CVE-2018-18955 and
//! replaces their `ptp4l` with malicious instances shifting
//! `preciseOriginTimestamp` by −24 µs.
//!
//! * Fig. 3a, identical kernels → both exploits land (GM c1_4 at
//!   00:21:42 h, GM c1_1 at 00:31:52 h): the FTA (f = 1) masks the
//!   first, the second overwhelms it and the precision bound is
//!   violated;
//! * Fig. 3b, diverse kernels → only c1_4 runs the exploitable v4.19.1,
//!   the second exploit fails and the single Byzantine GM stays masked;
//! * TXT1: the bound derivation of the experiment's topology (paper:
//!   d_min = 4120 ns, d_max = 9188 ns, E = 5068 ns, Γ = 1.25 µs,
//!   Π = 12.636 µs, γ = 1313 ns). The absolute values depend on the
//!   drawn link latencies, as they did on the paper's cabling; the chain
//!   E = d_max − d_min, Γ = 2·r_max·S, Π = 2(E + Γ) is what is reproduced.
//!
//! Writes `fig3a.{csv,txt}` and `fig3b.{csv,txt}` to `--out`.
//!
//! ```sh
//! cargo run --release --example cyber_attack -- [--minutes 60] [--seed 7] [--out target/repro]
//! ```

use clocksync::repro::{
    bound_plot, print_bounds, print_summary, shape_check_line, window_max, write_artifact,
    ReproArgs,
};
use clocksync::scenario::ScenarioKind;
use clocksync::{RunResult, TestbedConfig, World};
use tsn_metrics::{series_csv, ExperimentEvent, WindowStat};
use tsn_time::Nanos;

/// The paper's testbed with `kind` layered on, run for `duration`.
fn run(kind: ScenarioKind, seed: u64, duration: Nanos) -> RunResult {
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = duration;
    kind.apply(&mut cfg);
    World::new(cfg).run()
}

/// Prints the figure's summary block; returns its one-minute windows
/// and their plot.
fn summary_and_plot(r: &RunResult) -> (Vec<WindowStat>, String) {
    print_summary(r);
    let windows = r.series.aggregate(Nanos::from_secs(60));
    let plot = bound_plot(r, &windows, 72);
    (windows, plot)
}

/// The strike timestamps, on the measured axis.
fn print_strikes(r: &RunResult) {
    for (t, e) in r.events.entries() {
        if matches!(e, ExperimentEvent::Strike { .. }) {
            println!("  {} {e}", *t - r.warmup);
        }
    }
}

fn main() {
    let args = ReproArgs::parse();
    let (seed, duration) = (args.seed(7), args.duration(60));

    println!("Fig. 3a — identical kernels, attack at 00:21:42 / 00:31:52\n");
    let r = &run(ScenarioKind::CyberIdenticalKernels, seed, duration);
    let (windows, plot) = summary_and_plot(r);
    println!("\n{plot}");
    let bound = r.bounds.pi_plus_gamma();
    println!("shape check (paper Fig. 3a):");
    for (what, from_min, to_min) in [
        ("before attack", 15, 21),
        ("strike 1 masked", 23, 31),
        ("strike 2 breaks", 33, 39),
    ] {
        let max = window_max(r, from_min, to_min);
        println!("{}", shape_check_line(what, max, bound));
    }
    write_artifact(&args.out, "fig3a.csv", &series_csv(&windows));
    write_artifact(&args.out, "fig3a.txt", &plot);
    print_strikes(r);
    let txt1 = r.bounds;

    println!("\nFig. 3b — diverse kernels, same attacker\n");
    let r = &run(ScenarioKind::CyberDiverseKernels, seed, duration);
    let (windows, plot) = summary_and_plot(r);
    println!(
        "strikes: {} succeeded (c1_4), {} failed (c1_1)",
        r.counters.strikes_succeeded, r.counters.strikes_failed
    );
    println!("\n{plot}");
    println!(
        "shape check (paper Fig. 3b): all samples within bound: {}",
        r.series.fraction_within(r.bounds.pi_plus_gamma()) == 1.0
    );
    write_artifact(&args.out, "fig3b.csv", &series_csv(&windows));
    write_artifact(&args.out, "fig3b.txt", &plot);
    print_strikes(r);

    println!();
    let paper = ["4120ns", "9188ns", "5068ns", "1250ns", "12.636us", "1313ns"];
    print_bounds("exp 1 (cyber)", &txt1, paper);
}
