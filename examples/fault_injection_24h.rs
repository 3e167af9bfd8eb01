//! The paper's 24 h fault-injection experiment (Fig. 4a/4b/5, TXT2,
//! TXT3): sequential grandmaster shutdowns (one per hour, cycling
//! through the ECDs) plus random redundant clock-sync VM shutdowns,
//! under the constraint that a node never loses both of its
//! clock-synchronization VMs at once. One run gives every view:
//!
//! * Fig. 4a — the measured precision in 120 s windows (paper: average
//!   322 ± 421 ns, maximum 10.08 µs at 06:45:49 h, always within Π + γ
//!   despite 94 fail-silent clock-sync VMs), plus the in-text fault
//!   counts (TXT3: 2992 tx timestamp timeouts, 347 deadline misses);
//! * Fig. 4b — the distribution of the measured precision (paper: avg
//!   322 ns, std 421 ns, min 33 ns, max 10 080 ns, mass below 1 µs);
//! * Fig. 5 — the 1 h window around the maximum, annotated with VM
//!   failures (v), takeovers (*), transient ptp4l faults (x), reboots
//!   (^) and GM rejoins (+);
//! * TXT2 — the bound derivation (paper: Π = 11.42 µs, γ = 856 ns).
//!
//! Writes `fig4a.{csv,txt}`, `fig4b.{csv,txt}`, `fig5.csv` and
//! `fig5_events.txt` to `--out`. The full 24 h takes 20–40 s of
//! wall-clock time in release mode; `--minutes` shortens it.
//!
//! ```sh
//! cargo run --release --example fault_injection_24h -- [--minutes 1440] [--seed 11] [--out target/repro]
//! ```

use clocksync::repro::{bound_plot, print_bounds, print_summary, write_artifact, ReproArgs};
use clocksync::scenario::ScenarioKind;
use clocksync::{RunResult, TestbedConfig, World};
use std::path::Path;
use tsn_metrics::{histogram_csv, render_histogram, series_csv, ExperimentEvent, Histogram};
use tsn_time::{Nanos, SimTime};

fn fig4a(r: &RunResult, hours: f64, out: &Path) {
    println!("Fig. 4a — fault injection over {hours:.1} h\n");
    print_summary(r);
    println!("\nfault counts (paper: 94 fail-silent VMs / 48 GM; 2992 tx timeouts; 347 deadline misses):");
    println!(
        "  fail-silent VMs = {} (GM = {})   takeovers = {}",
        r.counters.vm_failures, r.counters.gm_failures, r.counters.takeovers
    );
    println!(
        "  tx timestamp timeouts = {}   deadline misses = {}",
        r.counters.tx_timestamp_timeouts, r.counters.deadline_misses
    );
    let windows = r.series.aggregate(Nanos::from_secs(120));
    let plot = bound_plot(r, &windows, 96);
    println!("\n{plot}");
    write_artifact(out, "fig4a.csv", &series_csv(&windows));
    write_artifact(out, "fig4a.txt", &plot);
}

fn fig4b(r: &RunResult, hours: f64, out: &Path) {
    println!("Fig. 4b — precision distribution over {hours:.1} h\n");
    let mut hist = Histogram::new(50, 20); // 0..1000 ns, 50 ns bins (paper x-axis)
    for s in r.series.samples() {
        hist.record(s.value);
    }
    let stats = r.series.stats().expect("samples");
    println!(
        "measured: avg = {:.0} ns, std = {:.0} ns, min = {}, max = {}",
        stats.mean, stats.std, stats.min, stats.max
    );
    println!("paper:    avg = 322 ns, std = 421 ns, min = 33 ns, max = 10 080 ns\n");
    let rendering = render_histogram(&hist, 60);
    println!("{rendering}");
    write_artifact(out, "fig4b.csv", &histogram_csv(&hist));
    write_artifact(out, "fig4b.txt", &rendering);
}

fn fig5(r: &RunResult, out: &Path) {
    let measured = |t: SimTime| SimTime::from_nanos((t - r.warmup).as_nanos());
    let max = r.series.max().expect("samples");
    println!(
        "maximum measured precision: {} at runtime {}",
        max.value,
        measured(max.at)
    );
    // Fig. 5 centers a 1 h window on the maximum (the paper shows
    // 06:15–07:15 around its 06:45:49 maximum).
    let half = Nanos::from_secs(30 * 60);
    let from = if max.at - SimTime::ZERO >= half + r.warmup {
        max.at - half
    } else {
        SimTime::ZERO + r.warmup
    };
    let to = from + Nanos::from_secs(3600);
    let windows = r.series.window(from, to).aggregate(Nanos::from_secs(60));
    println!("\n{}", bound_plot(r, &windows, 72));

    println!("events in the window:");
    let mut listing = String::new();
    for (t, e) in r.events.window(from, to) {
        let line = format!("  {} [{}] {}", measured(t), e.marker(), e);
        println!("{line}");
        listing.push_str(&line);
        listing.push('\n');
    }
    write_artifact(out, "fig5.csv", &series_csv(&windows));
    write_artifact(out, "fig5_events.txt", &listing);
}

fn main() {
    let args = ReproArgs::parse();
    let mut cfg = TestbedConfig::paper_default(args.seed(11));
    cfg.duration = args.duration(24 * 60);
    ScenarioKind::FaultInjection.apply(&mut cfg);
    let hours = cfg.duration.as_secs_f64() / 3600.0;
    let r = &World::new(cfg).run();

    fig4a(r, hours, &args.out);
    println!();
    fig4b(r, hours, &args.out);
    println!();
    fig5(r, &args.out);
    println!();
    print_bounds(
        "exp 2 (fault inject)",
        &r.bounds,
        ["-", "-", "-", "1250ns", "11.42us", "856ns"],
    );
    let rejoins = r
        .events
        .count(|e| matches!(e, ExperimentEvent::GmResumed { .. }));
    println!("\nGM rejoins after reboot: {rejoins}");
}
