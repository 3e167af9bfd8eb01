//! Beyond the paper: the testbed under best-effort network congestion.
//!
//! Background traffic loads every egress port while gPTP keeps running.
//! Two different things could degrade, and the example separates them:
//!
//! * the **synchronization** (ground-truth spread of the NIC clocks) —
//!   stays in the hundreds of nanoseconds at any load, because two-step
//!   hardware timestamping measures every queuing delay a Sync actually
//!   experienced and the correction field carries it to the slave;
//! * the **measurement** (Π* from probe packets) — degrades with load,
//!   because probe arrival jitter lands directly in Eq. 3.1. This is the
//!   asymmetry the paper's measurement error γ formalizes, and why its
//!   methodology pins probe paths to a dedicated VLAN.
//!
//! This is ablation ABL6 (EXPERIMENTS.md); each variant runs 1 min.
//!
//! ```sh
//! cargo run --release --example congested_network -- [--minutes 1] [--seed 5]
//! ```

use clocksync::repro::ReproArgs;
use clocksync::{BackgroundTraffic, TestbedConfig, World};

fn main() {
    let args = ReproArgs::parse();
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>12}",
        "variant", "true spread", "measured avg", "measured max", "queued"
    );
    for (label, load, priority) in [
        ("idle", 0.0, true),
        ("load 0.3, TSN priority", 0.3, true),
        ("load 0.6, TSN priority", 0.6, true),
        ("load 0.6, no priority", 0.6, false),
        ("load 0.9, TSN priority", 0.9, true),
    ] {
        let mut cfg = TestbedConfig::paper_default(args.seed(5));
        cfg.duration = args.duration(1);
        if load > 0.0 {
            cfg.background = Some(BackgroundTraffic {
                load,
                frame_bytes: 1500,
                priority_isolation: priority,
            });
        }
        let mut world = World::new(cfg);
        let end = world.end_time();
        world.run_until(end);
        let spread = world.phc_spread(end);
        let r = world.into_result();
        let stats = r.series.stats().expect("probes collected");
        println!(
            "{label:<24} {:>14} {:>11.0} ns {:>14} {:>12}",
            format!("{spread}"),
            stats.mean,
            format!("{}", stats.max),
            r.counters.frames_queued
        );
    }
    println!("\nThe clocks stay synchronized at every load; only the probe-based");
    println!("measurement degrades — the reading error the paper bounds with γ.");
}
