//! Quickstart: bring up the paper's 4-node testbed, run it for a minute,
//! and check the measured clock-synchronization precision against the
//! analytical bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clocksync::{TestbedConfig, World};
use tsn_metrics::{render_series, series_csv};
use tsn_time::Nanos;

fn main() {
    // The paper's testbed: 4 ECDs, each hosting the grandmaster of one
    // gPTP domain plus a redundant clock-synchronization VM, switches in
    // a mesh, S = 125 ms, FTA with f = 1.
    let mut cfg = TestbedConfig::paper_default(42);
    cfg.duration = Nanos::from_secs(120);

    println!(
        "building testbed: {} nodes, {} domains, S = {}",
        cfg.nodes, cfg.aggregation.domains, cfg.sync_interval
    );
    let seconds = cfg.duration.as_secs_f64();
    let r = &World::new(cfg).run();

    println!("\nderived bounds (paper §III-A3):");
    println!("  d_min = {}   d_max = {}", r.bounds.d_min, r.bounds.d_max);
    println!("  reading error E = {}", r.bounds.reading_error);
    println!("  drift offset  Γ = {}", r.bounds.drift_offset);
    println!(
        "  precision bound Π = {}   measurement error γ = {}",
        r.bounds.pi, r.bounds.gamma
    );

    let stats = r.series.stats().expect("probes collected");
    println!("\nmeasured precision Π* over {seconds} s:");
    println!(
        "  avg = {:.0} ns   std = {:.0} ns   min = {}   max = {}",
        stats.mean, stats.std, stats.min, stats.max
    );
    println!(
        "  fraction within Π + γ: {:.4}",
        r.series.fraction_within(r.bounds.pi_plus_gamma())
    );

    let windows = r.series.aggregate(Nanos::from_secs(10));
    println!(
        "\n{}",
        render_series(
            &windows,
            &[("Pi", r.bounds.pi), ("Pi+gamma", r.bounds.pi_plus_gamma())],
            14,
            64
        )
    );

    // CSV for external plotting:
    let csv = series_csv(&windows);
    println!(
        "(series CSV: {} lines; write it wherever you like)",
        csv.lines().count()
    );
}
