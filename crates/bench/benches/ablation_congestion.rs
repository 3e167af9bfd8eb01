//! Ablation ABL6: gPTP under network congestion (beyond the paper).
//!
//! Best-effort background traffic loads every egress port; 802.1Q strict
//! priority (the TSN configuration) can be switched off as a baseline.
//! The quality report contrasts two very different victims:
//!
//! * the *synchronization itself* (ground-truth PHC spread) — robust,
//!   because two-step hardware timestamping measures and compensates
//!   every queuing delay a Sync experiences;
//! * the *precision measurement* (Π* via probe packets) — degrades with
//!   load, because probe arrival jitter enters Eq. 3.1 directly. This is
//!   exactly the asymmetry the paper's measurement error γ formalizes,
//!   and why its methodology pins the probe paths with a dedicated VLAN.

use clocksync::{BackgroundTraffic, TestbedConfig, World};
use tsn_time::Nanos;

fn config(load: f64, priority: bool, seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = Nanos::from_secs(30);
    if load > 0.0 {
        cfg.background = Some(BackgroundTraffic {
            load,
            frame_bytes: 1500,
            priority_isolation: priority,
        });
    }
    cfg
}

fn main() {
    eprintln!("\n== ABL6 quality: congestion (30 s runs) ==");
    eprintln!(
        "  {:<26} {:>12} {:>12} {:>12}",
        "variant", "phc spread", "measured avg", "measured max"
    );
    for (label, load, prio) in [
        ("idle", 0.0, true),
        ("load 0.3 + priority", 0.3, true),
        ("load 0.6 + priority", 0.6, true),
        ("load 0.6 no priority", 0.6, false),
        ("load 0.9 + priority", 0.9, true),
    ] {
        let mut world = World::new(config(load, prio, 5));
        let end = world.end_time();
        world.run_until(end);
        let spread = world.phc_spread(end);
        let r = world.into_result();
        let stats = r.series.stats().expect("samples");
        eprintln!(
            "  {label:<26} {:>12} {:>9.0} ns {:>12}",
            format!("{spread}"),
            stats.mean,
            format!("{}", stats.max)
        );
    }
    eprintln!("  (synchronization holds at every load; the probe measurement degrades)");
    eprintln!();
}
