//! The paper's 24 h fault-injection experiment (Fig. 4/5): sequential
//! grandmaster shutdowns (one per hour, cycling through the ECDs) plus
//! random redundant clock-sync VM shutdowns, under the constraint that a
//! node never loses both of its clock-synchronization VMs at once.
//!
//! The full 24 h takes about 20 s of wall-clock time in release mode;
//! pass a smaller hour count to go faster.
//!
//! ```sh
//! cargo run --release --example fault_injection_24h [hours]
//! ```

use clocksync::scenario;
use tsn_metrics::{render_histogram, render_series, ExperimentEvent, Histogram};
use tsn_time::Nanos;

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let duration = Nanos::from_secs((hours * 3600) as i64);

    println!("running {hours} h fault-injection experiment…");
    let outcome = scenario::fault_injection(11, duration);
    let r = &outcome.result;

    println!("\nderived bounds:");
    println!(
        "  Π = {}   γ = {}   Π + γ = {}",
        r.bounds.pi,
        r.bounds.gamma,
        r.bounds.pi_plus_gamma()
    );

    let stats = r.series.stats().expect("probes collected");
    println!("\nmeasured precision (paper: avg 322 ± 421 ns, min 33 ns, max 10 080 ns):");
    println!(
        "  avg = {:.0} ns   std = {:.0} ns   min = {}   max = {}",
        stats.mean, stats.std, stats.min, stats.max
    );
    println!(
        "  fraction within Π + γ: {:.5}",
        r.series.fraction_within(r.bounds.pi_plus_gamma())
    );

    // Fig. 4a: 120 s aggregated series on a log scale.
    let windows = r.series.aggregate(Nanos::from_secs(120));
    println!("\nFig. 4a — precision over time (120 s windows):");
    println!(
        "{}",
        render_series(
            &windows,
            &[("Pi", r.bounds.pi), ("Pi+gamma", r.bounds.pi_plus_gamma())],
            14,
            72
        )
    );

    // Fig. 4b: value distribution.
    let mut hist = Histogram::new(50, 20); // 0..1000 ns in 50 ns bins
    for s in r.series.samples() {
        hist.record(s.value);
    }
    println!("Fig. 4b — distribution of measured precision (50 ns bins):");
    println!("{}", render_histogram(&hist, 48));

    // Fault bookkeeping (paper: 94 fail-silent VMs, 48 GM; 2992 tx
    // timestamp timeouts; 347 deadline misses).
    println!("fault summary:");
    println!(
        "  fail-silent clock-sync VMs: {} ({} grandmasters)",
        r.counters.vm_failures, r.counters.gm_failures
    );
    println!("  CLOCK_SYNCTIME takeovers:  {}", r.counters.takeovers);
    println!(
        "  tx timestamp timeouts:     {}",
        r.counters.tx_timestamp_timeouts
    );
    println!(
        "  Sync deadline misses:      {}",
        r.counters.deadline_misses
    );
    let resumed = r
        .events
        .count(|e| matches!(e, ExperimentEvent::GmResumed { .. }));
    println!("  GM rejoins after reboot:   {resumed}");
}
