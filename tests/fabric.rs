//! Tier-1: the multi-hop TSN switch fabric.
//!
//! Three properties anchor the subsystem:
//!
//! 1. **Inertness** — `fabric = None` runs are byte-identical to the
//!    pre-fabric build (state hashes and series fingerprints recorded
//!    before the subsystem existed are pinned as goldens).
//! 2. **Determinism** — an enabled fabric forks byte-identically from a
//!    warm-prefix snapshot (cold run == forked run).
//! 3. **The headline experiment** — offset error grows monotonically
//!    with network depth under cross-traffic in end-to-end mode, and
//!    transparent clocks recover sub-µs precision at the same depth,
//!    with the frame-conservation and Π-bound oracles silent on every
//!    cell.

use clocksync::fabric::FabricConfig;
use clocksync::snapshot::{checkpoint_time, warm_prefix_config};
use clocksync::trace::Subsystem;
use clocksync::{TestbedConfig, World};
use tsn_time::Nanos;

fn short_cfg(seed: u64) -> TestbedConfig {
    TestbedConfig {
        warmup: Nanos::from_secs(5),
        duration: Nanos::from_secs(8),
        ..TestbedConfig::quick(seed)
    }
}

/// Goldens recorded on the commit *before* the fabric subsystem was
/// merged: with `fabric = None` the world must still produce exactly
/// these series fingerprints. The state hashes double as the layout pin
/// of the election-off stream; hashes and event counts were re-recorded
/// at state schema 6, when egress ports stopped scheduling wake-ups
/// nobody waits for (28986 and 27003 events before) — the fingerprint
/// column did not move. If a hash moves and the behaviour columns do
/// not, bump `WORLD_STATE_VERSION` and re-record it together with the
/// election-on pin in `tests/snapshot_restore.rs`.
#[test]
fn disabled_fabric_is_byte_identical_to_pre_fabric_build() {
    const GOLDEN: &[(u64, u64, u64, u64)] = &[
        (11, 0x3b0715c5bf5aa78a, 21489, 0xccd1ee7ef43e7ef5),
        (29, 0x695885a8e5bef49c, 20023, 0x6befce40430bb2b5),
    ];
    for &(seed, state_hash, events, series_fp) in GOLDEN {
        let cfg = short_cfg(seed);
        assert!(cfg.fabric.is_none(), "paper default has no fabric");
        let mut world = World::new(cfg);
        let end = world.end_time();
        world.run_until(end);
        assert_eq!(world.state_hash(), state_hash, "seed {seed}: state hash");
        assert_eq!(world.events_processed(), events, "seed {seed}: events");
        let result = world.into_result();
        assert_eq!(
            tsn_snapshot::fingerprint_str(&format!("{:?}", result.series)),
            series_fp,
            "seed {seed}: series fingerprint"
        );
        assert_eq!(result.counters.fabric_frames_forwarded, 0);
        assert_eq!(result.counters.fabric_frames_dropped, 0);
        assert_eq!(result.counters.max_residence_ns, 0);
        assert_eq!(result.counters.path_asymmetry_ns, 0);
    }
}

#[test]
fn enabled_fabric_cold_and_forked_runs_are_byte_identical() {
    let mut cfg = short_cfg(13);
    cfg.fabric = Some(FabricConfig {
        cross_traffic_load: 0.4,
        transparent_clock: true,
        asymmetry_ns: Nanos::from_nanos(150),
        ..FabricConfig::line(2)
    });
    let end = tsn_time::SimTime::ZERO + cfg.warmup + cfg.duration;

    let mut cold = World::new(cfg.clone());
    cold.run_until(end);

    let cp = checkpoint_time(&cfg).expect("has warmup");
    let mut prefix = World::new(warm_prefix_config(&cfg));
    prefix.run_until(cp);
    let snap = prefix.snapshot();

    let mut forked = World::restore(cfg, &snap).expect("fork restore");
    forked.run_until(end);

    assert_eq!(forked.state_hash(), cold.state_hash());
    let a = cold.into_result();
    let b = forked.into_result();
    assert_eq!(a.series, b.series);
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
    // The fabric actually carried traffic and reported its asymmetry.
    assert!(a.counters.fabric_frames_forwarded > 0);
    assert!(a.counters.path_asymmetry_ns > 0);
}

/// The headline depth sweep (EXPERIMENTS.md "Network depth sweep"):
/// end-to-end mode degrades monotonically with hops under cross-traffic;
/// transparent clocks recover sub-µs at the deepest setting; every cell
/// satisfies its derived Π bound with the oracle registry silent.
#[test]
fn depth_sweep_degrades_e2e_and_transparent_clocks_recover() {
    let run = |hops: u32, tc: bool| {
        let cfg = TestbedConfig {
            warmup: Nanos::from_secs(5),
            duration: Nanos::from_secs(10),
            fabric: Some(FabricConfig {
                cross_traffic_load: 0.3,
                transparent_clock: tc,
                ..FabricConfig::line(hops)
            }),
            ..TestbedConfig::quick(7)
        };
        let mut world = World::new(cfg);
        world.enable_oracle();
        let end = world.end_time();
        world.run_until(end);
        let result = world.into_result();
        assert!(
            result.violations.is_empty(),
            "hops={hops} tc={tc}: oracle must stay silent, got {:?}",
            result.violations
        );
        assert!(result.counters.fabric_frames_forwarded > 0);
        assert!(result.counters.max_residence_ns > 0);
        assert_eq!(
            result.series.fraction_within(result.bounds.pi_plus_gamma()),
            1.0,
            "hops={hops} tc={tc}: measured precision must satisfy Π + γ"
        );
        let mean = result
            .series
            .samples()
            .iter()
            .map(|s| s.value.as_nanos() as f64)
            .sum::<f64>()
            / result.series.len().max(1) as f64;
        let max = result.series.max().map(|s| s.value).unwrap_or(Nanos::ZERO);
        (mean, max, result.bounds.pi)
    };

    // End-to-end: raw queuing error reaches the servo and compounds
    // with depth; the derived Π widens along with it.
    let (mean1, _, pi1) = run(1, false);
    let (mean3, _, pi3) = run(3, false);
    let (mean6, _, pi6) = run(6, false);
    assert!(
        mean1 < mean3 && mean3 < mean6,
        "E2E offset error must grow with depth: {mean1:.0} / {mean3:.0} / {mean6:.0} ns"
    );
    assert!(pi1 < pi3 && pi3 < pi6, "Π must widen with depth");
    assert!(
        mean6 > 10_000.0,
        "deep E2E under load is far from the paper's sub-µs: {mean6:.0} ns"
    );

    // Transparent clocks at the same depth and load: the correction
    // field cancels the queuing and sub-µs precision returns.
    let (mean_tc, max_tc, pi_tc) = run(6, true);
    assert!(
        max_tc < Nanos::from_micros(1),
        "TC mode must recover sub-µs at depth 6: max {max_tc}"
    );
    assert!(mean_tc < mean6 / 10.0, "TC mean must be an order better");
    assert!(pi_tc < pi6, "TC tightens the derived bound");
}

#[test]
fn fabric_crossings_land_in_the_trace_lane() {
    let mut cfg = short_cfg(19);
    cfg.duration = Nanos::from_secs(4);
    cfg.fabric = Some(FabricConfig::line(1));
    let mut world = World::new(cfg);
    world.enable_trace();
    let end = world.end_time();
    world.run_until(end);
    let report = world.into_result().trace.expect("trace enabled");
    let fabric_events = report
        .subsystems
        .iter()
        .find(|(s, _)| *s == Subsystem::Fabric)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    assert!(fabric_events > 0, "fabric lane must record sync crossings");
    assert!(report
        .events
        .iter()
        .any(|e| e.name == "fabric_sync" && e.cat == Subsystem::Fabric));
}
