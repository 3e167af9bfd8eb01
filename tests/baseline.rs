//! Integration: fault-free operation of the full testbed.

use clocksync::{TestbedConfig, World};
use tsn_time::{Nanos, SimTime};

fn quick(seed: u64, secs: i64) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = Nanos::from_secs(secs);
    cfg
}

#[test]
fn converges_and_stays_within_bound() {
    let r = &World::new(quick(42, 90)).run();
    let stats = r.series.stats().expect("probes collected");
    assert!(stats.count >= 85, "only {} samples", stats.count);
    // Sub-microsecond average, as in the paper's steady state.
    assert!(stats.mean < 1_000.0, "average {} ns", stats.mean);
    assert_eq!(
        r.series.fraction_within(r.bounds.pi_plus_gamma()),
        1.0,
        "bound violated in fault-free operation"
    );
}

#[test]
fn deterministic_across_runs() {
    let a = World::new(quick(7, 45)).run();
    let b = World::new(quick(7, 45)).run();
    assert_eq!(a.series.samples(), b.series.samples());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.events.entries(), b.events.entries());
}

#[test]
fn different_seeds_differ() {
    let a = World::new(quick(1, 45)).run();
    let b = World::new(quick(2, 45)).run();
    assert_ne!(a.series.samples(), b.series.samples());
}

#[test]
fn ground_truth_phc_spread_converges() {
    let mut cfg = quick(3, 60);
    cfg.warmup = Nanos::from_secs(20);
    let mut world = World::new(cfg);
    let t = SimTime::from_secs(60);
    world.run_until(t);
    let spread = world.phc_spread(t);
    assert!(
        spread < Nanos::from_micros(2),
        "PHC ensemble spread {spread}"
    );
    let st = world.synctime_spread(t);
    assert!(st < Nanos::from_micros(3), "CLOCK_SYNCTIME spread {st}");
}

#[test]
fn bounds_match_paper_formula() {
    let b = &World::new(quick(5, 30)).run().bounds;
    // Γ = 2 · 5 ppm · 125 ms.
    assert_eq!(b.drift_offset, Nanos::from_nanos(1_250));
    // Π = 2 (E + Γ) for N = 4, f = 1.
    assert_eq!(
        b.pi,
        Nanos::from_nanos(2 * (b.reading_error.as_nanos() + 1_250))
    );
    assert_eq!(b.reading_error, b.d_max - b.d_min);
    // Calibration regime of the paper: E ≈ 5 µs, Π ≈ 11–14 µs, γ ≈ 1–3 µs.
    assert!(
        b.pi > Nanos::from_micros(8) && b.pi < Nanos::from_micros(16),
        "Π = {}",
        b.pi
    );
    assert!(b.gamma < Nanos::from_micros(4), "γ = {}", b.gamma);
}

#[test]
fn feed_forward_discipline_also_converges() {
    let mut cfg = quick(9, 60);
    cfg.sync_clock_discipline = clocksync::hyp::SyncClockDiscipline::FeedForward;
    let r = &World::new(cfg).run();
    let stats = r.series.stats().expect("probes");
    assert!(stats.mean < 1_000.0, "average {} ns", stats.mean);
    assert_eq!(r.series.fraction_within(r.bounds.pi_plus_gamma()), 1.0);
}

#[test]
fn scales_to_more_nodes() {
    // 5 nodes / 5 domains still satisfies N > 3f and synchronizes.
    let mut cfg = quick(13, 60);
    cfg.nodes = 5;
    cfg.aggregation.domains = 5;
    cfg.kernels = clocksync::faults::KernelAssignment::identical(5);
    let stats = World::new(cfg).run().series.stats().expect("probes");
    assert!(stats.mean < 1_500.0, "average {} ns", stats.mean);
}

/// Π = u(N, f)(E + Γ) takes the run's own f: seven domains trimming
/// f = 2 are judged against u(7, 2) = 3, not the f = 1 bound, and the
/// oracle's bound-algebra check agrees with the bound the run reports.
#[test]
fn precision_bound_takes_the_runs_own_f() {
    let mut cfg = TestbedConfig::quick(13);
    cfg.warmup = Nanos::from_secs(5);
    cfg.duration = Nanos::from_secs(5);
    cfg.nodes = 7;
    cfg.aggregation.domains = 7;
    cfg.aggregation.method = clocksync::fta::AggregationMethod::FaultTolerantAverage { f: 2 };
    cfg.kernels = clocksync::faults::KernelAssignment::identical(7);
    let mut world = World::new(cfg);
    world.enable_oracle();
    let r = world.run();
    let b = &r.bounds;
    assert_eq!(
        b.pi,
        clocksync::metrics::precision_bound(7, 2, b.reading_error, b.drift_offset)
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

/// N > 3f is checked when the world is built, not when the run ends.
#[test]
#[should_panic(expected = "FTA requires N > 3f (got N=3, f=1)")]
fn three_nodes_are_refused_before_the_run() {
    let mut cfg = TestbedConfig::quick(13);
    cfg.nodes = 3;
    cfg.aggregation.domains = 3;
    cfg.kernels = clocksync::faults::KernelAssignment::identical(3);
    World::new(cfg);
}

#[test]
fn prior_work_baseline_gm_ensemble_diverges() {
    // The paper's §I critique of Kyriakakis et al., reproduced: without
    // mutual GM synchronization the grandmaster ensemble drifts apart
    // without bound, while the paper's distributed FTA keeps it within
    // the precision bound.
    let duration = Nanos::from_secs(600);

    let mut prior = {
        let mut cfg = TestbedConfig::paper_default(33);
        cfg.duration = duration;
        cfg.gm_mutual_sync = false;
        World::new(cfg)
    };
    let t_end = SimTime::from_secs(630);
    prior.run_until(t_end);
    let prior_spread = prior.gm_spread(t_end);

    let mut ours = World::new(quick(33, 600));
    ours.run_until(t_end);
    let ours_spread = ours.gm_spread(t_end);

    assert!(
        prior_spread > Nanos::from_micros(100),
        "prior-work GMs unexpectedly synchronized: {prior_spread}"
    );
    assert!(
        ours_spread < Nanos::from_micros(2),
        "our GM ensemble drifted: {ours_spread}"
    );
    // And the divergence shows up in the measured precision too (the
    // measured set contains the GM-hosting nodes).
    let r = prior.into_result();
    let frac = r.series.fraction_within(r.bounds.pi_plus_gamma());
    assert!(
        frac < 0.9,
        "prior-work baseline unexpectedly held the bound: {frac}"
    );
}
