//! Integration tests for the runtime invariant oracle (`tsn-oracle`).
//!
//! Two properties matter end to end: a clean run of the paper's
//! scenarios must report zero violations (the invariants describe the
//! simulator, not a stricter ideal of it), and arming the oracle must
//! not change a single simulated bit — it observes, it never steers.
//! The latter is held to observer parity: state hashes at the midpoint
//! and at the end of the run, and run-record bytes, under every
//! observer set.

#[path = "observer_parity.rs"]
mod observer_parity;

use clocksync::scenario::ScenarioKind;
use clocksync::{TestbedConfig, World};
use observer_parity::assert_observers_do_not_perturb;
use tsn_time::{Nanos, SimTime};

/// A short quick-preset run: long enough to get past warm-up into
/// fault-tolerant aggregation, short enough for a test.
fn quick_cfg(seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::quick(seed);
    cfg.duration = Nanos::from_secs(12);
    cfg.warmup = Nanos::from_secs(4);
    cfg
}

#[test]
fn clean_baseline_run_reports_no_violations() {
    let mut world = World::new(quick_cfg(7));
    world.enable_oracle();
    let result = world.run();
    assert!(
        result.violations.is_empty(),
        "oracle flagged a clean baseline run:\n{:#?}",
        result.violations
    );
}

#[test]
fn clean_cyber_attack_run_reports_no_violations() {
    // The attacker compromises grandmasters (Byzantine domains), but as
    // long as at most f domains are compromised the FTA containment
    // invariant — and every other invariant — must still hold.
    let mut cfg = quick_cfg(11);
    ScenarioKind::CyberIdenticalKernels.apply(&mut cfg);
    let mut world = World::new(cfg);
    world.enable_oracle();
    let result = world.run();
    assert!(
        result.violations.is_empty(),
        "oracle flagged a cyber-attack run:\n{:#?}",
        result.violations
    );
}

#[test]
fn clean_fault_injection_run_reports_no_violations() {
    let mut cfg = quick_cfg(13);
    ScenarioKind::FaultInjection.apply(&mut cfg);
    let mut world = World::new(cfg);
    world.enable_oracle();
    let result = world.run();
    assert!(
        result.violations.is_empty(),
        "oracle flagged a fault-injection run:\n{:#?}",
        result.violations
    );
}

/// Parity on a run with a successful strike: the oracle's Byzantine
/// marks are built per FTA round, and the strike is logged.
#[test]
fn oracle_does_not_perturb_state() {
    let mut cfg = quick_cfg(11);
    ScenarioKind::CyberIdenticalKernels.apply(&mut cfg);
    let mut strikes = cfg.attack.strikes().to_vec();
    strikes.truncate(1);
    strikes[0].at = SimTime::from_secs(2);
    cfg.attack = clocksync::faults::AttackPlan::new(strikes);
    let result = assert_observers_do_not_perturb(&cfg);
    assert!(result.counters.strikes_succeeded > 0, "the strike lands");
    assert!(
        result.violations.is_empty(),
        "oracle flagged a clean run:\n{:#?}",
        result.violations
    );
}
