//! Integration: the paper's cyber-resilience experiments (Fig. 3).
//!
//! These tests run a compressed version of the 1 h experiment: the two
//! strikes are moved to 3 min and 6 min so a 10 min simulated run
//! exercises the full before/strike-1/strike-2 sequence.

use clocksync::{TestbedConfig, World};
use tsn_faults::{
    AttackPlan, ByzantineStrategy, CveId, KernelAssignment, Strike, PAPER_POT_OFFSET,
};
use tsn_time::{Nanos, SimTime};

fn compressed_attack() -> AttackPlan {
    AttackPlan::new(vec![
        Strike {
            at: SimTime::from_secs(180),
            target_node: 3,
            cve: CveId::Cve2018_18955,
            pot_offset: PAPER_POT_OFFSET,
            strategy: None,
        },
        Strike {
            at: SimTime::from_secs(360),
            target_node: 0,
            cve: CveId::Cve2018_18955,
            pot_offset: PAPER_POT_OFFSET,
            strategy: None,
        },
    ])
}

fn cfg(kernels: KernelAssignment) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper_default(7);
    cfg.duration = Nanos::from_secs(600);
    cfg.kernels = kernels;
    cfg.attack = compressed_attack();
    cfg
}

/// Precision stats of minute `m` of the measured axis.
fn minute_max(r: &clocksync::RunResult, m: u64) -> Nanos {
    let from = SimTime::ZERO + r.warmup + Nanos::from_secs((m * 60) as i64);
    r.series
        .window(from, from + Nanos::from_secs(60))
        .stats()
        .expect("samples in minute")
        .max
}

#[test]
fn identical_kernels_first_strike_masked_second_breaks_bound() {
    let r = &World::new(cfg(KernelAssignment::identical(4))).run();
    assert_eq!(r.counters.strikes_succeeded, 2);
    assert_eq!(r.counters.strikes_failed, 0);
    let bound = r.bounds.pi_plus_gamma();

    // Before any strike: within bound.
    assert!(minute_max(r, 2) <= bound, "pre-attack violated");
    // Between strike 1 (min 3) and strike 2 (min 6): the FTA masks the
    // single Byzantine GM.
    assert!(
        minute_max(r, 5) <= bound,
        "first strike not masked: {}",
        minute_max(r, 5)
    );
    // After strike 2: the bound is violated (Byzantine tolerance f = 1
    // is exceeded).
    assert!(
        minute_max(r, 9) > bound,
        "second strike did not break synchronization: {} <= {bound}",
        minute_max(r, 9)
    );
}

#[test]
fn diverse_kernels_mask_the_whole_attack() {
    let r = &World::new(cfg(KernelAssignment::diverse(4, 3))).run();
    assert_eq!(r.counters.strikes_succeeded, 1);
    assert_eq!(r.counters.strikes_failed, 1);
    assert_eq!(
        r.series.fraction_within(r.bounds.pi_plus_gamma()),
        1.0,
        "diversified system must stay within the bound"
    );
}

#[test]
fn attack_without_vulnerable_kernels_is_harmless() {
    let kernels = KernelAssignment::custom(vec![tsn_faults::KernelVersion::V5_4_0; 4]);
    let r = &World::new(cfg(kernels)).run();
    assert_eq!(r.counters.strikes_succeeded, 0);
    assert_eq!(r.counters.strikes_failed, 2);
    assert_eq!(r.series.fraction_within(r.bounds.pi_plus_gamma()), 1.0);
}

#[test]
fn strike_events_are_logged_with_outcome() {
    let strikes: Vec<bool> = World::new(cfg(KernelAssignment::diverse(4, 3)))
        .run()
        .events
        .entries()
        .iter()
        .filter_map(|(_, e)| match e {
            tsn_metrics::ExperimentEvent::Strike { succeeded, .. } => Some(*succeeded),
            _ => None,
        })
        .collect();
    assert_eq!(strikes, vec![true, false]);
}

#[test]
fn every_strategy_on_one_domain_is_masked() {
    // Positive control for the adversary engine: with one compromised GM
    // (≤ f = 1) every strategy — including the trim-edge boundary hugger
    // — is absorbed by the FTA. The runtime oracle (FtaContainment among
    // others) must stay silent and the precision bound must hold.
    for name in ByzantineStrategy::NAMES {
        let strategy = ByzantineStrategy::named(name).expect("preset");
        let mut c = TestbedConfig {
            warmup: Nanos::from_secs(6),
            duration: Nanos::from_secs(22),
            ..TestbedConfig::quick(61)
        };
        c.attack = AttackPlan::new(vec![Strike {
            at: SimTime::from_secs(2),
            target_node: 3,
            cve: CveId::Cve2018_18955,
            pot_offset: PAPER_POT_OFFSET,
            strategy: Some(strategy),
        }]);
        let mut world = World::new(c);
        world.enable_oracle();
        let r = world.run();
        assert_eq!(r.counters.strikes_succeeded, 1, "{name}: strike missed");
        assert_eq!(
            r.violations,
            Vec::new(),
            "{name}: oracle flagged a masked attack"
        );
        assert_eq!(
            r.series.fraction_within(r.bounds.pi_plus_gamma()),
            1.0,
            "{name}: single Byzantine domain not masked"
        );
    }
}

#[test]
fn colluding_trim_edge_beyond_f_breaks_containment() {
    // Negative control: f + 1 = 2 colluding GMs hugging their *joint*
    // trim edge. A lone trim-edge adversary is capped at the validity
    // threshold τ = 15 µs (measured from the median) and the f-trim
    // masks it; a colluding pair shifts the median itself to target/2,
    // so both lies stay within τ of the median up to a shared target of
    // 2τ − margin ≈ 29 µs. After the f-trim the honest nodes average
    // one surviving lie (≈ target/2 ≈ 14.5 µs) while the compromised
    // nodes (which never see their own lie) stay near zero — precision
    // breaks past π + γ. FtaContainment claims nothing beyond f, so the
    // break is asserted on the measured series, not the oracle.
    let mut c = TestbedConfig {
        warmup: Nanos::from_secs(6),
        duration: Nanos::from_secs(22),
        ..TestbedConfig::quick(11)
    };
    let edge = ByzantineStrategy::Colluding {
        target: Nanos::from_micros(29),
    };
    c.attack = AttackPlan::new(vec![
        Strike {
            at: SimTime::from_secs(2),
            target_node: 2,
            cve: CveId::Cve2018_18955,
            pot_offset: PAPER_POT_OFFSET,
            strategy: Some(edge),
        },
        Strike {
            at: SimTime::from_secs(2),
            target_node: 3,
            cve: CveId::Cve2018_18955,
            pot_offset: PAPER_POT_OFFSET,
            strategy: Some(edge),
        },
    ]);
    let r = World::new(c).run();
    assert_eq!(r.counters.strikes_succeeded, 2);
    assert!(
        r.series.fraction_within(r.bounds.pi_plus_gamma()) < 1.0,
        "f + 1 colluding trim-edge domains must break containment"
    );
}

#[test]
fn single_byzantine_gm_bounded_regardless_of_direction() {
    // A +24 µs shift (opposite sign to the paper's) is masked just the
    // same: the FTA discards extremes on both sides.
    let mut c = cfg(KernelAssignment::diverse(4, 3));
    c.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(180),
        target_node: 3,
        cve: CveId::Cve2018_18955,
        pot_offset: Nanos::from_micros(24),
        strategy: None,
    }]);
    let r = &World::new(c).run();
    assert_eq!(r.counters.strikes_succeeded, 1);
    assert_eq!(r.series.fraction_within(r.bounds.pi_plus_gamma()), 1.0);
}
