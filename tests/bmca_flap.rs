//! Integration: BMCA stability under bursty Announce loss.
//!
//! Dynamic elections are only trustworthy if a lossy network cannot make
//! them thrash: a Gilbert–Elliott burst process on the links eats whole
//! runs of Announce messages, which is exactly the input pattern that
//! provokes spurious announce-receipt timeouts and mastership flapping.
//! These tests run the election under such loss and demand that
//!
//! * the oracle invariants — including at-most-one-acting-master and
//!   election convergence — stay silent;
//! * the flap count (`elected_gm_changes`) stays bounded;
//! * the run is byte-identical between a cold execution and a
//!   warm-prefix fork (loss draws start strictly after the checkpoint).

use clocksync::election::ElectionConfig;
use clocksync::snapshot::{checkpoint_time, warm_prefix_config};
use clocksync::{TestbedConfig, World};
use tsn_netsim::{BurstLoss, LinkFaultPlan};
use tsn_time::Nanos;

/// Beyond this many elected-GM changes the election is thrashing, not
/// converging: with every home node alive the steady state is zero
/// changes, and a loss burst that grazes a timeout costs at most one
/// change away and one change back per domain.
const FLAP_BOUND: u64 = 2 * 4; // two changes per domain of the quick topology

/// The announce receipt timeout this loss plan needs, in intervals
/// (802.1AS allows 2–255; [`ElectionConfig::default`] stays at 3).
///
/// Bridges relay an Announce down the sender's tree, so a listener gets
/// one copy per interval, over three links (station – bridge – bridge –
/// station). The burst chain advances per crossing and 10–20 other
/// frames cross a link between two Announces of one master (the chain's
/// memory is 0.73 per crossing), so successive Announces are lost
/// independently: per link
/// `π_burst·0.9 + (1 − π_burst)·0.02 = 0.085` with
/// `π_burst = 0.02 / (0.02 + 0.25)`, per path `q = 1 − 0.915³ = 0.234`.
/// A claim expires after `k` consecutive losses; a run of them starts
/// with probability `(1 − q)·qᵏ` in each of the 12 listener pairs
/// (4 domains × 3 foreign GM VMs) × 48 intervals (12 s at 250 ms) = 576
/// windows, and each expiry costs about two changes (away and back):
///
/// * `k = 3`: 576 × 0.766 × 0.0129 ≈ 5.7 expiries ≈ 11 changes — over
///   the bound (measured: 16 and 12 on seeds 61/62);
/// * `k = 4`: 576 × 0.766 × 0.0030 ≈ 1.3 expiries ≈ 3 changes
///   (measured: 0 and 6).
///
/// Before the split-horizon relay the mesh flooded ~5 time-spread
/// copies of every Announce over each station's last link, an
/// accidental repetition code that hid this at `k = 3`.
const RECEIPT_TIMEOUT_INTERVALS: u32 = 4;

fn lossy_election_cfg(seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::quick(seed);
    cfg.warmup = Nanos::from_secs(5);
    cfg.duration = Nanos::from_secs(12);
    cfg.election = Some(ElectionConfig {
        timeout_intervals: RECEIPT_TIMEOUT_INTERVALS,
        ..ElectionConfig::default()
    });
    // A loss floor plus hard Gilbert–Elliott bursts: while the chain is
    // in its burst state most frames die, so consecutive Announces on
    // the same path are lost together.
    cfg.link_faults = Some(LinkFaultPlan {
        loss: 0.02,
        burst: Some(BurstLoss {
            p_enter: 0.02,
            p_exit: 0.25,
            p_loss: 0.9,
        }),
        asymmetry: Vec::new(),
        down: Vec::new(),
    });
    cfg
}

/// Bursty Announce loss must not destabilize the election: every domain
/// ends with exactly one acting master (its home node), the oracle —
/// with the at-most-one-acting-master invariant armed — stays silent,
/// and the flap count is bounded.
#[test]
fn announce_loss_keeps_election_stable() {
    let cfg = lossy_election_cfg(61);
    let n = cfg.nodes;
    let mut world = World::new(cfg);
    world.enable_oracle();
    let end = world.end_time();
    world.run_until(end);
    for d in 0..n {
        let masters = world.acting_masters(d as u8);
        assert!(
            masters.len() <= 1,
            "domain {d} has {} simultaneous acting masters: {masters:?}",
            masters.len()
        );
        assert_eq!(
            masters,
            vec![d],
            "domain {d} should still elect its home node under loss"
        );
    }
    let result = world.into_result();
    assert!(result.counters.announce_tx > 0, "masters announce");
    assert!(
        result.counters.elected_gm_changes <= FLAP_BOUND,
        "election thrashing: {} GM changes (bound {FLAP_BOUND})",
        result.counters.elected_gm_changes
    );
    assert!(
        result.violations.is_empty(),
        "oracle flagged the lossy election run:\n{:#?}",
        result.violations
    );
}

/// The lossy election run forks byte-identically: the Gilbert–Elliott
/// chain and the i.i.d. loss floor draw nothing before the warm-up
/// boundary, so a warm-prefix fork reproduces the cold run exactly —
/// same state hash, same series, same flap count.
#[test]
fn announce_loss_flap_run_forks_byte_identically() {
    let cfg = lossy_election_cfg(62);
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
    assert!(a.counters.announce_tx > 0, "masters announce");
    assert!(
        a.counters.elected_gm_changes <= FLAP_BOUND,
        "election thrashing: {} GM changes (bound {FLAP_BOUND})",
        a.counters.elected_gm_changes
    );
}
