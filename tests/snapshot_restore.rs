//! Tier-1: checkpoint/restore determinism.
//!
//! The fork-based campaign engine rests on three properties checked
//! here: a snapshot round-trips byte-exactly, a restored world continues
//! byte-identically to the uninterrupted original, and a warm-prefix
//! snapshot forked into a full configuration (interventions re-armed)
//! reproduces the cold run exactly.

use clocksync::snapshot::{checkpoint_time, warm_prefix_config};
use clocksync::{TestbedConfig, World, WorldSnapshot};
use proptest::prelude::*;
use std::sync::OnceLock;
use tsn_faults::{AttackPlan, CveId, KernelAssignment, Strike};
use tsn_snapshot::{Snap, SnapError, Writer};
use tsn_time::{Nanos, SimTime};

fn short_cfg(seed: u64) -> TestbedConfig {
    TestbedConfig {
        warmup: Nanos::from_secs(5),
        duration: Nanos::from_secs(8),
        ..TestbedConfig::quick(seed)
    }
}

/// Election on; node 1's grandmaster is killed 2 s after the warm-up.
fn failover_cfg() -> TestbedConfig {
    let mut cfg = short_cfg(41);
    cfg.election = Some(clocksync::election::ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(2)),
        gm_failure_node: 1,
        ..clocksync::election::ElectionConfig::default()
    });
    cfg
}

/// Identical kernels and one strike shortly after the warm-up, well
/// inside the short duration.
fn attack_cfg() -> TestbedConfig {
    let mut cfg = short_cfg(37);
    cfg.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(2),
        target_node: 3,
        cve: CveId::Cve2018_18955,
        pot_offset: Nanos::from_micros(-24),
        strategy: None,
    }]);
    cfg.kernels = KernelAssignment::identical(cfg.nodes);
    cfg
}

#[test]
fn snapshot_roundtrips_byte_exactly() {
    let cfg = short_cfg(11);
    let mut world = World::new(cfg.clone());
    world.run_until(SimTime::from_secs(3));
    let snap = world.snapshot();
    // Envelope encode/decode is the identity.
    let decoded = WorldSnapshot::decode(&snap.encode()).expect("decode");
    assert_eq!(decoded, snap);
    // Restore into the same configuration reproduces the state bytes.
    let restored = World::restore(cfg, &snap).expect("restore");
    let again = restored.snapshot();
    assert_eq!(again.payload, snap.payload);
    assert_eq!(again.state_hash(), snap.state_hash());
    assert_eq!(again.at_ns, snap.at_ns);
    assert_eq!(again.events_processed, snap.events_processed);
}

#[test]
fn restore_rejects_foreign_config() {
    let cfg = short_cfg(11);
    let mut world = World::new(cfg.clone());
    world.run_until(SimTime::from_secs(1));
    let snap = world.snapshot();
    let other = short_cfg(12);
    assert!(World::restore(other, &snap).is_err());
}

#[test]
fn restored_world_continues_identically() {
    let cfg = short_cfg(23);
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;

    let mut cold = World::new(cfg.clone());
    cold.run_until(end);

    let mut warm = World::new(cfg.clone());
    warm.run_until(SimTime::from_secs(4));
    let snap = warm.snapshot();
    let mut resumed = World::restore(cfg, &snap).expect("restore");
    resumed.run_until(end);

    assert_eq!(resumed.events_processed(), cold.events_processed());
    assert_eq!(resumed.state_hash(), cold.state_hash());

    let a = cold.into_result();
    let b = resumed.into_result();
    assert_eq!(a.series, b.series);
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn forked_prefix_reproduces_cold_run_with_interventions() {
    let cfg = attack_cfg();
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;

    // Cold: the full configuration from t = 0.
    let mut cold = World::new(cfg.clone());
    cold.run_until(end);

    // Fork: simulate only the warm-prefix projection to the checkpoint,
    // then restore into the full configuration (which re-arms the
    // stripped strike) and continue.
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
    // The intervention actually fired in both.
    assert_eq!(a.counters.strikes_succeeded, 1);
}

#[test]
fn forked_prefix_reproduces_election_failover_run() {
    // The election machinery (Announce traffic, BMCA state, timers) runs
    // during the warm prefix and is snapshotted; the scheduled GM kill is
    // stripped by the projection and re-armed on restore. The forked
    // continuation must reproduce the cold failover run byte-exactly.
    let cfg = failover_cfg();
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;

    let mut cold = World::new(cfg.clone());
    cold.run_until(end);

    let cp = checkpoint_time(&cfg).expect("has warmup");
    let mut prefix = World::new(warm_prefix_config(&cfg));
    prefix.run_until(cp);
    let snap = prefix.snapshot();

    let mut forked = World::restore(cfg, &snap).expect("fork restore");
    forked.run_until(end);

    assert_eq!(forked.state_hash(), cold.state_hash());
    assert_eq!(forked.acting_masters(1), vec![2], "failover happened");
    let a = cold.into_result();
    let b = forked.into_result();
    assert_eq!(a.series, b.series);
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
    assert!(a.counters.elected_gm_changes >= 1);
}

/// Layout pin for the election-on stream (`tests/fabric.rs` pins the
/// election-off one): Announce state, acquired masters and the fired GM
/// kill are all in these bytes. If this hash moves and the simulated
/// behaviour did not, the state layout changed: bump
/// `WORLD_STATE_VERSION`, then re-record this pin and the fabric one.
///
/// Re-recorded once with `WORLD_STATE_VERSION` still 6 (39,661 events,
/// `fb10e5d6229f59dd` before): bridges stopped flooding Announce over
/// the mesh — simulated behaviour moved, the layout did not.
#[test]
fn election_state_layout_is_pinned() {
    let mut world = World::new(failover_cfg());
    world.run_until(SimTime::from_secs(10));
    assert_eq!(world.acting_masters(1), vec![2], "failover happened");
    assert_eq!(world.events_processed(), 16_835, "events");
    assert_eq!(world.state_hash(), 0x12b41a5b1ec3bb98, "state hash");
}

// ----- restore robustness: decodable-but-wrong payloads ----------------

/// A world past its first strike, so one VM carries a strike index.
fn struck_world() -> &'static (TestbedConfig, WorldSnapshot) {
    static BASE: OnceLock<(TestbedConfig, WorldSnapshot)> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut world = World::new(attack_cfg());
        world.run_until(SimTime::from_secs(9));
        (attack_cfg(), world.snapshot())
    })
}

fn encoded(field: &impl Snap) -> Vec<u8> {
    let mut w = Writer::new();
    field.put(&mut w);
    w.into_bytes()
}

/// [`assert_patch_refused_in`] the struck world.
fn assert_patch_refused(field: &impl Snap, word: usize, value: u64, why: &'static str) {
    assert_patch_refused_in(struck_world(), field, word, value, why);
}

/// Restores `base`'s snapshot once per occurrence of `field`'s encoding
/// in its payload, with the 8 bytes at `word` bytes into that occurrence
/// replaced by `value`. The integration test cannot name a field's
/// offset, but it knows the field's encoding: the occurrence that *is*
/// the field must be refused as `why`, and no occurrence may panic.
fn assert_patch_refused_in(
    base: &(TestbedConfig, WorldSnapshot),
    field: &impl Snap,
    word: usize,
    value: u64,
    why: &'static str,
) {
    let (cfg, snap) = base;
    let pattern = encoded(field);
    let hits = snap.payload.windows(pattern.len()).enumerate();
    let results: Vec<Result<(), SnapError>> = hits
        .filter(|(_, w)| *w == pattern)
        .map(|(at, _)| {
            let mut bad = snap.clone();
            bad.payload[at + word..at + word + 8].copy_from_slice(&value.to_le_bytes());
            World::restore(cfg.clone(), &bad).map(drop)
        })
        .collect();
    assert!(
        results.contains(&Err(SnapError::Malformed(why))),
        "{results:?}"
    );
}

#[test]
fn restore_rejects_domain_root_outside_topology() {
    // `domain_roots` still holds the static assignment; word 0 is the
    // vector's length, word 1 domain 0's root.
    let roots: Vec<usize> = vec![0, 1, 2, 3];
    assert_patch_refused(&roots, 8, 4, "domain root outside topology");
}

#[test]
fn restore_rejects_foreign_dependent_clock_vm_ids() {
    // `active` = VM 0, `standbys` = [VM 1]: VM 7 does not exist, and
    // VM 1 twice is not a permutation either.
    let ids = (0usize, vec![1usize]);
    assert_patch_refused(&ids, 0, 7, "dependent clock VM ids");
    assert_patch_refused(&ids, 0, 1, "dependent clock VM ids");
}

#[test]
fn restore_rejects_strike_index_outside_attack_plan() {
    // running, compromised, struck by strike 0 — the plan's only one.
    let vm = (true, true, Some(0usize));
    assert_patch_refused(&vm, 3, 1, "strike index outside attack plan");
}

#[test]
fn restore_rejects_fabric_busy_key_outside_topology() {
    let mut cfg = short_cfg(43);
    cfg.fabric = Some(clocksync::fabric::FabricConfig::line(2));
    let mut world = World::new(cfg.clone());
    world.run_until(SimTime::from_secs(3));
    let base = (cfg, world.snapshot());
    // A fabric port's key is pair << 32 | direction << 16 | hop. Four
    // switches make pairs 0..=5; (2, 3) is the last, two hops deep.
    let last_port = 5u64 << 32 | 1 << 16 | 1;
    let why = "busy key outside the topology";
    for outside in [
        6 << 32 | 1 << 16 | 1,
        5 << 32 | 1 << 16 | 2,
        5 << 32 | 2 << 16,
    ] {
        assert_patch_refused_in(&base, &last_port, 0, outside, why);
    }
}

#[test]
fn restore_rejects_egress_wake_up_that_was_never_reserved() {
    // The payload opens with the event queue: now, then the data
    // sequence counter. Most ports that ever sent hold the number
    // reserved for their last frame's completion (nobody queued behind
    // it); with the counter rolled back those numbers were never handed
    // out, and materialising one would mint a duplicate.
    let (cfg, snap) = struck_world();
    let mut bad = snap.clone();
    bad.payload[8..16].copy_from_slice(&0u64.to_le_bytes());
    let why = "egress wake-up was never reserved";
    let restored = World::restore(cfg.clone(), &bad).map(drop);
    assert_eq!(restored, Err(SnapError::Malformed(why)));
}

proptest! {
    /// Whatever a disk hands us: a truncated or bit-damaged payload makes
    /// `World::restore` return — `Err`, or `Ok` when the damage happens to
    /// decode — and never panic (ROADMAP 4c).
    #[test]
    fn restore_of_damaged_payload_never_panics(
        at in any::<usize>(),
        truncate in any::<bool>(),
        mask in 1u8..=255,
    ) {
        let (cfg, snap) = struck_world();
        let at = at % snap.payload.len();
        let mut bad = snap.clone();
        if truncate {
            bad.payload.truncate(at);
        } else {
            bad.payload[at] ^= mask;
        }
        let restored = World::restore(cfg.clone(), &bad);
        prop_assert!(!truncate || restored.is_err(), "restored from {} bytes", at);
    }
}
