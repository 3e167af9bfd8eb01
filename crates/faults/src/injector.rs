//! The fault-injection schedule generator (paper §III-C).
//!
//! "The fault injection tool triggered periodic sequential shutdowns of
//! the GM clocks hosted on each ECD with a period of 1h … In the case of
//! redundant clock synchronization VMs, which are not GM clocks, the
//! fault injection tool randomly triggered shutdowns … Note that the
//! fault injection tool avoided injecting faults to both clock
//! synchronization VMs of a node simultaneously since this would have
//! violated our fault hypothesis."
//!
//! The schedule is generated ahead of the run from a seed, which lets us
//! (a) enforce the per-node non-overlap constraint exactly and (b) make
//! the 24 h experiment bit-reproducible.

use rand::Rng;
use tsn_time::{Nanos, SimTime};

/// Which clock-synchronization VM of a node a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmSlot {
    /// The grandmaster clock-sync VM (`c^x_1`).
    Grandmaster,
    /// The redundant clock-sync VM (`c^x_2`).
    Redundant,
}

/// One scheduled fail-silent shutdown (with its reboot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Shutdown instant.
    pub at: SimTime,
    /// Reboot completion instant (the VM resumes with cleared state).
    pub reboot_at: SimTime,
    /// Target node (ECD index).
    pub node: usize,
    /// Target VM slot.
    pub slot: VmSlot,
}

impl FaultEvent {
    /// `true` if the VM is down at `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        t >= self.at && t < self.reboot_at
    }
}

/// Configuration of the schedule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectorConfig {
    /// Experiment duration (24 h in the paper).
    pub duration: Nanos,
    /// Number of nodes (ECDs).
    pub nodes: usize,
    /// Period of the sequential GM shutdowns (1 h in the paper; each
    /// period one node's GM is shut down, cycling through the nodes).
    pub gm_shutdown_period: Nanos,
    /// Random redundant-VM shutdowns per node per hour: inclusive lower
    /// bound.
    pub random_per_hour_min: u32,
    /// Random redundant-VM shutdowns per node per hour: inclusive upper
    /// bound (the paper allows up to 12; the realized counts are far
    /// lower because of the non-overlap constraint).
    pub random_per_hour_max: u32,
    /// VM downtime range (uniform) before the reboot completes.
    pub downtime_min: Nanos,
    /// Maximum downtime.
    pub downtime_max: Nanos,
}

impl InjectorConfig {
    /// The paper's 24 h fault-injection configuration, with the random
    /// rate calibrated so the realized totals land in the same regime as
    /// the paper's 94 fail-silent VMs (48 of them GM failures).
    pub fn paper_default() -> Self {
        InjectorConfig {
            duration: Nanos::from_secs(24 * 3600),
            nodes: 4,
            gm_shutdown_period: Nanos::from_secs(3600),
            random_per_hour_min: 0,
            random_per_hour_max: 2,
            downtime_min: Nanos::from_secs(45),
            downtime_max: Nanos::from_secs(120),
        }
    }
}

/// A generated, constraint-checked fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero nodes or a
    /// non-positive duration).
    pub fn generate<R: Rng + ?Sized>(config: &InjectorConfig, rng: &mut R) -> Self {
        assert!(config.nodes > 0, "at least one node required");
        assert!(config.duration.as_nanos() > 0, "duration must be positive");
        let mut events = Vec::new();
        let duration_ns = config.duration.as_nanos() as u64;
        let period_ns = config.gm_shutdown_period.as_nanos() as u64;

        // Sequential GM shutdowns: one per period, cycling through nodes,
        // placed mid-period to keep clear of period boundaries.
        let mut k = 0u64;
        loop {
            let at_ns = k * period_ns + period_ns / 2;
            if at_ns >= duration_ns {
                break;
            }
            let node = (k as usize) % config.nodes;
            let at = SimTime::from_nanos(at_ns);
            let downtime = sample_downtime(config, rng);
            events.push(FaultEvent {
                at,
                reboot_at: at + downtime,
                node,
                slot: VmSlot::Grandmaster,
            });
            k += 1;
        }

        // Random redundant-VM shutdowns, respecting the per-node
        // non-overlap constraint against the (already fixed) GM downtimes
        // and previously placed redundant downtimes.
        let hours = duration_ns / 3_600_000_000_000;
        for node in 0..config.nodes {
            for hour in 0..hours {
                let n = if config.random_per_hour_max > config.random_per_hour_min {
                    rng.gen_range(config.random_per_hour_min..=config.random_per_hour_max)
                } else {
                    config.random_per_hour_min
                };
                for _ in 0..n {
                    let at_ns = hour * 3_600_000_000_000 + rng.gen_range(0..3_600_000_000_000u64);
                    let at = SimTime::from_nanos(at_ns);
                    let downtime = sample_downtime(config, rng);
                    let reboot_at = at + downtime;
                    let candidate = FaultEvent {
                        at,
                        reboot_at,
                        node,
                        slot: VmSlot::Redundant,
                    };
                    // Constraint: never both VMs of one node down at once.
                    let overlaps = events.iter().any(|e| {
                        e.node == node && e.at < candidate.reboot_at && candidate.at < e.reboot_at
                    });
                    if !overlaps && reboot_at.as_nanos() < duration_ns {
                        events.push(candidate);
                    }
                }
            }
        }

        events.sort_by_key(|e| (e.at, e.node, e.slot == VmSlot::Redundant));
        FaultSchedule { events }
    }

    /// The events, sorted by shutdown time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Total number of fail-silent VM faults.
    pub fn total(&self) -> usize {
        self.events.len()
    }

    /// Number of grandmaster failures.
    pub fn gm_failures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.slot == VmSlot::Grandmaster)
            .count()
    }

    /// `true` if the schedule never takes both VMs of a node down at the
    /// same instant (the paper's fault-hypothesis constraint).
    pub fn respects_fault_hypothesis(&self) -> bool {
        for (i, a) in self.events.iter().enumerate() {
            for b in &self.events[i + 1..] {
                if a.node == b.node && a.slot != b.slot && a.at < b.reboot_at && b.at < a.reboot_at
                {
                    return false;
                }
            }
        }
        true
    }
}

fn sample_downtime<R: Rng + ?Sized>(config: &InjectorConfig, rng: &mut R) -> Nanos {
    let lo = config.downtime_min.as_nanos();
    let hi = config.downtime_max.as_nanos().max(lo + 1);
    Nanos::from_nanos(rng.gen_range(lo..hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule(seed: u64) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultSchedule::generate(&InjectorConfig::paper_default(), &mut rng)
    }

    #[test]
    fn gm_shutdowns_cycle_sequentially() {
        let s = schedule(1);
        let gms: Vec<&FaultEvent> = s
            .events()
            .iter()
            .filter(|e| e.slot == VmSlot::Grandmaster)
            .collect();
        assert_eq!(gms.len(), 24, "one GM shutdown per hour for 24 h");
        for (k, e) in gms.iter().enumerate() {
            assert_eq!(e.node, k % 4, "sequential cycling");
            assert_eq!(
                e.at,
                SimTime::from_secs(k as u64 * 3600 + 1800),
                "mid-period placement"
            );
        }
    }

    #[test]
    fn fault_hypothesis_never_violated() {
        for seed in 0..20 {
            let s = schedule(seed);
            assert!(s.respects_fault_hypothesis(), "seed {seed} violates");
        }
    }

    #[test]
    fn totals_in_paper_regime() {
        // The paper observed 94 fail-silent VMs, 48 of them GM failures.
        // Our calibrated generator should land within a factor of ~2.
        let s = schedule(7);
        assert!(
            (60..=150).contains(&s.total()),
            "total {} out of regime",
            s.total()
        );
        assert_eq!(s.gm_failures(), 24);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }

    #[test]
    fn events_sorted_and_within_duration() {
        let s = schedule(3);
        let dur = SimTime::from_secs(24 * 3600);
        for w in s.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in s.events() {
            assert!(e.at < dur);
            assert!(e.reboot_at > e.at);
        }
    }

    #[test]
    fn covers_reports_downtime_window() {
        let e = FaultEvent {
            at: SimTime::from_secs(100),
            reboot_at: SimTime::from_secs(160),
            node: 0,
            slot: VmSlot::Redundant,
        };
        assert!(!e.covers(SimTime::from_secs(99)));
        assert!(e.covers(SimTime::from_secs(100)));
        assert!(e.covers(SimTime::from_secs(159)));
        assert!(!e.covers(SimTime::from_secs(160)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = InjectorConfig {
            nodes: 0,
            ..InjectorConfig::paper_default()
        };
        FaultSchedule::generate(&cfg, &mut rng);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_config() -> impl Strategy<Value = InjectorConfig> {
        (
            1u64..6,     // duration hours
            2usize..6,   // nodes
            60u64..3600, // gm period seconds
            0u32..4,     // random min
            0u32..8,     // random extra
            5u64..60,    // downtime min s
            1u64..120,   // downtime extra s
        )
            .prop_map(
                |(h, nodes, gm_s, rmin, rextra, dmin, dextra)| InjectorConfig {
                    duration: Nanos::from_secs((h * 3600) as i64),
                    nodes,
                    gm_shutdown_period: Nanos::from_secs(gm_s as i64),
                    random_per_hour_min: rmin,
                    random_per_hour_max: rmin + rextra,
                    downtime_min: Nanos::from_secs(dmin as i64),
                    downtime_max: Nanos::from_secs((dmin + dextra) as i64),
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The paper's fault-hypothesis constraint — never both VMs of a
        /// node down simultaneously — holds for every configuration and
        /// seed.
        #[test]
        fn fault_hypothesis_always_respected(cfg in arb_config(), seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = FaultSchedule::generate(&cfg, &mut rng);
            prop_assert!(s.respects_fault_hypothesis());
        }

        /// Every event lies within the experiment and reboots after its
        /// shutdown; events are time-sorted.
        #[test]
        fn schedules_are_well_formed(cfg in arb_config(), seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = FaultSchedule::generate(&cfg, &mut rng);
            let dur = SimTime::ZERO + cfg.duration;
            for w in s.events().windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
            for e in s.events() {
                prop_assert!(e.at < dur);
                prop_assert!(e.reboot_at > e.at);
                prop_assert!(e.node < cfg.nodes);
            }
        }

        /// Generation is a pure function of (config, seed).
        #[test]
        fn generation_deterministic(cfg in arb_config(), seed in 0u64..1000) {
            let a = FaultSchedule::generate(&cfg, &mut StdRng::seed_from_u64(seed));
            let b = FaultSchedule::generate(&cfg, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(a, b);
        }
    }

    /// A deliberately hostile configuration space: reboot latencies from
    /// milliseconds up to hours (possibly exceeding the GM shutdown
    /// period several times over), dense random shutdown rates, and
    /// short periods — the regime where an overlap bug would surface.
    fn arb_config_extreme() -> impl Strategy<Value = InjectorConfig> {
        (
            1u64..12,        // duration hours
            2usize..8,       // nodes
            30u64..7_200,    // gm period seconds
            0u32..6,         // random min
            0u32..12,        // random extra
            1u64..7_200_000, // downtime min ms
            0u64..7_200_000, // downtime extra ms
        )
            .prop_map(|(h, nodes, gm_s, rmin, rextra, dmin_ms, dextra_ms)| {
                InjectorConfig {
                    duration: Nanos::from_secs((h * 3600) as i64),
                    nodes,
                    gm_shutdown_period: Nanos::from_secs(gm_s as i64),
                    random_per_hour_min: rmin,
                    random_per_hour_max: rmin + rextra,
                    downtime_min: Nanos::from_millis(dmin_ms as i64),
                    downtime_max: Nanos::from_millis((dmin_ms + dextra_ms) as i64),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fault-hypothesis constraint, re-derived independently of
        /// `respects_fault_hypothesis` (which the generator could share a
        /// bug with): for every node, no GM downtime interval ever
        /// intersects a redundant-VM downtime interval — for arbitrary
        /// seeds, durations, and reboot latencies.
        #[test]
        fn both_vm_slots_never_down_together(cfg in arb_config_extreme(), seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = FaultSchedule::generate(&cfg, &mut rng);
            for node in 0..cfg.nodes {
                let of_slot = |slot: VmSlot| {
                    s.events()
                        .iter()
                        .filter(|e| e.node == node && e.slot == slot)
                        .collect::<Vec<_>>()
                };
                for gm in of_slot(VmSlot::Grandmaster) {
                    for red in of_slot(VmSlot::Redundant) {
                        let disjoint = gm.reboot_at <= red.at || red.reboot_at <= gm.at;
                        prop_assert!(
                            disjoint,
                            "node {node}: GM down [{}, {}) overlaps redundant down [{}, {})",
                            gm.at.as_nanos(),
                            gm.reboot_at.as_nanos(),
                            red.at.as_nanos(),
                            red.reboot_at.as_nanos()
                        );
                    }
                }
            }
        }
    }
}
