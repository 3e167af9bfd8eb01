//! Integration: fail-silent fault injection and dependent-clock
//! takeovers (a compressed version of the paper's 24 h experiment).

use clocksync::{TestbedConfig, World};
use tsn_faults::{FaultSchedule, InjectorConfig};
use tsn_metrics::ExperimentEvent;
use tsn_netsim::SeedSplitter;
use tsn_time::Nanos;

/// A dense injector so even short runs see several failures: GM shutdown
/// every 5 minutes, quick reboots.
fn dense_injector(duration: Nanos) -> InjectorConfig {
    InjectorConfig {
        duration,
        nodes: 4,
        gm_shutdown_period: Nanos::from_secs(300),
        random_per_hour_min: 4,
        random_per_hour_max: 8,
        downtime_min: Nanos::from_secs(20),
        downtime_max: Nanos::from_secs(40),
    }
}

fn run_dense(seed: u64, secs: i64) -> clocksync::RunResult {
    let duration = Nanos::from_secs(secs);
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = duration;
    cfg.fault_injection = Some(dense_injector(duration));
    World::new(cfg).run()
}

#[test]
fn gm_failures_masked_by_remaining_domains() {
    let r = run_dense(21, 900);
    assert!(
        r.counters.gm_failures >= 2,
        "wanted GM failures, got {}",
        r.counters.gm_failures
    );
    // The precision may spike around takeovers but stays within the
    // bound nearly always (the paper's Fig. 4a held throughout 24 h).
    let frac = r.series.fraction_within(r.bounds.pi_plus_gamma());
    assert!(frac > 0.995, "only {frac} within bound");
    let stats = r.series.stats().expect("probes");
    assert!(stats.mean < 2_000.0, "average {} ns", stats.mean);
}

#[test]
fn takeovers_follow_gm_failures() {
    let r = run_dense(22, 900);
    // Every GM VM failure makes the hypervisor promote the redundant VM.
    assert!(
        r.counters.takeovers >= r.counters.gm_failures,
        "takeovers {} < GM failures {}",
        r.counters.takeovers,
        r.counters.gm_failures
    );
    // And each takeover is logged after a VM failure of the same node.
    let entries = r.events.entries();
    for (i, (t, e)) in entries.iter().enumerate() {
        if let ExperimentEvent::Takeover { node } = e {
            let preceded = entries[..i].iter().any(|(tf, ef)| {
                matches!(ef, ExperimentEvent::VmFailure { node: fnode, .. } if fnode == node)
                    && *tf <= *t
            });
            assert!(
                preceded,
                "takeover on dev{} without prior failure",
                node + 1
            );
        }
    }
}

#[test]
fn rebooted_gms_resume_their_domain() {
    let r = run_dense(23, 900);
    let resumed = r
        .events
        .count(|e| matches!(e, ExperimentEvent::GmResumed { .. }));
    assert!(
        resumed >= 1,
        "no GM resumed its domain after reboot (GM failures: {})",
        r.counters.gm_failures
    );
}

#[test]
fn fault_schedule_respects_hypothesis_in_run() {
    // The generated schedule itself is validated inside the injector
    // tests; here we re-derive it with the same seed stream the world
    // uses and check the invariant end to end.
    let duration = Nanos::from_secs(900);
    let seeds = SeedSplitter::new(21);
    let mut rng = seeds.rng("faults");
    let schedule = FaultSchedule::generate(&dense_injector(duration), &mut rng);
    assert!(schedule.respects_fault_hypothesis());
    assert!(schedule.total() > 0);
}

#[test]
fn transient_faults_counted_and_logged() {
    let r = run_dense(24, 600);
    let logged_timeouts = r.events.count(|e| {
        matches!(
            e,
            ExperimentEvent::Transient {
                kind: tsn_metrics::TransientKind::TxTimestampTimeout,
                ..
            }
        )
    });
    assert_eq!(
        logged_timeouts as u64, r.counters.tx_timestamp_timeouts,
        "event log and counters disagree"
    );
}

#[test]
fn no_faults_means_no_takeovers() {
    let mut cfg = TestbedConfig::paper_default(25);
    cfg.duration = Nanos::from_secs(120);
    let r = World::new(cfg).run();
    assert_eq!(r.counters.takeovers, 0);
    assert_eq!(r.counters.vm_failures, 0);
}

#[test]
fn three_clock_sync_vms_survive_double_failure() {
    // §II-A extension: with a third clock-sync VM (more passthrough
    // NICs), the node survives the GM VM *and* the first redundant VM
    // failing back to back — the dependent clock fails over twice.
    let duration = Nanos::from_secs(900);
    let mut cfg = TestbedConfig::paper_default(31);
    cfg.vms_per_node = 3;
    cfg.duration = duration;
    cfg.fault_injection = Some(dense_injector(duration));
    let r = World::new(cfg).run();
    assert!(r.counters.takeovers >= 1);
    let frac = r.series.fraction_within(r.bounds.pi_plus_gamma());
    assert!(frac > 0.99, "only {frac} within bound with 3 VMs per node");
}

#[test]
fn voting_monitor_detects_byzantine_publisher() {
    // §II-A's voting algorithm: a clock-sync VM that publishes *wrong*
    // parameters (not silent — the fail-silent monitor cannot see it) is
    // voted out by the fail-consistent monitor when 2f+1 = 3 VMs exist.
    use clocksync::{CorruptPublisher, HypMonitorMode};
    let mut cfg = TestbedConfig::paper_default(41);
    cfg.vms_per_node = 3;
    cfg.monitor_mode = HypMonitorMode::Voting;
    cfg.duration = Nanos::from_secs(120);
    cfg.corrupt_publisher = Some(CorruptPublisher {
        node: 2,
        slot: 0, // the active maintainer turns Byzantine
        at: Nanos::from_secs(40),
        offset: Nanos::from_micros(-50),
    });
    let r = World::new(cfg).run();
    assert!(
        r.counters.takeovers >= 1,
        "voting monitor failed to replace the Byzantine maintainer"
    );
    // After the takeover the corrupt VM no longer reaches STSHMEM, so
    // the tail of the run is clean.
    let tail_from = tsn_time::SimTime::ZERO + r.warmup + Nanos::from_secs(60);
    let tail = r.series.window(tail_from, tail_from + Nanos::from_secs(60));
    let stats = tail.stats().expect("tail samples");
    assert!(
        stats.max <= r.bounds.pi_plus_gamma(),
        "tail still corrupted: max {}",
        stats.max
    );
}

#[test]
fn fail_silent_monitor_misses_byzantine_publisher() {
    // The same fault under the paper's 2-VM fail-silent configuration is
    // invisible to the monitor: the corrupted CLOCK_SYNCTIME persists and
    // the measured precision blows through the bound. This is the gap
    // §II-A's fail-consistent design closes.
    use clocksync::CorruptPublisher;
    let mut cfg = TestbedConfig::paper_default(41);
    cfg.duration = Nanos::from_secs(120);
    cfg.corrupt_publisher = Some(CorruptPublisher {
        node: 2,
        slot: 0,
        at: Nanos::from_secs(40),
        offset: Nanos::from_micros(-50),
    });
    let r = World::new(cfg).run();
    assert_eq!(
        r.counters.takeovers, 0,
        "fail-silent monitor cannot detect it"
    );
    let tail_from = tsn_time::SimTime::ZERO + r.warmup + Nanos::from_secs(60);
    let tail = r.series.window(tail_from, tail_from + Nanos::from_secs(60));
    let stats = tail.stats().expect("tail samples");
    assert!(
        stats.max > r.bounds.pi_plus_gamma(),
        "corruption unexpectedly masked: max {}",
        stats.max
    );
}
