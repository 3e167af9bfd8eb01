//! Integration tests for structured execution tracing (`tsn-trace`).
//!
//! Two properties matter end to end: arming the tracer must not change
//! a single simulated bit (held to observer parity: state hashes at the
//! midpoint and end of a run, and run-record bytes, under every observer
//! set), and the trace a run produces must actually carry the
//! simulation's story — gPTP message tx/rx, FTA rounds with trim
//! decisions, servo updates, sync-state transitions, election role
//! changes — as valid Chrome trace-event JSON.

#[path = "observer_parity.rs"]
mod observer_parity;

use clocksync::election::ElectionConfig;
use clocksync::fabric::FabricConfig;
use clocksync::scenario::ScenarioKind;
use clocksync::trace::{node_pid, ArgValue, Subsystem, TraceReport};
use clocksync::{PartitionWindow, TestbedConfig, World};
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

fn count(report: &TraceReport, name: &str) -> usize {
    report.events.iter().filter(|e| e.name == name).count()
}

/// Parity on a run that opens and closes a link-down window.
#[test]
fn tracer_does_not_perturb_state() {
    let mut cfg = quick_cfg(3);
    cfg.partition = Some(PartitionWindow {
        node: 1,
        from: Nanos::from_secs(2),
        until: Nanos::from_secs(5),
    });
    let result = assert_observers_do_not_perturb(&cfg);
    let report = result.trace.expect("tracing was enabled");
    assert!(count(&report, "link_down") > 0);
}

/// Parity on an election run whose grandmaster is killed: role changes,
/// elections and the kill itself are observed.
#[test]
fn observers_do_not_perturb_an_election_failover() {
    let result = assert_observers_do_not_perturb(&gm_kill_cfg());
    assert!(result.violations.is_empty(), "{:#?}", result.violations);
    let report = result.trace.expect("tracing was enabled");
    assert!(count(&report, "elected") > 0);
    assert!(count(&report, "demoted") > 0);
}

/// Parity on a one-hop fabric run: fabric crossings are observed.
#[test]
fn observers_do_not_perturb_a_fabric_run() {
    let result = assert_observers_do_not_perturb(&fabric_cfg());
    assert!(result.violations.is_empty(), "{:#?}", result.violations);
    let report = result.trace.expect("tracing was enabled");
    assert!(count(&report, "fabric_sync") > 0);
}

#[test]
fn baseline_trace_tells_the_run_story() {
    let mut world = World::new(quick_cfg(7));
    world.enable_trace();
    let result = world.run();
    let report = result.trace.expect("tracing was enabled");

    // Every queue pop was counted, none individually recorded.
    assert!(report.sim_events > 0);
    assert!(report.events.len() < report.sim_events as usize);
    assert_eq!(report.dropped, 0);
    let pops: u64 = report.pop_kinds.iter().map(|(_, n)| n).sum();
    assert_eq!(pops, report.sim_events);
    assert!(report.pop_kinds.iter().any(|(k, _)| *k == "transmit"));

    // The protocol story: gPTP traffic, FTA rounds with inputs and trim
    // decisions, servo corrections, and a sync-state transition out of
    // the initial freerun.
    assert!(count(&report, "ptp_tx") > 0);
    assert!(count(&report, "ptp_rx") > 0);
    assert!(count(&report, "servo") > 0);
    assert!(count(&report, "sync_state") > 0);
    let fta = report
        .events
        .iter()
        .find(|e| e.name == "fta_round")
        .expect("aggregation rounds are traced");
    assert_eq!(fta.cat, Subsystem::Fta);
    assert!(fta.args.iter().any(|(k, _)| *k == "offset_ns"));
    assert!(fta.args.iter().any(|(k, _)| *k == "used"));
    assert!(fta.args.iter().any(|(k, _)| *k == "servo"));

    // Probe traffic shows up under the measurement subsystem.
    assert!(count(&report, "probe_rx") > 0);
    let measure = report
        .subsystems
        .iter()
        .find(|(s, _)| *s == Subsystem::Measure);
    assert!(measure.is_some_and(|&(_, n)| n > 0));

    // And it all exports as a Chrome trace-event JSON object.
    let json = report.to_chrome_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"cat\":\"fta\""));
    assert!(json.contains("\"process_name\""));
}

/// An egress port is woken when its frame completes only if another
/// frame waits behind it: wake-ups never outnumber the frames that ever
/// queued, and none finds the wire free with nothing to send.
#[test]
fn egress_ports_are_woken_only_for_waiting_frames() {
    let mut world = World::new(quick_cfg(7));
    world.enable_trace();
    let result = world.run();
    let report = result.trace.expect("tracing was enabled");
    assert_eq!(report.dropped, 0);
    let pops = |kind| {
        let found = report.pop_kinds.iter().find(|(k, _)| *k == kind);
        found.map_or(0, |&(_, n)| n)
    };
    assert!(pops("port_free") > 0, "frames do queue in this run");
    assert!(
        pops("port_free") <= result.counters.frames_queued,
        "{} wake-ups for {} queued frames",
        pops("port_free"),
        result.counters.frames_queued
    );
    // Eagerly scheduled completions would dwarf both: one per departure.
    assert!(pops("port_free") * 2 < pops("transmit"));
    assert_eq!(count(&report, "port_free_idle"), 0);
}

/// Sync, Follow_Up and the peer-delay exchange are all on the wire, in
/// both directions, within 2 s of a paper-default run.
#[test]
fn gptp_message_types_are_seen_on_the_wire() {
    let mut cfg = TestbedConfig::paper_default(77);
    cfg.duration = Nanos::from_secs(2);
    cfg.warmup = Nanos::from_secs(2);
    let mut world = World::new(cfg);
    world.enable_trace();
    let report = world.run().trace.expect("tracing was enabled");
    let seen = |dir: &str, ty: &str| {
        report.events.iter().any(|e| {
            e.name == dir
                && e.ts <= SimTime::from_secs(2)
                && e.args.contains(&("type", ArgValue::Str(ty.into())))
        })
    };
    for dir in ["ptp_tx", "ptp_rx"] {
        for ty in ["sync", "follow_up", "pdelay_req", "pdelay_resp"] {
            assert!(seen(dir, ty), "no {ty} {dir} instant in the first 2 s");
        }
    }
    assert!(count(&report, "ptp_tx") + count(&report, "ptp_rx") > 100);
}

#[test]
fn partition_window_is_traced_as_span() {
    let mut cfg = quick_cfg(5);
    cfg.partition = Some(PartitionWindow {
        node: 0,
        from: Nanos::from_secs(2),
        until: Nanos::from_secs(4),
    });
    let mut world = World::new(cfg);
    world.enable_trace();
    let report = world.run().trace.expect("tracing was enabled");
    let span = report
        .events
        .iter()
        .find(|e| e.name == "link_down")
        .expect("partition window traced");
    assert_eq!(span.cat, Subsystem::Netsim);
    let dur = span.dur.expect("window closed as a complete span");
    assert!(dur > Nanos::ZERO);
}

#[test]
fn attack_run_traces_strikes_and_byzantine_domains() {
    // The paper's strikes land at 21+ minutes; move the first one into
    // this short run's measured window.
    let mut cfg = quick_cfg(11);
    ScenarioKind::CyberIdenticalKernels.apply(&mut cfg);
    let mut strikes = cfg.attack.strikes().to_vec();
    strikes.truncate(1);
    strikes[0].at = SimTime::from_secs(2);
    strikes[0].target_node = cfg.nodes - 1;
    cfg.attack = clocksync::faults::AttackPlan::new(strikes);
    let mut world = World::new(cfg);
    world.enable_trace();
    let report = world.run().trace.expect("tracing was enabled");
    assert!(count(&report, "strike") > 0);
    let strike = report
        .events
        .iter()
        .find(|e| e.name == "strike")
        .expect("strikes are traced");
    assert!(strike.args.iter().any(|(k, _)| *k == "succeeded"));
}

/// The trace a run writes, pinned byte for byte: FNV-1a of the Chrome
/// JSON of a quick run, a one-hop fabric run and an election run whose
/// grandmaster is killed. Arming the tracer must not change the run,
/// and rewiring what feeds it must not change what it writes.
#[test]
fn trace_bytes_are_pinned() {
    let trace_hash = |cfg: TestbedConfig| {
        let mut world = World::new(cfg);
        world.enable_trace();
        let report = world.run().trace.expect("tracing was enabled");
        tsn_snapshot::fnv1a64(report.to_chrome_json().as_bytes())
    };
    assert_eq!(trace_hash(quick_cfg(7)), 0x489d_21c5_117f_5dfc, "quick");
    assert_eq!(trace_hash(fabric_cfg()), 0xbf1c_9fac_ee1e_e632, "fabric");
    // 0x07e9_0371_e1b1_0728 before the killed grandmaster's `demoted`
    // instant reached the trace; the files differ by that one instant.
    assert_eq!(trace_hash(gm_kill_cfg()), 0xbd93_c9d7_11d9_1920, "election");
}

/// A killed grandmaster is demoted in the trace: one `demoted` instant
/// on its lane for each domain it acted for, at the kill instant.
#[test]
fn killed_grandmaster_is_demoted_in_the_trace() {
    let cfg = gm_kill_cfg();
    let el = cfg.election.expect("an election world");
    let (node, nodes) = (el.gm_failure_node, cfg.nodes);
    let kill = SimTime::ZERO + cfg.warmup + el.gm_failure_at.expect("a kill");
    let mut world = World::new(cfg);
    world.enable_trace();
    world.run_until(SimTime::from_nanos(kill.as_nanos() - 1));
    let acted: Vec<u64> = (0..nodes as u64)
        .filter(|&d| world.acting_masters(d as u8).contains(&node))
        .collect();
    assert!(
        !acted.is_empty(),
        "node {node} acts for a domain before the kill"
    );
    let end = world.end_time();
    world.run_until(end);
    let report = world.into_result().trace.expect("tracing was enabled");
    let demoted: Vec<u64> = report
        .events
        .iter()
        .filter(|e| e.name == "demoted" && e.ts == kill)
        .map(|e| {
            assert_eq!(
                (e.pid, e.tid),
                (node_pid(node), 0),
                "on the killed VM's lane"
            );
            match e.args.as_slice() {
                [("domain", ArgValue::U64(d))] => *d,
                args => panic!("unexpected args {args:?}"),
            }
        })
        .collect();
    assert_eq!(demoted, acted);
}

/// A one-hop fabric world.
fn fabric_cfg() -> TestbedConfig {
    let mut cfg = quick_cfg(19);
    cfg.duration = Nanos::from_secs(4);
    cfg.fabric = Some(FabricConfig::line(1));
    cfg
}

/// An election world whose node-0 grandmaster is killed 3 s into the
/// measured window.
fn gm_kill_cfg() -> TestbedConfig {
    let mut cfg = quick_cfg(22);
    cfg.duration = Nanos::from_secs(8);
    cfg.election = Some(ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(3)),
        gm_failure_node: 0,
        ..ElectionConfig::default()
    });
    cfg
}
