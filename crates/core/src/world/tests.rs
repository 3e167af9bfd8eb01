//! The World's unit tests, among them the oracle seams: an armed run
//! with one fault must produce a witness of the invariant the fault
//! breaks, and its clean control must not.

use super::*;
use crate::testbed::MEASUREMENT_VID;
use tsn_gptp::log2_interval;
use tsn_netsim::VlanTag;

#[test]
fn log2_of_paper_interval() {
    assert_eq!(log2_interval(Nanos::from_millis(125)), -3);
    assert_eq!(log2_interval(Nanos::from_secs(1)), 0);
    assert_eq!(log2_interval(Nanos::from_millis(250)), -2);
}

/// Every slab cell of the event queue holds an `Ev`, and every
/// schedule and pop moves one: a field that grows it slows every
/// workload (ROADMAP: inline payloads cost 20–32 %).
#[test]
fn event_stays_72_bytes() {
    assert_eq!(std::mem::size_of::<Ev>(), 72);
    assert_eq!(std::mem::size_of::<Option<Ev>>(), 72);
}

fn tiny_world(seed: u64) -> World {
    let mut cfg = TestbedConfig::paper_default(seed);
    cfg.duration = Nanos::from_secs(5);
    cfg.warmup = Nanos::from_secs(5);
    World::new(cfg)
}

/// An empty gPTP frame, as untagged traffic from NIC 1.
fn ptp_frame() -> EthernetFrame {
    World::ptp_frame(MacAddr::for_nic(1), Box::default())
}

#[test]
fn frame_priorities() {
    let w = tiny_world(1);
    assert_eq!(w.priority_of(&ptp_frame()), 7);
    let probe = EthernetFrame {
        vlan: Some(VlanTag::new(6, MEASUREMENT_VID)),
        ethertype: ethertype::MEASUREMENT,
        ..ptp_frame()
    };
    assert_eq!(w.priority_of(&probe), 6);
    let be = EthernetFrame {
        ethertype: ethertype::BACKGROUND,
        ..ptp_frame()
    };
    assert_eq!(w.priority_of(&be), 0);
}

#[test]
fn priority_isolation_off_flattens_classes() {
    let mut cfg = TestbedConfig::paper_default(1);
    cfg.background = Some(crate::config::BackgroundTraffic {
        load: 0.1,
        frame_bytes: 1500,
        priority_isolation: false,
    });
    cfg.duration = Nanos::from_secs(1);
    let w = World::new(cfg);
    assert_eq!(w.priority_of(&ptp_frame()), 0);
}

/// Runs `w` to its end with the oracle armed, `leak` applied behind
/// the World's back at 6 s; returns whether `invariant` has a witness.
fn witness_after(mut w: World, invariant: &str, leak: impl FnOnce(&mut World)) -> bool {
    w.enable_oracle();
    w.run_until(SimTime::from_secs(6));
    leak(&mut w);
    let violations = w.run().violations;
    violations.iter().any(|v| v.invariant == invariant)
}

/// ROADMAP 5(a): a frame put on an egress port without its
/// observation (a leak in the NIC) must fail `FrameConservation`.
#[test]
fn a_frame_leaked_into_an_egress_queue_is_witnessed() {
    let leak = |w: &mut World| {
        let port = PortAddr::new(w.tb.nodes[0].vms[0].nic_device, 0);
        w.egress.materialize(port).enqueue(7, (ptp_frame(), None));
    };
    assert!(witness_after(tiny_world(2), "frame-conservation", leak));
    assert!(!witness_after(tiny_world(2), "frame-conservation", |_| ()));
}

/// ROADMAP 7: a frame queued behind an in-flight one, observed, whose
/// wake-up is dropped waits behind a wire nobody frees: it must fail
/// `FrameConservation`; queued by `on_transmit` it must not. (A port
/// that sends again drains its backlog then, so the seam uses a NIC's
/// unwired second port, which no engine sends from.)
#[test]
fn a_lost_egress_wake_up_is_witnessed() {
    let queue_behind = |lose_wake: bool| {
        move |w: &mut World| {
            let t = SimTime::from_secs(6);
            let port = PortAddr::new(w.tb.nodes[0].vms[0].nic_device, 1);
            w.on_transmit(t, port, ptp_frame(), None);
            if lose_wake {
                let wake = w.egress.materialize(port).enqueue(7, (ptp_frame(), None));
                assert!(wake.is_some_and(|wake| wake.at > t));
                observe(&mut w.observers, || Observation::FrameEnqueued { at: t });
            } else {
                w.on_transmit(t, port, ptp_frame(), None);
            }
        }
    };
    let witness = |lose| witness_after(tiny_world(2), "frame-conservation", queue_behind(lose));
    assert!(witness(true));
    assert!(!witness(false));
}

/// ROADMAP 5(a): a fabric crossing without its observation (a leak
/// in the fabric) must fail `FabricConservation`.
#[test]
fn a_fabric_crossing_without_its_observation_is_witnessed() {
    let fabric_world = || {
        let mut cfg = TestbedConfig::paper_default(2);
        cfg.duration = Nanos::from_secs(5);
        cfg.warmup = Nanos::from_secs(5);
        cfg.fabric = Some(Default::default());
        World::new(cfg)
    };
    let leak = |w: &mut World| {
        let fab = w.tb.fabric.as_mut().expect("fabric on");
        fab.cross(SimTime::from_secs(6), 0, 1, 64, &mut [0u8; 44]);
    };
    assert!(witness_after(fabric_world(), "fabric-conservation", leak));
    assert!(!witness_after(
        fabric_world(),
        "fabric-conservation",
        |_| ()
    ));
}

/// ROADMAP 7: a host PHC stepped backward behind the World's back
/// (half a monitor period, so the clock still advances) must fail
/// `SynctimeContinuity`.
#[test]
fn a_host_clock_stepped_backward_is_witnessed() {
    let step = |w: &mut World| {
        let back = -w.cfg.monitor.period / 2;
        w.tb.nodes[0].host_phc.step(SimTime::from_secs(6), back);
    };
    assert!(witness_after(tiny_world(2), "synctime-continuity", step));
    assert!(!witness_after(tiny_world(2), "synctime-continuity", |_| ()));
}

/// ROADMAP 7: one VM's servo is swapped, state and all, for one that
/// never steps, and its clock is put 5 ms off. With its clamp raised
/// behind the oracle's back the correction must fail `ServoClamp`;
/// with the clamp intact it saturates at ± 900 ppm and must not.
#[test]
fn a_servo_past_its_clamp_is_witnessed() {
    fn drive(w: &mut World, max_frequency_ppb: f64) {
        let c = &w.cfg;
        let servo = tsn_time::ServoConfig {
            max_frequency_ppb,
            step_threshold: Nanos::ZERO,
            ..c.servo
        };
        let cfg = crate::node::NodeConfig {
            aggregation: c.aggregation,
            servo,
            log_sync_interval: log2_interval(c.sync_interval),
            gm_mutual_sync: c.gm_mutual_sync,
            election: false,
        };
        let (t, vm) = (SimTime::from_secs(6), &mut w.tb.nodes[1].vms[1]);
        let mut state = Writer::new();
        vm.ptp.save_state(&mut state);
        vm.ptp = crate::node::MultiDomainNode::new(cfg, vm.nic_device.0 as u32, None);
        let state = state.into_bytes();
        assert!(vm.ptp.load_state(&mut Reader::new(&state)).is_ok());
        vm.nic.phc.step(t, Nanos::from_millis(5));
    }
    let witness = |max| witness_after(tiny_world(2), "servo-clamp", |w| drive(w, max));
    assert!(witness(1e9));
    assert!(!witness(9e5));
}

/// ROADMAP 7: an aggregator only takes the machine's edges (its
/// `transition` asserts it), so an illegal edge can reach the World only
/// from an engine that reports one. Handed to the World as engine output,
/// Synchronized → Freerun must fail `SyncStateLegality`; the legal
/// Synchronized → Holdover, and a clean run, must not.
#[test]
fn an_illegal_sync_state_edge_is_witnessed() {
    use tsn_time::SyncState::{Freerun, Holdover, Synchronized};
    let report = |to| {
        move |w: &mut World| {
            w.node_out.push(NodeOutput::SyncState {
                from: Synchronized,
                to,
            });
            w.drain_node_out(w.now(), 1, 1);
        }
    };
    let witness = |leak| witness_after(tiny_world(2), "sync-state-legality", leak);
    assert!(witness(report(Freerun)));
    assert!(!witness(report(Holdover)));
    assert!(!witness_after(tiny_world(2), "sync-state-legality", |_| ()));
}

/// `tiny_world(2)` with the dynamic election on and node 0's grandmaster
/// killed at 6 s; with `partition`, node 1 is islanded from 5.5 s on.
fn failover(partition: bool) -> World {
    let mut cfg = TestbedConfig::paper_default(2);
    cfg.duration = Nanos::from_secs(5);
    cfg.warmup = Nanos::from_secs(5);
    cfg.election = Some(tsn_election::ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(1)),
        ..Default::default()
    });
    cfg.partition = partition.then_some(crate::config::PartitionWindow {
        node: 1,
        from: Nanos::from_millis(500),
        until: cfg.duration,
    });
    World::new(cfg)
}

/// ROADMAP 7: node 0's grandmaster is killed while a partition keeps
/// node 1, the runner-up of its domain, on an island. Node 1 takes the
/// domain over on its side and node 2 on the other, and the two act
/// together past the hand-over bound, which must fail
/// `AtMostOneActingMaster`; the same failover without the partition
/// must not.
#[test]
fn two_acting_masters_on_one_domain_are_witnessed() {
    let invariant = "election-at-most-one-master";
    assert!(witness_after(failover(true), invariant, |_| ()));
    assert!(!witness_after(failover(false), invariant, |_| ()));
}

/// ROADMAP 7: node 0's grandmaster is killed at 6 s while the GM VMs
/// of every candidate behind it are down (fail-silent, as the injector
/// stops a VM), so no node can take domain 0 over: the re-election
/// outlasts `receipt_timeout + 4·interval`, which must fail
/// `ElectionConvergence`; the same kill with the candidates up must
/// not.
#[test]
fn a_blown_election_convergence_bound_is_witnessed() {
    let candidates_down = |w: &mut World| {
        for node in &mut w.tb.nodes[1..] {
            node.vms[0].running = false;
            node.vms[0].ptp.shut_down();
        }
    };
    let invariant = "election-convergence";
    assert!(witness_after(failover(false), invariant, candidates_down));
    assert!(!witness_after(failover(false), invariant, |_| ()));
}

#[test]
fn bounds_derivation_internally_consistent() {
    let w = tiny_world(3);
    let b = w.tb.bounds(&w.cfg);
    assert_eq!(b.reading_error, b.d_max - b.d_min);
    assert!(b.gamma <= b.reading_error + b.drift_offset + b.reading_error);
    assert!(b.pi_plus_gamma() > b.pi);
}

#[test]
fn short_run_is_deterministic_end_to_end() {
    let run = |seed| {
        let mut w = tiny_world(seed);
        w.run_until(SimTime::from_secs(8));
        (
            w.phc_spread(SimTime::from_secs(8)),
            w.synctime_spread(SimTime::from_secs(8)),
            w.gm_spread(SimTime::from_secs(8)),
        )
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

/// Handles queued events until `events` have been processed.
fn step_to(w: &mut World, events: u64) {
    while w.events_processed() < events {
        let (now, ev) = w.queue.pop().expect("run ended early");
        w.handle(now, ev);
    }
}

/// Ports on the wire whose completion nobody has asked for yet:
/// `(port, reserved seq)`.
fn unclaimed_wakes(w: &World) -> Vec<(PortAddr, u64)> {
    let busy = w.egress.live_ports().filter(|(_, p)| p.is_busy(w.now()));
    busy.filter_map(|(addr, p)| Some((addr, p.unclaimed_wake_seq()?)))
        .collect()
}

#[test]
fn restore_materialises_a_wake_up_the_snapshot_only_reserved() {
    let mut cfg = TestbedConfig::quick(5);
    cfg.warmup = Nanos::from_secs(1);
    cfg.duration = Nanos::from_secs(2);
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;

    // Cold run, event by event: find the first event that queues a
    // frame behind one in flight, i.e. claims a wake-up that until
    // then was only a reserved number on the port.
    let mut cold = World::new(cfg.clone());
    let (before, port, seq) = loop {
        let pending = unclaimed_wakes(&cold);
        let before = cold.events_processed();
        step_to(&mut cold, before + 1);
        let claimed = pending.into_iter().find(|&(addr, _)| {
            let p = cold.egress.get(addr).expect("live port");
            p.is_busy(cold.now()) && p.unclaimed_wake_seq().is_none()
        });
        if let Some((addr, seq)) = claimed {
            break (before, addr, seq);
        }
        assert!(cold.now() < end, "no frame ever queued behind another");
    };
    cold.run_until(end);

    // Snapshot just before that event: the wake-up is in no queue.
    let mut warm = World::new(cfg.clone());
    step_to(&mut warm, before);
    assert!(unclaimed_wakes(&warm).contains(&(port, seq)));
    let snap = warm.snapshot();
    let decoded = WorldSnapshot::decode(&snap.encode()).expect("own encoding");
    let mut restored = World::restore(cfg, &decoded).expect("own snapshot");
    assert_eq!(restored.state_hash(), warm.state_hash());
    // The restored world has to insert the event itself, under the
    // restored number — and ends where the cold run ends.
    step_to(&mut restored, before + 1);
    assert!(!unclaimed_wakes(&restored).contains(&(port, seq)));
    restored.run_until(end);
    assert_eq!(restored.events_processed(), cold.events_processed());
    assert_eq!(restored.state_hash(), cold.state_hash());
    let series = |w: World| format!("{:?}", w.into_result().series);
    assert_eq!(series(restored), series(cold));
}
