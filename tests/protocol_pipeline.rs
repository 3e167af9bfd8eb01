//! Integration: the gPTP pipeline assembled by hand — grandmaster →
//! time-aware bridge → slave — with explicit clocks, checking that the
//! correction-field accumulation and the slave's offset computation
//! reproduce the ground truth.

use tsn_gptp::msg::Message;
use tsn_gptp::{BridgeRelay, ClockIdentity, PortIdentity, SyncMaster, SyncSlave};
use tsn_time::{ClockTime, Nanos, Phc, SimTime};

/// Drives one Sync/Follow_Up exchange through a bridge with the given
/// true-time delays and returns the slave's measured offset.
///
/// Ground truth: all clocks ideal (zero drift), slave's epoch shifted by
/// `slave_shift` — the measured offset must equal `slave_shift`.
fn run_pipeline(
    link1: i64,     // GM → bridge
    residence: i64, // bridge store-and-forward
    link2: i64,     // bridge → slave
    slave_shift: i64,
) -> Nanos {
    let gm_id = PortIdentity::new(ClockIdentity::for_index(1), 1);
    let mut gm_clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
    let mut bridge_clock = Phc::new(ClockTime::from_nanos(5_000_000_000), 0.0);
    let mut slave_clock = Phc::new(ClockTime::from_nanos(1_000_000_000 + slave_shift), 0.0);

    let mut master = SyncMaster::new(0, gm_id, -3);
    let mut relay = BridgeRelay::new(0, ClockIdentity::for_index(2), 5, vec![1]);
    let mut slave = SyncSlave::new(0);

    // t0: Sync leaves the GM.
    let t0 = SimTime::from_secs(10);
    let (sync_bytes, seq) = master.make_sync();
    let fu_bytes = master
        .sync_sent(seq, gm_clock.now(t0))
        .expect("follow-up produced");

    // Arrives at the bridge's slave port after link1.
    let t1 = t0 + Nanos::from_nanos(link1);
    let sync = Message::decode(&sync_bytes).unwrap();
    let out = relay.handle_sync(&sync, 5, bridge_clock.now(t1));
    assert_eq!(out.len(), 1, "one master port");
    let (port, fwd_sync_bytes) = &out[0];
    assert_eq!(*port, 1);

    // Regenerated Sync departs after the residence time.
    let t2 = t1 + Nanos::from_nanos(residence);
    let fus = relay.sync_forwarded(seq, 1, bridge_clock.now(t2));
    assert!(fus.is_empty(), "upstream FU not seen yet");

    // Upstream Follow_Up reaches the bridge (general message, link1
    // pdelay-measured delay fed in).
    let fu = Message::decode(&fu_bytes).unwrap();
    let fwd_fus = relay.handle_follow_up(&fu, 5, Nanos::from_nanos(link1), 1.0);
    assert_eq!(fwd_fus.len(), 1);

    // Slave receives the regenerated Sync after link2 and then the
    // forwarded Follow_Up.
    let t3 = t2 + Nanos::from_nanos(link2);
    let fwd_sync = Message::decode(fwd_sync_bytes).unwrap();
    slave.handle_sync(&fwd_sync, slave_clock.now(t3));
    let fwd_fu = Message::decode(&fwd_fus[0].1).unwrap();
    let sample = slave
        .handle_follow_up(&fwd_fu, Nanos::from_nanos(link2), 1.0)
        .expect("offset sample");
    sample.offset
}

#[test]
fn offset_is_exact_for_synchronized_clocks() {
    let offset = run_pipeline(2_000, 8_000, 2_500, 0);
    assert_eq!(offset, Nanos::ZERO);
}

#[test]
fn offset_recovers_slave_shift() {
    for shift in [-24_000i64, -500, 42, 10_000] {
        let offset = run_pipeline(2_000, 8_000, 2_500, shift);
        assert_eq!(offset, Nanos::from_nanos(shift), "shift {shift}");
    }
}

#[test]
fn offset_independent_of_path_delays() {
    // Residence and link delays are fully compensated by the correction
    // field, whatever their values.
    for (l1, res, l2) in [
        (100, 1_000, 100),
        (9_000, 125_000, 9_000),
        (4_120, 50_000, 2_060),
    ] {
        let offset = run_pipeline(l1, res, l2, 777);
        assert_eq!(offset, Nanos::from_nanos(777), "delays {l1}/{res}/{l2}");
    }
}

#[test]
fn bridge_clock_epoch_is_irrelevant() {
    // The bridge's clock only measures residence (a difference), so its
    // absolute value must not matter — run_pipeline uses an epoch 4 s
    // away from the GM's and still gets exact offsets (checked above);
    // here we additionally verify a drifting bridge is compensated by
    // the rate-ratio scaling at ±100 ppm.
    let gm_id = PortIdentity::new(ClockIdentity::for_index(1), 1);
    let mut gm_clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
    let mut bridge_clock = Phc::new(ClockTime::from_nanos(5_000_000_000), 100_000.0); // +100 ppm
    let mut slave_clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);

    let mut master = SyncMaster::new(0, gm_id, -3);
    let mut relay = BridgeRelay::new(0, ClockIdentity::for_index(2), 5, vec![1]);
    let mut slave = SyncSlave::new(0);

    let t0 = SimTime::from_secs(10);
    let (sync_bytes, seq) = master.make_sync();
    let fu_bytes = master.sync_sent(seq, gm_clock.now(t0)).unwrap();
    let t1 = t0 + Nanos::from_nanos(2_000);
    let sync = Message::decode(&sync_bytes).unwrap();
    let out = relay.handle_sync(&sync, 5, bridge_clock.now(t1));
    // Long residence so the drift matters: 10 ms at +100 ppm = 1 µs of
    // bridge-clock error, which the neighbor-rate-ratio correction must
    // cancel. The bridge knows its rate relative to the GM via the
    // TLV/NRR product; here NRR = gm/bridge rate.
    let t2 = t1 + Nanos::from_millis(10);
    relay.sync_forwarded(seq, 1, bridge_clock.now(t2));
    let fu = Message::decode(&fu_bytes).unwrap();
    let nrr = 1.0 / (1.0 + 100e-6); // GM rate per bridge rate
    let fwd_fus = relay.handle_follow_up(&fu, 5, Nanos::from_nanos(2_000), nrr);
    let t3 = t2 + Nanos::from_nanos(2_500);
    let fwd_sync = Message::decode(&out[0].1).unwrap();
    slave.handle_sync(&fwd_sync, slave_clock.now(t3));
    let fwd_fu = Message::decode(&fwd_fus[0].1).unwrap();
    let sample = slave
        .handle_follow_up(&fwd_fu, Nanos::from_nanos(2_500), 1.0)
        .expect("sample");
    assert!(
        sample.offset.abs() <= Nanos::from_nanos(2),
        "bridge drift leaked into the offset: {}",
        sample.offset
    );
}

#[test]
fn malicious_pot_shifts_offset_through_the_whole_pipeline() {
    // End-to-end version of the attack: the GM's POT shift propagates
    // through the bridge unchanged and lands as an offset error of the
    // same magnitude at the slave.
    let gm_id = PortIdentity::new(ClockIdentity::for_index(1), 1);
    let mut gm_clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
    let mut bridge_clock = Phc::new(ClockTime::from_nanos(5_000_000_000), 0.0);
    let mut slave_clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);

    let mut master = SyncMaster::new(0, gm_id, -3);
    master.pot_offset = Nanos::from_micros(-24);
    let mut relay = BridgeRelay::new(0, ClockIdentity::for_index(2), 5, vec![1]);
    let mut slave = SyncSlave::new(0);

    let t0 = SimTime::from_secs(10);
    let (sync_bytes, seq) = master.make_sync();
    let fu_bytes = master.sync_sent(seq, gm_clock.now(t0)).unwrap();
    let t1 = t0 + Nanos::from_nanos(2_000);
    let sync = Message::decode(&sync_bytes).unwrap();
    let out = relay.handle_sync(&sync, 5, bridge_clock.now(t1));
    let t2 = t1 + Nanos::from_nanos(8_000);
    relay.sync_forwarded(seq, 1, bridge_clock.now(t2));
    let fu = Message::decode(&fu_bytes).unwrap();
    let fwd_fus = relay.handle_follow_up(&fu, 5, Nanos::from_nanos(2_000), 1.0);
    let t3 = t2 + Nanos::from_nanos(2_500);
    let fwd_sync = Message::decode(&out[0].1).unwrap();
    slave.handle_sync(&fwd_sync, slave_clock.now(t3));
    let fwd_fu = Message::decode(&fwd_fus[0].1).unwrap();
    let sample = slave
        .handle_follow_up(&fwd_fu, Nanos::from_nanos(2_500), 1.0)
        .expect("sample");
    assert_eq!(sample.offset, Nanos::from_micros(24));
}
