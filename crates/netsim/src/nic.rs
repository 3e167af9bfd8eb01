//! NIC model: PHC, hardware timestamping, and ETF launch-time transmission.
//!
//! Models the clock-synchronization-relevant behavior of an Intel
//! I210-class controller:
//!
//! * a PHC disciplined by the servo (`tsn_time::Phc`);
//! * ingress/egress hardware timestamping with granularity and jitter;
//! * launch-time ("LaunchTime"/ETF qdisc) transmission: a frame handed to
//!   [`Nic::launch`] departs when the PHC reads the requested launch time,
//!   or is rejected as a deadline miss if that time has already passed —
//!   the transient fault the paper observes 347 times in 24 h.

use crate::frame::MacAddr;
use rand::Rng;
use tsn_time::{sample_timestamp_error, ClockTime, JitterConfig, Phc, SimTime};

/// Outcome of requesting a launch-time transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// The frame will depart at this true time.
    DepartsAt(SimTime),
    /// The launch time was already in the past: the qdisc drops the frame
    /// (ETF `drop_if_late`) — a transmission deadline miss.
    DeadlineMiss,
}

/// A simulated NIC.
#[derive(Debug, Clone)]
pub struct Nic {
    /// The NIC's unicast MAC address.
    pub mac: MacAddr,
    /// The PTP hardware clock.
    pub phc: Phc,
    /// Timestamping error model.
    pub ts_jitter: JitterConfig,
    /// Line rate in bits per second (1 Gb/s for the I210).
    pub bits_per_sec: u64,
}

impl Nic {
    /// Creates a NIC with the given MAC and PHC.
    pub fn new(mac: MacAddr, phc: Phc) -> Self {
        Nic {
            mac,
            phc,
            ts_jitter: JitterConfig::default(),
            bits_per_sec: 1_000_000_000,
        }
    }

    /// Hardware timestamp of a frame crossing the MAC — arriving or
    /// departing — at true time `t`.
    pub fn timestamp<R: Rng + ?Sized>(&mut self, t: SimTime, rng: &mut R) -> ClockTime {
        let exact = self.phc.now(t);
        exact + sample_timestamp_error(&self.ts_jitter, rng)
    }

    /// Requests transmission at PHC time `launch` (ETF qdisc semantics).
    ///
    /// `now` is the current true time at which the qdisc dequeues the
    /// frame; if the PHC already reads at or past `launch`, the frame is
    /// dropped as a deadline miss.
    pub fn launch(&mut self, now: SimTime, launch: ClockTime) -> LaunchOutcome {
        match self.phc.when_reads(now, launch) {
            Some(t) => LaunchOutcome::DepartsAt(t),
            None => LaunchOutcome::DeadlineMiss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsn_time::Nanos;

    fn nic() -> Nic {
        let mut n = Nic::new(MacAddr::for_nic(1), Phc::new(ClockTime::ZERO, 2_000.0));
        n.ts_jitter = JitterConfig::none();
        n
    }

    #[test]
    fn launch_in_future_departs_when_phc_reads_target() {
        let mut n = nic();
        let now = SimTime::from_millis(100);
        let launch = ClockTime::from_nanos(125_000_000);
        match n.launch(now, launch) {
            LaunchOutcome::DepartsAt(t) => {
                assert!(t > now);
                let reading = n.phc.now(t);
                assert!((reading - launch).abs() <= Nanos::from_nanos(2));
            }
            LaunchOutcome::DeadlineMiss => panic!("unexpected miss"),
        }
    }

    #[test]
    fn launch_in_past_is_deadline_miss() {
        let mut n = nic();
        let now = SimTime::from_millis(200);
        let launch = ClockTime::from_nanos(125_000_000);
        assert_eq!(n.launch(now, launch), LaunchOutcome::DeadlineMiss);
    }

    #[test]
    fn timestamps_track_phc() {
        let mut n = nic();
        let mut rng = StdRng::seed_from_u64(1);
        let t = SimTime::from_secs(1);
        let rx = n.timestamp(t, &mut rng);
        // +2 ppm drift over 1 s = +2 µs.
        assert_eq!(rx.as_nanos(), 1_000_002_000);
    }
}
