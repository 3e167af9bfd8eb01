//! `phc2sys` equivalent: deriving `CLOCK_SYNCTIME` parameters.
//!
//! LinuxPTP's `phc2sys` synchronizes a system clock to the NIC's PHC. In
//! the paper's architecture the active clock-synchronization VM runs it to
//! derive the dependent clock's parameters and "update the STSHMEM of the
//! dependent clock". Our engine samples `(host clock, PHC)` pairs at a
//! fixed period and produces the affine [`ClockParams`] mapping, with an
//! EMA-filtered rate estimate.

use crate::stshmem::ClockParams;
use tsn_time::ClockTime;

/// Default EMA weight for the rate estimate.
const RATE_FILTER_WEIGHT: f64 = 0.2;
/// Rate estimates outside ±1000 ppm are discarded as sampling glitches.
const RATE_SANITY: f64 = 1e-3;

/// Parameter-derivation engine (one per clock-synchronization VM).
#[derive(Debug, Clone)]
pub struct Phc2Sys {
    last: Option<(ClockTime, ClockTime)>,
    rate: f64,
}

impl Default for Phc2Sys {
    fn default() -> Self {
        Self::new()
    }
}

impl Phc2Sys {
    /// Creates an engine with a unity rate prior.
    pub fn new() -> Self {
        Phc2Sys {
            last: None,
            rate: 1.0,
        }
    }

    /// Current rate estimate (synchronized ns per host ns).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Feeds one simultaneous sample of the host clock and the
    /// synchronized (PHC) clock; returns updated parameters.
    pub fn sample(&mut self, host: ClockTime, sync: ClockTime) -> ClockParams {
        if let Some((ph, ps)) = self.last {
            let dh = (host - ph).as_nanos() as f64;
            let ds = (sync - ps).as_nanos() as f64;
            if dh > 0.0 {
                let raw = ds / dh;
                if (raw - 1.0).abs() < RATE_SANITY {
                    self.rate += RATE_FILTER_WEIGHT * (raw - self.rate);
                }
            }
        }
        self.last = Some((host, sync));
        ClockParams {
            base_host: host,
            base_sync: sync,
            rate: self.rate,
        }
    }

    /// Forgets sampling history (VM restart).
    pub fn reset(&mut self) {
        self.last = None;
        self.rate = 1.0;
    }
}

/// How the dependent clock tracks the PHC.
///
/// The paper's prototype disciplines `CLOCK_SYNCTIME` with feedback
/// control (LinuxPTP `phc2sys` + kernel clock), and §III-C attributes the
/// frequent precision spikes to exactly that ("we cannot rule out that
/// measured precision's instability stems from the feedback-based
/// operation of the clocks"), pointing to feed-forward clocks (RADclock)
/// as the fix. Both are implemented so the ablation can quantify the
/// difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncClockDiscipline {
    /// Affine parameter snapshots ([`Phc2Sys`]): no feedback loop.
    FeedForward,
    /// PI feedback slewing the shared clock parameters
    /// ([`SyncTimeServo`]), like `phc2sys` + the kernel clock.
    Feedback,
}

/// Feedback (`phc2sys`-style) discipline of `CLOCK_SYNCTIME`.
///
/// Each tick reads the dependent clock's *current* value from the shared
/// parameters, compares it with the PHC, and slews the mapping's rate
/// with a PI controller. Takeovers and PHC steps therefore produce the
/// transient over/undershoot the paper observed.
#[derive(Debug, Clone)]
pub struct SyncTimeServo {
    servo: tsn_time::PiServo,
    rate: f64,
}

impl SyncTimeServo {
    /// Creates a feedback servo for the given update period.
    pub fn new(config: tsn_time::ServoConfig, period: tsn_time::Nanos) -> Self {
        SyncTimeServo {
            servo: tsn_time::PiServo::new(config, period),
            rate: 1.0,
        }
    }

    /// One feedback update: `current` is the shared page's parameters,
    /// `host_now`/`phc_now` the simultaneous clock readings. Returns the
    /// new parameters to publish.
    pub fn sample(
        &mut self,
        current: &ClockParams,
        host_now: ClockTime,
        phc_now: ClockTime,
    ) -> ClockParams {
        let sync_now = current.synctime(host_now);
        let offset = sync_now - phc_now;
        let mut base_sync = sync_now;
        match self.servo.sample(offset, host_now) {
            tsn_time::ServoOutput::Gathering => {
                // Warm start: while gathering (first sample after a
                // takeover), inherit the rate already in the shared page
                // rather than free-running at 1.0 — otherwise the
                // transient scales with the ensemble's common-mode
                // frequency.
                self.rate = current.rate;
            }
            tsn_time::ServoOutput::Step {
                delta,
                freq_adj_ppb,
            } => {
                base_sync = base_sync + delta;
                self.rate = 1.0 + freq_adj_ppb * 1e-9;
            }
            tsn_time::ServoOutput::Adjust { freq_adj_ppb } => {
                self.rate = 1.0 + freq_adj_ppb * 1e-9;
            }
        }
        ClockParams {
            base_host: host_now,
            base_sync,
            rate: self.rate,
        }
    }

    /// Forgets servo state (VM restart).
    pub fn reset(&mut self) {
        self.servo.reset();
        self.rate = 1.0;
    }
}

tsn_snapshot::snap_state!(Phc2Sys { last, rate });
tsn_snapshot::snap_state!(SyncTimeServo { servo: state, rate });

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_time::Nanos;

    #[test]
    fn first_sample_uses_unity_rate() {
        let mut p = Phc2Sys::new();
        let params = p.sample(ClockTime::from_nanos(100), ClockTime::from_nanos(500));
        assert_eq!(params.rate, 1.0);
        assert_eq!(params.base_host, ClockTime::from_nanos(100));
        assert_eq!(params.base_sync, ClockTime::from_nanos(500));
    }

    #[test]
    fn rate_converges_to_true_ratio() {
        let mut p = Phc2Sys::new();
        // PHC runs +20 ppm relative to host.
        let ratio = 1.0 + 20e-6;
        for i in 0..200i64 {
            let host = ClockTime::from_nanos(i * 125_000_000);
            let sync = ClockTime::from_nanos(((i * 125_000_000) as f64 * ratio) as i64);
            p.sample(host, sync);
        }
        assert!(
            ((p.rate() - 1.0) * 1e6 - 20.0).abs() < 0.5,
            "rate {} ppm",
            (p.rate() - 1.0) * 1e6
        );
    }

    #[test]
    fn params_extrapolate_between_updates() {
        let mut p = Phc2Sys::new();
        p.sample(ClockTime::ZERO, ClockTime::ZERO);
        let params = p.sample(
            ClockTime::from_nanos(1_000_000_000),
            ClockTime::from_nanos(1_000_000_100),
        );
        // 1 s later the mapping should gain roughly another 100 ns ·
        // filter weight (EMA has only partially adopted the rate).
        let sync = params.synctime(ClockTime::from_nanos(2_000_000_000));
        let gained = sync - ClockTime::from_nanos(2_000_000_100);
        assert!(gained.abs() < Nanos::from_nanos(100), "gained {gained}");
    }

    #[test]
    fn glitch_samples_rejected() {
        let mut p = Phc2Sys::new();
        p.sample(ClockTime::ZERO, ClockTime::ZERO);
        // A 10 ms step between samples 1 s apart (10 000 ppm) is a glitch
        // (e.g. a takeover step), not a rate.
        p.sample(
            ClockTime::from_nanos(1_000_000_000),
            ClockTime::from_nanos(1_010_000_000),
        );
        assert_eq!(p.rate(), 1.0);
    }

    #[test]
    fn feedback_servo_tracks_phc() {
        let mut servo =
            SyncTimeServo::new(tsn_time::ServoConfig::default(), Nanos::from_millis(125));
        let mut params = ClockParams::identity();
        // PHC runs +30 ppm vs host, with a 500 ns initial error.
        let ratio = 1.0 + 30e-6;
        let mut last_offset = 0i64;
        for i in 1..400i64 {
            let host = ClockTime::from_nanos(i * 125_000_000);
            let phc = ClockTime::from_nanos(((i * 125_000_000) as f64 * ratio) as i64 + 500);
            params = servo.sample(&params, host, phc);
            last_offset = (params.synctime(host) - phc).as_nanos();
        }
        assert!(last_offset.abs() < 20, "residual offset {last_offset}");
        assert!(((params.rate - 1.0) * 1e6 - 30.0).abs() < 0.5);
    }

    #[test]
    fn feedback_servo_overshoots_on_step() {
        // A sudden 5 µs PHC step (e.g. takeover to a differently-aligned
        // clock) produces a transient — the paper's spike signature.
        let mut servo =
            SyncTimeServo::new(tsn_time::ServoConfig::default(), Nanos::from_millis(125));
        let mut params = ClockParams::identity();
        for i in 1..100i64 {
            let host = ClockTime::from_nanos(i * 125_000_000);
            params = servo.sample(&params, host, host);
        }
        // Step the reference.
        let mut max_rate_excursion: f64 = 0.0;
        for i in 100..140i64 {
            let host = ClockTime::from_nanos(i * 125_000_000);
            let phc = host + Nanos::from_micros(5);
            params = servo.sample(&params, host, phc);
            max_rate_excursion = max_rate_excursion.max((params.rate - 1.0).abs());
        }
        assert!(
            max_rate_excursion > 10e-6,
            "no transient: {max_rate_excursion}"
        );
    }

    #[test]
    fn reset_clears_history() {
        let mut p = Phc2Sys::new();
        p.sample(ClockTime::ZERO, ClockTime::ZERO);
        p.reset();
        assert_eq!(p.rate(), 1.0);
        let params = p.sample(ClockTime::from_nanos(5), ClockTime::from_nanos(5));
        assert_eq!(params.rate, 1.0);
    }
}
