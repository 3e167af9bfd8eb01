//! Proportional-integral clock servo, modeled on LinuxPTP's `pi.c`.
//!
//! `ptp4l` disciplines the PHC with a PI controller: the proportional and
//! integral constants are derived from the synchronization interval, the
//! first sample pair estimates the frequency error directly, and large
//! offsets are corrected by *stepping* the clock rather than slewing.
//!
//! In the paper's multi-domain design there is exactly **one** servo per
//! clock-synchronization VM, shared by the `M` `ptp4l` instances through
//! the `FTSHMEM` region ("the state variables of a proportional integral
//! (PI) controller used in LinuxPTP to derive the frequency offsets").
//! This module provides that servo; `tsn-fta` stores it in the shared
//! region.

use crate::units::{Nanos, Ppb};

/// Configuration of the PI servo, mirroring LinuxPTP's option names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServoConfig {
    /// `pi_proportional_scale` (LinuxPTP default 0.7).
    pub kp_scale: f64,
    /// `pi_proportional_exponent` (LinuxPTP default −0.3).
    pub kp_exponent: f64,
    /// `pi_proportional_norm_max` (LinuxPTP default 0.7).
    pub kp_norm_max: f64,
    /// `pi_integral_scale` (LinuxPTP default 0.3).
    pub ki_scale: f64,
    /// `pi_integral_exponent` (LinuxPTP default 0.4).
    pub ki_exponent: f64,
    /// `pi_integral_norm_max` (LinuxPTP default 0.3).
    pub ki_norm_max: f64,
    /// `first_step_threshold`: on the first update, offsets larger than
    /// this are corrected by stepping (LinuxPTP default 20 µs).
    pub first_step_threshold: Nanos,
    /// `step_threshold`: after lock, offsets larger than this are corrected
    /// by stepping; zero disables stepping after the first update
    /// (LinuxPTP default 0).
    pub step_threshold: Nanos,
    /// `max_frequency`: servo output clamp in ppb (LinuxPTP default
    /// 900 000).
    pub max_frequency_ppb: Ppb,
}

impl Default for ServoConfig {
    fn default() -> Self {
        ServoConfig {
            kp_scale: 0.7,
            kp_exponent: -0.3,
            kp_norm_max: 0.7,
            ki_scale: 0.3,
            ki_exponent: 0.4,
            ki_norm_max: 0.3,
            first_step_threshold: Nanos::from_micros(20),
            step_threshold: Nanos::ZERO,
            max_frequency_ppb: 900_000.0,
        }
    }
}

impl ServoConfig {
    /// Effective proportional gain for a given synchronization interval,
    /// per LinuxPTP's `pi_create` logic.
    pub fn kp(&self, sync_interval: Nanos) -> f64 {
        let s = sync_interval.as_secs_f64();
        (self.kp_scale * s.powf(self.kp_exponent)).min(self.kp_norm_max) / s
    }

    /// Effective integral gain for a given synchronization interval.
    pub fn ki(&self, sync_interval: Nanos) -> f64 {
        let s = sync_interval.as_secs_f64();
        (self.ki_scale * s.powf(self.ki_exponent)).min(self.ki_norm_max) / s
    }
}

/// Servo lock state, as reported by LinuxPTP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServoState {
    /// Gathering initial samples; no useful output yet.
    Unlocked,
    /// The last sample demanded a clock step.
    Jump,
    /// Tracking; output is a frequency adjustment.
    Locked,
}

/// One servo update's command to the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServoOutput {
    /// Not enough samples yet; leave the clock alone.
    Gathering,
    /// Step the clock by `delta` and set the frequency adjustment to
    /// `freq_adj_ppb`.
    Step {
        /// Phase step to apply to the clock.
        delta: Nanos,
        /// Frequency adjustment to apply after the step.
        freq_adj_ppb: Ppb,
    },
    /// Slew: set the frequency adjustment to `freq_adj_ppb`.
    Adjust {
        /// Frequency adjustment to apply.
        freq_adj_ppb: Ppb,
    },
}

impl ServoOutput {
    /// Lower-case variant name for logs and trace lanes.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ServoOutput::Gathering => "gathering",
            ServoOutput::Step { .. } => "step",
            ServoOutput::Adjust { .. } => "adjust",
        }
    }

    /// The frequency adjustment carried by this output, if any.
    pub fn freq_adj_ppb(&self) -> Option<Ppb> {
        match *self {
            ServoOutput::Gathering => None,
            ServoOutput::Step { freq_adj_ppb, .. } | ServoOutput::Adjust { freq_adj_ppb } => {
                Some(freq_adj_ppb)
            }
        }
    }
}

/// PI servo instance.
///
/// Offsets follow the PTP convention `offset = slave − master`: a positive
/// offset means the local clock is ahead, so the returned frequency
/// adjustment will be negative (slow the clock down).
///
/// # Examples
///
/// ```
/// use tsn_time::{PiServo, ServoConfig, ServoOutput, Nanos, ClockTime};
/// let mut servo = PiServo::new(ServoConfig::default(), Nanos::from_millis(125));
/// let s = Nanos::from_millis(125);
/// let mut t = ClockTime::ZERO;
/// // Constant +100 ns offset: once locked, the servo slews the clock
/// // slower.
/// let _ = servo.sample(Nanos::from_nanos(100), t);
/// t = t + s;
/// let _ = servo.sample(Nanos::from_nanos(100), t);
/// t = t + s;
/// let out = servo.sample(Nanos::from_nanos(100), t);
/// let adj = out.freq_adj_ppb().expect("locked after two samples");
/// assert!(adj < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PiServo {
    config: ServoConfig,
    kp: f64,
    ki: f64,
    state: ServoState,
    count: u8,
    first_offset: Nanos,
    first_local: crate::units::ClockTime,
    /// Estimated frequency error of the local clock in ppb (LinuxPTP's
    /// `drift`). The applied adjustment is the negation of the PI output.
    drift_ppb: Ppb,
}

impl PiServo {
    /// Creates a servo for the given synchronization interval.
    ///
    /// # Panics
    ///
    /// Panics if `sync_interval` is not positive.
    pub fn new(config: ServoConfig, sync_interval: Nanos) -> Self {
        assert!(
            sync_interval.as_nanos() > 0,
            "sync interval must be positive"
        );
        PiServo {
            kp: config.kp(sync_interval),
            ki: config.ki(sync_interval),
            config,
            state: ServoState::Unlocked,
            count: 0,
            first_offset: Nanos::ZERO,
            first_local: crate::units::ClockTime::ZERO,
            drift_ppb: 0.0,
        }
    }

    /// The servo's current state.
    pub fn state(&self) -> ServoState {
        self.state
    }

    /// The current frequency-error estimate in ppb.
    pub fn drift_ppb(&self) -> Ppb {
        self.drift_ppb
    }

    /// Effective proportional gain.
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// Effective integral gain.
    pub fn ki(&self) -> f64 {
        self.ki
    }

    /// Feeds one `(offset, local timestamp)` sample and returns the clock
    /// command, following LinuxPTP `pi_sample`.
    pub fn sample(&mut self, offset: Nanos, local_ts: crate::units::ClockTime) -> ServoOutput {
        match self.count {
            0 => {
                self.first_offset = offset;
                self.first_local = local_ts;
                self.count = 1;
                self.state = ServoState::Unlocked;
                ServoOutput::Gathering
            }
            1 => {
                let dt = (local_ts - self.first_local).as_secs_f64();
                if dt <= 0.0 {
                    // Duplicate or reordered timestamp: restart gathering.
                    self.first_offset = offset;
                    self.first_local = local_ts;
                    return ServoOutput::Gathering;
                }
                // Direct frequency-error estimate from the two samples.
                let est = (offset - self.first_offset).as_nanos() as f64 / dt;
                self.drift_ppb = (self.drift_ppb + est).clamp(
                    -self.config.max_frequency_ppb,
                    self.config.max_frequency_ppb,
                );
                self.count = 2;
                if offset.abs() > self.config.first_step_threshold
                    && self.config.first_step_threshold > Nanos::ZERO
                {
                    self.state = ServoState::Jump;
                    ServoOutput::Step {
                        delta: -offset,
                        freq_adj_ppb: -self.drift_ppb,
                    }
                } else {
                    self.state = ServoState::Locked;
                    ServoOutput::Adjust {
                        freq_adj_ppb: -self.drift_ppb,
                    }
                }
            }
            _ => {
                if self.config.step_threshold > Nanos::ZERO
                    && offset.abs() > self.config.step_threshold
                {
                    self.state = ServoState::Jump;
                    return ServoOutput::Step {
                        delta: -offset,
                        freq_adj_ppb: -self.drift_ppb,
                    };
                }
                self.state = ServoState::Locked;
                let off = offset.as_nanos() as f64;
                let ki_term = self.ki * off;
                let ppb = self.kp * off + self.drift_ppb + ki_term;
                let clamped = ppb.clamp(
                    -self.config.max_frequency_ppb,
                    self.config.max_frequency_ppb,
                );
                if ppb == clamped {
                    self.drift_ppb += ki_term;
                }
                ServoOutput::Adjust {
                    freq_adj_ppb: -clamped,
                }
            }
        }
    }

    /// Resets the servo to the gathering state, preserving the drift
    /// estimate (LinuxPTP `servo_reset` keeps configuration; we also keep
    /// drift, which is what `ptp4l` effectively does across a master
    /// change when `servo_offset_threshold` is unset).
    pub fn reset(&mut self) {
        self.count = 0;
        self.state = ServoState::Unlocked;
    }
}

tsn_snapshot::snap_enum!(ServoState {
    0 => Unlocked,
    1 => Jump,
    2 => Locked,
});

tsn_snapshot::snap_state!(PiServo {
    state,
    count,
    first_offset,
    first_local,
    drift_ppb,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ClockTime;

    const S: Nanos = Nanos::from_millis(125);

    fn run_servo(offsets: &[i64]) -> Vec<ServoOutput> {
        let mut servo = PiServo::new(ServoConfig::default(), S);
        let mut t = ClockTime::ZERO;
        offsets
            .iter()
            .map(|&o| {
                let out = servo.sample(Nanos::from_nanos(o), t);
                t = t + S;
                out
            })
            .collect()
    }

    #[test]
    fn gains_match_linuxptp_formula() {
        let cfg = ServoConfig::default();
        // For S = 0.125 s: kp = min(0.7·0.125^-0.3, 0.7)/0.125 = 0.7/0.125.
        assert!((cfg.kp(S) - 0.7 / 0.125).abs() < 1e-9);
        // ki = min(0.3·0.125^0.4, 0.3)/0.125 = 0.3·0.125^0.4/0.125.
        let expected_ki = 0.3 * 0.125f64.powf(0.4) / 0.125;
        assert!((cfg.ki(S) - expected_ki).abs() < 1e-9);
    }

    #[test]
    fn first_sample_gathers() {
        let outs = run_servo(&[100]);
        assert_eq!(outs[0], ServoOutput::Gathering);
    }

    #[test]
    fn second_sample_estimates_drift() {
        // Offset grows 125 ns per 125 ms interval → +1000 ppb drift; the
        // adjustment is the negation.
        let outs = run_servo(&[0, 125]);
        match outs[1] {
            ServoOutput::Adjust { freq_adj_ppb } => {
                assert!((freq_adj_ppb + 1000.0).abs() < 1e-6, "{freq_adj_ppb}");
            }
            ref o => panic!("expected adjust, got {o:?}"),
        }
    }

    #[test]
    fn large_first_offset_steps() {
        let outs = run_servo(&[50_000, 50_000]);
        match outs[1] {
            ServoOutput::Step { delta, .. } => {
                assert_eq!(delta, Nanos::from_nanos(-50_000));
            }
            ref o => panic!("expected step, got {o:?}"),
        }
    }

    #[test]
    fn positive_offset_slows_clock() {
        let outs = run_servo(&[100, 100, 100]);
        let adj = outs[2].freq_adj_ppb().unwrap();
        assert!(adj < 0.0, "adjustment {adj}");
    }

    #[test]
    fn output_clamped_to_max_frequency() {
        let outs = run_servo(&[0, 0, 1_000_000_000]);
        let adj = outs[2].freq_adj_ppb().unwrap();
        assert_eq!(adj, -900_000.0);
    }

    #[test]
    fn converges_on_constant_drift_plant() {
        // Closed loop: plant is a clock with +3000 ppb error; each interval
        // the offset integrates the residual frequency error.
        let mut servo = PiServo::new(ServoConfig::default(), S);
        let mut t = ClockTime::ZERO;
        let plant_ppb = 3000.0;
        let mut adj_ppb = 0.0;
        let mut offset_ns = 0.0;
        let mut last_offsets = Vec::new();
        for i in 0..400 {
            offset_ns += (plant_ppb + adj_ppb) * S.as_secs_f64();
            let out = servo.sample(Nanos::from_nanos(offset_ns.round() as i64), t);
            match out {
                ServoOutput::Gathering => {}
                ServoOutput::Step {
                    delta,
                    freq_adj_ppb,
                } => {
                    offset_ns += delta.as_nanos() as f64;
                    adj_ppb = freq_adj_ppb;
                }
                ServoOutput::Adjust { freq_adj_ppb } => adj_ppb = freq_adj_ppb,
            }
            t = t + S;
            if i >= 350 {
                last_offsets.push(offset_ns.abs());
            }
        }
        let max_tail = last_offsets.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_tail < 5.0,
            "did not converge: tail offset {max_tail} ns"
        );
        assert!((adj_ppb + plant_ppb).abs() < 5.0, "adj {adj_ppb}");
    }

    #[test]
    fn step_threshold_after_lock() {
        let cfg = ServoConfig {
            step_threshold: Nanos::from_micros(20),
            ..ServoConfig::default()
        };
        let mut servo = PiServo::new(cfg, S);
        let mut t = ClockTime::ZERO;
        for _ in 0..3 {
            servo.sample(Nanos::from_nanos(10), t);
            t = t + S;
        }
        // A −24 µs offset (the paper's attack magnitude) exceeds the 20 µs
        // step threshold and forces a jump.
        let out = servo.sample(Nanos::from_micros(-24), t);
        match out {
            ServoOutput::Step { delta, .. } => assert_eq!(delta, Nanos::from_micros(24)),
            ref o => panic!("expected step, got {o:?}"),
        }
        assert_eq!(servo.state(), ServoState::Jump);
    }

    #[test]
    fn reset_returns_to_gathering() {
        let mut servo = PiServo::new(ServoConfig::default(), S);
        let mut t = ClockTime::ZERO;
        for _ in 0..3 {
            servo.sample(Nanos::from_nanos(5), t);
            t = t + S;
        }
        assert_eq!(servo.state(), ServoState::Locked);
        servo.reset();
        assert_eq!(servo.state(), ServoState::Unlocked);
        assert_eq!(servo.sample(Nanos::ZERO, t), ServoOutput::Gathering);
    }

    #[test]
    fn duplicate_timestamp_does_not_divide_by_zero() {
        let mut servo = PiServo::new(ServoConfig::default(), S);
        let t = ClockTime::ZERO;
        assert_eq!(
            servo.sample(Nanos::from_nanos(1), t),
            ServoOutput::Gathering
        );
        assert_eq!(
            servo.sample(Nanos::from_nanos(2), t),
            ServoOutput::Gathering
        );
    }

    #[test]
    #[should_panic(expected = "sync interval must be positive")]
    fn zero_interval_rejected() {
        let _ = PiServo::new(ServoConfig::default(), Nanos::ZERO);
    }
}
