//! PTP hardware clock (PHC) model.
//!
//! Models the free-running-but-adjustable counter inside a NIC such as the
//! Intel I210: it is driven by the NIC's oscillator and exposes the same
//! adjustment knobs the Linux PHC infrastructure exposes to `ptp4l`:
//!
//! * `adj_frequency` — set a frequency correction (like `clock_adjtime`
//!   with `ADJ_FREQUENCY`), clamped to the hardware's adjustment range;
//! * `step` — apply a phase step (like `ADJ_SETOFFSET`);
//! * `set_oscillator_deviation` — *simulation-only* hook used when the
//!   underlying oscillator wanders.
//!
//! The clock is a piecewise-linear map from true time to clock time. Every
//! adjustment re-anchors the segment so readings are continuous (except
//! across explicit steps) and strictly increasing while the total rate is
//! positive.

use crate::jitter::round_to_i64;
use crate::units::{ClockTime, Nanos, Ppb, SimTime};

/// Hardware frequency-adjustment range of the modeled PHC, in ppb.
///
/// The Intel I210 supports a wide adjustment range; `ptp4l` additionally
/// clamps its servo to ±`max_frequency` (default 900 000 ppb = 900 ppm),
/// which is what effectively bounds the closed loop, so we use the same
/// value as the hardware limit here.
pub const PHC_MAX_ADJ_PPB: Ppb = 900_000.0;

/// A simulated PTP hardware clock.
///
/// # Examples
///
/// ```
/// use tsn_time::{Phc, SimTime, Nanos, ClockTime};
/// let mut phc = Phc::new(ClockTime::ZERO, 0.0);
/// // +1000 ppb: gains 1 µs per true second.
/// phc.adj_frequency(SimTime::ZERO, 1_000.0);
/// let t = SimTime::from_secs(1);
/// assert_eq!(phc.now(t), ClockTime::from_nanos(1_000_001_000));
/// ```
#[derive(Debug, Clone)]
pub struct Phc {
    anchor_true: SimTime,
    /// Clock reading at `anchor_true`, in (fractional) nanoseconds.
    anchor_clock_ns: f64,
    /// Oscillator deviation from nominal, ppb (simulation ground truth).
    osc_deviation_ppb: Ppb,
    /// Servo-commanded frequency adjustment, ppb.
    freq_adj_ppb: Ppb,
    /// Largest reading handed out so far, to enforce monotonicity across
    /// re-anchoring rounding.
    high_water_ns: i64,
    /// Monotonicity enforcement: `now()` never returns less than a
    /// previously returned reading unless an explicit negative `step`
    /// occurred.
    monotonic: bool,
}

impl Phc {
    /// Creates a PHC reading `epoch` at true time zero, with the given
    /// oscillator deviation and no frequency adjustment.
    pub fn new(epoch: ClockTime, osc_deviation_ppb: Ppb) -> Self {
        Phc {
            anchor_true: SimTime::ZERO,
            anchor_clock_ns: epoch.as_nanos() as f64,
            osc_deviation_ppb,
            freq_adj_ppb: 0.0,
            high_water_ns: i64::MIN,
            monotonic: true,
        }
    }

    /// Total rate: clock nanoseconds per true nanosecond.
    ///
    /// Matches how Linux applies `ADJ_FREQUENCY` on top of the oscillator:
    /// the correction scales the oscillator tick, so the factors multiply.
    pub fn rate(&self) -> f64 {
        (1.0 + self.osc_deviation_ppb * 1e-9) * (1.0 + self.freq_adj_ppb * 1e-9)
    }

    /// Reads the clock at true time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last adjustment (the simulation must not
    /// read clocks in its past).
    pub fn now(&mut self, t: SimTime) -> ClockTime {
        let reading = self.raw_reading(t);
        if self.monotonic && reading < self.high_water_ns {
            return ClockTime::from_nanos(self.high_water_ns);
        }
        self.high_water_ns = reading;
        ClockTime::from_nanos(reading)
    }

    fn raw_reading(&self, t: SimTime) -> i64 {
        assert!(
            t >= self.anchor_true,
            "clock read at {t} before last adjustment at {}",
            self.anchor_true
        );
        let dt = (t - self.anchor_true).as_nanos() as f64;
        round_to_i64(self.anchor_clock_ns + dt * self.rate())
    }

    /// Sets the servo frequency adjustment at true time `t`, clamped to
    /// [`PHC_MAX_ADJ_PPB`]. Returns the applied (possibly clamped) value.
    pub fn adj_frequency(&mut self, t: SimTime, ppb: Ppb) -> Ppb {
        let applied = ppb.clamp(-PHC_MAX_ADJ_PPB, PHC_MAX_ADJ_PPB);
        self.re_anchor(t);
        self.freq_adj_ppb = applied;
        applied
    }

    /// Applies a phase step of `delta` at true time `t`.
    ///
    /// A negative step makes the clock non-monotonic at this instant, which
    /// is exactly what stepping a real PHC does.
    pub fn step(&mut self, t: SimTime, delta: Nanos) {
        self.re_anchor(t);
        self.anchor_clock_ns += delta.as_nanos() as f64;
        // An explicit step is allowed to move backwards.
        self.high_water_ns = i64::MIN;
    }

    /// Applies a servo command at true time `t`: the phase step, if any,
    /// then the frequency adjustment.
    pub fn apply(&mut self, t: SimTime, cmd: crate::ServoOutput) {
        if let crate::ServoOutput::Step { delta, .. } = cmd {
            self.step(t, delta);
        }
        if let Some(ppb) = cmd.freq_adj_ppb() {
            self.adj_frequency(t, ppb);
        }
    }

    /// Simulation hook: the underlying oscillator's deviation changed
    /// (wander step). Re-anchors so past readings are unaffected.
    pub fn set_oscillator_deviation(&mut self, t: SimTime, ppb: Ppb) {
        self.re_anchor(t);
        self.osc_deviation_ppb = ppb;
    }

    /// The current servo frequency adjustment in ppb.
    pub fn freq_adj_ppb(&self) -> Ppb {
        self.freq_adj_ppb
    }

    /// The oscillator deviation in ppb (simulation ground truth; a real
    /// `ptp4l` cannot observe this).
    pub fn osc_deviation_ppb(&self) -> Ppb {
        self.osc_deviation_ppb
    }

    /// Ground-truth offset of this clock from true time at `t`, for
    /// measurement and assertions (not visible to protocol code).
    pub fn true_offset(&mut self, t: SimTime) -> Nanos {
        Nanos::from_nanos(self.now(t).as_nanos() - t.as_nanos() as i64)
    }

    /// True time at which this clock will read `target`, assuming no
    /// further adjustments (the NIC launch-time comparator works the same
    /// way: it compares the free-running counter against the launch time,
    /// so servo adjustments between now and the launch shift the true
    /// launch instant slightly).
    ///
    /// Returns `None` if the clock already reads at or past `target` at
    /// `now` — the ETF qdisc treats that as an invalid/missed deadline.
    pub fn when_reads(&mut self, now: SimTime, target: ClockTime) -> Option<SimTime> {
        let current = self.now(now);
        if current >= target {
            return None;
        }
        let remaining_clock_ns = (target - current).as_nanos() as f64;
        let true_delta = (remaining_clock_ns / self.rate()).ceil() as i64;
        Some(now + Nanos::from_nanos(true_delta))
    }

    fn re_anchor(&mut self, t: SimTime) {
        assert!(
            t >= self.anchor_true,
            "clock adjusted at {t} before last adjustment at {}",
            self.anchor_true
        );
        let dt = (t - self.anchor_true).as_nanos() as f64;
        self.anchor_clock_ns += dt * self.rate();
        self.anchor_true = t;
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64),
        AdjFreq(u64, f64),
        WanderTo(u64, f64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..1_000_000_000).prop_map(Op::Read),
            (0u64..1_000_000_000, -900_000.0f64..900_000.0).prop_map(|(t, p)| Op::AdjFreq(t, p)),
            (0u64..1_000_000_000, -5_000.0f64..5_000.0).prop_map(|(t, p)| Op::WanderTo(t, p)),
        ]
    }

    proptest! {
        /// Readings never go backwards under any sequence of frequency
        /// adjustments and wander steps (only explicit `step` may move a
        /// clock backwards).
        #[test]
        fn monotone_under_adjustments(mut ops in proptest::collection::vec(arb_op(), 1..50)) {
            // Apply operations in time order.
            ops.sort_by_key(|op| match op {
                Op::Read(t) | Op::AdjFreq(t, _) | Op::WanderTo(t, _) => *t,
            });
            let mut phc = Phc::new(ClockTime::ZERO, 1_000.0);
            let mut last = ClockTime::from_nanos(i64::MIN);
            for op in ops {
                match op {
                    Op::Read(t) => {
                        let now = phc.now(SimTime::from_nanos(t));
                        prop_assert!(now >= last, "clock went backwards");
                        last = now;
                    }
                    Op::AdjFreq(t, ppb) => {
                        phc.adj_frequency(SimTime::from_nanos(t), ppb);
                    }
                    Op::WanderTo(t, ppb) => {
                        phc.set_oscillator_deviation(SimTime::from_nanos(t), ppb);
                    }
                }
            }
        }

        /// Readings are continuous across adjustments: adjusting at time
        /// t never changes the reading at t by more than rounding.
        #[test]
        fn continuous_across_adjustment(
            t in 1u64..1_000_000_000,
            ppb in -900_000.0f64..900_000.0,
        ) {
            let mut phc = Phc::new(ClockTime::ZERO, 2_500.0);
            let at = SimTime::from_nanos(t);
            let before = phc.now(at);
            phc.adj_frequency(at, ppb);
            let after = phc.now(at);
            prop_assert!((after - before).abs() <= Nanos::from_nanos(1));
        }

        /// `when_reads` inverts `now` to within rounding.
        #[test]
        fn when_reads_is_inverse(
            dev in -100_000.0f64..100_000.0,
            target_delta in 1i64..10_000_000_000,
        ) {
            let mut phc = Phc::new(ClockTime::ZERO, dev);
            let now = SimTime::from_secs(1);
            let target = phc.now(now) + Nanos::from_nanos(target_delta);
            let when = phc.when_reads(now, target).expect("future target");
            let reading = phc.now(when);
            prop_assert!(reading >= target);
            prop_assert!((reading - target).as_nanos() <= 2);
        }
    }
}

/// A [`Phc`] pinned to one simulation instant: the local-clock handle
/// the simulation lends to protocol engines, which know nothing of true
/// time. Engines read it only where the modelled software reads its
/// clock — a read is observable (it advances the PHC's monotonic
/// high-water mark), so the embedding must not read on an engine's
/// behalf "just in case".
#[derive(Debug)]
pub struct PhcAt<'a> {
    phc: &'a mut Phc,
    t: SimTime,
}

impl Phc {
    /// This clock as readable at true time `t`.
    pub fn at(&mut self, t: SimTime) -> PhcAt<'_> {
        PhcAt { phc: self, t }
    }
}

impl PhcAt<'_> {
    /// Reads the clock (see [`Phc::now`]).
    pub fn now(&mut self) -> ClockTime {
        self.phc.now(self.t)
    }
}

tsn_snapshot::snap_state!(Phc {
    anchor_true,
    anchor_clock_ns,
    osc_deviation_ppb,
    freq_adj_ppb,
    high_water_ns,
    monotonic,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let mut phc = Phc::new(ClockTime::ZERO, 0.0);
        let t = SimTime::from_secs(3600);
        assert_eq!(phc.now(t).as_nanos(), 3_600_000_000_000);
    }

    #[test]
    fn drifting_clock_gains_proportionally() {
        // +5 ppm gains 5 µs per second.
        let mut phc = Phc::new(ClockTime::ZERO, 5_000.0);
        let t = SimTime::from_secs(1);
        assert_eq!(phc.now(t).as_nanos(), 1_000_005_000);
        assert_eq!(phc.true_offset(t), Nanos::from_micros(5));
    }

    #[test]
    fn frequency_adjustment_compensates_drift() {
        let mut phc = Phc::new(ClockTime::ZERO, 5_000.0);
        // Compensation is multiplicative: (1+5e-6)(1+a·1e-9) = 1
        let comp = (1.0 / (1.0 + 5e-6) - 1.0) * 1e9;
        phc.adj_frequency(SimTime::ZERO, comp);
        let t = SimTime::from_secs(1000);
        let off = phc.true_offset(t).as_nanos();
        assert!(off.abs() <= 1, "residual offset {off} ns");
    }

    #[test]
    fn adjustment_is_clamped() {
        let mut phc = Phc::new(ClockTime::ZERO, 0.0);
        let applied = phc.adj_frequency(SimTime::ZERO, 2_000_000.0);
        assert_eq!(applied, PHC_MAX_ADJ_PPB);
        let applied = phc.adj_frequency(SimTime::ZERO, -2_000_000.0);
        assert_eq!(applied, -PHC_MAX_ADJ_PPB);
    }

    #[test]
    fn readings_continuous_across_adjustment() {
        let mut phc = Phc::new(ClockTime::ZERO, 3_000.0);
        let t1 = SimTime::from_millis(500);
        let before = phc.now(t1);
        phc.adj_frequency(t1, -100_000.0);
        let after = phc.now(t1);
        assert!((after - before).abs() <= Nanos::from_nanos(1));
    }

    #[test]
    fn step_shifts_phase() {
        let mut phc = Phc::new(ClockTime::ZERO, 0.0);
        let t = SimTime::from_secs(1);
        phc.step(t, Nanos::from_micros(-24));
        assert_eq!(phc.now(t).as_nanos(), 1_000_000_000 - 24_000);
    }

    #[test]
    fn monotone_under_positive_rate() {
        let mut phc = Phc::new(ClockTime::ZERO, -4_000.0);
        let mut last = ClockTime::from_nanos(i64::MIN);
        for ms in 0..1000 {
            let t = SimTime::from_millis(ms);
            if ms % 100 == 0 {
                phc.adj_frequency(t, (ms as f64) * 7.0 - 3500.0);
            }
            let now = phc.now(t);
            assert!(now >= last, "clock went backwards at {ms} ms");
            last = now;
        }
    }

    #[test]
    fn wander_update_preserves_continuity() {
        let mut phc = Phc::new(ClockTime::ZERO, 1_000.0);
        let t = SimTime::from_secs(10);
        let before = phc.now(t);
        phc.set_oscillator_deviation(t, -1_000.0);
        assert!((phc.now(t) - before).abs() <= Nanos::from_nanos(1));
        // After the change the clock runs slow.
        let t2 = SimTime::from_secs(11);
        let gained = phc.now(t2) - before;
        assert!((gained.as_nanos() - (1_000_000_000 - 1_000)).abs() <= 1);
    }

    #[test]
    #[should_panic(expected = "before last adjustment")]
    fn reading_in_past_of_adjustment_panics() {
        let mut phc = Phc::new(ClockTime::ZERO, 0.0);
        phc.adj_frequency(SimTime::from_secs(5), 10.0);
        let _ = phc.now(SimTime::from_secs(4));
    }

    #[test]
    fn when_reads_inverts_the_clock() {
        let mut phc = Phc::new(ClockTime::ZERO, 5_000.0);
        let now = SimTime::from_secs(1);
        let target = ClockTime::from_nanos(2_000_000_000);
        let when = phc.when_reads(now, target).expect("target in future");
        // Verify: reading at the returned instant is (just past) the target.
        let reading = phc.now(when);
        assert!(reading >= target);
        assert!((reading - target).as_nanos() <= 2);
    }

    #[test]
    fn when_reads_past_target_is_none() {
        let mut phc = Phc::new(ClockTime::ZERO, 0.0);
        let now = SimTime::from_secs(2);
        assert!(phc.when_reads(now, ClockTime::from_nanos(1)).is_none());
    }

    #[test]
    fn epoch_offset_respected() {
        let mut phc = Phc::new(ClockTime::from_nanos(1_000_000), 0.0);
        assert_eq!(phc.now(SimTime::ZERO).as_nanos(), 1_000_000);
    }
}
