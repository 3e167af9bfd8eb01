//! Time units used throughout the simulation.
//!
//! Three distinct notions of time exist in a clock-synchronization
//! simulation, and mixing them up is the classic source of bugs. We give
//! each its own newtype:
//!
//! * [`SimTime`] — absolute *true* time of the discrete-event simulation,
//!   the "God's eye" timeline. Unsigned nanoseconds since simulation start.
//! * [`Nanos`] — a signed duration in nanoseconds.
//! * [`ClockTime`] — a *reading of some clock* (a PHC, a system clock, or
//!   `CLOCK_SYNCTIME`). Signed, because a disciplined clock may be stepped
//!   below its epoch.
//!
//! All arithmetic that crosses the boundary between true time and clock
//! time must go through an explicit clock model ([`crate::Phc`] or
//! similar); there are deliberately no direct conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// Absolute simulation ("true") time in nanoseconds since simulation start.
///
/// This is the timeline the discrete-event engine orders events on. No
/// simulated component can observe it directly; components only see
/// [`ClockTime`] readings of their local clocks.
///
/// # Examples
///
/// ```
/// use tsn_time::{SimTime, Nanos};
/// let t = SimTime::ZERO + Nanos::from_millis(125);
/// assert_eq!(t.as_nanos(), 125_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulation time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a simulation time from nanoseconds since start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a simulation time from whole seconds since start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a simulation time from whole milliseconds since start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<Nanos> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Nanos) -> SimTime {
        SimTime(
            self.0
                .checked_add_signed(rhs.0)
                .expect("SimTime arithmetic overflow"),
        )
    }
}

impl AddAssign<Nanos> for SimTime {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub<Nanos> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Nanos) -> SimTime {
        SimTime(
            self.0
                .checked_add_signed(-rhs.0)
                .expect("SimTime arithmetic underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Nanos;
    /// Signed difference of two absolute times. Saturates at the
    /// `Nanos` range ends instead of wrapping when either operand lies
    /// beyond `i64::MAX` ns (`u64 as i64` would flip the sign there).
    fn sub(self, rhs: SimTime) -> Nanos {
        let diff = if self.0 >= rhs.0 {
            i64::try_from(self.0 - rhs.0).unwrap_or(i64::MAX)
        } else {
            i64::try_from(rhs.0 - self.0)
                .ok()
                .and_then(i64::checked_neg)
                .unwrap_or(i64::MIN)
        };
        Nanos(diff)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.0 / 1_000_000_000;
        let h = total_s / 3600;
        let m = (total_s % 3600) / 60;
        let s = total_s % 60;
        let ns = self.0 % 1_000_000_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ns:09}")
    }
}

/// A signed duration in nanoseconds.
///
/// # Examples
///
/// ```
/// use tsn_time::Nanos;
/// let s = Nanos::from_millis(125);
/// assert_eq!(s.as_nanos(), 125_000_000);
/// assert_eq!((-s).abs(), s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(i64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from signed nanoseconds.
    pub const fn from_nanos(ns: i64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from signed microseconds.
    pub const fn from_micros(us: i64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from signed milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from signed whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// The raw signed nanosecond count.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// The duration in fractional seconds (for gain computation/reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Absolute value of the duration.
    pub const fn abs(self) -> Nanos {
        Nanos(self.0.abs())
    }

    /// `true` if the duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Neg for Nanos {
    type Output = Nanos;
    fn neg(self) -> Nanos {
        Nanos(-self.0)
    }
}

impl Mul<i64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: i64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<i64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: i64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem for Nanos {
    type Output = Nanos;
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        let abs = ns.unsigned_abs();
        if abs >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if abs >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if abs >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A reading of some simulated clock, in signed nanoseconds since that
/// clock's epoch.
///
/// Different clocks have different epochs and rates; comparing readings of
/// *different* clocks only makes sense through the synchronization
/// machinery being simulated.
///
/// # Examples
///
/// ```
/// use tsn_time::{ClockTime, Nanos};
/// let t = ClockTime::from_nanos(1_000);
/// assert_eq!(t + Nanos::from_nanos(24), ClockTime::from_nanos(1_024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClockTime(i64);

impl ClockTime {
    /// The clock's epoch.
    pub const ZERO: ClockTime = ClockTime(0);

    /// Creates a clock reading from signed nanoseconds since the epoch.
    pub const fn from_nanos(ns: i64) -> Self {
        ClockTime(ns)
    }

    /// Signed nanoseconds since the clock's epoch.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Rounds this reading down to a multiple of `interval` (used to align
    /// transmissions to synchronization-interval boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn floor_to(self, interval: Nanos) -> ClockTime {
        assert!(interval.as_nanos() > 0, "interval must be positive");
        ClockTime(self.0.div_euclid(interval.as_nanos()) * interval.as_nanos())
    }

    /// The smallest multiple of `interval` at or after this reading.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn ceil_to(self, interval: Nanos) -> ClockTime {
        let floored = self.floor_to(interval);
        if floored == self {
            self
        } else {
            floored + interval
        }
    }
}

impl Add<Nanos> for ClockTime {
    type Output = ClockTime;
    fn add(self, rhs: Nanos) -> ClockTime {
        ClockTime(self.0 + rhs.0)
    }
}

impl Sub<Nanos> for ClockTime {
    type Output = ClockTime;
    fn sub(self, rhs: Nanos) -> ClockTime {
        ClockTime(self.0 - rhs.0)
    }
}

impl Sub<ClockTime> for ClockTime {
    type Output = Nanos;
    fn sub(self, rhs: ClockTime) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for ClockTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// Parts-per-billion frequency quantity (1 ppm = 1000 ppb).
///
/// Used for oscillator drift and servo frequency adjustments.
pub type Ppb = f64;

// --- Checkpoint codec ---------------------------------------------------

tsn_snapshot::snap_struct!(SimTime { 0 });
tsn_snapshot::snap_struct!(Nanos { 0 });
tsn_snapshot::snap_struct!(ClockTime { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_millis(125);
        assert_eq!(t + Nanos::from_millis(125), SimTime::from_millis(250));
        assert_eq!(SimTime::from_millis(250) - t, Nanos::from_millis(125));
        assert_eq!(t - Nanos::from_millis(25), SimTime::from_millis(100));
    }

    #[test]
    fn simtime_display_is_wall_clock_style() {
        let t = SimTime::from_secs(6 * 3600 + 45 * 60 + 49);
        assert_eq!(format!("{t}"), "06:45:49.000000000");
    }

    #[test]
    fn simtime_sub_saturates_instead_of_wrapping() {
        let huge = SimTime::from_nanos(u64::MAX);
        // Forward difference beyond the signed range clamps high ...
        assert_eq!(huge - SimTime::ZERO, Nanos::from_nanos(i64::MAX));
        // ... the reverse clamps low ...
        assert_eq!(SimTime::ZERO - huge, Nanos::from_nanos(i64::MIN));
        // ... and differences inside the range stay exact even when the
        // operands themselves exceed i64::MAX ns.
        assert_eq!(
            huge - SimTime::from_nanos(u64::MAX - 7),
            Nanos::from_nanos(7)
        );
        assert_eq!(
            SimTime::from_nanos(u64::MAX - 7) - huge,
            Nanos::from_nanos(-7)
        );
        assert_eq!(
            SimTime::from_nanos(i64::MAX as u64) - SimTime::ZERO,
            Nanos::from_nanos(i64::MAX)
        );
    }

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(322)), "322ns");
        assert_eq!(format!("{}", Nanos::from_micros(10)), "10.000us");
        assert_eq!(format!("{}", Nanos::from_millis(125)), "125.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(-2)), "-2.000s");
    }

    #[test]
    fn clocktime_floor_and_next_multiple() {
        let s = Nanos::from_millis(125);
        let t = ClockTime::from_nanos(300_000_000);
        assert_eq!(t.floor_to(s), ClockTime::from_nanos(250_000_000));
        // Off a multiple, the ceiling is the next multiple.
        assert_eq!(t.ceil_to(s), ClockTime::from_nanos(375_000_000));
        // Negative readings floor toward negative infinity.
        let neg = ClockTime::from_nanos(-1);
        assert_eq!(neg.floor_to(s), ClockTime::from_nanos(-125_000_000));
        assert_eq!(neg.ceil_to(s), ClockTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn clocktime_floor_rejects_zero_interval() {
        ClockTime::ZERO.floor_to(Nanos::ZERO);
    }
}
