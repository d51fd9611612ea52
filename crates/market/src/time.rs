//! Simulation time primitives.
//!
//! All of SpotTune's simulation runs on a single logical clock measured in
//! whole seconds since the start of the price trace. Two newtypes keep
//! instants and durations from being mixed up:
//!
//! ```
//! use spottune_market::time::{SimTime, SimDur};
//!
//! let t = SimTime::from_hours(2) + SimDur::from_mins(30);
//! assert_eq!(t.as_secs(), 9_000);
//! assert_eq!(t.minute_index(), 150);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub const MINUTE: u64 = 60;
/// Seconds in one hour.
pub const HOUR: u64 = 3_600;
/// Seconds in one day.
pub const DAY: u64 = 86_400;

/// An instant on the simulation clock, in seconds since the trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates an instant from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * MINUTE)
    }

    /// Creates an instant from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * HOUR)
    }

    /// Creates an instant from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * DAY)
    }

    /// Raw seconds since the trace start.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours since the trace start.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Index of the enclosing minute (floor).
    pub fn minute_index(self) -> u64 {
        self.0 / MINUTE
    }

    /// Hour of the (simulated) day in `0..24`.
    ///
    /// The trace is assumed to start at midnight on a Wednesday (matching the
    /// 2017-04-26 start of the Kaggle dataset used by the paper).
    pub fn hour_of_day(self) -> u32 {
        ((self.0 % DAY) / HOUR) as u32
    }

    /// Day index since the trace start.
    pub fn day_index(self) -> u64 {
        self.0 / DAY
    }

    /// Whether the instant falls on a workday (Mon–Fri).
    ///
    /// Day 0 of the simulation is a Wednesday, as in the dataset the paper
    /// uses (2017-04-26).
    pub fn is_workday(self) -> bool {
        // day 0 = Wednesday => weekday index 2 (0 = Monday).
        let weekday = (self.day_index() + 2) % 7;
        weekday < 5
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDur {
    /// Zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Creates a duration from raw seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDur(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDur(mins * MINUTE)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDur(hours * HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDur(days * DAY)
    }

    /// Raw seconds.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Fractional seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDur> for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day_index();
        let h = self.hour_of_day();
        let m = (self.0 % HOUR) / MINUTE;
        let s = self.0 % MINUTE;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}h", self.as_hours_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_hours(3) + SimDur::from_mins(15);
        assert_eq!(t.as_secs(), 3 * HOUR + 15 * MINUTE);
        assert_eq!((t - SimTime::from_hours(3)).as_secs(), 15 * MINUTE);
    }

    #[test]
    fn subtraction_saturates() {
        let t = SimTime::from_secs(10);
        assert_eq!((t - SimDur::from_hours(1)).as_secs(), 0);
        assert_eq!(SimTime::ZERO.since(t).as_secs(), 0);
    }

    #[test]
    fn calendar_helpers() {
        // Day 0 is a Wednesday.
        assert!(SimTime::ZERO.is_workday());
        // Day 3 (Saturday) and day 4 (Sunday) are weekend days.
        assert!(!SimTime::from_days(3).is_workday());
        assert!(!SimTime::from_days(4).is_workday());
        assert!(SimTime::from_days(5).is_workday());
        assert_eq!(SimTime::from_secs(DAY + 2 * HOUR).hour_of_day(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_hours(25)), "d1+01:00:00");
        assert_eq!(format!("{}", SimDur::from_mins(90)), "1.50h");
    }

    #[test]
    fn minute_index_floors() {
        assert_eq!(SimTime::from_secs(119).minute_index(), 1);
        assert_eq!(SimTime::from_secs(120).minute_index(), 2);
    }
}
