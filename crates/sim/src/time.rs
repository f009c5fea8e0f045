//! Simulated time.
//!
//! Time is a monotonically non-decreasing microsecond counter starting at
//! zero. Microsecond resolution is fine enough to model CPU bursts of a few
//! microseconds and coarse enough that a multi-hour simulated run fits
//! comfortably in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the start of the run.
///
/// `SimTime` is ordered and supports adding a duration expressed in
/// microseconds. Subtraction of two `SimTime`s yields the number of
/// microseconds between them and saturates at zero rather than underflowing.
///
/// # Examples
///
/// ```
/// use tashkent_sim::SimTime;
///
/// let t = SimTime::ZERO + SimTime::from_millis(2).as_micros();
/// assert_eq!(t.as_micros(), 2_000);
/// assert_eq!(t - SimTime::from_millis(1), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point `us` microseconds after the start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time point `ms` milliseconds after the start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time point `s` seconds after the start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the number of microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction returning microseconds.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, us: u64) -> SimTime {
        SimTime(self.0 + us)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, us: u64) {
        self.0 += us;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b - a, 4);
        assert_eq!(a - b, 0);
        assert_eq!(a.saturating_since(b), 0);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::ZERO, SimTime::from_micros(0));
    }

    #[test]
    fn display_prints_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 10;
        t += 5;
        assert_eq!(t.as_micros(), 15);
    }
}
