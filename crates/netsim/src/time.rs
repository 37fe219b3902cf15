//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// Nanosecond resolution is fine enough that transmission delays of single
/// bytes on gigabit links are still nonzero, and a `u64` still covers ~584
/// simulated years.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(13));
    }

    #[test]
    fn conversions() {
        let t = SimTime::from_millis(1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_seconds_panic() {
        SimTime::from_secs_f64(-1.0);
    }
}
