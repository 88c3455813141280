//! Simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// Wraps `f64` with total ordering (simulated times are never NaN; the
/// constructor enforces it) so it can key the event queue.
#[derive(Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Builds a time point; panics on NaN or negative values.
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid sim time {s}");
        SimTime(s)
    }

    /// Seconds since origin.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Minutes since origin.
    fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Hours since origin (the unit of the paper's time axes).
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are guaranteed finite by construction.
        self.partial_cmp(other).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2}h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.1}m", self.as_mins())
        } else {
            write!(f, "{:.1}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_units() {
        let t = SimTime::ZERO + 7200.0;
        assert_eq!(t.as_secs(), 7200.0);
        assert_eq!(t.as_hours(), 2.0);
        assert_eq!(t.as_mins(), 120.0);
        assert_eq!(t - SimTime::from_secs(3600.0), 3600.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn rejects_negative() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn rejects_nan() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_secs(5.0).to_string(), "5.0s");
        assert_eq!(SimTime::from_secs(90.0).to_string(), "1.5m");
        assert_eq!(SimTime::from_secs(9000.0).to_string(), "2.50h");
    }
}
