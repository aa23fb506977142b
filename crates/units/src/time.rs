//! Durations, for multi-year reliability horizons.
//!
//! `std::time::Duration` is integer-nanosecond based and unsigned; the
//! reliability models need algebra with failure rates, so we carry a plain
//! `f64` seconds value instead.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// Hours in one year (8760, the reliability-engineering convention).
pub const HOURS_PER_YEAR: f64 = 8760.0;

/// A span of time, stored in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Duration(f64);

impl Duration {
    /// Construct from hours.
    pub const fn from_hours(h: f64) -> Self {
        Duration(h * 3600.0)
    }

    /// Construct from years (8760-hour years).
    pub const fn from_years(y: f64) -> Self {
        Duration(y * HOURS_PER_YEAR * 3600.0)
    }

    /// Hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Years (8760-hour years).
    pub fn as_years(self) -> f64 {
        self.as_hours() / HOURS_PER_YEAR
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration(self.0 / rhs)
    }
}

/// Duration divided by duration is a plain ratio.
impl Div<Duration> for Duration {
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 3600.0 * 24.0 * 365.0 {
            write!(f, "{:.2} yr", self.as_years())
        } else if s >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} µs", s * 1e6)
        } else if s >= 1e-9 {
            write!(f, "{:.3} ns", s * 1e9)
        } else {
            write!(f, "{:.3} ps", s * 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_convention() {
        assert_eq!(Duration::from_years(1.0).as_hours(), 8760.0);
    }

    #[test]
    fn display_switches_unit_at_each_decade_boundary() {
        let shown = |s: f64| Duration::from_hours(s / 3600.0).to_string();
        let cases = [
            (HOURS_PER_YEAR * 3600.0, "1.00 yr"),
            (3600.0, "1.00 h"),
            (1.0, "1.000 s"),
            (0.5, "500.000 ms"),
            (1e-3, "1.000 ms"),
            (9e-4, "900.000 µs"),
            (2e-6, "2.000 µs"),
            (1e-6, "1.000 µs"),
            (9e-7, "900.000 ns"),
            (1e-9, "1.000 ns"),
            (9e-10, "900.000 ps"),
        ];
        for (s, want) in cases {
            assert_eq!(shown(s), want, "{s} s");
        }
    }
}
