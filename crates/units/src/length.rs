//! Physical lengths (link reach, fiber length, core pitch).

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// A length, stored in metres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Length(f64);

impl Length {
    /// Zero metres.
    pub const ZERO: Length = Length(0.0);

    /// Construct from metres.
    pub const fn from_m(m: f64) -> Self {
        Length(m)
    }

    /// Construct from micrometres (core pitches, die sizes).
    pub const fn from_um(um: f64) -> Self {
        Length(um * 1e-6)
    }

    /// Length in metres.
    pub const fn as_m(self) -> f64 {
        self.0
    }

    /// Length in micrometres.
    pub fn as_um(self) -> f64 {
        self.0 * 1e6
    }

    /// Element-wise maximum.
    pub fn max(self, other: Length) -> Length {
        Length(self.0.max(other.0))
    }
}

impl Add for Length {
    type Output = Length;
    fn add(self, rhs: Length) -> Length {
        Length(self.0 + rhs.0)
    }
}

impl Sub for Length {
    type Output = Length;
    fn sub(self, rhs: Length) -> Length {
        Length(self.0 - rhs.0)
    }
}

impl Mul<f64> for Length {
    type Output = Length;
    fn mul(self, rhs: f64) -> Length {
        Length(self.0 * rhs)
    }
}

impl Div<f64> for Length {
    type Output = Length;
    fn div(self, rhs: f64) -> Length {
        Length(self.0 / rhs)
    }
}

/// Length divided by length is a plain ratio.
impl Div<Length> for Length {
    type Output = f64;
    fn div(self, rhs: Length) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        if m >= 1e3 {
            write!(f, "{:.3} km", m / 1e3)
        } else if m >= 1.0 {
            write!(f, "{m:.2} m")
        } else if m >= 1e-3 {
            write!(f, "{:.2} mm", m * 1e3)
        } else {
            write!(f, "{:.2} µm", m * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((Length::from_um(20.0).as_m() - 2e-5).abs() < 1e-18);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Length::from_m(50.0)), "50.00 m");
        assert_eq!(format!("{}", Length::from_um(20.0)), "20.00 µm");
    }
}
