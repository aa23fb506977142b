//! Frequencies and analog bandwidths.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// A frequency or analog bandwidth, stored in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Frequency(f64);

impl Frequency {
    /// Zero hertz.
    pub const ZERO: Frequency = Frequency(0.0);

    /// Construct from hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Construct from gigahertz.
    pub const fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    /// Frequency in hertz.
    pub const fn as_hz(self) -> f64 {
        self.0
    }

    /// Frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Combine two -3 dB bandwidth limits of cascaded first-order stages:
    /// `1/f² = 1/f1² + 1/f2²`. This is the standard approximation for the
    /// net bandwidth of independent poles (e.g. an LED's RC pole cascaded
    /// with its carrier-lifetime pole).
    pub fn cascade(self, other: Frequency) -> Frequency {
        if self.0 == 0.0 || other.0 == 0.0 {
            return Frequency::ZERO;
        }
        let inv = 1.0 / (self.0 * self.0) + 1.0 / (other.0 * other.0);
        Frequency(1.0 / inv.sqrt())
    }
}

impl Add for Frequency {
    type Output = Frequency;
    fn add(self, rhs: Frequency) -> Frequency {
        Frequency(self.0 + rhs.0)
    }
}

impl Sub for Frequency {
    type Output = Frequency;
    fn sub(self, rhs: Frequency) -> Frequency {
        Frequency(self.0 - rhs.0)
    }
}

impl Mul<f64> for Frequency {
    type Output = Frequency;
    fn mul(self, rhs: f64) -> Frequency {
        Frequency(self.0 * rhs)
    }
}

impl Div<f64> for Frequency {
    type Output = Frequency;
    fn div(self, rhs: f64) -> Frequency {
        Frequency(self.0 / rhs)
    }
}

/// Frequency divided by frequency is a plain ratio.
impl Div<Frequency> for Frequency {
    type Output = f64;
    fn div(self, rhs: Frequency) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hz = self.0;
        if hz >= 1e9 {
            write!(f, "{:.3} GHz", hz / 1e9)
        } else if hz >= 1e6 {
            write!(f, "{:.3} MHz", hz / 1e6)
        } else {
            write!(f, "{hz:.0} Hz")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cascade_of_equal_poles() {
        // Two identical first-order poles: f_net = f / sqrt(2).
        let f = Frequency::from_ghz(2.0);
        let net = f.cascade(f);
        assert!((net.as_ghz() - 2.0 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cascade_dominated_by_slow_pole() {
        let slow = Frequency::from_ghz(1.0);
        let fast = Frequency::from_ghz(100.0);
        let net = slow.cascade(fast);
        assert!(net.as_ghz() > 0.99 && net.as_ghz() < 1.0);
    }

    proptest! {
        #[test]
        fn cascade_never_exceeds_either(a in 0.01f64..100.0, b in 0.01f64..100.0) {
            let net = Frequency::from_ghz(a).cascade(Frequency::from_ghz(b));
            prop_assert!(net.as_ghz() <= a.min(b) + 1e-12);
            prop_assert!(net.as_ghz() > 0.0);
        }

        #[test]
        fn cascade_commutes(a in 0.01f64..100.0, b in 0.01f64..100.0) {
            let ab = Frequency::from_ghz(a).cascade(Frequency::from_ghz(b));
            let ba = Frequency::from_ghz(b).cascade(Frequency::from_ghz(a));
            prop_assert!((ab.as_hz() - ba.as_hz()).abs() < 1e-3);
        }
    }
}
