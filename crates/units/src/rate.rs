//! Bit rates.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, Div, Mul, Sub};

/// A data rate, stored internally in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct BitRate(f64);

impl BitRate {
    /// Zero bits per second.
    pub const ZERO: BitRate = BitRate(0.0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: f64) -> Self {
        BitRate(bps)
    }

    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: f64) -> Self {
        BitRate(gbps * 1e9)
    }

    /// Rate in bits per second.
    pub const fn as_bps(self) -> f64 {
        self.0
    }

    /// Rate in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Symbol rate in baud for a modulation carrying `bits_per_symbol`.
    pub fn symbol_rate_baud(self, bits_per_symbol: f64) -> f64 {
        self.0 / bits_per_symbol
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: f64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}

impl Div<f64> for BitRate {
    type Output = BitRate;
    fn div(self, rhs: f64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}

/// Rate divided by rate is a plain ratio (e.g. number of lanes).
impl Div<BitRate> for BitRate {
    type Output = f64;
    fn div(self, rhs: BitRate) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for BitRate {
    fn sum<I: Iterator<Item = BitRate>>(iter: I) -> BitRate {
        iter.fold(BitRate::ZERO, Add::add)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1e12 {
            write!(f, "{:.3} Tb/s", bps / 1e12)
        } else if bps >= 1e9 {
            write!(f, "{:.3} Gb/s", bps / 1e9)
        } else if bps >= 1e6 {
            write!(f, "{:.3} Mb/s", bps / 1e6)
        } else {
            write!(f, "{bps:.0} b/s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(BitRate::from_gbps(2.0).as_bps(), 2e9);
    }

    #[test]
    fn lane_math() {
        // 800G over 2G lanes = 400 lanes.
        let lanes = BitRate::from_gbps(800.0) / BitRate::from_gbps(2.0);
        assert_eq!(lanes, 400.0);
    }

    #[test]
    fn pam4_symbol_rate() {
        // 106.25 Gb/s PAM4 = 53.125 GBd.
        let baud = BitRate::from_gbps(106.25).symbol_rate_baud(2.0);
        assert!((baud - 53.125e9).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn sum_of_lanes(n in 1usize..512, per_lane in 0.1f64..10.0) {
            let total: BitRate = (0..n).map(|_| BitRate::from_gbps(per_lane)).sum();
            prop_assert!((total.as_gbps() - n as f64 * per_lane).abs() < 1e-6);
        }
    }
}
