//! Energy efficiency (energy per transmitted bit).

use crate::{BitRate, Power};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, Div, Mul, Sub};

/// Energy spent per bit, stored in joules per bit.
///
/// The link-technology literature quotes this in pJ/bit; a first-class type
/// prevents the classic pJ-vs-mW-per-Gbps confusion (they are numerically
/// equal, which makes silent unit errors especially easy).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct EnergyPerBit(f64);

impl EnergyPerBit {
    /// Zero energy per bit.
    pub const ZERO: EnergyPerBit = EnergyPerBit(0.0);

    /// Construct from joules per bit.
    pub const fn from_joules_per_bit(j: f64) -> Self {
        EnergyPerBit(j)
    }

    /// Construct from picojoules per bit.
    pub const fn from_pj_per_bit(pj: f64) -> Self {
        EnergyPerBit(pj * 1e-12)
    }

    /// Energy in picojoules per bit.
    pub fn as_pj_per_bit(self) -> f64 {
        self.0 * 1e12
    }

    /// The power drawn when running at `rate`.
    pub fn power_at(self, rate: BitRate) -> Power {
        Power::from_watts(self.0 * rate.as_bps())
    }
}

impl Add for EnergyPerBit {
    type Output = EnergyPerBit;
    fn add(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 + rhs.0)
    }
}

impl Sub for EnergyPerBit {
    type Output = EnergyPerBit;
    fn sub(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 - rhs.0)
    }
}

impl Mul<f64> for EnergyPerBit {
    type Output = EnergyPerBit;
    fn mul(self, rhs: f64) -> EnergyPerBit {
        EnergyPerBit(self.0 * rhs)
    }
}

impl Div<f64> for EnergyPerBit {
    type Output = EnergyPerBit;
    fn div(self, rhs: f64) -> EnergyPerBit {
        EnergyPerBit(self.0 / rhs)
    }
}

impl Sum for EnergyPerBit {
    fn sum<I: Iterator<Item = EnergyPerBit>>(iter: I) -> EnergyPerBit {
        iter.fold(EnergyPerBit::ZERO, Add::add)
    }
}

impl fmt::Display for EnergyPerBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} pJ/bit", self.as_pj_per_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pj_per_bit_equals_mw_per_gbps() {
        // 5 pJ/bit at 100 Gb/s = 500 mW.
        let p = EnergyPerBit::from_pj_per_bit(5.0).power_at(BitRate::from_gbps(100.0));
        assert!((p.as_watts() - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn power_roundtrip(pj in 0.01f64..100.0, gbps in 0.1f64..2000.0) {
            let rate = BitRate::from_gbps(gbps);
            let e = EnergyPerBit::from_pj_per_bit(pj);
            let back = e.power_at(rate).per_bit(rate);
            prop_assert!((back.as_pj_per_bit() / pj - 1.0).abs() < 1e-9);
        }
    }
}
