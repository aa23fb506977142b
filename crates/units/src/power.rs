//! Absolute power levels (electrical or optical), linear and dBm views.

use crate::{BitRate, Db, EnergyPerBit};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute power level, stored internally in watts.
///
/// Used for both electrical dissipation (module power budgets) and optical
/// signal levels (launch/received power). The dBm view is provided for the
/// optical-budget use case: `0 dBm = 1 mW`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Power(f64);

impl Power {
    /// Exactly zero power.
    pub const ZERO: Power = Power(0.0);

    /// Construct from watts.
    pub const fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Construct from milliwatts.
    pub const fn from_mw(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Construct from a dBm level (`0 dBm = 1 mW`).
    pub fn from_dbm(dbm: f64) -> Self {
        Power(1e-3 * 10f64.powf(dbm / 10.0))
    }

    /// Power in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// Power as a dBm level.
    ///
    /// # Panics
    /// Panics on non-positive power — zero watts has no dBm representation;
    /// check with [`Power::is_zero`] first if that is a legitimate state.
    pub fn as_dbm(self) -> f64 {
        assert!(
            self.0 > 0.0,
            "cannot express non-positive power ({} W) in dBm",
            self.0
        );
        10.0 * (self.0 / 1e-3).log10()
    }

    /// True if exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Apply a gain or loss expressed in dB.
    pub fn apply(self, gain: Db) -> Power {
        Power(self.0 * gain.as_linear())
    }

    /// The ratio of this power to another, in dB.
    pub fn ratio_to(self, other: Power) -> Db {
        Db::from_linear(self.0 / other.0)
    }

    /// Energy efficiency when delivering `rate` bits per second.
    pub fn per_bit(self, rate: BitRate) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.0 / rate.as_bps())
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

/// Power divided by power yields a plain ratio.
impl Div<Power> for Power {
    type Output = f64;
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w == 0.0 {
            write!(f, "0 W")
        } else if w.abs() >= 1.0 {
            write!(f, "{w:.3} W")
        } else if w.abs() >= 1e-3 {
            write!(f, "{:.3} mW", w * 1e3)
        } else {
            write!(f, "{:.3} µW", w * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dbm_anchors() {
        assert!((Power::from_dbm(0.0).as_watts() - 1e-3).abs() < 1e-15);
        assert!((Power::from_dbm(10.0).as_watts() - 1e-2).abs() < 1e-12);
        assert!((Power::from_dbm(-30.0).as_watts() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn apply_loss_budget() {
        // -3 dBm launch, 10 dB of loss => -13 dBm received.
        let rx = Power::from_dbm(-3.0).apply(Db::new(-10.0));
        assert!((rx.as_dbm() + 13.0).abs() < 1e-9);
    }

    #[test]
    fn energy_per_bit() {
        // 1 W at 100 Gb/s = 10 pJ/bit.
        let e = Power::from_watts(1.0).per_bit(BitRate::from_gbps(100.0));
        assert!((e.as_pj_per_bit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Power::from_watts(2.5)), "2.500 W");
        assert_eq!(format!("{}", Power::from_mw(2.5)), "2.500 mW");
        assert_eq!(format!("{}", Power::from_mw(2.5e-3)), "2.500 µW");
    }

    proptest! {
        #[test]
        fn dbm_roundtrip(dbm in -60f64..30.0) {
            let p = Power::from_dbm(dbm);
            prop_assert!((p.as_dbm() - dbm).abs() < 1e-9);
        }

        #[test]
        fn ratio_then_apply_recovers(a in 1e-9f64..10.0, b in 1e-9f64..10.0) {
            let pa = Power::from_watts(a);
            let pb = Power::from_watts(b);
            let r = pa.ratio_to(pb);
            let back = pb.apply(r);
            prop_assert!((back.as_watts() / a - 1.0).abs() < 1e-9);
        }
    }
}
