//! Dimensionless logarithmic ratios (dB).
//!
//! A [`Db`] is a *ratio*, not an absolute level: gains, losses, penalties and
//! margins. Absolute optical/electrical levels live in
//! [`Power`](crate::Power) (which knows about dBm).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A power ratio expressed in decibels: `db = 10·log10(linear)`.
///
/// Positive values are gains, negative values are losses. Adding two `Db`
/// values corresponds to multiplying the underlying linear ratios, which is
/// exactly how cascaded link-budget stages compose.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Db(f64);

impl Db {
    /// Zero dB: the identity ratio (×1).
    pub const ZERO: Db = Db(0.0);

    /// Construct from a value already in dB.
    pub const fn new(db: f64) -> Self {
        Db(db)
    }

    /// Construct from a linear power ratio (> 0).
    ///
    /// # Panics
    /// Panics if `ratio` is not finite and positive — a non-positive power
    /// ratio has no dB representation and always indicates a bug upstream.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "dB ratio must be finite and positive, got {ratio}"
        );
        Db(10.0 * ratio.log10())
    }

    /// The raw dB value.
    pub const fn as_db(self) -> f64 {
        self.0
    }

    /// Convert back to a linear power ratio.
    pub fn as_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// A loss is a gain with the sign flipped; this helper makes call sites
    /// read naturally: `budget - fiber.loss().as_db()`.
    pub fn invert(self) -> Self {
        Db(-self.0)
    }

    /// Clamp to a maximum.
    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

/// Scaling a dB value by a scalar corresponds to raising the linear ratio to
/// a power — e.g. per-metre attenuation times a length.
impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, Add::add)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn three_db_is_a_factor_of_two() {
        assert!((Db::new(3.0103).as_linear() - 2.0).abs() < 1e-3);
        assert!((Db::from_linear(2.0).as_db() - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn adding_db_multiplies_ratios() {
        let a = Db::from_linear(4.0);
        let b = Db::from_linear(2.5);
        assert!(((a + b).as_linear() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn loss_detection() {
        assert!(Db::new(-0.5).invert().as_db() > 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_linear_ratio_panics() {
        let _ = Db::from_linear(-1.0);
    }

    #[test]
    fn per_metre_scaling() {
        // 0.2 dB/m over 50 m = 10 dB.
        let total = Db::new(-0.2) * 50.0;
        assert!((total.as_db() + 10.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn roundtrip_linear(ratio in 1e-12f64..1e12) {
            let db = Db::from_linear(ratio);
            let back = db.as_linear();
            prop_assert!((back / ratio - 1.0).abs() < 1e-9);
        }

        #[test]
        fn addition_is_multiplication(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
            let sum = Db::from_linear(a) + Db::from_linear(b);
            prop_assert!((sum.as_linear() / (a * b) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn sum_matches_fold(values in proptest::collection::vec(-30f64..30.0, 0..16)) {
            let total: Db = values.iter().map(|&v| Db::new(v)).sum();
            let expect: f64 = values.iter().sum();
            prop_assert!((total.as_db() - expect).abs() < 1e-9);
        }
    }
}
