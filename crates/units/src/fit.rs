//! Failure rates in FIT (Failures In Time).
//!
//! 1 FIT = 1 failure per 10⁹ device-hours, the standard unit for component
//! reliability in transceiver datasheets. The reliability crate builds
//! Markov and Monte-Carlo models on top of these values; here we keep the
//! unit itself and the standard conversions (MTBF, AFR, survival
//! probability under the exponential-lifetime assumption).

use crate::time::{Duration, HOURS_PER_YEAR};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, Mul};

/// A failure rate expressed in FIT (failures per 10⁹ hours).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Fit(f64);

impl Fit {
    /// Zero failure rate (an idealization; useful for passive media).
    pub const ZERO: Fit = Fit(0.0);

    /// Construct from a FIT value.
    pub const fn new(fit: f64) -> Self {
        Fit(fit)
    }

    /// The raw FIT value.
    pub const fn as_fit(self) -> f64 {
        self.0
    }

    /// Failure rate λ in failures per hour.
    pub fn per_hour(self) -> f64 {
        self.0 * 1e-9
    }

    /// Annualized failure rate: expected failures per device-year.
    ///
    /// For small rates this approximates the probability of at least one
    /// failure in a year; we return the exact exponential form via
    /// [`Fit::failure_prob`] when a probability is needed.
    pub fn afr(self) -> f64 {
        self.per_hour() * HOURS_PER_YEAR
    }

    /// Probability the component has failed by time `t`, assuming an
    /// exponential lifetime (constant hazard), i.e. `1 - exp(-λ t)`.
    pub fn failure_prob(self, t: Duration) -> f64 {
        1.0 - (-self.per_hour() * t.as_hours()).exp()
    }

    /// Probability the component is still alive at time `t`.
    pub fn survival_prob(self, t: Duration) -> f64 {
        1.0 - self.failure_prob(t)
    }
}

/// Adding FITs = series system (any component failing fails the system).
impl Add for Fit {
    type Output = Fit;
    fn add(self, rhs: Fit) -> Fit {
        Fit(self.0 + rhs.0)
    }
}

impl Mul<f64> for Fit {
    type Output = Fit;
    fn mul(self, rhs: f64) -> Fit {
        Fit(self.0 * rhs)
    }
}

impl Sum for Fit {
    fn sum<I: Iterator<Item = Fit>>(iter: I) -> Fit {
        iter.fold(Fit::ZERO, Add::add)
    }
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} FIT", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn afr_of_typical_laser() {
        // A 500 FIT laser: AFR ≈ 0.44% per year.
        let afr = Fit::new(500.0).afr();
        assert!((afr - 0.00438).abs() < 1e-4);
    }

    #[test]
    fn survival_plus_failure_is_one() {
        let fit = Fit::new(250.0);
        let t = Duration::from_years(7.0);
        assert!((fit.survival_prob(t) + fit.failure_prob(t) - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn series_fit_survival_multiplies(a in 1f64..5000.0, b in 1f64..5000.0, years in 0.1f64..20.0) {
            // Survival of a series system = product of component survivals;
            // equivalently FITs add. Check the two formulations agree.
            let t = Duration::from_years(years);
            let series = Fit::new(a) + Fit::new(b);
            let product = Fit::new(a).survival_prob(t) * Fit::new(b).survival_prob(t);
            prop_assert!((series.survival_prob(t) - product).abs() < 1e-9);
        }

        #[test]
        fn failure_prob_monotone_in_time(fit in 1f64..10000.0, y1 in 0.1f64..10.0, y2 in 0.1f64..10.0) {
            let f = Fit::new(fit);
            let (lo, hi) = if y1 < y2 { (y1, y2) } else { (y2, y1) };
            prop_assert!(f.failure_prob(Duration::from_years(lo)) <= f.failure_prob(Duration::from_years(hi)) + 1e-15);
        }
    }
}
