//! Weibull (wear-out) lifetimes — the ablation on the exponential
//! assumption.
//!
//! Constant-hazard (exponential) lifetimes flatter wear-out-prone parts:
//! a laser's facet degradation accelerates with age, so its hazard rises
//! (Weibull shape k > 1). LEDs, with no facets and low current density,
//! stay close to k ≈ 1. This module quantifies how much the exponential
//! simplification under- or over-states pool survival.

use crate::montecarlo::pool_survivors;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_units::{Duration, Fit};

/// A Weibull lifetime distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Shape parameter k (> 0): k = 1 is exponential, k > 1 is wear-out,
    /// k < 1 infant mortality.
    pub shape: f64,
    /// Scale parameter η in hours (the 63.2 % failure point).
    pub scale_hours: f64,
}

impl Weibull {
    /// The Weibull with shape `k` whose failure probability at `horizon`
    /// matches a constant-rate component of the given FIT — i.e. the
    /// wear-out curve a datasheet FIT (quoted over a design life) actually
    /// implies if the part ages.
    pub fn matching_fit_at(fit: Fit, shape: f64, horizon: Duration) -> Self {
        assert!(shape > 0.0);
        let p_fail = fit.failure_prob(horizon);
        assert!(p_fail > 0.0 && p_fail < 1.0, "degenerate calibration point");
        // 1 − exp(−(t/η)^k) = p ⇒ η = t / (−ln(1−p))^{1/k}
        let t = horizon.as_hours();
        let eta = t / (-(1.0 - p_fail).ln()).powf(1.0 / shape);
        Weibull {
            shape,
            scale_hours: eta,
        }
    }

    /// Survival probability at time `t`.
    pub fn survival(&self, t: Duration) -> f64 {
        (-(t.as_hours() / self.scale_hours).powf(self.shape)).exp()
    }

    /// Failure probability at time `t`.
    pub fn failure_prob(&self, t: Duration) -> f64 {
        1.0 - self.survival(t)
    }
}

/// Closed-form survival of a k-of-n pool with Weibull channel lifetimes
/// (no repair): each channel independently survives the horizon with
/// probability `1 − failure_prob(horizon)`, so the pool survival is the
/// exact binomial sum [`crate::system::binomial_survival`] — the same
/// quantity [`pool_survival_weibull_with`] estimates by sampling, and
/// the reference its tests compare that estimate with.
pub fn pool_survival_weibull_analytic(
    k: usize,
    n: usize,
    lifetime: Weibull,
    horizon: Duration,
) -> f64 {
    crate::system::binomial_survival(k, n, 1.0 - lifetime.failure_prob(horizon))
}

/// Monte-Carlo survival of a k-of-n pool with Weibull channel lifetimes
/// (no repair) on `exec`: the pool dies when more than `n − k` channels
/// have failed by the horizon. Trials are split into fixed
/// [`POOL_CHUNK_TRIALS`](crate::montecarlo::POOL_CHUNK_TRIALS)-sized
/// tasks (streams labelled `"weibull-pool"`), so the result is
/// thread-count invariant.
pub fn pool_survival_weibull_with(
    exec: &Exec,
    k: usize,
    n: usize,
    lifetime: Weibull,
    horizon: Duration,
    trials: u64,
    seed: u64,
) -> f64 {
    assert!(k >= 1 && k <= n);
    let p_fail = lifetime.failure_prob(horizon);
    let plan = TrialPlan::new().seed(seed).label("weibull-pool");
    let survived = pool_survivors(exec, plan, n, n - k, p_fail, trials);
    survived as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::POOL_CHUNK_TRIALS;
    use crate::system::KofN;
    use proptest::prelude::*;

    #[test]
    fn analytic_pool_is_the_monte_carlo_mean() {
        // The binomial closed form and the Bernoulli-sampling estimator
        // target the same quantity; 200k trials pins them to ~3 sigma.
        let horizon = Duration::from_years(12.0);
        let lt = Weibull::matching_fit_at(Fit::new(2000.0), 2.5, Duration::from_years(7.0));
        let mc = pool_survival_weibull_with(&Exec::from_env(), 40, 44, lt, horizon, 200_000, 9);
        let analytic = pool_survival_weibull_analytic(40, 44, lt, horizon);
        assert!(
            (mc - analytic).abs() < 0.005,
            "mc {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn shape_one_is_exponential() {
        let fit = Fit::new(1000.0);
        let horizon = Duration::from_years(7.0);
        let w = Weibull::matching_fit_at(fit, 1.0, horizon);
        for years in [1.0, 3.0, 7.0, 12.0] {
            let t = Duration::from_years(years);
            assert!(
                (w.survival(t) - fit.survival_prob(t)).abs() < 1e-9,
                "k=1 must reproduce the exponential at {years} yr"
            );
        }
    }

    #[test]
    fn calibration_point_matches_by_construction() {
        let fit = Fit::new(500.0);
        let horizon = Duration::from_years(7.0);
        for shape in [0.7, 1.0, 2.0, 3.5] {
            let w = Weibull::matching_fit_at(fit, shape, horizon);
            assert!(
                (w.failure_prob(horizon) - fit.failure_prob(horizon)).abs() < 1e-9,
                "shape {shape}"
            );
        }
    }

    #[test]
    fn wearout_is_kind_early_and_cruel_late() {
        let fit = Fit::new(2000.0);
        let horizon = Duration::from_years(7.0);
        let expo = Weibull::matching_fit_at(fit, 1.0, horizon);
        let wear = Weibull::matching_fit_at(fit, 2.5, horizon);
        // Before the calibration point: fewer failures than exponential.
        let early = Duration::from_years(2.0);
        assert!(wear.survival(early) > expo.survival(early));
        // After it: more.
        let late = Duration::from_years(12.0);
        assert!(wear.survival(late) < expo.survival(late));
    }

    #[test]
    fn pool_mc_matches_binomial_closed_form() {
        // The Weibull pool at its own p_fail must match KofN evaluated at
        // an equivalent per-channel failure probability.
        let horizon = Duration::from_years(7.0);
        let fit = Fit::new(3000.0);
        let w = Weibull::matching_fit_at(fit, 1.0, horizon);
        let mc = pool_survival_weibull_with(&Exec::from_env(), 40, 43, w, horizon, 200_000, 4);
        let closed = KofN::new(40, 43, fit).survival(horizon);
        assert!((mc - closed).abs() < 0.005, "mc {mc} vs closed {closed}");
    }

    #[test]
    fn wearout_pool_needs_the_same_spares_inside_design_life() {
        // Within the calibrated horizon, wear-out parts fail *less* early,
        // so the exponential sparing plan is conservative — an important
        // sanity result for the Mosaic sparing table.
        let horizon = Duration::from_years(7.0);
        let fit = Fit::new(2000.0);
        let expo = pool_survival_weibull_with(
            &Exec::from_env(),
            100,
            104,
            Weibull::matching_fit_at(fit, 1.0, horizon),
            horizon,
            100_000,
            5,
        );
        let wear = pool_survival_weibull_with(
            &Exec::from_env(),
            100,
            104,
            Weibull::matching_fit_at(fit, 2.5, horizon),
            horizon,
            100_000,
            5,
        );
        // Same failure prob at the horizon ⇒ same pool survival at the
        // horizon (the pool only sees the marginal p_fail there).
        assert!((expo - wear).abs() < 0.01, "expo {expo} wear {wear}");
    }

    #[test]
    fn weibull_pool_is_thread_count_invariant() {
        let horizon = Duration::from_years(7.0);
        let w = Weibull::matching_fit_at(Fit::new(3000.0), 2.0, horizon);
        let trials = 2 * POOL_CHUNK_TRIALS + 99;
        let s1 = pool_survival_weibull_with(&Exec::with_threads(1), 40, 43, w, horizon, trials, 4);
        let s8 = pool_survival_weibull_with(&Exec::with_threads(8), 40, 43, w, horizon, trials, 4);
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    proptest! {
        #[test]
        fn survival_monotone_decreasing(shape in 0.5f64..4.0, y1 in 0.1f64..20.0, y2 in 0.1f64..20.0) {
            let w = Weibull { shape, scale_hours: 1e6 };
            let (lo, hi) = if y1 < y2 { (y1, y2) } else { (y2, y1) };
            prop_assert!(
                w.survival(Duration::from_years(lo)) + 1e-12
                    >= w.survival(Duration::from_years(hi))
            );
        }
    }
}
