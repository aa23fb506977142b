//! Series budgets and k-of-n redundancy blocks (closed form, no repair).

use mosaic_fec::analysis::ln_choose;
use mosaic_units::{Duration, Fit};

/// A series reliability budget: every component must work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesBudget {
    items: Vec<(String, Fit, usize)>,
}

impl SeriesBudget {
    /// An empty budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` components of a class.
    pub fn add(mut self, name: &str, fit: Fit, count: usize) -> Self {
        self.items.push((name.to_string(), fit, count));
        self
    }

    /// Total FIT (series: rates add).
    pub fn total(&self) -> Fit {
        self.items.iter().map(|&(_, f, c)| f * c as f64).sum()
    }
}

/// `P(alive ≥ k)` for `n` independent channels each alive with
/// probability `p_alive`: the log-domain binomial sum shared by
/// [`KofN::survival`] (exponential lifetimes) and the Weibull pool
/// closed form. This is the *exact* mean of the Monte-Carlo pool
/// estimators (which draw per-channel Bernoulli failures and count
/// survivors), the reference their tests compare against.
pub fn binomial_survival(k: usize, n: usize, p_alive: f64) -> f64 {
    let p = p_alive;
    if p == 1.0 {
        return 1.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for alive in k..=n {
        let ln = ln_choose(n, alive) + alive as f64 * p.ln() + (n - alive) as f64 * (1.0 - p).ln();
        total += ln.exp();
    }
    total.min(1.0)
}

/// A k-of-n block: `n` identical channels, the block works while at least
/// `k` are alive. No repair (closed-form binomial).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KofN {
    /// Channels required.
    pub k: usize,
    /// Channels provisioned.
    pub n: usize,
    /// Per-channel failure rate.
    pub channel_fit: Fit,
}

impl KofN {
    /// Construct; `k ≤ n`, both non-zero.
    pub fn new(k: usize, n: usize, channel_fit: Fit) -> Self {
        assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n, got k={k} n={n}");
        KofN { k, n, channel_fit }
    }

    /// Probability the block is alive at `t`: `P(alive ≥ k)` with each
    /// channel surviving independently (log-domain binomial sum).
    pub fn survival(&self, t: Duration) -> f64 {
        binomial_survival(self.k, self.n, self.channel_fit.survival_prob(t))
    }

    /// Effective FIT over a horizon: the constant rate that would produce
    /// the same failure probability at `t`. Useful for comparing a spared
    /// block against simple series budgets.
    pub fn effective_fit(&self, t: Duration) -> Fit {
        let s = self.survival(t).max(1e-300);
        let lambda_per_hour = -s.ln() / t.as_hours();
        Fit::new(lambda_per_hour * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn series_budget_adds_up() {
        let b = SeriesBudget::new()
            .add("laser", Fit::new(100.0), 8)
            .add("dsp", Fit::new(100.0), 1)
            .add("tia", Fit::new(15.0), 8);
        assert!((b.total().as_fit() - (800.0 + 100.0 + 120.0)).abs() < 1e-9);
    }

    #[test]
    fn n_of_n_equals_series() {
        let t = Duration::from_years(7.0);
        let block = KofN::new(8, 8, Fit::new(100.0));
        let series = Fit::new(800.0).survival_prob(t);
        assert!((block.survival(t) - series).abs() < 1e-12);
    }

    #[test]
    fn one_spare_helps_enormously() {
        let t = Duration::from_years(7.0);
        let none = 1.0 - KofN::new(400, 400, Fit::new(20.0)).survival(t);
        let spared = 1.0 - KofN::new(400, 408, Fit::new(20.0)).survival(t);
        assert!(none > 0.3, "unspared 400-wide link is fragile");
        assert!(spared < none / 100.0, "8 spares: {spared} vs {none}");
    }

    #[test]
    fn effective_fit_of_spared_mosaic_beats_laser_module() {
        // C3 core check: 400 active + 8 spare LED channels at 20 FIT per
        // channel vs a DR8's 8×100 FIT of lasers alone.
        let t = Duration::from_years(7.0);
        let mosaic_channels = KofN::new(400, 408, Fit::new(20.0));
        let laser_bank = Fit::new(800.0);
        assert!(
            mosaic_channels.effective_fit(t).as_fit() < laser_bank.as_fit() / 5.0,
            "spared channels: {}",
            mosaic_channels.effective_fit(t)
        );
    }

    proptest! {
        #[test]
        fn more_spares_never_hurt(k in 1usize..50, extra1 in 0usize..10, extra2 in 0usize..10) {
            let (lo, hi) = if extra1 < extra2 { (extra1, extra2) } else { (extra2, extra1) };
            let t = Duration::from_years(5.0);
            let few = KofN::new(k, k + lo, Fit::new(50.0));
            let many = KofN::new(k, k + hi, Fit::new(50.0));
            prop_assert!(many.survival(t) + 1e-12 >= few.survival(t));
        }

        #[test]
        fn survival_decreases_with_time(k in 1usize..30, n_extra in 0usize..5, y1 in 0.1f64..10.0, y2 in 0.1f64..10.0) {
            let block = KofN::new(k, k + n_extra, Fit::new(100.0));
            let (lo, hi) = if y1 < y2 { (y1, y2) } else { (y2, y1) };
            prop_assert!(
                block.survival(Duration::from_years(lo)) + 1e-12
                    >= block.survival(Duration::from_years(hi))
            );
        }

        #[test]
        fn survival_bounded(k in 1usize..20, extra in 0usize..6, years in 0.1f64..20.0) {
            let s = KofN::new(k, k + extra, Fit::new(200.0)).survival(Duration::from_years(years));
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
