//! Birth-death Markov chains for spared channel pools.
//!
//! State = number of failed channels. Failures arrive at `(alive)·λ`;
//! repairs (if any) complete at `(failed)·µ`. Two questions:
//!
//! * **Survival without/with repair** — transient probability that the
//!   pool has never dropped below `k` alive channels by time `t`
//!   (the below-`k` state is absorbing). Solved by uniformization.
//! * **Steady-state availability with repair** — long-run fraction of time
//!   at least `k` channels are alive (no absorbing state). Closed-form
//!   birth-death balance equations.

use mosaic_fec::analysis::ln_gamma;
use mosaic_units::{Duration, Fit};

/// A pool of `n` identical channels needing `k` alive, with optional
/// repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparedPool {
    /// Channels required for service.
    pub k: usize,
    /// Channels provisioned.
    pub n: usize,
    /// Per-channel failure rate.
    pub channel_fit: Fit,
    /// Repair completions per failed channel per hour (0 = no repair).
    pub repair_per_hour: f64,
}

impl SparedPool {
    /// Construct; `1 ≤ k ≤ n`.
    pub fn new(k: usize, n: usize, channel_fit: Fit, repair_per_hour: f64) -> Self {
        assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
        assert!(repair_per_hour >= 0.0);
        SparedPool {
            k,
            n,
            channel_fit,
            repair_per_hour,
        }
    }

    /// Probability the pool has continuously maintained ≥ k alive channels
    /// up to time `t` (the first drop below k is absorbing — "the link
    /// went down", even if repair would later restore channels).
    pub fn survival(&self, t: Duration) -> f64 {
        let lam = self.channel_fit.per_hour();
        let mu = self.repair_per_hour;
        let spares = self.n - self.k;
        // States 0..=spares are "alive with f failures"; state spares+1 is
        // the absorbing down state.
        let dim = spares + 2;
        let down = spares + 1;

        // Build generator row sums for uniformization rate.
        let rate_fail = |f: usize| (self.n - f) as f64 * lam;
        let rate_repair = |f: usize| f as f64 * mu;
        let mut max_out = 0.0f64;
        for f in 0..=spares {
            max_out = max_out.max(rate_fail(f) + rate_repair(f));
        }
        if max_out == 0.0 {
            return 1.0; // no failure process at all
        }
        let big = max_out * 1.0001;
        let lt = big * t.as_hours();

        // Jump-chain step: v' = v·P with P = I + Q/big.
        let step = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; dim];
            for f in 0..=spares {
                let p_fail = rate_fail(f) / big;
                let p_rep = rate_repair(f) / big;
                let stay = 1.0 - p_fail - p_rep;
                // v and out both have dim = spares + 2 entries.
                // bound: f ≤ spares < dim
                out[f] += v[f] * stay;
                if f < spares {
                    // bound: f + 1 ≤ spares.
                    out[f + 1] += v[f] * p_fail;
                } else {
                    // bound: down = spares + 1 = dim − 1; f ≤ spares.
                    out[down] += v[f] * p_fail;
                }
                if f > 0 {
                    // bound: f − 1 < f ≤ spares.
                    out[f - 1] += v[f] * p_rep;
                }
            }
            // bound: down = dim − 1.
            out[down] += v[down]; // absorbing
            out
        };

        // Uniformization: p(t) = Σ_j Pois(lt; j) · v_j.
        let j_max = (lt + 10.0 * lt.sqrt() + 50.0).ceil() as usize;
        let mut v = vec![0.0; dim];
        v[0] = 1.0;
        let mut absorbed = 0.0f64;
        let mut weight_sum = 0.0f64;
        for j in 0..=j_max {
            let ln_w = -lt + j as f64 * lt.max(1e-300).ln() - ln_gamma(j as f64 + 1.0);
            let w = if lt == 0.0 {
                if j == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                ln_w.exp()
            };
            // bound: down = dim − 1, and every v (initial or stepped) has dim entries.
            absorbed += w * v[down];
            weight_sum += w;
            if j < j_max {
                v = step(&v);
            }
        }
        // Normalize for any truncated Poisson mass (conservative: treat
        // missing mass as behaving like the included average).
        if weight_sum > 0.0 {
            absorbed /= weight_sum;
        }
        (1.0 - absorbed).clamp(0.0, 1.0)
    }

    /// Long-run availability with repair: the steady-state probability of
    /// at least `k` alive channels in the *non-absorbing* chain (repairs
    /// continue below k; the link flaps rather than dying). Requires
    /// `repair_per_hour > 0` — without repair the chain has no steady
    /// state other than all-failed.
    pub fn availability(&self) -> f64 {
        assert!(self.repair_per_hour > 0.0, "availability requires repair");
        let lam = self.channel_fit.per_hour();
        let mu = self.repair_per_hour;
        // Birth-death over f = 0..=n: π_{f+1}/π_f = (n−f)λ / ((f+1)µ).
        let mut pi = vec![0.0f64; self.n + 1];
        pi[0] = 1.0;
        for f in 0..self.n {
            pi[f + 1] = pi[f] * ((self.n - f) as f64 * lam) / ((f + 1) as f64 * mu);
        }
        let total: f64 = pi.iter().sum();
        let up: f64 = pi[..=(self.n - self.k)].iter().sum();
        up / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::KofN;
    use proptest::prelude::*;

    #[test]
    fn no_repair_matches_binomial_closed_form() {
        let t = Duration::from_years(7.0);
        for (k, n, fit) in [(4usize, 6usize, 2000.0f64), (400, 408, 20.0), (8, 8, 100.0)] {
            let markov = SparedPool::new(k, n, Fit::new(fit), 0.0).survival(t);
            // Careful: KofN counts "≥k alive at t"; with no repair the pool
            // is monotone, so "alive at t" ⇔ "never went down" — identical.
            let closed = KofN::new(k, n, Fit::new(fit)).survival(t);
            assert!(
                (markov - closed).abs() < 1e-6,
                "k={k} n={n} fit={fit}: markov {markov} vs closed {closed}"
            );
        }
    }

    #[test]
    fn repair_improves_survival() {
        let t = Duration::from_years(7.0);
        let pool = |mu| SparedPool::new(40, 42, Fit::new(2000.0), mu);
        let none = pool(0.0).survival(t);
        let day = pool(1.0 / 24.0).survival(t);
        assert!(day > none, "repair {day} vs none {none}");
        assert!(
            day > 0.999_9,
            "daily repair should make 2 spares ample: {day}"
        );
    }

    #[test]
    fn availability_close_to_one_with_fast_repair() {
        let pool = SparedPool::new(100, 104, Fit::new(100.0), 1.0 / 24.0);
        let a = pool.availability();
        assert!(a > 0.999_999_999, "got {a}");
    }

    #[test]
    fn availability_degrades_without_spares() {
        let with = SparedPool::new(100, 104, Fit::new(5000.0), 1.0 / (30.0 * 24.0));
        let without = SparedPool::new(100, 100, Fit::new(5000.0), 1.0 / (30.0 * 24.0));
        assert!(with.availability() > without.availability());
    }

    #[test]
    fn zero_failure_rate_is_immortal() {
        let pool = SparedPool::new(10, 10, Fit::ZERO, 0.0);
        assert_eq!(pool.survival(Duration::from_years(100.0)), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn survival_in_unit_interval(
            k in 1usize..30,
            extra in 0usize..5,
            fit in 1f64..5000.0,
            years in 0.1f64..15.0,
            mu in 0f64..0.1,
        ) {
            let s = SparedPool::new(k, k + extra, Fit::new(fit), mu)
                .survival(Duration::from_years(years));
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn repair_never_hurts(
            k in 1usize..20,
            extra in 1usize..4,
            fit in 100f64..5000.0,
        ) {
            let t = Duration::from_years(7.0);
            let slow = SparedPool::new(k, k + extra, Fit::new(fit), 0.0).survival(t);
            let fast = SparedPool::new(k, k + extra, Fit::new(fit), 0.01).survival(t);
            prop_assert!(fast + 1e-9 >= slow);
        }
    }
}
