//! Monte-Carlo lifetime simulation — the independent cross-check on the
//! closed-form and Markov models.

use mosaic_sim::rng::Bernoulli;
use mosaic_sim::sweep::{chunk_count, chunk_len, Exec, TrialPlan};
use mosaic_units::{Duration, Fit};

/// Fixed Monte-Carlo chunk: trials per parallel task. A constant of the
/// module (never derived from the thread count), so the decomposition —
/// and therefore the result — is identical at every `MOSAIC_THREADS`
/// setting.
pub const POOL_CHUNK_TRIALS: u64 = 4096;

/// Result of a Monte-Carlo pool-lifetime study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolLifetime {
    /// Trials run.
    pub trials: u64,
    /// Trials in which the pool stayed up through the horizon.
    pub survived: u64,
}

impl PoolLifetime {
    /// Estimated survival probability.
    pub fn survival(&self) -> f64 {
        self.survived as f64 / self.trials as f64
    }
}

/// Simulate `trials` independent pools of `n` channels (need `k` alive,
/// per-channel rate `fit`, no repair) over `horizon` on `exec`. The pool
/// dies when the `(n−k+1)`-th channel fails. Trials are split into fixed
/// [`POOL_CHUNK_TRIALS`]-sized tasks, chunk `c` drawing from stream
/// `(seed, "pool-lifetime", c)`; survivor counts sum in chunk order, so
/// the result is thread-count invariant.
pub fn simulate_pool_no_repair_with(
    exec: &Exec,
    k: usize,
    n: usize,
    fit: Fit,
    horizon: Duration,
    trials: u64,
    seed: u64,
) -> PoolLifetime {
    assert!(k >= 1 && k <= n);
    let lam = fit.per_hour();
    if lam == 0.0 {
        return PoolLifetime {
            trials,
            survived: trials,
        };
    }
    // Each channel fails before `t` with p = 1 − e^{−λt}; order statistics
    // are not needed.
    let p_fail = 1.0 - (-lam * horizon.as_hours()).exp();
    let plan = TrialPlan::new().seed(seed).label("pool-lifetime");
    let survived = pool_survivors(exec, plan, n, n - k, p_fail, trials);
    PoolLifetime { trials, survived }
}

/// The k-of-n no-repair sampler behind [`simulate_pool_no_repair_with`]
/// and [`crate::weibull::pool_survival_weibull_with`]: how many of
/// `trials` pools of `n` channels, each failing by the horizon with
/// probability `p_fail`, lose at most `spares` channels. `plan` carries
/// the caller's seed and stream label; the trials run as fixed
/// [`POOL_CHUNK_TRIALS`]-sized tasks, chunk `c` drawing from stream
/// `(seed, label, c)`.
pub(crate) fn pool_survivors(
    exec: &Exec,
    plan: TrialPlan,
    n: usize,
    spares: usize,
    p_fail: f64,
    trials: u64,
) -> u64 {
    // Hoisted once per sweep config: the inner loop below runs
    // trials × n times and must do no per-draw float preparation.
    let fail = Bernoulli::new(p_fail);
    plan.trials(chunk_count(trials, POOL_CHUNK_TRIALS))
        .sum(exec, |ctx| {
            let mut rng = ctx.rng();
            let mut survived = 0u64;
            for _ in 0..chunk_len(ctx.trial(), trials, POOL_CHUNK_TRIALS) {
                // 64 channels per decision word; draw-for-draw identical to
                // the sequential per-channel loop (see `Bernoulli::at_most`).
                if fail.at_most(n, spares, &mut rng) {
                    survived += 1;
                }
            }
            survived
        })
}

/// Simulate with repair on `exec`: event-driven per trial. Failures ~
/// Exp((alive)·λ); repairs ~ Exp((failed)·µ). The trial fails when
/// alive < k at any time. Same fixed-chunk decomposition as
/// [`simulate_pool_no_repair_with`] (streams labelled `"pool-repair"`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_pool_with_repair_with(
    exec: &Exec,
    k: usize,
    n: usize,
    fit: Fit,
    repair_per_hour: f64,
    horizon: Duration,
    trials: u64,
    seed: u64,
) -> PoolLifetime {
    assert!(k >= 1 && k <= n);
    assert!(repair_per_hour >= 0.0);
    let lam = fit.per_hour();
    let horizon_h = horizon.as_hours();
    let chunks = chunk_count(trials, POOL_CHUNK_TRIALS);
    let survived = TrialPlan::new()
        .trials(chunks)
        .seed(seed)
        .label("pool-repair")
        .sum(exec, |ctx| {
            let mut rng = ctx.rng();
            let c = ctx.trial();
            let mut survived = 0u64;
            for _ in 0..chunk_len(c, trials, POOL_CHUNK_TRIALS) {
                let mut t = 0.0f64;
                let mut failed = 0usize;
                let ok = loop {
                    let rate_fail = (n - failed) as f64 * lam;
                    let rate_rep = failed as f64 * repair_per_hour;
                    let total = rate_fail + rate_rep;
                    if total == 0.0 {
                        break true;
                    }
                    t += rng.exponential(total);
                    if t >= horizon_h {
                        break true;
                    }
                    if rng.chance(rate_fail / total) {
                        failed += 1;
                        if n - failed < k {
                            break false;
                        }
                    } else {
                        failed -= 1;
                    }
                };
                if ok {
                    survived += 1;
                }
            }
            survived
        });
    PoolLifetime { trials, survived }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::SparedPool;
    use crate::system::KofN;

    #[test]
    fn no_repair_matches_closed_form() {
        let t = Duration::from_years(7.0);
        let (k, n, fit) = (40, 44, Fit::new(2000.0));
        let mc = simulate_pool_no_repair_with(&Exec::from_env(), k, n, fit, t, 200_000, 3);
        let closed = KofN::new(k, n, fit).survival(t);
        let err = (mc.survival() - closed).abs();
        assert!(err < 0.005, "mc {} vs closed {closed}", mc.survival());
    }

    #[test]
    fn with_repair_matches_markov() {
        let t = Duration::from_years(7.0);
        // High failure rate + slow repair so the answer is far from 1 and
        // statistics converge quickly.
        let (k, n, fit, mu) = (10, 12, Fit::new(200_000.0), 1.0 / (90.0 * 24.0));
        let mc = simulate_pool_with_repair_with(&Exec::from_env(), k, n, fit, mu, t, 100_000, 5);
        let markov = SparedPool::new(k, n, fit, mu).survival(t);
        let err = (mc.survival() - markov).abs();
        assert!(err < 0.01, "mc {} vs markov {markov}", mc.survival());
    }

    #[test]
    fn repair_mc_reduces_to_no_repair_mc() {
        let t = Duration::from_years(5.0);
        let (k, n, fit) = (20, 22, Fit::new(50_000.0));
        let a = simulate_pool_with_repair_with(&Exec::from_env(), k, n, fit, 0.0, t, 60_000, 9);
        let b = simulate_pool_no_repair_with(&Exec::from_env(), k, n, fit, t, 60_000, 9);
        assert!((a.survival() - b.survival()).abs() < 0.01);
    }

    #[test]
    fn deterministic() {
        let t = Duration::from_years(7.0);
        let a =
            simulate_pool_no_repair_with(&Exec::from_env(), 4, 6, Fit::new(10_000.0), t, 10_000, 1);
        let b =
            simulate_pool_no_repair_with(&Exec::from_env(), 4, 6, Fit::new(10_000.0), t, 10_000, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_sims_are_thread_count_invariant() {
        let t = Duration::from_years(7.0);
        let (k, n, fit) = (10, 12, Fit::new(100_000.0));
        // Non-multiple of the chunk size to exercise the short tail chunk.
        let trials = 3 * POOL_CHUNK_TRIALS + 777;
        let a1 = simulate_pool_no_repair_with(&Exec::with_threads(1), k, n, fit, t, trials, 21);
        let a8 = simulate_pool_no_repair_with(&Exec::with_threads(8), k, n, fit, t, trials, 21);
        assert_eq!(a1, a8);
        let mu = 1.0 / (90.0 * 24.0);
        let b1 =
            simulate_pool_with_repair_with(&Exec::with_threads(1), k, n, fit, mu, t, trials, 21);
        let b8 =
            simulate_pool_with_repair_with(&Exec::with_threads(8), k, n, fit, mu, t, trials, 21);
        assert_eq!(b1, b8);
    }
}
