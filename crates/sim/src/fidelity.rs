//! Adaptive-fidelity Monte-Carlo engine (DESIGN §12).
//!
//! Every Monte-Carlo figure in this repo burns most of its budget where
//! the answer is already known: far above the KP4 threshold the analytic
//! model is orders of magnitude more accurate than any affordable trial
//! count, and far below it no affordable trial count observes a single
//! event. This module gives each measurement three resolutions and a
//! controller that picks between them:
//!
//! - [`Tier::Analytic`] — the closed-form model value. For estimators
//!   whose analytic form is the *exact* mean of the Monte-Carlo
//!   estimator ([`Exactness::Exact`], e.g. the binomial pool-survival
//!   sum), this is a strict improvement at zero trials. For estimators
//!   where the closed form shares the model but the kernel is an
//!   independent implementation ([`Exactness::Model`]), it is used only
//!   when the operating point is far from the decision threshold.
//! - [`Tier::FullMc`] — the ordinary bit-exact Monte-Carlo kernel, kept
//!   wherever the measurement is near the decision threshold, at a
//!   budget adapted to observe [`FidelityController::events_target`]
//!   events rather than a fixed trial count.
//! - [`Tier::TailMc`] — rare-event estimation by exponentially tilted
//!   importance sampling on stratified [`DetRng`] substreams
//!   ([`TailBer`]): unbiased estimates of BERs far below 1e-12 from a
//!   few hundred thousand draws, where naive sampling would need 1e13.
//!
//! # Determinism
//!
//! Tier selection ([`FidelityController::classify`]) is a pure function
//! of the assessment — itself derived from `(config, seed)` — and never
//! consults the thread count, wall clock, or partial results. Every
//! tier's estimator runs on counter-derived substreams with fixed batch
//! decomposition and folds partial sums in batch order, so adaptive
//! results are bit-identical at every `MOSAIC_THREADS` setting, exactly
//! like full-fidelity results (DESIGN §4).
//!
//! # Modes
//!
//! [`FidelityMode::Full`] (the default) keeps every call site on its
//! historic full-budget path — committed `results/` stay byte-identical.
//! [`FidelityMode::Adaptive`] (opt-in via `MOSAIC_FIDELITY=adaptive` or
//! `run_all --fidelity=adaptive`) lets the controller spend trials where
//! they buy information; the CI fidelity gate checks that every figure
//! value stays within the declared confidence tolerance of the
//! full-fidelity run.

use crate::montecarlo::SlicerPoint;
use crate::rng::DetRng;
use crate::sweep::{Exec, TrialPlan};

/// Environment variable selecting the fidelity mode (`full` | `adaptive`).
pub const FIDELITY_ENV: &str = "MOSAIC_FIDELITY";

/// Importance-sampling batches per tail estimate (fixed decomposition —
/// never derived from the thread count).
pub const TAIL_BATCHES: u64 = 64;

/// Tilted draws per side per batch in a tail estimate.
pub const TAIL_DRAWS_PER_BATCH: u32 = 4096;

/// Global fidelity mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityMode {
    /// Historic behavior: every measurement at its full trial budget.
    #[default]
    Full,
    /// Controller-directed: analytic fast path, adapted Monte-Carlo
    /// budgets, and tail sampling, per [`FidelityController::classify`].
    Adaptive,
}

impl FidelityMode {
    /// Parse a mode name (`"full"` / `"adaptive"`).
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "full" => Some(FidelityMode::Full),
            "adaptive" => Some(FidelityMode::Adaptive),
            _ => None,
        }
    }

    /// Read the mode from [`FIDELITY_ENV`]; unset or unrecognized values
    /// fall back to [`FidelityMode::Full`] — full fidelity is always the
    /// safe default.
    pub fn from_env() -> FidelityMode {
        std::env::var(FIDELITY_ENV)
            .ok()
            .and_then(|v| FidelityMode::parse(&v))
            .unwrap_or(FidelityMode::Full)
    }

    /// Short name (`"full"` / `"adaptive"`), e.g. for manifests.
    pub fn name(self) -> &'static str {
        match self {
            FidelityMode::Full => "full",
            FidelityMode::Adaptive => "adaptive",
        }
    }

    /// Convenience: is this the adaptive mode?
    pub fn is_adaptive(self) -> bool {
        self == FidelityMode::Adaptive
    }
}

/// The resolution a measurement runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Closed-form model value, zero trials.
    Analytic,
    /// Full Monte-Carlo kernel (possibly at an adapted budget).
    FullMc,
    /// Importance-sampled rare-event estimate.
    TailMc,
}

impl Tier {
    /// Short name for telemetry and table annotations.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Analytic => "analytic",
            Tier::FullMc => "full_mc",
            Tier::TailMc => "tail_mc",
        }
    }

    /// The [`crate::sweep::FidelityHint`] to attach to a [`TrialPlan`]
    /// running this tier.
    pub fn hint(self) -> crate::sweep::FidelityHint {
        match self {
            Tier::Analytic => crate::sweep::FidelityHint::Analytic,
            Tier::FullMc => crate::sweep::FidelityHint::FullMc,
            Tier::TailMc => crate::sweep::FidelityHint::TailMc,
        }
    }
}

/// How the closed form relates to what the Monte-Carlo kernel samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// The closed form is the exact mean of the Monte-Carlo estimator
    /// (e.g. the binomial pool-survival sum versus Bernoulli channel
    /// draws): the analytic tier is a strict improvement at any margin.
    Exact,
    /// The closed form shares the model, but the kernel is an
    /// independent implementation whose cross-validation value is the
    /// point of the Monte-Carlo — keep real trials near the threshold.
    Model,
}

/// Everything [`FidelityController::classify`] may look at — all derived
/// from `(config, seed)`, nothing from the execution environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    /// Closed-form prediction of the per-trial event probability (BER,
    /// word-failure probability, pool-failure probability, ...).
    pub analytic_p: f64,
    /// The decision threshold the measurement argues against (e.g. the
    /// KP4 BER threshold); margin is measured in decades from it.
    pub threshold: f64,
    /// The full-fidelity trial budget at this point.
    pub full_trials: u64,
    /// Whether the closed form is the kernel's exact mean.
    pub exactness: Exactness,
    /// Whether a tail importance sampler exists for this estimator.
    pub tail_available: bool,
}

/// A tier choice plus the trial budget to run it at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierDecision {
    /// The chosen resolution.
    pub tier: Tier,
    /// Trials to spend (0 for the analytic tier; draws for the tail
    /// tier are fixed by [`TAIL_BATCHES`] × [`TAIL_DRAWS_PER_BATCH`]).
    pub trials: u64,
}

/// Promotes and demotes measurements between tiers.
///
/// The decision rules (adaptive mode):
///
/// 1. [`Exactness::Exact`] → [`Tier::Analytic`]: the closed form *is*
///    the estimator's mean; Monte-Carlo adds only noise.
/// 2. Too few expected events for the full budget to resolve
///    (`full_trials · p < min_events`) → [`Tier::TailMc`] when a tail
///    sampler exists, else [`Tier::Analytic`].
/// 3. Within `margin_decades` of the threshold → [`Tier::FullMc`] at a
///    budget sized to observe ~`events_target` events (capped at the
///    full budget): the kernel cross-validation the figure exists for.
/// 4. Otherwise → [`Tier::Analytic`].
///
/// In [`FidelityMode::Full`] every classification is
/// [`Tier::FullMc`] at the full budget, so a single code path serves
/// both modes.
#[derive(Debug, Clone, Copy)]
pub struct FidelityController {
    mode: FidelityMode,
    /// Distance from the threshold (decades of probability) inside which
    /// real Monte-Carlo trials are kept.
    pub margin_decades: f64,
    /// Target observed-event count for adapted Monte-Carlo budgets
    /// (relative error ≈ 1/√events; 250 events → ~6 %).
    pub events_target: f64,
    /// Below this many expected events at the full budget, ordinary
    /// Monte-Carlo is considered unable to resolve the point.
    pub min_events: f64,
}

impl FidelityController {
    /// Controller with the documented default thresholds
    /// (`margin_decades = 1.0`, `events_target = 250`, `min_events = 25`).
    pub fn new(mode: FidelityMode) -> FidelityController {
        FidelityController {
            mode,
            margin_decades: 1.0,
            events_target: 250.0,
            min_events: 25.0,
        }
    }

    /// The mode this controller runs in.
    pub fn mode(&self) -> FidelityMode {
        self.mode
    }

    /// Pick a tier and budget for one measurement. Pure in the
    /// assessment (and the controller's own constants): no environment,
    /// no thread count, no randomness — the property the determinism
    /// tests pin down.
    pub fn classify(&self, a: &Assessment) -> TierDecision {
        if self.mode == FidelityMode::Full {
            return TierDecision {
                tier: Tier::FullMc,
                trials: a.full_trials,
            };
        }
        if a.exactness == Exactness::Exact {
            return TierDecision {
                tier: Tier::Analytic,
                trials: 0,
            };
        }
        let p = a.analytic_p;
        if p.is_nan() || p <= 0.0 || a.full_trials as f64 * p < self.min_events {
            // Unresolvable by ordinary sampling at the full budget.
            return TierDecision {
                tier: if a.tail_available {
                    Tier::TailMc
                } else {
                    Tier::Analytic
                },
                trials: 0,
            };
        }
        let margin = if a.threshold > 0.0 {
            (p.log10() - a.threshold.log10()).abs()
        } else {
            0.0
        };
        if margin > self.margin_decades {
            return TierDecision {
                tier: Tier::Analytic,
                trials: 0,
            };
        }
        // Near the threshold: keep the real kernel, at a budget sized to
        // the information it buys.
        let wanted = (self.events_target / p).ceil() as u64;
        TierDecision {
            tier: Tier::FullMc,
            trials: wanted.min(a.full_trials).max(1),
        }
    }

    /// Record a decision in telemetry (adaptive mode only, under the
    /// gate-excluded `fidelity.` prefix): per-tier decision counts and
    /// the trials saved against the full budget.
    pub fn note_decision(&self, full_trials: u64, d: &TierDecision) {
        if self.mode != FidelityMode::Adaptive {
            return;
        }
        crate::telemetry::counter_add(&format!("fidelity.tier.{}", d.tier.name()), 1);
        let saved = full_trials.saturating_sub(d.trials);
        if saved > 0 {
            crate::telemetry::counter_add("fidelity.trials_saved", saved);
        }
    }
}

/// One adaptive BER measurement: the tier that produced it, the point
/// estimate, a 95 % confidence interval, and the trials spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerOutcome {
    /// The resolution this value came from.
    pub tier: Tier,
    /// Point estimate.
    pub ber: f64,
    /// 95 % confidence interval. Analytic-tier values are the exact
    /// model mean, so their interval is degenerate `(ber, ber)`; the
    /// gate tolerance then rests on the full-fidelity run's own CI.
    pub ci95: (f64, f64),
    /// Trials (bits or draws) actually spent.
    pub trials: u64,
}

/// Rare-event OOK BER estimator: exponentially tilted importance
/// sampling of the two-rail Gaussian slicer model.
///
/// For a one-sided tail `P(Z > d)` with `Z ~ N(0, 1)`, draws come from
/// the tilted proposal `N(d, 1)`; a draw `z = d + g` carries weight
/// `exp(-d²/2 − d·g)` when `g > 0` and 0 otherwise, which makes the
/// batch mean an *unbiased* estimator of the tail for every `d` with
/// O(1) relative variance — flat in `p` where naive sampling needs
/// `~1/p` trials. The two rails of [`SlicerPoint`] are estimated
/// independently and combined with the kernel's equal-prior weighting
/// `BER = (P(miss 1) + P(miss 0)) / 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailBer {
    /// Normalized one-rail distance `(i1 − threshold)/s1`.
    pub d1: f64,
    /// Normalized zero-rail distance `(threshold − i0)/s0`.
    pub d0: f64,
}

/// Result of a tail importance-sampling estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEstimate {
    /// Unbiased BER point estimate.
    pub ber: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
    /// Total tilted draws spent (both rails).
    pub draws: u64,
}

impl TailEstimate {
    /// Normal-approximation 95 % confidence interval, clamped to ≥ 0.
    pub fn ci95(&self) -> (f64, f64) {
        let h = 1.96 * self.std_err;
        ((self.ber - h).max(0.0), self.ber + h)
    }
}

/// One batch of tilted draws for a single one-sided Gaussian tail
/// `P(Z > d)`: returns `(Σw, Σw²)` over `draws` proposals. Allocation
/// free (registered under lint rule R4); unbiased for every `d`.
pub fn tail_batch(d: f64, draws: u32, rng: &mut DetRng) -> (f64, f64) {
    let base = (-0.5 * d * d).exp();
    let mut sum_w = 0.0f64;
    let mut sum_w2 = 0.0f64;
    for _ in 0..draws {
        let g = rng.standard_normal();
        if g > 0.0 {
            let w = base * (-d * g).exp();
            sum_w += w;
            sum_w2 += w * w;
        }
    }
    (sum_w, sum_w2)
}

impl TailBer {
    /// The tail estimator for a slicer operating point.
    pub fn of(point: &SlicerPoint) -> TailBer {
        TailBer {
            d1: (point.i1 - point.threshold) / point.s1,
            d0: (point.threshold - point.i0) / point.s0,
        }
    }

    /// Run the estimate: `batches` stratified batches of
    /// `draws_per_batch` tilted draws per rail, batch `b` drawing from
    /// the counter-derived streams `(seed, "{label}-one"/"{label}-zero",
    /// b)`. Partial sums fold in batch order, so the estimate is
    /// bit-identical at every thread count.
    pub fn estimate_with(
        &self,
        exec: &Exec,
        batches: u64,
        draws_per_batch: u32,
        seed: u64,
        label: &str,
    ) -> TailEstimate {
        let one = format!("{label}-one");
        let zero = format!("{label}-zero");
        let partials = TrialPlan::new()
            .trials(batches)
            .seed(seed)
            .label(label)
            .fidelity(crate::sweep::FidelityHint::TailMc)
            .run(exec, |ctx| {
                let (w1, q1) = tail_batch(self.d1, draws_per_batch, &mut ctx.stream(&one));
                let (w0, q0) = tail_batch(self.d0, draws_per_batch, &mut ctx.stream(&zero));
                (w1, q1, w0, q0)
            });
        // Sequential batch-order fold: float addition order is fixed.
        let (mut w1, mut q1, mut w0, mut q0) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (a, b, c, d) in &partials {
            w1 += a;
            q1 += b;
            w0 += c;
            q0 += d;
        }
        let n = (batches as f64) * f64::from(draws_per_batch);
        if n == 0.0 {
            return TailEstimate {
                ber: 0.0,
                std_err: 0.0,
                draws: 0,
            };
        }
        let p1 = w1 / n;
        let p0 = w0 / n;
        // Per-draw second moments → variance of each rail's mean.
        let v1 = (q1 / n - p1 * p1).max(0.0) / n;
        let v0 = (q0 / n - p0 * p0).max(0.0) / n;
        TailEstimate {
            ber: 0.5 * (p1 + p0),
            std_err: 0.5 * (v1 + v0).sqrt(),
            draws: 2 * batches * u64::from(draws_per_batch),
        }
    }
}

/// Measure an OOK BER point at controller-selected fidelity.
///
/// The assessment classifies on the receiver's closed-form BER against
/// `threshold_ber` with a full budget of `full_bits`. The tiers then
/// produce:
///
/// - [`Tier::Analytic`]: [`SlicerPoint::model_ber`] — the exact mean of
///   the Monte-Carlo kernel's estimator (see its error-budget note).
/// - [`Tier::FullMc`]: [`crate::montecarlo::simulate_ook_ber_par`] at
///   the adapted bit budget, with its Wilson interval.
/// - [`Tier::TailMc`]: [`TailBer`] at the fixed
///   [`TAIL_BATCHES`] × [`TAIL_DRAWS_PER_BATCH`] budget.
pub fn ook_ber_with_fidelity(
    ctrl: &FidelityController,
    exec: &Exec,
    rx: &mosaic_phy::ber::OokReceiver,
    avg_power: mosaic_units::Power,
    threshold_ber: f64,
    full_bits: u64,
    seed: u64,
) -> BerOutcome {
    let assessment = Assessment {
        analytic_p: rx.ber_at(avg_power),
        threshold: threshold_ber,
        full_trials: full_bits,
        exactness: Exactness::Model,
        tail_available: true,
    };
    let decision = ctrl.classify(&assessment);
    ctrl.note_decision(full_bits, &decision);
    let point = SlicerPoint::of(rx, avg_power);
    match decision.tier {
        Tier::Analytic => {
            let p = point.model_ber();
            BerOutcome {
                tier: Tier::Analytic,
                ber: p,
                ci95: (p, p),
                trials: 0,
            }
        }
        Tier::FullMc => {
            let m =
                crate::montecarlo::simulate_ook_ber_par(exec, rx, avg_power, decision.trials, seed);
            BerOutcome {
                tier: Tier::FullMc,
                ber: m.ber,
                ci95: m.ci95,
                trials: decision.trials,
            }
        }
        Tier::TailMc => {
            let est = TailBer::of(&point).estimate_with(
                exec,
                TAIL_BATCHES,
                TAIL_DRAWS_PER_BATCH,
                seed,
                "ook-tail",
            );
            BerOutcome {
                tier: Tier::TailMc,
                ber: est.ber,
                ci95: est.ci95(),
                trials: est.draws,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_assessment(p: f64, full: u64) -> Assessment {
        Assessment {
            analytic_p: p,
            threshold: 2.4e-4,
            full_trials: full,
            exactness: Exactness::Model,
            tail_available: true,
        }
    }

    #[test]
    fn full_mode_never_adapts() {
        let ctrl = FidelityController::new(FidelityMode::Full);
        for p in [0.5, 1e-3, 1e-9, 0.0] {
            let d = ctrl.classify(&model_assessment(p, 4_000_000));
            assert_eq!(d.tier, Tier::FullMc);
            assert_eq!(d.trials, 4_000_000);
        }
    }

    #[test]
    fn exact_estimators_go_analytic() {
        let ctrl = FidelityController::new(FidelityMode::Adaptive);
        let d = ctrl.classify(&Assessment {
            analytic_p: 2.5e-4,
            threshold: 2.4e-4,
            full_trials: 100_000,
            exactness: Exactness::Exact,
            tail_available: false,
        });
        assert_eq!(d.tier, Tier::Analytic);
        assert_eq!(d.trials, 0);
    }

    #[test]
    fn far_from_threshold_goes_analytic_near_keeps_mc() {
        let ctrl = FidelityController::new(FidelityMode::Adaptive);
        // 5.7e-2 is ~2.4 decades above the KP4 threshold → analytic.
        assert_eq!(
            ctrl.classify(&model_assessment(5.66e-2, 4_000_000)).tier,
            Tier::Analytic
        );
        // 8.3e-4 is ~0.54 decades above → full MC at an adapted budget.
        let d = ctrl.classify(&model_assessment(8.27e-4, 4_000_000));
        assert_eq!(d.tier, Tier::FullMc);
        assert_eq!(d.trials, (250.0f64 / 8.27e-4).ceil() as u64);
        assert!(d.trials < 4_000_000);
        // 3.9e-5 is ~0.79 decades below → full MC, capped at the full
        // budget (the adapted budget would exceed it).
        let d = ctrl.classify(&model_assessment(3.87e-5, 4_000_000));
        assert_eq!(d.tier, Tier::FullMc);
        assert_eq!(d.trials, 4_000_000);
    }

    #[test]
    fn unresolvable_points_go_to_the_tail_sampler() {
        let ctrl = FidelityController::new(FidelityMode::Adaptive);
        let d = ctrl.classify(&model_assessment(3.5e-7, 4_000_000));
        assert_eq!(d.tier, Tier::TailMc);
        // Without a tail sampler the analytic value is all there is.
        let mut a = model_assessment(3.5e-7, 4_000_000);
        a.tail_available = false;
        assert_eq!(ctrl.classify(&a).tier, Tier::Analytic);
        // p = 0 exactly (or NaN) must not panic or divide.
        assert_eq!(
            ctrl.classify(&model_assessment(0.0, 1_000)).tier,
            Tier::TailMc
        );
        assert_eq!(
            ctrl.classify(&model_assessment(f64::NAN, 1_000)).tier,
            Tier::TailMc
        );
    }

    #[test]
    fn classify_is_a_pure_function() {
        let ctrl = FidelityController::new(FidelityMode::Adaptive);
        let a = model_assessment(1.1e-4, 2_000_000);
        let first = ctrl.classify(&a);
        for _ in 0..10 {
            assert_eq!(ctrl.classify(&a), first);
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(FidelityMode::parse("full"), Some(FidelityMode::Full));
        assert_eq!(
            FidelityMode::parse("adaptive"),
            Some(FidelityMode::Adaptive)
        );
        assert_eq!(FidelityMode::parse("fast"), None);
        assert_eq!(FidelityMode::Full.name(), "full");
        assert_eq!(FidelityMode::Adaptive.name(), "adaptive");
        assert!(FidelityMode::Adaptive.is_adaptive());
    }

    #[test]
    fn tail_estimate_is_unbiased_against_the_closed_tail() {
        let _collector = crate::telemetry::test_guard::shared();
        // d = 6 → Q(6) ≈ 9.87e-10: invisible to naive MC at any sane
        // budget, pinned to ~1 % by a quarter-million tilted draws.
        let t = TailBer { d1: 6.0, d0: 6.0 };
        let est = t.estimate_with(&Exec::with_threads(4), 64, 4096, 7, "tail-test");
        let exact = mosaic_phy::math::normal_tail(6.0);
        assert!(est.ber > 0.0);
        assert!(
            (est.ber - exact).abs() < 5.0 * est.std_err.max(1e-13),
            "tail estimate {} vs exact {exact} (se {})",
            est.ber,
            est.std_err
        );
        assert!(
            est.std_err < 0.05 * exact,
            "tail variance must be O(1) relative"
        );
    }

    #[test]
    fn tail_estimate_is_thread_count_invariant() {
        let _collector = crate::telemetry::test_guard::shared();
        let t = TailBer { d1: 7.5, d0: 7.2 };
        let base = t.estimate_with(&Exec::with_threads(1), 16, 512, 3, "tail-det");
        for threads in [2, 8] {
            let other = t.estimate_with(&Exec::with_threads(threads), 16, 512, 3, "tail-det");
            assert_eq!(base, other, "threads={threads}");
        }
    }

    #[test]
    fn tail_batch_handles_nonpositive_distance() {
        // d ≤ 0 is not a tail; the tilted estimator stays unbiased (for
        // d = 0 it is plain sampling of P(Z > 0) = 1/2).
        let mut rng = DetRng::new(9);
        let (w, _) = tail_batch(0.0, 8192, &mut rng);
        let p = w / 8192.0;
        assert!((p - 0.5).abs() < 0.02, "P(Z>0) estimate {p}");
    }
}
