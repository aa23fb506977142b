//! F15 — Wear-out ablation: does the exponential-lifetime assumption bias
//! the reliability comparison?
//!
//! Lasers age (facet degradation → Weibull shape k ≈ 2–3); LEDs barely do
//! (k ≈ 1). A datasheet FIT calibrated over the design life therefore
//! *understates* laser failures late in life and overstates them early.
//! This experiment re-evaluates F6 under wear-out lifetimes.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::reliability_model::channel_fit;
use mosaic_reliability::fitdb;
use mosaic_reliability::weibull::{pool_survival_weibull_with, Weibull};
use mosaic_sim::montecarlo::wilson_ci;
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;
use mosaic_units::Duration;

/// Run the experiment.
pub fn run() -> String {
    let design_life = Duration::from_years(7.0);
    let mut out = String::from(
        "F15a: laser-bank survival, exponential vs wear-out (8 lasers, FIT calibrated at 7 yr)\n",
    );
    let mut t = Table::new(&[
        "years",
        "exponential",
        "wear-out k=2.5",
        "ratio of failure probs",
    ]);
    let fit = fitdb::DFB_LASER * 8.0; // the DR8 laser bank as one series block
    let expo = Weibull::matching_fit_at(fit, 1.0, design_life);
    let wear = Weibull::matching_fit_at(fit, 2.5, design_life);
    for years in [1.0, 3.0, 5.0, 7.0, 10.0, 12.0] {
        let t_at = Duration::from_years(years);
        let se = expo.survival(t_at);
        let sw = wear.survival(t_at);
        let ratio = (1.0 - sw) / (1.0 - se).max(1e-12);
        t.row(cells![
            format!("{years:.0}"),
            format!("{se:.5}"),
            format!("{sw:.5}"),
            format!("{ratio:.2}")
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nF15b: Mosaic channel pool (428+4) with wear-out channels, Monte-Carlo 100k\n");
    let mut t = Table::new(&["shape k", "7-yr pool survival", "12-yr pool survival"]);
    let exec = Exec::from_env();
    let trials = runcfg::trials(100_000, 10_000);
    let start = Stopwatch::start();
    let mut survival = Vec::new();
    let mut survival_lo = Vec::new();
    let mut survival_hi = Vec::new();
    let mut mc_trials = 0u64;
    let mut measure = |lt: Weibull, horizon: Duration, seed: u64| {
        let s = pool_survival_weibull_with(&exec, 428, 432, lt, horizon, trials, seed);
        mc_trials += trials;
        let died = trials - (s * trials as f64).round() as u64;
        let (flo, fhi) = wilson_ci(died, trials);
        survival.push(s);
        survival_lo.push(1.0 - fhi);
        survival_hi.push(1.0 - flo);
        format!("{s:.5}")
    };
    for shape in [1.0, 1.5, 2.5] {
        let lt = Weibull::matching_fit_at(channel_fit(), shape, design_life);
        let s7 = measure(lt, Duration::from_years(7.0), 15);
        let s12 = measure(lt, Duration::from_years(12.0), 16);
        t.row(cells![format!("{shape:.1}"), s7, s12]);
    }
    RunStats::new(mc_trials, start.elapsed(), exec.threads()).report("F15");
    mosaic_sim::telemetry::record_series("f15.pool_weibull_survival", &survival);
    mosaic_sim::telemetry::record_series("f15.pool_weibull_survival_ci_lo", &survival_lo);
    mosaic_sim::telemetry::record_series("f15.pool_weibull_survival_ci_hi", &survival_hi);
    out.push_str(&t.render());
    out.push_str(
        "\nshape: within the calibrated design life, wear-out parts fail *less*\n\
         early (the exponential sparing plan is conservative); past it, laser\n\
         banks fall off a cliff the exponential model hides — strengthening the\n\
         reliability case for LEDs, which stay near k = 1.\n",
    );
    out
}
