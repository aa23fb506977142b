//! F6 — Reliability (claim C3): link FIT/AFR by technology, survival over
//! the service life versus spare count, and a Markov vs Monte-Carlo
//! cross-check.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::compare::candidates;
use mosaic::reliability_model::channel_fit;
use mosaic_reliability::markov::SparedPool;
use mosaic_reliability::montecarlo::simulate_pool_no_repair_with;
use mosaic_reliability::system::KofN;
use mosaic_sim::montecarlo::wilson_ci;
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;
use mosaic_units::{BitRate, Duration};

/// Run the experiment.
pub fn run() -> String {
    let mut out = String::from("F6a: link failure rates by technology (800G)\n");
    let mut t = Table::new(&["technology", "link FIT", "AFR %/yr", "7-yr survival"]);
    for c in candidates(BitRate::from_gbps(800.0)) {
        let seven = Duration::from_years(7.0);
        t.row(cells![
            c.name,
            format!("{:.0}", c.link_fit.as_fit()),
            format!("{:.3}", c.link_fit.afr() * 100.0),
            format!("{:.5}", c.link_fit.survival_prob(seven))
        ]);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nF6b: Mosaic channel-pool survival over 7 years vs spares (428 active channels)\n",
    );
    let horizon = Duration::from_years(7.0);
    let exec = Exec::from_env();
    let trials = runcfg::trials(100_000, 10_000);
    let start = Stopwatch::start();
    let mut t = Table::new(&[
        "spares",
        "closed form",
        "Markov",
        "Monte-Carlo (100k)",
        "effective FIT",
    ]);
    let mut mc_survival = Vec::new();
    let mut mc_lo = Vec::new();
    let mut mc_hi = Vec::new();
    let mut mc_trials = 0u64;
    for spares in [0usize, 2, 4, 8, 16] {
        let pool = KofN::new(428, 428 + spares, channel_fit());
        let closed = pool.survival(horizon);
        let markov = SparedPool::new(428, 428 + spares, channel_fit(), 0.0).survival(horizon);
        let mc = simulate_pool_no_repair_with(
            &exec,
            428,
            428 + spares,
            channel_fit(),
            horizon,
            trials,
            6,
        );
        mc_trials += trials;
        let died = mc.trials - mc.survived;
        let (flo, fhi) = wilson_ci(died, mc.trials);
        mc_survival.push(mc.survival());
        mc_lo.push(1.0 - fhi);
        mc_hi.push(1.0 - flo);
        t.row(cells![
            spares,
            format!("{closed:.6}"),
            format!("{markov:.6}"),
            format!("{:.6}", mc.survival()),
            format!("{:.2}", pool.effective_fit(horizon).as_fit())
        ]);
    }
    RunStats::new(mc_trials, start.elapsed(), exec.threads()).report("F6");
    mosaic_sim::telemetry::record_series("f6.pool_mc_survival", &mc_survival);
    mosaic_sim::telemetry::record_series("f6.pool_mc_survival_ci_lo", &mc_lo);
    mosaic_sim::telemetry::record_series("f6.pool_mc_survival_ci_hi", &mc_hi);
    out.push_str(&t.render());
    out.push_str("\nF6c: with monthly repair (µ = 1/720 h)\n");
    let mut t = Table::new(&["spares", "7-yr survival", "steady-state availability"]);
    for spares in [2usize, 4, 8] {
        let pool = SparedPool::new(428, 428 + spares, channel_fit(), 1.0 / 720.0);
        t.row(cells![
            spares,
            format!("{:.9}", pool.survival(horizon)),
            format!("{:.12}", pool.availability())
        ]);
    }
    out.push_str(&t.render());
    out
}
