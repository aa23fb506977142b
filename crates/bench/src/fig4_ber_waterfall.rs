//! F4 — BER waterfall of a single microLED channel: analytic Gaussian
//! model overlaid with Monte-Carlo measurements (claim C4's substrate).

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic_fec::KP4_BER_THRESHOLD;
use mosaic_phy::ber::OokReceiver;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_phy::tia::Tia;
use mosaic_sim::montecarlo::simulate_ook_ber_par;
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;
use mosaic_units::Power;

fn receiver(rate_gbps: f64) -> OokReceiver {
    let tia = Tia::low_speed(rate_gbps);
    OokReceiver {
        pd: Photodiode::silicon_blue(),
        noise: NoiseBudget {
            thermal_a: tia.rms_noise_current(),
            bandwidth: tia.bandwidth,
            rin_db_per_hz: None,
        },
        extinction_ratio: 6.0,
    }
}

/// Run the experiment.
pub fn run() -> String {
    let mut out = String::from(
        "F4: BER vs received optical power, microLED OOK channel (KP4 threshold 2.4e-4)\n",
    );
    let mut t = Table::new(&[
        "Prx dBm",
        "1G analytic",
        "2G analytic",
        "4G analytic",
        "2G Monte-Carlo (95% CI)",
    ]);
    let rx1 = receiver(1.0);
    let rx2 = receiver(2.0);
    let rx4 = receiver(4.0);
    let exec = Exec::from_env();
    let bits = runcfg::trials(4_000_000, 250_000);
    let mut mc_bits = 0u64;
    let mut analytic_2g = Vec::new();
    let mut mc_2g = Vec::new();
    let mut mc_2g_lo = Vec::new();
    let mut mc_2g_hi = Vec::new();
    let start = Stopwatch::start();
    for (idx, dbm_tenths) in (-300..=-210).step_by(10).enumerate() {
        let dbm = dbm_tenths as f64 / 10.0;
        let p = Power::from_dbm(dbm);
        analytic_2g.push(rx2.ber_at(p));
        // One independent root seed per sweep point; within a point, the
        // trials fan out over fixed chunks (thread-count invariant).
        let seed = 404_000 + idx as u64;
        let mc = if rx2.ber_at(p) > 5e-7 {
            let m = simulate_ook_ber_par(&exec, &rx2, p, bits, seed);
            mc_bits += bits;
            mc_2g.push(m.ber);
            mc_2g_lo.push(m.ci95.0);
            mc_2g_hi.push(m.ci95.1);
            format!("{:.2e} [{:.1e},{:.1e}]", m.ber, m.ci95.0, m.ci95.1)
        } else {
            "below MC resolution".into()
        };
        t.row(cells![
            format!("{dbm:.1}"),
            format!("{:.2e}", rx1.ber_at(p)),
            format!("{:.2e}", rx2.ber_at(p)),
            format!("{:.2e}", rx4.ber_at(p)),
            mc
        ]);
    }
    RunStats::new(mc_bits, start.elapsed(), exec.threads()).report("F4");
    mosaic_sim::telemetry::record_series("f4.analytic_2g_ber", &analytic_2g);
    mosaic_sim::telemetry::record_series("f4.mc_2g_ber", &mc_2g);
    mosaic_sim::telemetry::record_series("f4.mc_2g_ber_ci_lo", &mc_2g_lo);
    mosaic_sim::telemetry::record_series("f4.mc_2g_ber_ci_hi", &mc_2g_hi);
    out.push_str(&t.render());
    for (g, rx) in [(1.0, &rx1), (2.0, &rx2), (4.0, &rx4)] {
        if let Some(s) = rx.sensitivity(KP4_BER_THRESHOLD) {
            out.push_str(&format!(
                "sensitivity @KP4, {g} Gb/s: {:.1} dBm\n",
                s.as_dbm()
            ));
        }
    }
    out
}
