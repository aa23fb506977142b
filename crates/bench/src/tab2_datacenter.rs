//! T2 — Datacenter fleet study: power and repair tickets under three
//! deployment policies, for small and large Clos fabrics.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::compare::candidates;
use mosaic_netsim::assignment::{assign, Policy};
use mosaic_netsim::failure_sim::simulate_fleet_ensemble;
use mosaic_netsim::fleet::rollup;
use mosaic_netsim::topology::{ClosTopology, RailTopology};
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;
use mosaic_units::{BitRate, Duration};

/// Run the experiment.
pub fn run() -> String {
    let cands = candidates(BitRate::from_gbps(800.0));
    let mut out = String::from("T2: fleet interconnect study (800G links everywhere)\n");
    let fabrics: Vec<(&str, String, Vec<mosaic_netsim::topology::LinkClass>)> = vec![
        (
            "1k-server cluster",
            format!("{} servers", ClosTopology::small().servers()),
            ClosTopology::small().link_classes(),
        ),
        (
            "64k-server cluster",
            format!("{} servers", ClosTopology::large().servers()),
            ClosTopology::large().link_classes(),
        ),
        (
            "16k-GPU rail fabric",
            format!("{} GPUs", RailTopology::gpu_16k().gpus()),
            RailTopology::gpu_16k().link_classes(),
        ),
    ];
    let exec = Exec::from_env();
    let replicas = runcfg::trials(8, 3);
    let mut histories = 0u64;
    let mut tickets_mean = Vec::new();
    let mut tickets_lo = Vec::new();
    let mut tickets_hi = Vec::new();
    let mut avail_mean = Vec::new();
    let mut avail_lo = Vec::new();
    let mut avail_hi = Vec::new();
    let start = Stopwatch::start();
    for (label, size, classes) in fabrics {
        let total_links: usize = classes.iter().map(|c| c.count).sum();
        out.push_str(&format!("\n{label}: {size}, {total_links} links\n"));
        let mut t = Table::new(&[
            "policy",
            "fleet kW",
            "W/link",
            "tickets/yr (exp)",
            &format!("tickets/10yr (sim mean of {replicas})"),
            "availability",
        ]);
        for (name, policy) in [
            ("all-optics", Policy::AllOptics),
            ("copper+optics", Policy::CopperPlusOptics),
            ("with Mosaic", Policy::WithMosaic),
        ] {
            let a = assign(&classes, &cands, policy);
            let fleet = rollup(&a);
            // An ensemble of independent 10-year histories instead of a
            // single trajectory: parallel replicas, mean ± spread.
            let sims =
                simulate_fleet_ensemble(&exec, &a, 10.0, Duration::from_hours(24.0), 77, replicas);
            histories += replicas;
            let mean_tickets =
                sims.iter().map(|s| s.tickets as f64).sum::<f64>() / sims.len() as f64;
            let min_tickets = sims.iter().map(|s| s.tickets).min().unwrap_or(0);
            let max_tickets = sims.iter().map(|s| s.tickets).max().unwrap_or(0);
            let mean_avail = sims.iter().map(|s| s.availability).sum::<f64>() / sims.len() as f64;
            // Mean ± 1.96·(standard error of the mean) companions record
            // each mean with the ensemble's own spread.
            let se = |vals: &[f64]| {
                let n = vals.len() as f64;
                let mean = vals.iter().sum::<f64>() / n;
                let var =
                    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0).max(1.0);
                (var / n).sqrt()
            };
            let t_vals: Vec<f64> = sims.iter().map(|s| s.tickets as f64).collect();
            let a_vals: Vec<f64> = sims.iter().map(|s| s.availability).collect();
            let (t_se, a_se) = (se(&t_vals), se(&a_vals));
            tickets_mean.push(mean_tickets);
            tickets_lo.push(mean_tickets - 1.96 * t_se);
            tickets_hi.push(mean_tickets + 1.96 * t_se);
            avail_mean.push(mean_avail);
            avail_lo.push(mean_avail - 1.96 * a_se);
            avail_hi.push(mean_avail + 1.96 * a_se);
            t.row(cells![
                name,
                format!("{:.1}", fleet.total_power.as_watts() / 1000.0),
                format!("{:.2}", fleet.total_power.as_watts() / total_links as f64),
                format!("{:.1}", fleet.failures_per_year),
                format!("{mean_tickets:.1} [{min_tickets},{max_tickets}]"),
                format!("{mean_avail:.6}")
            ]);
        }
        out.push_str(&t.render());

        // Technology mix under the Mosaic policy.
        let a = assign(&classes, &cands, Policy::WithMosaic);
        let fleet = rollup(&a);
        out.push_str("  Mosaic-policy technology mix: ");
        let mix: Vec<String> = fleet
            .links_by_tech
            .iter()
            .map(|(k, v)| format!("{k}×{v}"))
            .collect();
        out.push_str(&mix.join(", "));
        out.push('\n');
    }
    RunStats::new(histories, start.elapsed(), exec.threads()).report("T2");
    mosaic_sim::telemetry::record_series("t2.tickets_mean", &tickets_mean);
    mosaic_sim::telemetry::record_series("t2.tickets_mean_ci_lo", &tickets_lo);
    mosaic_sim::telemetry::record_series("t2.tickets_mean_ci_hi", &tickets_hi);
    mosaic_sim::telemetry::record_series("t2.avail_mean", &avail_mean);
    mosaic_sim::telemetry::record_series("t2.avail_mean_ci_lo", &avail_lo);
    mosaic_sim::telemetry::record_series("t2.avail_mean_ci_hi", &avail_hi);
    out
}
