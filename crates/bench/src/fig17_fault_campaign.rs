//! F17 — Fault-campaign resilience (claims C3/C6): delivered throughput
//! and availability versus injected fault rate, with and without the
//! graceful-degradation controller.
//!
//! Each point replays the *same* generated fault campaigns (same seeds)
//! against a static lane map and against the controller, so the two
//! curves differ only by the recovery policy. Campaign generation and
//! replay are deterministic, so the table is bit-identical at any
//! thread count.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic_sim::campaign::{run_campaign, CampaignRunConfig};
use mosaic_sim::faults::CampaignConfig;
use mosaic_sim::sweep::{Exec, RunStats, TrialPlan};
use mosaic_sim::telemetry::Stopwatch;

const SEED: u64 = 17;
const EPOCHS: usize = 600;

fn run_config(rate: f64, controller: bool) -> CampaignRunConfig {
    CampaignRunConfig {
        logical_lanes: 12,
        physical_channels: 16,
        campaign: CampaignConfig {
            channels: 16,
            epochs: EPOCHS,
            faults_per_kilo_epoch: rate,
            max_duration: 48,
            permanent_fraction: 0.4,
        },
        controller,
        ..CampaignRunConfig::default()
    }
}

/// Mean outcome over `seeds` campaign replays at one fault rate.
struct PointSummary {
    events: f64,
    delivered: f64,
    availability: f64,
    spares: f64,
    lost: f64,
}

fn point(rate: f64, controller: bool, seeds: u64) -> PointSummary {
    let cfg = run_config(rate, controller);
    let mut sum = PointSummary {
        events: 0.0,
        delivered: 0.0,
        availability: 0.0,
        spares: 0.0,
        lost: 0.0,
    };
    // Seed-ordered sequential fold: f64 sums stay order-stable.
    for s in 0..seeds {
        let out = match run_campaign(&cfg, SEED.wrapping_add(s)) {
            Ok(out) => out,
            Err(e) => {
                // try_new validation cannot fail for these configs; keep
                // the figure total-failure-proof regardless.
                eprintln!("[F17] campaign replay failed: {e}");
                continue;
            }
        };
        sum.events += out.fault_events as f64;
        sum.delivered += out.delivered_fraction;
        sum.availability += out.availability;
        sum.spares += out.spares_activated as f64;
        sum.lost += out.lost_lanes as f64;
    }
    let n = seeds as f64;
    PointSummary {
        events: sum.events / n,
        delivered: sum.delivered / n,
        availability: sum.availability / n,
        spares: sum.spares / n,
        lost: sum.lost / n,
    }
}

/// Run the experiment.
pub fn run() -> String {
    let rates = [0.5f64, 1.0, 2.0, 4.0, 8.0];
    let seeds = runcfg::trials(32, 6);
    let mut out = format!(
        "F17: fault-campaign resilience — 12 lanes on 16 channels, {EPOCHS}-epoch campaigns, \
         {seeds} seeds/point\n"
    );
    let mut t = Table::new(&[
        "faults/kepoch",
        "events",
        "delivered static",
        "delivered ctl",
        "avail static",
        "avail ctl",
        "spares used",
        "lanes shed",
    ]);
    let exec = Exec::from_env();
    let start = Stopwatch::start();
    // One sweep cell per (rate, mode): both modes of a rate replay the
    // same seeds, so the pair is directly comparable.
    let cells: Vec<(usize, bool)> = rates
        .iter()
        .enumerate()
        .flat_map(|(i, _)| [(i, false), (i, true)])
        .collect();
    let summaries = TrialPlan::new()
        .trials(cells.len() as u64)
        .run(&exec, |ctx| {
            let (i, controller) = cells[ctx.trial() as usize];
            point(rates[i], controller, seeds)
        });
    for (i, &rate) in rates.iter().enumerate() {
        let stat = &summaries[2 * i];
        let ctl = &summaries[2 * i + 1];
        t.row(cells![
            format!("{rate:.1}"),
            format!("{:.1}", ctl.events),
            format!("{:.4}", stat.delivered),
            format!("{:.4}", ctl.delivered),
            format!("{:.4}", stat.availability),
            format!("{:.4}", ctl.availability),
            format!("{:.2}", ctl.spares),
            format!("{:.2}", ctl.lost)
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nsame generated campaigns on both curves; controller spares permanent faults and\n\
         sheds lanes gracefully once the pool is dry (rate back-off instead of link-down)\n",
    );
    let trials = (rates.len() as u64) * 2 * seeds * EPOCHS as u64;
    RunStats::new(trials, start.elapsed(), exec.threads()).report("F17");
    out
}
