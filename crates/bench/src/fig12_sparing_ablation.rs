//! F12 — Sparing-policy ablation: how many spares, and hot sparing versus
//! none versus FEC overprovisioning.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::reliability_model::channel_fit;
use mosaic_reliability::sparing::{spares_for_target, sparing_table};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, FaultEvent};
use mosaic_sim::fidelity::FidelityController;
use mosaic_sim::link_sim::{simulate_link_at_fidelity, LinkSimConfig};
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;
use mosaic_units::Duration;

/// Run the experiment.
pub fn run() -> String {
    let horizon = Duration::from_years(7.0);
    let mut out = String::from("F12a: survival vs spare count (428 active channels, 7 years)\n");
    let mut t = Table::new(&["spares", "survival", "effective FIT", "overhead %"]);
    for row in sparing_table(428, channel_fit(), horizon, 12) {
        t.row(cells![
            row.spares,
            format!("{:.6}", row.survival),
            format!("{:.2}", row.effective_fit.as_fit()),
            format!("{:.1}", row.overhead * 100.0)
        ]);
    }
    out.push_str(&t.render());

    for target in [0.999, 0.9999, 0.99999] {
        let s = spares_for_target(428, channel_fit(), horizon, target, 64);
        out.push_str(&format!(
            "spares for {target} survival: {}\n",
            s.map(|v| v.to_string()).unwrap_or_else(|| ">64".into())
        ));
    }

    out.push_str(
        "\nF12b: functional ablation under 2 kills (epochs 4 and 8; 32-lane link, 12 epochs)\n",
    );
    let mut t = Table::new(&["policy", "delivery ratio", "down epochs"]);
    let policies = [
        ("no spares", 0usize, None),
        ("cold spares (no monitor)", 4, None),
        ("hot spares + monitor", 4, Some(1e-5)),
    ];
    let cfgs: Vec<LinkSimConfig> = policies
        .iter()
        .map(|&(_, spares, monitor)| LinkSimConfig {
            logical_lanes: 32,
            physical_channels: 32 + spares,
            am_period: 16,
            per_channel_ber: vec![1e-9; 32 + spares],
            epochs: 12,
            frames_per_epoch: 16,
            frame_size: 256,
            seed: 23,
            faults: FaultCampaign::try_from_events(
                CampaignConfig {
                    channels: 32 + spares,
                    ..CampaignConfig::default()
                },
                vec![FaultEvent::kill(3, 4), FaultEvent::kill(17, 8)],
            )
            .expect("every link has channel 17"),
            degrade_threshold: monitor,
            monitor_window_bits: 10_000,
        })
        .collect();
    // The three policy runs are independent: sweep them in parallel, each
    // run sequential inside (no nested fan-out). Results come back in
    // policy order, so the table is thread-count invariant.
    let exec = Exec::from_env();
    let ctrl = FidelityController::new(runcfg::fidelity());
    let start = Stopwatch::start();
    let runs = exec.par_sweep(&cfgs, |cfg| {
        simulate_link_at_fidelity(&ctrl, &Exec::with_threads(1), cfg)
    });
    let frames: u64 = runs.iter().map(|r| r.frames_sent).sum();
    RunStats::new(frames, start.elapsed(), exec.threads()).report("F12");
    for ((name, _, _), r) in policies.iter().zip(&runs) {
        t.row(cells![
            name,
            format!("{:.3}", r.delivery_ratio()),
            r.deskew_failed_epochs
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n(kill faults remap on detection even without a BER monitor; the monitor additionally retires *degraded* channels)\n");
    out
}
