//! F11 — Gearbox resilience (claim C6): frames striped over hundreds of
//! channels survive skew and channel kills via hot sparing.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, FaultEvent};
use mosaic_sim::fidelity::FidelityController;
use mosaic_sim::link_sim::{simulate_link_at_fidelity, LinkSimConfig};
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;

fn base(spares: usize, kills: Vec<FaultEvent>) -> LinkSimConfig {
    let over = CampaignConfig {
        channels: 64 + spares,
        ..CampaignConfig::default()
    };
    LinkSimConfig {
        logical_lanes: 64,
        physical_channels: 64 + spares,
        am_period: 16,
        per_channel_ber: vec![1e-9; 64 + spares],
        epochs: 12,
        frames_per_epoch: 24,
        frame_size: 512,
        seed: 11,
        faults: FaultCampaign::try_from_events(over, kills).expect("every link has channel 30"),
        degrade_threshold: Some(1e-5),
        monitor_window_bits: 5_000,
    }
}

/// Run the experiment.
pub fn run() -> String {
    let mut out =
        String::from("F11: 64-lane gearbox under a 3-channel kill schedule (epochs 3, 6, 9)\n");
    let mut t = Table::new(&[
        "spares",
        "delivered",
        "sent",
        "ratio",
        "remaps",
        "down epochs",
        "silent corruption",
    ]);
    let exec = Exec::from_env();
    let ctrl = FidelityController::new(runcfg::fidelity());
    let mut frames = 0u64;
    let start = Stopwatch::start();
    for spares in [0usize, 1, 2, 4, 8] {
        let kills = [(10, 3), (20, 6), (30, 9)].map(|(ch, at)| FaultEvent::kill(ch, at));
        let cfg = base(spares, kills.to_vec());
        let r = simulate_link_at_fidelity(&ctrl, &exec, &cfg);
        frames += r.frames_sent;
        t.row(cells![
            spares,
            r.frames_delivered,
            r.frames_sent,
            format!("{:.3}", r.delivery_ratio()),
            r.remaps,
            r.deskew_failed_epochs,
            r.frames_silently_corrupted
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\ndegraded-channel retirement (persistent BER 1e-3 on one channel, monitor threshold 1e-5):\n");
    let mut cfg = base(4, vec![]);
    cfg.frame_size = 2048; // enough bits per channel to close monitor windows
    cfg.per_channel_ber[5] = 1e-3;
    let r = simulate_link_at_fidelity(&ctrl, &exec, &cfg);
    frames += r.frames_sent;
    RunStats::new(frames, start.elapsed(), exec.threads()).report("F11");
    out.push_str(&format!(
        "  retired by monitor: {}, remaps: {}, delivery after retirement recovers to {:.3}\n",
        r.retired_by_monitor,
        r.remaps,
        r.delivery_ratio()
    ));
    out
}
