//! Fault-injection demo: a Mosaic link rides through channel deaths.
//!
//! ```sh
//! cargo run --release --example lane_failure_resilience
//! ```
//!
//! Streams framed traffic over a 64-channel gearbox while a fault campaign
//! kills channels and injects an error burst; spare channels absorb the
//! damage and the CRC layer proves no frame is ever silently corrupted.
//! This is claim C6 (protocol-agnostic integration + resilience) running
//! for real.

use mosaic_repro::sim::faults::{
    CampaignConfig, FaultCampaign, FaultEvent, FaultKind, Persistence,
};
use mosaic_repro::sim::link_sim::{simulate_link, LinkSimConfig};

fn run(label: &str, spares: usize, events: Vec<FaultEvent>) {
    let over = CampaignConfig {
        channels: 64 + spares,
        ..CampaignConfig::default()
    };
    let cfg = LinkSimConfig {
        logical_lanes: 64,
        physical_channels: 64 + spares,
        am_period: 16,
        per_channel_ber: vec![1e-9; 64 + spares],
        epochs: 16,
        frames_per_epoch: 32,
        frame_size: 512,
        seed: 7,
        faults: FaultCampaign::try_from_events(over, events).expect("faults strike real channels"),
        degrade_threshold: Some(1e-5),
        monitor_window_bits: 10_000,
    };
    let r = simulate_link(&cfg);
    println!("{label} (spares: {spares})");
    println!(
        "  frames delivered    : {} / {}",
        r.frames_delivered, r.frames_sent
    );
    println!(
        "  silently corrupted  : {} (must be 0)",
        r.frames_silently_corrupted
    );
    println!("  spare remaps        : {}", r.remaps);
    println!("  epochs fully down   : {}", r.deskew_failed_epochs);
    println!("  monitor retirements : {}", r.retired_by_monitor);
    println!();
}

fn main() {
    println!("64-lane Mosaic gearbox, 16 epochs of framed traffic\n");

    run("baseline: clean channels", 4, vec![]);

    let kills = [(12, 4), (40, 8), (3, 12)].map(|(ch, at)| FaultEvent::kill(ch, at));
    run("three channel deaths, hot spares", 4, kills.to_vec());
    run("three channel deaths, NO spares", 0, kills.to_vec());

    // TIA saturation adds 1e-3 · 10^(1.5 · severity) to the channel BER.
    let burst = vec![FaultEvent {
        channel: 9,
        kind: FaultKind::TiaSaturation,
        persistence: Persistence::Transient,
        start: 6,
        duration: 3,
        severity: 2f64.log10() / 1.5,
    }];
    run(
        "transient 3-epoch error burst (BER 2e-3) + monitor retirement",
        4,
        burst,
    );
}
