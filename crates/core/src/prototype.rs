//! The paper's end-to-end prototype: 100 channels × 2 Gb/s (claim C4).
//!
//! Reproduced in two layers:
//!
//! * **budget layer** — the 100 per-channel budgets (center vs. edge
//!   cores, crosstalk, optional misalignment) give a per-channel expected
//!   pre-FEC BER map: every channel must sit below the KP4 threshold;
//! * **simulation layer** — those BERs drive the *real* gearbox + error
//!   injection in `mosaic-sim`, transmitting actual frames end-to-end and
//!   verifying 200 Gb/s of aggregate payload arrives intact.

use crate::budget::BudgetEngine;
use crate::builder::MosaicConfigBuilder;
use crate::config::{FecChoice, MosaicConfig};
use mosaic_sim::faults::FaultCampaign;
use mosaic_sim::link_sim::{simulate_link, LinkSimConfig, LinkSimReport};

/// The prototype configuration: 100 active channels × 2 Gb/s over 10 m,
/// no sparing (the paper's demo array is fully utilized).
///
/// 188 G payload × KP4 (544/514) × 1.0045 framing ≈ 200 G line rate →
/// exactly 100 × 2 G channels carrying ~200 Gb/s on the wire, with
/// demo-grade optics (first-spin lens stack, two mated connectors)
/// leaving roughly 1 dB of margin — the channels run near the KP4
/// threshold just like the paper's testbed plots. See
/// [`MosaicConfigBuilder::prototype`] for the preset itself.
pub fn prototype_config() -> MosaicConfig {
    MosaicConfigBuilder::prototype()
        .build()
        .expect("the prototype preset is a valid configuration")
}

/// Per-channel expected pre-FEC BER map of the prototype.
pub fn prototype_ber_map(cfg: &MosaicConfig) -> Vec<f64> {
    let engine = BudgetEngine::new(cfg);
    engine
        .all_channels(&cfg.led)
        .iter()
        .map(|b| b.expected_ber)
        .collect()
}

/// Convert a pre-FEC BER map to the residual post-FEC BER the gearbox's
/// framing layer actually sees, using the configured code's analytic
/// performance (validated against the real decoders in `mosaic-sim`).
pub fn post_fec_ber_map(cfg: &MosaicConfig, pre: &[f64]) -> Vec<f64> {
    use mosaic_fec::analysis::{binary_performance, rs_performance};
    pre.iter()
        .map(|&p| match cfg.fec {
            FecChoice::None => p,
            FecChoice::Hamming => binary_performance(72, 1, p).post_ber,
            FecChoice::Bch { t } => binary_performance(1023, t, p).post_ber,
            FecChoice::Kr4 => rs_performance(528, 7, 10, p).post_ber,
            FecChoice::Kp4 => rs_performance(544, 15, 10, p).post_ber,
        })
        .collect()
}

/// Run the end-to-end prototype simulation: stripes frames over the 100
/// channels at their budget-derived *post-FEC* residual BERs (the FEC
/// decoders sit between the optical channel and the gearbox) and returns
/// the delivery report.
pub fn run_prototype(cfg: &MosaicConfig, epochs: usize, seed: u64) -> LinkSimReport {
    let bers = post_fec_ber_map(cfg, &prototype_ber_map(cfg));
    let sim = LinkSimConfig {
        logical_lanes: cfg.active_channels(),
        physical_channels: cfg.total_channels(),
        am_period: 32,
        per_channel_ber: bers,
        epochs,
        frames_per_epoch: 32,
        frame_size: 1024,
        seed,
        faults: FaultCampaign::default(),
        degrade_threshold: None,
        monitor_window_bits: 10_000,
    };
    simulate_link(&sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_channel_below_kp4_threshold() {
        // C4's headline: all 100 channels pre-FEC BER < 2.4e-4.
        let cfg = prototype_config();
        let map = prototype_ber_map(&cfg);
        assert_eq!(map.len(), 100);
        for (i, ber) in map.iter().enumerate() {
            assert!(
                *ber < mosaic_fec::KP4_BER_THRESHOLD,
                "channel {i}: BER {ber}"
            );
        }
    }

    #[test]
    fn aggregate_line_rate_is_200g() {
        let cfg = prototype_config();
        let line = cfg.channel_rate * cfg.active_channels() as f64;
        assert!((line.as_gbps() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_frames_flow() {
        let cfg = prototype_config();
        let report = run_prototype(&cfg, 3, 7);
        assert_eq!(report.frames_silently_corrupted, 0);
        // Post-KP4 residual BERs are ~1e-15: every frame arrives.
        assert_eq!(report.delivery_ratio(), 1.0);
    }

    #[test]
    fn misalignment_degrades_edge_channels_first() {
        use mosaic_fiber::crosstalk::Misalignment;
        let mut cfg = prototype_config();
        cfg.misalignment = Misalignment {
            lateral: mosaic_units::Length::from_um(2.0),
            rotation_rad: 0.02,
        };
        let map = prototype_ber_map(&cfg);
        // Spiral order: first channels are central, last are edge.
        let center_avg: f64 = map[..10].iter().sum::<f64>() / 10.0;
        let edge_avg: f64 = map[90..].iter().sum::<f64>() / 10.0;
        assert!(
            edge_avg > center_avg,
            "edge {edge_avg} vs center {center_avg}"
        );
    }
}
