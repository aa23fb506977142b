//! Error-path contract of the public Result-based API: bad inputs come
//! back as [`MosaicError`] values, never as panics, and the panicking
//! convenience wrappers stay confined to known-good inputs.

use mosaic_repro::fec::bch::Bch;
use mosaic_repro::link::{Gearbox, LaneHealth, StripeConfig};
use mosaic_repro::sim::campaign::{run_campaign, CampaignRunConfig};
use mosaic_repro::sim::faults::CampaignConfig;
use mosaic_repro::{FecChoice, MosaicConfig, MosaicError};
use mosaic_units::{BitRate, Length};
use proptest::prelude::*;

#[test]
fn builder_rejects_invalid_reach() {
    for bad_m in [0.0, -3.0, f64::NAN, f64::INFINITY] {
        let err = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(bad_m))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, MosaicError::InvalidConfig { field: "reach", .. }),
            "reach={bad_m}: {err}"
        );
    }
}

#[test]
fn builder_rejects_missing_required_fields() {
    assert!(MosaicConfig::builder().build().is_err());
    assert!(MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .build()
        .is_err());
    assert!(MosaicConfig::builder()
        .reach(Length::from_m(10.0))
        .build()
        .is_err());
}

#[test]
fn builder_rejects_zero_channel_rate() {
    let err = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .reach(Length::from_m(10.0))
        .channel_rate(BitRate::from_gbps(0.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, MosaicError::InvalidConfig { .. }), "{err}");
}

#[test]
fn try_evaluate_rejects_mutated_invalid_config() {
    // `#[non_exhaustive]` keeps literals out, but fields stay mutable —
    // try_evaluate must re-validate.
    let mut cfg = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .reach(Length::from_m(10.0))
        .build()
        .unwrap();
    cfg.channel_rate = BitRate::from_gbps(-2.0);
    assert!(cfg.try_evaluate().is_err());
}

#[test]
fn oversubscribed_bch_is_an_error() {
    // A shortened BCH(m=4) block has 15 raw bits; t=3 needs ~30 parity
    // bits — structurally impossible, and reported as such.
    let err = Bch::try_new(4, 10, 3).unwrap_err();
    assert!(matches!(err, MosaicError::InvalidCode { .. }), "{err}");
}

#[test]
fn gearbox_construction_and_malformed_input_are_errors() {
    assert!(Gearbox::try_new(0, 4, 8).is_err());
    assert!(
        Gearbox::try_new(8, 4, 8).is_err(),
        "fewer physical than logical"
    );
    assert!(StripeConfig::try_new(4, 0).is_err(), "zero AM period");
    assert!(LaneHealth::try_new(0, 4).is_err());

    let mut rx = Gearbox::try_new(4, 6, 8).unwrap();
    let err = rx.receive(&[vec![], vec![]]).unwrap_err();
    assert!(
        matches!(
            err,
            MosaicError::LengthMismatch {
                what: "channel streams",
                expected: 6,
                got: 2
            }
        ),
        "{err}"
    );
}

#[test]
fn campaign_geometry_is_checked_with_or_without_the_controller() {
    for controller in [false, true] {
        // More lanes than channels: the static map used to count four
        // channels that do not exist.
        let lanes = CampaignRunConfig {
            logical_lanes: 20,
            physical_channels: 16,
            controller,
            ..CampaignRunConfig::default()
        };
        let err = run_campaign(&lanes, 1).unwrap_err();
        assert!(
            matches!(err, MosaicError::InvalidConfig { .. }),
            "controller={controller}: {err}"
        );
        // Faults on channels 16..31 of a 16-channel link.
        let channels = CampaignRunConfig {
            physical_channels: 16,
            campaign: CampaignConfig {
                channels: 32,
                ..CampaignConfig::default()
            },
            controller,
            ..CampaignRunConfig::default()
        };
        let err = run_campaign(&channels, 1).unwrap_err();
        assert!(
            matches!(err, MosaicError::InvalidConfig { .. }),
            "controller={controller}: {err}"
        );
    }
}

proptest! {
    // The contract behind the panicking wrappers: for any in-range
    // (positive, finite) input the builder and try_evaluate return a
    // value — Ok or Err — without panicking. Infeasible links are Ok
    // reports with feasible=false, not errors.
    #[test]
    fn try_evaluate_never_panics_in_range(
        agg_gbps in 1.0f64..4000.0,
        reach_m in 0.1f64..1000.0,
        ch_gbps in 0.25f64..16.0,
    ) {
        let built = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(agg_gbps))
            .reach(Length::from_m(reach_m))
            .channel_rate(BitRate::from_gbps(ch_gbps))
            .build();
        if let Ok(cfg) = built {
            let _ = cfg.try_evaluate();
        }
    }

    // Negative / zero / huge values must come back as Err, not panics
    // (NaN and infinity are pinned by the unit tests above).
    #[test]
    fn builder_never_panics_on_arbitrary_floats(
        agg in -1e13f64..1e13,
        reach in -1e6f64..1e6,
    ) {
        let _ = MosaicConfig::builder()
            .bit_rate(BitRate::from_bps(agg))
            .reach(Length::from_m(reach))
            .fec(FecChoice::Kp4)
            .build();
    }
}
