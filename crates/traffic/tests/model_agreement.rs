//! Differential test between the two observation models that drive the
//! one stepped core (`sim::campaign::FaultedLink`): F17's expectation
//! model (`replay_campaign`, `floor(ber·bits)` errors per channel) and
//! F19's packet model (`LinkHarness`, counted bit flips on real gearbox
//! streams).
//!
//! On death-only campaigns — every event a permanent LED death, fiber
//! blockage or gearbox kill — both models report the same deaths and
//! zero errors on live channels, so the controller must fire the same
//! transition sequence over the campaign horizon. Campaigns with BER or
//! skew faults are out of scope: there the two models observe
//! differently by design (DESIGN §10.5).

use mosaic_link::degrade::{Cause, Transition};
use mosaic_sim::campaign::{replay_campaign, CampaignRunConfig};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, FaultEvent, FaultKind};
use mosaic_traffic::{traffic_degrade_config, LinkHarness, Policy, TrafficConfig};
use proptest::prelude::*;

const LOGICAL: usize = 8;
const PHYSICAL: usize = 12;
const EPOCHS: usize = 96;
const DEATHS: [FaultKind; 3] = [
    FaultKind::LedDeath,
    FaultKind::FiberBlockage,
    FaultKind::GearboxKill,
];

/// The controller transitions of both models on one campaign, packet
/// model first.
fn both_models(events: Vec<FaultEvent>, seed: u64) -> (Vec<Transition>, Vec<Transition>) {
    let campaign = FaultCampaign::try_from_events(
        CampaignConfig {
            channels: PHYSICAL,
            epochs: EPOCHS,
            ..CampaignConfig::default()
        },
        events,
    )
    .unwrap();
    let expectation = CampaignRunConfig {
        logical_lanes: LOGICAL,
        physical_channels: PHYSICAL,
        campaign: *campaign.config(),
        degrade: traffic_degrade_config(),
        controller: true,
        ..CampaignRunConfig::default()
    };
    let (_, expected) = replay_campaign(&expectation, campaign.clone()).unwrap();
    let packets = TrafficConfig {
        logical: LOGICAL,
        physical: PHYSICAL,
        epochs: EPOCHS as u64,
        policy: Policy::Controller,
        degrade: traffic_degrade_config(),
        ..TrafficConfig::default()
    };
    let mut h = LinkHarness::try_with_campaign(packets, seed, campaign).unwrap();
    for _ in 0..EPOCHS {
        h.step();
    }
    (h.transitions().to_vec(), expected)
}

fn death(channel: usize, kind: usize, start: usize) -> FaultEvent {
    FaultEvent {
        kind: DEATHS[kind],
        ..FaultEvent::kill(channel, start)
    }
}

#[test]
fn models_agree_through_sparing_and_lane_shedding() {
    // Six deaths on a link with four spares: two active-lane deaths are
    // spared, an idle spare dies, and the last deaths exhaust the pool.
    let events = vec![
        death(1, 0, 5),
        death(9, 1, 12),
        death(3, 2, 20),
        death(4, 0, 33),
        death(5, 1, 40),
        death(6, 2, 41),
    ];
    let (packet, expectation) = both_models(events, 7);
    assert_eq!(packet, expectation);
    for cause in [
        Cause::SpareActivated,
        Cause::ExternalDead,
        Cause::SparesExhausted,
    ] {
        assert!(
            packet.iter().any(|t| t.cause == cause),
            "{cause:?} never fired: {packet:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn models_agree_on_death_only_campaigns(
        deaths in prop::collection::vec(any::<u64>(), 0..8),
        seed in any::<u64>(),
    ) {
        // Each draw packs (channel, kind, start).
        let events = deaths
            .into_iter()
            .map(|d| {
                let d = d as usize;
                death(d % PHYSICAL, (d / PHYSICAL) % DEATHS.len(), (d >> 16) % EPOCHS)
            })
            .collect();
        let (packet, expectation) = both_models(events, seed);
        prop_assert_eq!(packet, expectation);
    }
}
