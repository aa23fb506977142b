//! A link under a fault campaign: [`FaultedLink`], the stepped core F17
//! and F19 share, and F17's expectation-model replay on top of it.
//!
//! [`run_campaign`] is the quantitative engine behind experiment F17
//! and the evidence for claims C3/C6: the same generated fault schedule
//! is replayed twice — once against a static lane map (faulted channels
//! stay faulted) and once with [`DegradeController`] sparing, remapping,
//! and shedding lanes — and the two delivered-throughput curves are
//! compared.
//!
//! **Determinism.** The runner itself draws no random numbers: channel
//! error counts are expectation values (`ber · bits`) and frame delivery
//! is the post-FEC success probability, both pure functions of the
//! campaign schedule. All randomness lives in
//! [`FaultCampaign::generate`], whose per-channel `DetRng` substreams
//! are scheduling-independent — so a campaign run is bit-identical at
//! any thread count by construction.
//!
//! **Bounded by logical epochs.** A run executes exactly
//! `config.epochs` controller epochs — a *logical* budget, not a wall
//! clock — so campaign trials terminate deterministically and the
//! module stays clean under rule R2 (no `Instant`/`SystemTime` outside
//! telemetry; clippy.toml).

use crate::faults::{CampaignConfig, ChannelEffect, FaultCampaign};
use crate::telemetry;
use mosaic_link::degrade::{state_tag, DegradeConfig, DegradeController, Transition};
use mosaic_link::lanes::LaneMap;

/// One link under a fault campaign, stepped epoch by epoch: the core F17
/// ([`replay_campaign`]) and F19 (`traffic::LinkHarness`) drive. Without
/// a controller the initial lane map rides out the campaign (static).
#[derive(Debug, Clone)]
pub struct FaultedLink {
    campaign: FaultCampaign,
    ctl: Option<DegradeController>,
    /// The static baseline's lane map (unused under a controller).
    static_map: LaneMap,
    effects: Vec<ChannelEffect>,
    epoch: usize,
    /// Controller transitions before this index fired in earlier epochs.
    fresh_from: usize,
}

impl FaultedLink {
    /// `logical` lanes over `physical` channels under `campaign`, with a
    /// controller running `degrade` (`None`: static). Errors when the
    /// lanes or the campaign's channels do not fit the link.
    pub fn try_new(
        logical: usize,
        physical: usize,
        campaign: FaultCampaign,
        degrade: Option<DegradeConfig>,
    ) -> mosaic_units::Result<Self> {
        let struck = FaultCampaign::config(&campaign).channels;
        if struck > physical {
            return Err(mosaic_units::MosaicError::invalid_config(
                "campaign.channels",
                format!("campaign strikes {struck} channels, link has {physical}"),
            ));
        }
        let static_map = LaneMap::try_new(logical, physical)?;
        let ctl = degrade.map(|cfg| DegradeController::try_new(logical, physical, cfg));
        Ok(FaultedLink {
            campaign,
            ctl: ctl.transpose()?,
            static_map,
            effects: vec![ChannelEffect::default(); physical],
            epoch: 0,
            fresh_from: 0,
        })
    }

    /// Run one epoch: resolve every channel's effect once, ask
    /// `observe(channel, effect)` what the caller's monitor saw as
    /// `(bits, errors)` (in channel order), report deaths and observations
    /// to the controller and step it. Allocation-free (bar log growth).
    pub fn step(&mut self, mut observe: impl FnMut(usize, &ChannelEffect) -> (u64, u64)) {
        for (ch, eff) in self.effects.iter_mut().enumerate() {
            *eff = self.campaign.effect_at(ch, self.epoch);
            let (bits, errors) = observe(ch, eff);
            if let Some(ctl) = self.ctl.as_mut() {
                if eff.dead {
                    ctl.mark_dead(ch);
                }
                ctl.record(ch, bits, errors);
            }
        }
        if let Some(ctl) = self.ctl.as_mut() {
            self.fresh_from = ctl.transitions().len();
            ctl.step();
        }
        self.epoch += 1;
    }

    /// The transitions the last [`FaultedLink::step`] fired.
    pub fn new_transitions(&self) -> &[Transition] {
        &self.transitions()[self.fresh_from..]
    }

    /// Every controller transition so far, in firing order.
    pub fn transitions(&self) -> &[Transition] {
        self.ctl.as_ref().map_or(&[], |c| c.transitions())
    }

    /// Every channel's effect in the last stepped epoch.
    pub fn effects(&self) -> &[ChannelEffect] {
        &self.effects
    }

    /// The lane map in force: the controller's, or the static one.
    pub fn lane_map(&self) -> &LaneMap {
        self.ctl.as_ref().map_or(&self.static_map, |c| c.lane_map())
    }

    /// The controller, when the link runs one.
    pub fn controller(&self) -> Option<&DegradeController> {
        self.ctl.as_ref()
    }

    /// The campaign the link runs under.
    pub fn campaign(&self) -> &FaultCampaign {
        &self.campaign
    }
}

/// Parameters of one campaign replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignRunConfig {
    /// Logical lanes the link is provisioned to carry.
    pub logical_lanes: usize,
    /// Physical channels (surplus over `logical_lanes` is the spare pool).
    pub physical_channels: usize,
    /// Bits each physical channel carries per epoch (feeds the BER
    /// monitors and the delivery model).
    pub bits_per_epoch: u64,
    /// Frame size in bits for the delivery model.
    pub frame_bits: u64,
    /// Healthy-channel baseline BER.
    pub base_ber: f64,
    /// Post-FEC correctable BER: lanes at or below this deliver
    /// perfectly; excess BER decays frame success exponentially.
    pub correctable_ber: f64,
    /// Fault-arrival process parameters.
    pub campaign: CampaignConfig,
    /// Controller policy (ignored when `controller` is false).
    pub degrade: DegradeConfig,
    /// Run with the graceful-degradation controller?
    pub controller: bool,
}

impl Default for CampaignRunConfig {
    fn default() -> Self {
        CampaignRunConfig {
            logical_lanes: 12,
            physical_channels: 16,
            bits_per_epoch: 8192,
            frame_bits: 4096,
            base_ber: 1e-6,
            correctable_ber: 1e-3,
            campaign: CampaignConfig::default(),
            degrade: DegradeConfig::default(),
            controller: true,
        }
    }
}

/// Aggregate outcome of one campaign replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOutcome {
    /// Epochs executed (the logical budget).
    pub epochs: usize,
    /// Mean delivered fraction of the provisioned aggregate rate.
    pub delivered_fraction: f64,
    /// Fraction of epochs delivering ≥ 90 % of provisioned rate.
    pub availability: f64,
    /// Fault events the campaign injected.
    pub fault_events: usize,
    /// Spares the controller activated (0 without controller).
    pub spares_activated: usize,
    /// Logical lanes shed after spare exhaustion (0 without controller).
    pub lost_lanes: usize,
    /// Controller transitions fired (0 without controller).
    pub transitions: usize,
    /// Rate fraction still provisioned when the run ended.
    pub final_rate_fraction: f64,
}

/// Monitor-visible BER of a channel under a fault effect: deaths read as
/// half-random slicing, skew reads as gross misalignment errors.
fn monitor_ber(base: f64, effect: &ChannelEffect) -> f64 {
    if effect.dead {
        return 0.5;
    }
    let skew_penalty = if effect.skew_epochs > 0 { 0.25 } else { 0.0 };
    (base + effect.extra_ber + skew_penalty).min(0.5)
}

/// Post-FEC frame-delivery probability for a lane at `ber`: perfect at
/// or below the correctable floor, exponential decay above it, zero
/// while dead or realigning after a skew jump.
fn delivery(ber: f64, effect: &ChannelEffect, cfg: &CampaignRunConfig) -> f64 {
    if effect.dead || effect.skew_epochs > 0 {
        return 0.0;
    }
    let excess = (ber - cfg.correctable_ber).max(0.0);
    (-excess * cfg.frame_bits as f64).exp()
}

/// Replay the campaign generated from `(config.campaign, seed)` against
/// the link and return the aggregate outcome; see [`replay_campaign`].
pub fn run_campaign(
    config: &CampaignRunConfig,
    seed: u64,
) -> mosaic_units::Result<CampaignOutcome> {
    let campaign = FaultCampaign::generate(config.campaign, seed);
    replay_campaign(config, campaign).map(|(outcome, _)| outcome)
}

/// Replay `campaign` against the link of `config` (whose `campaign`
/// field is not consulted): the aggregate outcome plus every controller
/// transition in firing order. Errors on a geometry
/// [`FaultedLink::try_new`] rejects, with or without the controller.
///
/// Telemetry: bumps `campaign.fault_events`, per-destination-state
/// `campaign.transition.{state}` counters, `campaign.spares_activated`,
/// and `campaign.lost_lanes` — all deterministic values, safe for the
/// value-checked manifest diff.
pub fn replay_campaign(
    config: &CampaignRunConfig,
    campaign: FaultCampaign,
) -> mosaic_units::Result<(CampaignOutcome, Vec<Transition>)> {
    let epochs = campaign.config().epochs;
    let fault_events = campaign.events().len();
    let logical = config.logical_lanes;
    let mut link = FaultedLink::try_new(
        logical,
        config.physical_channels,
        campaign,
        config.controller.then_some(config.degrade),
    )?;

    let mut delivered_sum = 0.0;
    let mut available_epochs = 0usize;
    for _ in 0..epochs {
        // Every channel's monitor sees the expected error count.
        link.step(|_, effect| {
            let ber = monitor_ber(config.base_ber, effect);
            let bits = config.bits_per_epoch;
            (bits, (ber * bits as f64) as u64)
        });
        // Deliverability of the lanes actually carried this epoch.
        // A lane whose channel is dead (and could not be remapped)
        // contributes zero delivery on its own; no separate carried-lane
        // bookkeeping needed.
        let mut epoch_delivered = 0.0;
        for &ch in link.lane_map().assignment() {
            let effect = &link.effects()[ch];
            let ber = monitor_ber(config.base_ber, effect);
            epoch_delivered += delivery(ber, effect, config);
        }
        let fraction = epoch_delivered / logical.max(1) as f64;
        delivered_sum += fraction;
        if fraction >= 0.9 {
            available_epochs += 1;
        }
    }

    telemetry::counter_add("campaign.fault_events", fault_events as u64);
    for t in link.transitions() {
        telemetry::counter_add(&format!("campaign.transition.{}", state_tag(t.to)), 1);
    }
    let ctl = link.controller();
    let spares_activated = ctl.map_or(0, |c| c.spares_activated());
    let lost_lanes = ctl.map_or(0, |c| c.lost_lanes());
    if spares_activated > 0 {
        telemetry::counter_add("campaign.spares_activated", spares_activated as u64);
    }
    if lost_lanes > 0 {
        telemetry::counter_add("campaign.lost_lanes", lost_lanes as u64);
    }

    // With no epochs (or, above, no lanes) the sums are 0, and so are
    // their shares.
    let per_epoch = |total: f64| total / epochs.max(1) as f64;
    let outcome = CampaignOutcome {
        epochs,
        delivered_fraction: per_epoch(delivered_sum),
        availability: per_epoch(available_epochs as f64),
        fault_events,
        spares_activated,
        lost_lanes,
        transitions: link.transitions().len(),
        final_rate_fraction: ctl.map_or(1.0, |c| c.rate_fraction()),
    };
    Ok((outcome, link.transitions().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, controller: bool) -> CampaignRunConfig {
        CampaignRunConfig {
            campaign: CampaignConfig {
                channels: 16,
                epochs: 400,
                faults_per_kilo_epoch: rate,
                max_duration: 32,
                permanent_fraction: 0.3,
            },
            controller,
            ..CampaignRunConfig::default()
        }
    }

    #[test]
    fn fault_free_campaign_delivers_everything() {
        let _collector = crate::telemetry::test_guard::shared();
        let out = run_campaign(&cfg(0.0, true), 1).unwrap();
        assert!((out.delivered_fraction - 1.0).abs() < 1e-12, "{out:?}");
        assert_eq!(out.availability, 1.0);
        assert_eq!(out.fault_events, 0);
        assert_eq!(out.transitions, 0);
    }

    #[test]
    fn controller_beats_static_map_under_faults() {
        let _collector = crate::telemetry::test_guard::shared();
        // Permanent-heavy fault mix: this is the regime sparing exists
        // for (dead channels stay dead under a static map).
        let mk = |controller| CampaignRunConfig {
            campaign: CampaignConfig {
                channels: 16,
                epochs: 400,
                faults_per_kilo_epoch: 3.0,
                max_duration: 32,
                permanent_fraction: 0.7,
            },
            controller,
            ..CampaignRunConfig::default()
        };
        let seed = 11;
        let with = run_campaign(&mk(true), seed).unwrap();
        let without = run_campaign(&mk(false), seed).unwrap();
        assert_eq!(with.fault_events, without.fault_events);
        assert!(with.fault_events > 0);
        assert!(
            with.delivered_fraction > without.delivered_fraction,
            "controller should win under permanent faults: {with:?} vs {without:?}"
        );
        assert!(with.spares_activated > 0, "{with:?}");
    }

    #[test]
    fn outcome_is_reproducible() {
        let _collector = crate::telemetry::test_guard::shared();
        let a = run_campaign(&cfg(3.0, true), 5).unwrap();
        let b = run_campaign(&cfg(3.0, true), 5).unwrap();
        assert_eq!(a, b);
        let c = run_campaign(&cfg(3.0, true), 6).unwrap();
        assert_ne!(a, c);
    }
}
