//! The one fault language for link simulations: a cross-layer
//! **taxonomy** ([`FaultKind`] × [`Persistence`]) of [`FaultEvent`]s,
//! gathered into a [`FaultCampaign`].
//!
//! Faults are indexed by gearbox *epoch* (one transmit/receive round),
//! which is the granularity at which the control plane can react. The
//! smoltcp-style fault-injection philosophy applies: adverse conditions
//! are first-class inputs to every experiment, not an afterthought.
//!
//! A campaign is either listed event by event
//! ([`FaultCampaign::try_from_events`], F11/F12's kill schedules) or
//! drawn by [`FaultCampaign::generate`] from one [`DetRng`] substream per
//! channel (`substream_indexed(seed, "fault-campaign", channel)`), so it
//! is a pure function of `(config, seed)` and thread-count invariant.
//! Every consumer reads it as per-channel [`ChannelEffect`]s per epoch.

use crate::digest::Fnv1a;
use crate::rng::DetRng;

/// Which component a fault strikes, across the phy → fiber → link stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A microLED emitter dies (no optical output).
    LedDeath,
    /// A microLED dims: reduced extinction ratio, elevated BER.
    LedDimming,
    /// A microLED flickers: output drops out in bursts.
    LedFlicker,
    /// The receive TIA saturates and slices unreliably.
    TiaSaturation,
    /// A fiber core is blocked (dust, connector damage): channel dark.
    FiberBlockage,
    /// Inter-core crosstalk surges (bend, stress), raising BER.
    CrosstalkSurge,
    /// A lane-skew jump: the channel's arrival time steps by whole epochs.
    LaneSkewJump,
    /// A burst-error storm: BER spikes orders of magnitude.
    BurstErrorStorm,
    /// The gearbox kills the channel (and revives it if non-permanent).
    GearboxKill,
}

/// All fault kinds, in taxonomy order (stable: campaign generation
/// indexes into this list).
pub const FAULT_KINDS: [FaultKind; 9] = [
    FaultKind::LedDeath,
    FaultKind::LedDimming,
    FaultKind::LedFlicker,
    FaultKind::TiaSaturation,
    FaultKind::FiberBlockage,
    FaultKind::CrosstalkSurge,
    FaultKind::LaneSkewJump,
    FaultKind::BurstErrorStorm,
    FaultKind::GearboxKill,
];

/// How long a fault persists once it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Persistence {
    /// Active from its start epoch forever (component death).
    Permanent,
    /// Active for a contiguous window of epochs, then gone.
    Transient,
    /// Active in a periodic duty cycle inside its window (flicker,
    /// vibration): `on` epochs active out of every `period`.
    Intermittent {
        /// Cycle length in epochs (≥ 1).
        period: usize,
        /// Active epochs per cycle (1 ..= period).
        on: usize,
    },
}

/// One generated fault instance on one physical channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Physical channel struck.
    pub channel: usize,
    /// Component / layer struck.
    pub kind: FaultKind,
    /// Temporal behavior.
    pub persistence: Persistence,
    /// First epoch the fault can be active.
    pub start: usize,
    /// Window length in epochs (ignored for `Permanent`).
    pub duration: usize,
    /// Severity in [0, 1]: scales BER elevation / skew magnitude.
    pub severity: f64,
}

impl FaultEvent {
    /// A `Permanent` `GearboxKill`: `channel` goes dark from `start` on.
    pub fn kill(channel: usize, start: usize) -> Self {
        FaultEvent {
            channel,
            kind: FaultKind::GearboxKill,
            persistence: Persistence::Permanent,
            start,
            duration: 0,
            severity: 1.0,
        }
    }

    /// Is this fault active at `epoch`?
    pub fn active_at(&self, epoch: usize) -> bool {
        if epoch < self.start {
            return false;
        }
        match self.persistence {
            Persistence::Permanent => true,
            Persistence::Transient => epoch < self.start + self.duration,
            Persistence::Intermittent { period, on } => {
                epoch < self.start + self.duration && {
                    let phase = (epoch - self.start) % period.max(1);
                    phase < on
                }
            }
        }
    }

    /// The first epoch at or after `epoch` at which the fault is active
    /// (`None` when it never is again): the smallest `e >= epoch` with
    /// [`FaultEvent::active_at`]`(e)`, found in O(1) — an intermittent
    /// fault in its off phase resumes at the start of its next cycle.
    pub fn next_active(&self, epoch: usize) -> Option<usize> {
        let e = epoch.max(self.start);
        match self.persistence {
            Persistence::Permanent => Some(e),
            Persistence::Transient => (e < self.start + self.duration).then_some(e),
            Persistence::Intermittent { period, on } => {
                if on == 0 {
                    return None;
                }
                let period = period.max(1);
                let phase = (e - self.start) % period;
                let next = if phase < on { e } else { e + (period - phase) };
                (next < self.start + self.duration).then_some(next)
            }
        }
    }

    /// The channel-level effect this fault contributes while active.
    pub fn effect(&self) -> ChannelEffect {
        let s = self.severity.clamp(0.0, 1.0);
        match self.kind {
            FaultKind::LedDeath | FaultKind::FiberBlockage | FaultKind::GearboxKill => {
                ChannelEffect {
                    dead: true,
                    extra_ber: 0.0,
                    skew_epochs: 0,
                }
            }
            FaultKind::LedDimming => ChannelEffect::ber(1e-6 * 10f64.powf(3.0 * s)),
            FaultKind::LedFlicker => ChannelEffect::ber(1e-4 * 10f64.powf(2.0 * s)),
            FaultKind::TiaSaturation => ChannelEffect::ber(1e-3 * 10f64.powf(1.5 * s)),
            FaultKind::CrosstalkSurge => ChannelEffect::ber(1e-5 * 10f64.powf(2.0 * s)),
            FaultKind::BurstErrorStorm => ChannelEffect::ber(1e-2 * 10f64.powf(s)),
            FaultKind::LaneSkewJump => ChannelEffect {
                dead: false,
                extra_ber: 0.0,
                skew_epochs: 1 + (3.0 * s) as u32,
            },
        }
    }
}

/// Net effect of all active faults on one channel at one epoch.
///
/// Effects compose: `dead` dominates, BER elevations add (independent
/// error mechanisms in the union-bound regime), skew takes the max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelEffect {
    /// Channel delivers no usable signal this epoch.
    pub dead: bool,
    /// Additional bit-error rate on top of the channel baseline
    /// (clamped to 0.5 by consumers — a fully random channel).
    pub extra_ber: f64,
    /// Whole-epoch skew the channel's data arrives late by.
    pub skew_epochs: u32,
}

impl ChannelEffect {
    fn ber(extra_ber: f64) -> Self {
        ChannelEffect {
            dead: false,
            extra_ber,
            skew_epochs: 0,
        }
    }

    /// Fold another active fault's effect into this one.
    pub fn combine(&mut self, other: &ChannelEffect) {
        self.dead |= other.dead;
        self.extra_ber += other.extra_ber;
        self.skew_epochs = self.skew_epochs.max(other.skew_epochs);
    }
}

/// Parameters of a randomized fault campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Physical channels faults may strike.
    pub channels: usize,
    /// Campaign horizon in epochs.
    pub epochs: usize,
    /// Mean fault arrivals per channel per 1000 epochs (Poisson process
    /// per channel; `0.0` yields an empty campaign).
    pub faults_per_kilo_epoch: f64,
    /// Maximum window length (epochs) drawn for non-permanent faults.
    pub max_duration: usize,
    /// Probability a drawn fault is permanent (the rest split evenly
    /// between transient and intermittent).
    pub permanent_fraction: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            channels: 16,
            epochs: 1000,
            faults_per_kilo_epoch: 2.0,
            max_duration: 64,
            permanent_fraction: 0.2,
        }
    }
}

/// Channels whose first arrivals [`FaultCampaign::generate_into`] keys
/// in one batch: F18's 12 groups fit one batch, and 16 lanes measured
/// fastest even with 4 of them unused (DESIGN §11.2).
const KEY_BATCH: usize = 16;

/// A fault campaign: generated as a deterministic function of
/// `(CampaignConfig, seed)`, or listed event by event.
///
/// Generation draws each channel's arrival process from its own
/// [`DetRng::substream_indexed`]`(seed, "fault-campaign", channel)`
/// stream, so the campaign never depends on thread count, channel
/// iteration order, or any other scheduling artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    config: CampaignConfig,
    events: Vec<FaultEvent>,
}

impl Default for FaultCampaign {
    /// The fault-free campaign: no channels, no events.
    fn default() -> Self {
        FaultCampaign {
            config: CampaignConfig {
                channels: 0,
                ..CampaignConfig::default()
            },
            events: Vec::new(),
        }
    }
}

impl FaultCampaign {
    /// A campaign of the given events, in the given order, over
    /// `config.channels` channels (the generation parameters of `config`
    /// are kept but unused). Errors when an event names a channel
    /// outside `0..config.channels`.
    pub fn try_from_events(
        config: CampaignConfig,
        events: Vec<FaultEvent>,
    ) -> mosaic_units::Result<Self> {
        for ev in &events {
            if ev.channel >= config.channels {
                return Err(mosaic_units::MosaicError::invalid_config(
                    "fault channel",
                    format!("channel {} outside 0..{}", ev.channel, config.channels),
                ));
            }
        }
        Ok(FaultCampaign { config, events })
    }

    /// Generate the campaign for `(config, seed)`.
    pub fn generate(config: CampaignConfig, seed: u64) -> Self {
        let mut campaign = FaultCampaign::default();
        campaign.generate_into(config, seed);
        campaign
    }

    /// Regenerate this campaign in place as the campaign for `(config,
    /// seed)` — equal to [`FaultCampaign::generate`]`(config, seed)` —
    /// reusing the event buffer, so a caller drawing one campaign per
    /// link allocates only when a link draws more events than any before
    /// it (lint rule R4).
    ///
    /// Each channel's first arrival is its stream's first draw, and at
    /// low rates most channels stop there, so the first arrivals of 16
    /// channels come from one
    /// [`Substreams::first_draws`](crate::rng::Substreams::first_draws)
    /// batch. Only a channel whose first fault falls inside the horizon
    /// keys its own stream, skips the word already used and continues
    /// as the one-stream-per-channel loop would: the campaign is the
    /// same word for word (DESIGN §11.2).
    pub fn generate_into(&mut self, config: CampaignConfig, seed: u64) {
        self.config = config;
        self.events.clear();
        let rate = config.faults_per_kilo_epoch / 1000.0;
        if rate <= 0.0 || config.epochs == 0 {
            return;
        }
        let horizon = config.epochs as f64;
        let channels = DetRng::substreams(seed, "fault-campaign");
        for first in (0..config.channels).step_by(KEY_BATCH) {
            let firsts: [u64; KEY_BATCH] = channels.first_draws(first as u64);
            let end = config.channels.min(first + KEY_BATCH);
            for (channel, &d) in (first..end).zip(&firsts) {
                // `rate > 0`, so `t` is never NaN and `>=` ends the
                // channel exactly where `while t < horizon` would.
                let mut t = DetRng::exponential_of(d, rate);
                if t >= horizon {
                    continue;
                }
                let mut rng = channels.child(channel as u64);
                rng.next_u64(); // `d`, already drawn above
                while t < horizon {
                    let start = t as usize;
                    // bound: below(n) draws from 0..n.
                    let kind = FAULT_KINDS[rng.below(FAULT_KINDS.len())];
                    let severity = rng.uniform();
                    let duration = 1 + rng.below(config.max_duration.max(1));
                    let p = rng.uniform();
                    let persistence = if p < config.permanent_fraction {
                        Persistence::Permanent
                    } else if p < config.permanent_fraction
                        + (1.0 - config.permanent_fraction) / 2.0
                    {
                        Persistence::Transient
                    } else {
                        let period = 2 + rng.below(8);
                        let on = 1 + rng.below(period - 1);
                        Persistence::Intermittent { period, on }
                    };
                    self.events.push(FaultEvent {
                        channel,
                        kind,
                        persistence,
                        start,
                        duration,
                        severity,
                    });
                    t += rng.exponential(rate);
                }
            }
        }
    }

    /// The configuration the campaign was generated from or listed over.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// All events: generated ones ordered by channel then arrival time,
    /// listed ones in the order given.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Net effect on `channel` at `epoch` (identity effect when no fault
    /// is active).
    pub fn effect_at(&self, channel: usize, epoch: usize) -> ChannelEffect {
        let mut net = ChannelEffect::default();
        for ev in &self.events {
            if ev.channel == channel && ev.active_at(epoch) {
                net.combine(&ev.effect());
            }
        }
        net
    }

    /// FNV-1a digest over every event's full encoding — a cheap
    /// fingerprint for bit-identical-replay assertions in tests and the
    /// determinism gate.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::sim();
        for ev in &self.events {
            let (ptag, period, on) = match ev.persistence {
                Persistence::Permanent => (0u64, 0u64, 0u64),
                Persistence::Transient => (1, 0, 0),
                Persistence::Intermittent { period, on } => (2, period as u64, on as u64),
            };
            h.u64(ev.channel as u64)
                .u64(ev.kind as u64)
                .u64(ptag)
                .u64(period)
                .u64(on)
                .u64(ev.start as u64)
                .u64(ev.duration as u64)
                .f64(ev.severity);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_reproducible_and_seed_sensitive() {
        let cfg = CampaignConfig::default();
        let a = FaultCampaign::generate(cfg, 42);
        let b = FaultCampaign::generate(cfg, 42);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = FaultCampaign::generate(cfg, 43);
        assert_ne!(a.digest(), c.digest());
        assert!(!a.events().is_empty(), "default rate should yield events");
    }

    #[test]
    fn campaign_rate_zero_is_empty() {
        let cfg = CampaignConfig {
            faults_per_kilo_epoch: 0.0,
            ..CampaignConfig::default()
        };
        let c = FaultCampaign::generate(cfg, 1);
        assert!(c.events().is_empty());
        assert_eq!(c.effect_at(0, 0), ChannelEffect::default());
    }

    #[test]
    fn persistence_windows_behave() {
        let base = FaultEvent {
            channel: 0,
            kind: FaultKind::BurstErrorStorm,
            persistence: Persistence::Transient,
            start: 10,
            duration: 5,
            severity: 0.5,
        };
        assert!(!base.active_at(9));
        assert!(base.active_at(10));
        assert!(base.active_at(14));
        assert!(!base.active_at(15));

        let perm = FaultEvent {
            persistence: Persistence::Permanent,
            ..base
        };
        assert!(perm.active_at(10));
        assert!(perm.active_at(1_000_000));

        let inter = FaultEvent {
            persistence: Persistence::Intermittent { period: 4, on: 2 },
            duration: 8,
            ..base
        };
        // Phases 0,1 on; 2,3 off; repeating inside [10, 18).
        assert!(inter.active_at(10) && inter.active_at(11));
        assert!(!inter.active_at(12) && !inter.active_at(13));
        assert!(inter.active_at(14) && inter.active_at(15));
        assert!(!inter.active_at(18), "window closed");
    }

    #[test]
    fn generate_into_refills_in_place() {
        let cfg = CampaignConfig::default();
        let mut reused = FaultCampaign::generate(cfg, 1);
        for (seed, rate) in [(42, 2.0), (7, 0.0), (43, 5.0)] {
            let cfg = CampaignConfig {
                faults_per_kilo_epoch: rate,
                ..cfg
            };
            reused.generate_into(cfg, seed);
            assert_eq!(reused, FaultCampaign::generate(cfg, seed));
        }
    }

    /// The one-stream-per-channel generator: each channel keys its own
    /// stream and draws its whole arrival process from it. The batched
    /// `generate_into` must produce exactly these events.
    fn per_channel_loop(config: CampaignConfig, seed: u64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        let rate = config.faults_per_kilo_epoch / 1000.0;
        if rate <= 0.0 || config.epochs == 0 {
            return events;
        }
        let channels = DetRng::substreams(seed, "fault-campaign");
        for channel in 0..config.channels {
            let mut rng = channels.child(channel as u64);
            let mut t = rng.exponential(rate);
            while t < config.epochs as f64 {
                let start = t as usize;
                let kind = FAULT_KINDS[rng.below(FAULT_KINDS.len())];
                let severity = rng.uniform();
                let duration = 1 + rng.below(config.max_duration.max(1));
                let p = rng.uniform();
                let persistence = if p < config.permanent_fraction {
                    Persistence::Permanent
                } else if p < config.permanent_fraction + (1.0 - config.permanent_fraction) / 2.0 {
                    Persistence::Transient
                } else {
                    let period = 2 + rng.below(8);
                    let on = 1 + rng.below(period - 1);
                    Persistence::Intermittent { period, on }
                };
                events.push(FaultEvent {
                    channel,
                    kind,
                    persistence,
                    start,
                    duration,
                    severity,
                });
                t += rng.exponential(rate);
            }
        }
        events
    }

    /// Batched first arrivals change no event: channel counts below,
    /// at and across the 16-channel batch edge, at F18's rate (most
    /// channels stop at the batch), F19's harshest rate and a rate at
    /// which every channel continues past its first draw.
    #[test]
    fn generate_into_matches_the_per_channel_loop() {
        let mut reused = FaultCampaign::default();
        for (rate, epochs) in [(0.004, 26_280), (4.0, 400), (50.0, 400)] {
            let (mut continued, mut stopped) = (0usize, 0usize);
            for channels in [0usize, 1, 12, 15, 16, 17, 100] {
                for seed in [0u64, 1, 0xF18, u64::MAX] {
                    let config = CampaignConfig {
                        channels,
                        epochs,
                        faults_per_kilo_epoch: rate,
                        max_duration: 24,
                        permanent_fraction: 0.25,
                    };
                    reused.generate_into(config, seed);
                    let want = per_channel_loop(config, seed);
                    assert_eq!(
                        reused.events(),
                        &want[..],
                        "rate {rate} channels {channels} seed {seed}"
                    );
                    let hit = (0..channels)
                        .filter(|&c| want.iter().any(|e| e.channel == c))
                        .count();
                    continued += hit;
                    stopped += channels - hit;
                }
            }
            assert!(continued > 0, "rate {rate}: no channel continued");
            if rate == 50.0 {
                assert_eq!(stopped, 0, "every channel continues at rate 50");
            } else {
                assert!(
                    stopped > 0,
                    "rate {rate}: no channel stopped at its first draw"
                );
            }
        }
    }

    proptest::proptest! {
        /// `next_active` is the first active epoch a linear scan finds.
        #[test]
        fn next_active_matches_a_linear_scan(
            start in 0usize..40,
            duration in 0usize..40,
            shape in 0usize..3,
            period in 0usize..10,
            on in 0usize..12,
            from in 0usize..100,
        ) {
            let persistence = match shape {
                0 => Persistence::Permanent,
                1 => Persistence::Transient,
                _ => Persistence::Intermittent { period, on },
            };
            let ev = FaultEvent {
                channel: 0,
                kind: FaultKind::LedFlicker,
                persistence,
                start,
                duration,
                severity: 0.5,
            };
            let scan = (from..from + 200).find(|&e| ev.active_at(e));
            proptest::prop_assert_eq!(ev.next_active(from), scan);
        }
    }

    #[test]
    fn effects_compose() {
        let kill = FaultEvent {
            channel: 2,
            kind: FaultKind::GearboxKill,
            persistence: Persistence::Permanent,
            start: 0,
            duration: 1,
            severity: 1.0,
        };
        let storm = FaultEvent {
            kind: FaultKind::BurstErrorStorm,
            ..kill
        };
        let mut net = ChannelEffect::default();
        net.combine(&kill.effect());
        net.combine(&storm.effect());
        assert!(net.dead);
        assert!(net.extra_ber > 0.0);
        let skew = FaultEvent {
            kind: FaultKind::LaneSkewJump,
            severity: 1.0,
            ..kill
        };
        assert_eq!(skew.effect().skew_epochs, 4);
    }

    #[test]
    fn listed_events_on_missing_channels_are_errors() {
        let ten = CampaignConfig {
            channels: 10,
            ..CampaignConfig::default()
        };
        let err = FaultCampaign::try_from_events(ten, vec![FaultEvent::kill(99, 1)]).unwrap_err();
        assert!(
            matches!(err, mosaic_units::MosaicError::InvalidConfig { .. }),
            "{err}"
        );
        assert!(FaultCampaign::try_from_events(ten, vec![FaultEvent::kill(10, 1)]).is_err());
        let ok = FaultCampaign::try_from_events(ten, vec![FaultEvent::kill(9, 2)]).unwrap();
        assert!(!ok.effect_at(9, 1).dead);
        assert!(ok.effect_at(9, 2).dead && ok.effect_at(9, 1_000).dead);
        assert!(FaultCampaign::default().events().is_empty());
    }
}
