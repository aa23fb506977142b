//! Time-scheduled fault scripts and randomized fault campaigns for link
//! simulations.
//!
//! Faults are indexed by gearbox *epoch* (one transmit/receive round),
//! which is the granularity at which the control plane can react. The
//! smoltcp-style fault-injection philosophy applies: adverse conditions
//! are first-class inputs to every experiment, not an afterthought.
//!
//! Two layers live here:
//!
//! - The original hand-written [`FaultSchedule`] / [`Fault`] scripts
//!   (used by F11/F12), kept as-is.
//! - A cross-layer **taxonomy** ([`FaultKind`] × [`Persistence`]) and a
//!   seeded [`FaultCampaign`] generator that draws whole fault schedules
//!   from dedicated [`DetRng`] substreams
//!   (`substream_indexed(seed, "fault-campaign", channel)`), so a
//!   campaign is a pure function of `(config, seed)` — reproducible and
//!   thread-count invariant like every other Monte-Carlo path.

use crate::digest::Fnv1a;
use crate::rng::DetRng;

/// A fault to apply to one physical channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The channel goes permanently dark (LED/PD death, fiber core break).
    Kill {
        /// Physical channel index.
        channel: usize,
    },
    /// A transient error burst: the channel runs at `ber` for `epochs`
    /// epochs, then recovers (connector vibration, transient misalignment).
    Burst {
        /// Physical channel index.
        channel: usize,
        /// Elevated bit-error rate during the burst.
        ber: f64,
        /// Burst duration in epochs.
        epochs: usize,
    },
}

/// A schedule mapping epochs to faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<(usize, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault at `epoch`.
    pub fn at(mut self, epoch: usize, fault: Fault) -> Self {
        self.events.push((epoch, fault));
        self
    }

    /// All faults scheduled for `epoch`.
    pub fn faults_at(&self, epoch: usize) -> impl Iterator<Item = &Fault> {
        self.events
            .iter()
            .filter(move |(e, _)| *e == epoch)
            .map(|(_, f)| f)
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last epoch any fault fires in, if the schedule is non-empty.
    pub fn last_epoch(&self) -> Option<usize> {
        self.events.iter().map(|(e, _)| *e).max()
    }
}

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

/// A generated fault campaign: a deterministic function of
/// `(CampaignConfig, seed)`.
///
/// Generation draws each channel's arrival process from its own
/// [`DetRng::substream_indexed`]`(seed, "fault-campaign", channel)`
/// stream, so the campaign never depends on thread count, channel
/// iteration order, or any other scheduling artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    config: CampaignConfig,
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultCampaign {
    /// Generate the campaign for `(config, seed)`.
    pub fn generate(config: CampaignConfig, seed: u64) -> Self {
        let mut events = Vec::new();
        let rate = config.faults_per_kilo_epoch / 1000.0;
        for channel in 0..config.channels {
            if rate <= 0.0 || config.epochs == 0 {
                break;
            }
            let mut rng = DetRng::substream_indexed(seed, "fault-campaign", channel as u64);
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
        FaultCampaign {
            config,
            seed,
            events,
        }
    }

    /// The configuration this campaign was generated from.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The seed this campaign was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All generated events, ordered by channel then arrival time.
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

    /// Down-convert to the legacy [`FaultSchedule`] script language:
    /// permanent kills become [`Fault::Kill`], BER-elevating windows
    /// become [`Fault::Burst`]. Lossy (skew and intermittent duty cycles
    /// have no legacy encoding) but lets generated campaigns drive the
    /// existing F11/F12-style link simulations.
    pub fn to_fault_schedule(&self) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for ev in &self.events {
            let eff = ev.effect();
            match ev.persistence {
                Persistence::Permanent if eff.dead => {
                    schedule = schedule.at(
                        ev.start,
                        Fault::Kill {
                            channel: ev.channel,
                        },
                    );
                }
                _ if eff.extra_ber > 0.0 => {
                    schedule = schedule.at(
                        ev.start,
                        Fault::Burst {
                            channel: ev.channel,
                            ber: eff.extra_ber.min(0.5),
                            epochs: ev.duration,
                        },
                    );
                }
                _ => {}
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_filters_by_epoch() {
        let s = FaultSchedule::new()
            .at(3, Fault::Kill { channel: 1 })
            .at(3, Fault::Kill { channel: 2 })
            .at(
                5,
                Fault::Burst {
                    channel: 0,
                    ber: 1e-2,
                    epochs: 2,
                },
            );
        assert_eq!(s.faults_at(3).count(), 2);
        assert_eq!(s.faults_at(4).count(), 0);
        assert_eq!(s.faults_at(5).count(), 1);
        assert_eq!(s.len(), 3);
    }

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
    fn legacy_schedule_downconversion() {
        let cfg = CampaignConfig {
            channels: 8,
            epochs: 400,
            faults_per_kilo_epoch: 10.0,
            max_duration: 16,
            permanent_fraction: 0.5,
        };
        let campaign = FaultCampaign::generate(cfg, 7);
        let schedule = campaign.to_fault_schedule();
        // Every permanent dead fault must appear as a Kill at its epoch.
        for ev in campaign.events() {
            if ev.persistence == Persistence::Permanent && ev.effect().dead {
                assert!(
                    schedule.faults_at(ev.start).any(|f| *f
                        == Fault::Kill {
                            channel: ev.channel
                        }),
                    "missing kill for {ev:?}"
                );
            }
        }
    }
}
