//! Graceful-degradation controller: the link-layer policy that turns
//! per-channel BER telemetry into sparing, remapping, and rate back-off
//! decisions.
//!
//! Mosaic's reliability claims (C3/C6) depend on the link *riding
//! through* component faults rather than dying with them: a failed
//! microLED or fiber core is replaced by a hot spare invisibly to the
//! host, and when the spare pool runs dry the link sheds logical lanes —
//! degrading aggregate rate gracefully instead of going down. This
//! module implements that policy as a per-channel state machine:
//!
//! ```text
//! Active ──ber>suspect──▶ Suspect ──ber>quarantine or dwell──▶ Quarantined
//!   ▲                        │                                     │
//!   └──ber<clear (hyst.)─────┘                  spare available ───┤── no spare
//!                                                      ▼           ▼
//!                                                   Spared ──▶  Retired
//!                                                     (dwell)  (terminal)
//! ```
//!
//! Hysteresis (`clear_ber < suspect_ber`) prevents flapping between
//! Active and Suspect on a channel sitting near threshold. `Retired` is
//! terminal by construction — no match arm leaves it — which the
//! property tests pin down.
//!
//! The controller is deliberately telemetry-agnostic: it *records*
//! [`Transition`]s as plain data and the simulation layer (which owns
//! the process-global telemetry collector) counts them into telemetry.
//! The dependency points link → sim at the workspace level, so the link
//! crate cannot call the sim's telemetry directly.

use crate::lanes::{FailureKind, LaneHealth, LaneMap};

/// Controller state of one physical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CtlState {
    /// In service (or idle in the spare pool), BER nominal.
    Active,
    /// BER crossed the suspect threshold; under observation.
    Suspect,
    /// Condemned this epoch; awaiting spare activation or retirement.
    Quarantined,
    /// Out of service, its logical lane carried by an activated spare.
    Spared,
    /// Permanently out of service. Terminal: no transition leaves it.
    Retired,
}

/// Why a transition fired (emitted alongside every [`Transition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Windowed BER rose above the suspect threshold.
    BerAboveSuspect,
    /// Windowed BER rose above the quarantine threshold.
    BerAboveQuarantine,
    /// Suspect dwell limit expired without the BER clearing.
    SuspectTimeout,
    /// BER stayed below the clear threshold long enough (hysteresis).
    BerCleared,
    /// A hard-dead report arrived from the fault model / loss-of-light.
    ExternalDead,
    /// A spare was activated and the lane remapped.
    SpareActivated,
    /// No spare remained; the logical lane was shed (rate back-off).
    SparesExhausted,
    /// A spared channel aged out of the recovery window.
    SparedAgedOut,
}

/// One state-machine transition, recorded as data for the sim layer to
/// count into telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Controller epoch the transition fired in.
    pub epoch: usize,
    /// Physical channel that transitioned.
    pub channel: usize,
    /// State before.
    pub from: CtlState,
    /// State after.
    pub to: CtlState,
    /// Why.
    pub cause: Cause,
}

/// Thresholds and dwell times of the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// BER-monitor window size in bits.
    pub window_bits: u64,
    /// Completed windows of history the monitor retains.
    pub max_windows: usize,
    /// Enter Suspect above this windowed BER.
    pub suspect_ber: f64,
    /// Return Suspect → Active below this (must be `< suspect_ber`).
    pub clear_ber: f64,
    /// Escalate straight to Quarantined above this (`>= suspect_ber`).
    pub quarantine_ber: f64,
    /// Epochs a channel may dwell in Suspect before forced escalation.
    pub suspect_dwell_limit: usize,
    /// Consecutive clean epochs required to clear Suspect.
    pub clear_epochs: usize,
    /// Epochs a Spared channel lingers before it is Retired for good.
    pub spared_dwell_limit: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        // Conservative by default: only near-dead channels (monitor BER
        // ≳ 0.2, i.e. loss of light or gross misalignment) are condemned
        // immediately; elevated-but-live channels sit in Suspect long
        // enough for transient faults to clear, so spares are spent on
        // persistent damage, not storms.
        DegradeConfig {
            window_bits: 4096,
            max_windows: 4,
            suspect_ber: 1e-4,
            clear_ber: 1e-5,
            quarantine_ber: 0.2,
            suspect_dwell_limit: 128,
            clear_epochs: 4,
            spared_dwell_limit: 32,
        }
    }
}

impl DegradeConfig {
    /// Validate the threshold ordering and dwell parameters.
    pub fn validate(&self) -> mosaic_units::Result<()> {
        if !(self.clear_ber < self.suspect_ber && self.suspect_ber <= self.quarantine_ber) {
            return Err(mosaic_units::MosaicError::invalid_config(
                "degrade_thresholds",
                format!(
                    "need clear < suspect <= quarantine, got {} / {} / {}",
                    self.clear_ber, self.suspect_ber, self.quarantine_ber
                ),
            ));
        }
        if self.clear_epochs == 0 || self.suspect_dwell_limit == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "degrade_dwell",
                "clear_epochs and suspect_dwell_limit must be >= 1",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct ChannelCtl {
    state: CtlState,
    health: LaneHealth,
    /// Epochs spent in the current state (reset on every transition).
    dwell: usize,
    /// Consecutive epochs below `clear_ber` while Suspect.
    clean_streak: usize,
    /// Hard-dead report pending for the next `step()`.
    pending_dead: bool,
}

/// Per-epoch roll-up returned by [`DegradeController::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// Epoch just processed.
    pub epoch: usize,
    /// Transitions fired this epoch.
    pub transitions: usize,
    /// Channels per state after the epoch, indexed
    /// Active/Suspect/Quarantined/Spared/Retired.
    pub by_state: [usize; 5],
    /// Fraction of the provisioned aggregate rate still delivered
    /// (`carried logical lanes / provisioned logical lanes`).
    pub rate_fraction: f64,
}

/// The per-link degradation controller.
#[derive(Debug, Clone)]
pub struct DegradeController {
    cfg: DegradeConfig,
    map: LaneMap,
    channels: Vec<ChannelCtl>,
    transitions: Vec<Transition>,
    epoch: usize,
    provisioned_spares: usize,
    spares_activated: usize,
    lost_lanes: usize,
}

impl DegradeController {
    /// Controller over `logical` lanes carried on `physical` channels
    /// (the surplus is the spare pool), with the given policy.
    pub fn try_new(
        logical: usize,
        physical: usize,
        cfg: DegradeConfig,
    ) -> mosaic_units::Result<Self> {
        cfg.validate()?;
        let map = LaneMap::try_new(logical, physical)?;
        let mut channels = Vec::with_capacity(physical);
        for _ in 0..physical {
            channels.push(ChannelCtl {
                state: CtlState::Active,
                health: LaneHealth::try_new(cfg.window_bits, cfg.max_windows)?,
                dwell: 0,
                clean_streak: 0,
                pending_dead: false,
            });
        }
        Ok(DegradeController {
            cfg,
            map,
            channels,
            transitions: Vec::new(),
            epoch: 0,
            provisioned_spares: physical - logical,
            spares_activated: 0,
            lost_lanes: 0,
        })
    }

    /// Feed one epoch's error observation for a physical channel.
    pub fn record(&mut self, physical: usize, bits: u64, errors: u64) {
        if let Some(ch) = self.channels.get_mut(physical) {
            ch.health.record(bits, errors);
        }
    }

    /// Report a hard failure (loss of light / loss of lock) on a
    /// physical channel; processed at the next [`DegradeController::step`].
    pub fn mark_dead(&mut self, physical: usize) {
        if let Some(ch) = self.channels.get_mut(physical) {
            ch.pending_dead = true;
        }
    }

    fn transition(
        transitions: &mut Vec<Transition>,
        epoch: usize,
        channel: usize,
        ch: &mut ChannelCtl,
        to: CtlState,
        cause: Cause,
    ) {
        transitions.push(Transition {
            epoch,
            channel,
            from: ch.state,
            to,
            cause,
        });
        ch.state = to;
        ch.dwell = 0;
        ch.clean_streak = 0;
    }

    /// Process one controller epoch: evaluate every channel's monitor,
    /// fire transitions, activate spares / shed lanes for quarantined
    /// channels, and return the epoch roll-up.
    pub fn step(&mut self) -> EpochSummary {
        let epoch = self.epoch;
        let t0 = self.transitions.len();
        for idx in 0..self.channels.len() {
            let in_service = self.map.assignment().contains(&idx);
            let ch = &mut self.channels[idx];
            ch.dwell += 1;
            let dead = std::mem::take(&mut ch.pending_dead);
            match ch.state {
                CtlState::Retired | CtlState::Quarantined => {
                    // Retired is terminal; Quarantined resolves below in
                    // the same step it was entered, so neither re-evaluates
                    // monitor state here.
                }
                CtlState::Spared => {
                    if ch.dwell >= self.cfg.spared_dwell_limit {
                        Self::transition(
                            &mut self.transitions,
                            epoch,
                            idx,
                            ch,
                            CtlState::Retired,
                            Cause::SparedAgedOut,
                        );
                    }
                }
                CtlState::Active => {
                    if dead {
                        Self::transition(
                            &mut self.transitions,
                            epoch,
                            idx,
                            ch,
                            CtlState::Quarantined,
                            Cause::ExternalDead,
                        );
                    } else if in_service && ch.health.degraded(self.cfg.quarantine_ber) {
                        Self::transition(
                            &mut self.transitions,
                            epoch,
                            idx,
                            ch,
                            CtlState::Quarantined,
                            Cause::BerAboveQuarantine,
                        );
                    } else if in_service && ch.health.degraded(self.cfg.suspect_ber) {
                        Self::transition(
                            &mut self.transitions,
                            epoch,
                            idx,
                            ch,
                            CtlState::Suspect,
                            Cause::BerAboveSuspect,
                        );
                    }
                }
                CtlState::Suspect => {
                    let ber = ch.health.ber().unwrap_or(0.0);
                    if dead || ch.health.degraded(self.cfg.quarantine_ber) {
                        let cause = if dead {
                            Cause::ExternalDead
                        } else {
                            Cause::BerAboveQuarantine
                        };
                        Self::transition(
                            &mut self.transitions,
                            epoch,
                            idx,
                            ch,
                            CtlState::Quarantined,
                            cause,
                        );
                    } else if ber < self.cfg.clear_ber {
                        ch.clean_streak += 1;
                        if ch.clean_streak >= self.cfg.clear_epochs {
                            Self::transition(
                                &mut self.transitions,
                                epoch,
                                idx,
                                ch,
                                CtlState::Active,
                                Cause::BerCleared,
                            );
                        }
                    } else {
                        ch.clean_streak = 0;
                        if ch.dwell >= self.cfg.suspect_dwell_limit {
                            Self::transition(
                                &mut self.transitions,
                                epoch,
                                idx,
                                ch,
                                CtlState::Quarantined,
                                Cause::SuspectTimeout,
                            );
                        }
                    }
                }
            }
        }
        // Resolve quarantines: activate a spare or shed the lane.
        for idx in 0..self.channels.len() {
            if self.channels[idx].state != CtlState::Quarantined {
                continue;
            }
            match self.map.fail_channel(idx, FailureKind::Degraded) {
                Ok(Some(_lane)) => {
                    self.spares_activated += 1;
                    let ch = &mut self.channels[idx];
                    Self::transition(
                        &mut self.transitions,
                        epoch,
                        idx,
                        ch,
                        CtlState::Spared,
                        Cause::SpareActivated,
                    );
                }
                Ok(None) => {
                    // Was an idle spare (or already retired): no remap
                    // happened, the channel just leaves the pool.
                    let ch = &mut self.channels[idx];
                    Self::transition(
                        &mut self.transitions,
                        epoch,
                        idx,
                        ch,
                        CtlState::Retired,
                        Cause::ExternalDead,
                    );
                }
                Err(_no_spares) => {
                    self.lost_lanes += 1;
                    let ch = &mut self.channels[idx];
                    Self::transition(
                        &mut self.transitions,
                        epoch,
                        idx,
                        ch,
                        CtlState::Retired,
                        Cause::SparesExhausted,
                    );
                }
            }
        }
        self.epoch += 1;
        let mut by_state = [0usize; 5];
        for ch in &self.channels {
            by_state[ch.state as usize] += 1;
        }
        EpochSummary {
            epoch,
            transitions: self.transitions.len() - t0,
            by_state,
            rate_fraction: self.rate_fraction(),
        }
    }

    /// Return the controller to its just-constructed state — all
    /// channels Active with clean monitors, full spare pool, empty
    /// transition log, epoch zero — without releasing any allocation.
    ///
    /// Hyperfleet rebuild tickets model a hardware swap: the replacement
    /// link starts fresh, but the simulation reuses the controller so
    /// the inner event loop stays allocation-free.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.state = CtlState::Active;
            ch.health.reset();
            ch.dwell = 0;
            ch.clean_streak = 0;
            ch.pending_dead = false;
        }
        self.map.reset();
        self.transitions.clear();
        self.epoch = 0;
        self.spares_activated = 0;
        self.lost_lanes = 0;
    }

    /// Current state of a physical channel (`Retired` for out-of-range
    /// indices, the conservative reading).
    pub fn state(&self, physical: usize) -> CtlState {
        self.channels
            .get(physical)
            .map(|c| c.state)
            .unwrap_or(CtlState::Retired)
    }

    /// The live logical-lane → physical-channel map.
    pub fn lane_map(&self) -> &LaneMap {
        &self.map
    }

    /// Spares activated so far (never exceeds the provisioned pool).
    pub fn spares_activated(&self) -> usize {
        self.spares_activated
    }

    /// Spare channels provisioned at construction.
    pub fn provisioned_spares(&self) -> usize {
        self.provisioned_spares
    }

    /// Logical lanes shed after spare exhaustion.
    pub fn lost_lanes(&self) -> usize {
        self.lost_lanes
    }

    /// Fraction of the provisioned aggregate rate still delivered.
    pub fn rate_fraction(&self) -> f64 {
        let logical = self.map.logical_lanes();
        if logical == 0 {
            return 0.0;
        }
        (logical - self.lost_lanes.min(logical)) as f64 / logical as f64
    }

    /// Epochs processed so far.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// All transitions recorded so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
}

/// Stable lowercase tag for a state (used in telemetry counter names).
pub fn state_tag(s: CtlState) -> &'static str {
    match s {
        CtlState::Active => "active",
        CtlState::Suspect => "suspect",
        CtlState::Quarantined => "quarantined",
        CtlState::Spared => "spared",
        CtlState::Retired => "retired",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quick_cfg() -> DegradeConfig {
        DegradeConfig {
            window_bits: 1000,
            max_windows: 2,
            suspect_ber: 1e-3,
            clear_ber: 1e-4,
            quarantine_ber: 1e-1,
            suspect_dwell_limit: 3,
            clear_epochs: 2,
            spared_dwell_limit: 4,
        }
    }

    #[test]
    fn config_validation_rejects_bad_ordering() {
        let bad = DegradeConfig {
            clear_ber: 1e-2,
            suspect_ber: 1e-3,
            ..DegradeConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(DegradeConfig::default().validate().is_ok());
    }

    #[test]
    fn healthy_channels_stay_active() {
        let mut ctl = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        for _ in 0..10 {
            for ch in 0..6 {
                ctl.record(ch, 2000, 0);
            }
            ctl.step();
        }
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.rate_fraction(), 1.0);
    }

    #[test]
    fn degraded_channel_walks_to_spared() {
        let mut ctl = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        // Channel 1 runs at BER 1e-2: above suspect, below quarantine.
        for _ in 0..8 {
            for ch in 0..6 {
                let errors = if ch == 1 { 20 } else { 0 };
                ctl.record(ch, 2000, errors);
            }
            ctl.step();
            if ctl.state(1) == CtlState::Spared {
                break;
            }
        }
        assert_eq!(ctl.state(1), CtlState::Spared);
        assert_eq!(ctl.spares_activated(), 1);
        assert!(!ctl.lane_map().assignment().contains(&1));
        // The walk went Active → Suspect → Quarantined → Spared.
        let path: Vec<CtlState> = ctl
            .transitions()
            .iter()
            .filter(|t| t.channel == 1)
            .map(|t| t.to)
            .collect();
        assert_eq!(
            path,
            vec![CtlState::Suspect, CtlState::Quarantined, CtlState::Spared]
        );
    }

    #[test]
    fn hysteresis_clears_a_recovering_channel() {
        let mut ctl = DegradeController::try_new(2, 3, quick_cfg()).unwrap();
        // One bad burst puts channel 0 in Suspect...
        ctl.record(0, 2000, 10);
        ctl.record(1, 2000, 0);
        ctl.step();
        assert_eq!(ctl.state(0), CtlState::Suspect);
        // ...then clean traffic dilutes the windowed BER below clear_ber
        // and the channel returns to Active after clear_epochs.
        for _ in 0..20 {
            ctl.record(0, 50_000, 0);
            ctl.record(1, 2000, 0);
            ctl.step();
            if ctl.state(0) == CtlState::Active {
                break;
            }
        }
        assert_eq!(ctl.state(0), CtlState::Active);
        assert_eq!(ctl.spares_activated(), 0);
    }

    #[test]
    fn spare_exhaustion_sheds_lanes_and_backs_off_rate() {
        let mut ctl = DegradeController::try_new(4, 5, quick_cfg()).unwrap();
        // Kill three channels outright: 1 spare absorbs the first, the
        // other two shed lanes.
        for ch in [0, 1, 2] {
            ctl.mark_dead(ch);
        }
        ctl.step();
        assert_eq!(ctl.spares_activated(), 1);
        assert_eq!(ctl.lost_lanes(), 2);
        assert!((ctl.rate_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spared_channels_age_into_retired() {
        let mut ctl = DegradeController::try_new(2, 4, quick_cfg()).unwrap();
        ctl.mark_dead(0);
        ctl.step();
        assert_eq!(ctl.state(0), CtlState::Spared);
        for _ in 0..quick_cfg().spared_dwell_limit + 1 {
            ctl.step();
        }
        assert_eq!(ctl.state(0), CtlState::Retired);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let fresh = DegradeController::try_new(4, 6, quick_cfg()).unwrap();
        let mut ctl = fresh.clone();
        // Abuse: kill enough channels to spare and shed.
        for ch in [0, 1, 2, 3] {
            ctl.mark_dead(ch);
        }
        ctl.step();
        assert!(ctl.spares_activated() > 0);
        assert!(!ctl.transitions().is_empty());
        ctl.reset();
        assert_eq!(ctl.epoch(), 0);
        assert_eq!(ctl.spares_activated(), 0);
        assert_eq!(ctl.lost_lanes(), 0);
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.lane_map(), fresh.lane_map());
        for ch in 0..6 {
            assert_eq!(ctl.state(ch), CtlState::Active);
        }
        // A reset controller behaves exactly like a fresh one.
        let mut again = fresh.clone();
        ctl.mark_dead(2);
        again.mark_dead(2);
        let a = ctl.step();
        let b = again.step();
        assert_eq!(a, b);
        assert_eq!(ctl.transitions(), again.transitions());
    }

    proptest! {
        /// ISSUE acceptance: the machine never transitions out of
        /// Retired, and never activates more spares than provisioned.
        #[test]
        fn retired_is_terminal_and_spares_bounded(
            logical in 1usize..10,
            extra in 0usize..6,
            // Packed abuse script: low byte = channel, next byte =
            // errors, bit 16 = hard-kill (the vendored proptest stub has
            // no tuple strategies).
            script in proptest::collection::vec(0u64..(1u64 << 17), 1..120),
        ) {
            let physical = logical + extra;
            let mut ctl =
                DegradeController::try_new(logical, physical, quick_cfg()).unwrap();
            for word in script {
                let ch = (word & 0xFF) as usize % physical;
                let errors = (word >> 8) & 0xFF;
                let kill = (word >> 16) & 1 == 1;
                ctl.record(ch, 2000, errors);
                if kill {
                    ctl.mark_dead(ch);
                }
                ctl.step();
            }
            for t in ctl.transitions() {
                prop_assert_ne!(t.from, CtlState::Retired, "left Retired: {:?}", t);
            }
            prop_assert!(ctl.spares_activated() <= ctl.provisioned_spares());
            // Lane map invariants survive arbitrary abuse.
            let mut a = ctl.lane_map().assignment().to_vec();
            a.sort_unstable();
            let n = a.len();
            a.dedup();
            prop_assert_eq!(a.len(), n, "duplicate assignment");
        }
    }
}
