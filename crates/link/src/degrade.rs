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

use crate::lanes::{FailureKind, LaneMap, RingCounts};

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
    /// The channel's BER monitor; its ring is the channel's slice of
    /// `DegradeController::rings`.
    health: RingCounts,
    /// Epoch of the last transition plus one (0 before any): when step
    /// `e` evaluates the channel it has dwelt `e + 1 - entered` epochs in
    /// its state, so idle epochs need no per-channel counter.
    entered: usize,
    /// Consecutive epochs below `clear_ber` while Suspect.
    clean_streak: usize,
    /// Hard-dead report pending for the next `step()`.
    pending_dead: bool,
}

/// The transition log and the per-state channel counts it implies, kept
/// in step by [`Ledger::fire`].
#[derive(Debug, Clone)]
struct Ledger {
    transitions: Vec<Transition>,
    /// Channels per state, indexed by `CtlState as usize`.
    by_state: [usize; 5],
}

impl Ledger {
    fn fire(
        &mut self,
        epoch: usize,
        channel: usize,
        ch: &mut ChannelCtl,
        to: CtlState,
        cause: Cause,
    ) {
        self.transitions.push(Transition {
            epoch,
            channel,
            from: ch.state,
            to,
            cause,
        });
        self.by_state[ch.state as usize] -= 1;
        self.by_state[to as usize] += 1;
        ch.state = to;
        ch.entered = epoch + 1;
        ch.clean_streak = 0;
    }
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
///
/// A step costs O(watched channels), not O(channels). The controller
/// keeps a *watch set*, one bit per physical channel, of the channels the
/// next [`step`](DegradeController::step) must evaluate: every channel
/// that was recorded or marked dead since the last step, every channel in
/// Suspect, Quarantined or Spared, and the spare a remap just brought
/// into service. The invariant that makes skipping the rest exact: **an
/// unwatched channel is Retired, or Active with no pending dead report
/// and no escalation due** — it carries no lane, or its monitor reads
/// clean at the suspect and the quarantine threshold. Such a channel's
/// evaluation fires nothing and changes nothing, because its monitor and
/// its dwell only matter again after a record, a dead mark or a remap,
/// each of which watches it.
#[derive(Debug, Clone)]
pub struct DegradeController {
    cfg: DegradeConfig,
    map: LaneMap,
    channels: Vec<ChannelCtl>,
    /// Every channel's monitor ring, `cfg.max_windows` slots each, channel
    /// `p` at `p * max_windows`: one allocation for all the monitors.
    rings: Vec<u64>,
    /// Bit `p % 64` of word `p / 64`: channel `p` is watched.
    watch: Vec<u64>,
    log: Ledger,
    epoch: usize,
    provisioned_spares: usize,
    spares_activated: usize,
    lost_lanes: usize,
}

/// Set-bit positions of one watch word, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
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
        let health = RingCounts::try_new(cfg.window_bits, cfg.max_windows)?;
        let slots = physical.checked_mul(cfg.max_windows).ok_or_else(|| {
            mosaic_units::MosaicError::invalid_config(
                "lane_monitor",
                format!(
                    "{physical} channels of {} windows overflow",
                    cfg.max_windows
                ),
            )
        })?;
        let channel = ChannelCtl {
            state: CtlState::Active,
            health,
            entered: 0,
            clean_streak: 0,
            pending_dead: false,
        };
        Ok(DegradeController {
            cfg,
            map,
            channels: vec![channel; physical],
            rings: vec![0; slots],
            watch: vec![0; physical.div_ceil(64)],
            log: Ledger {
                transitions: Vec::new(),
                by_state: [physical, 0, 0, 0, 0],
            },
            epoch: 0,
            provisioned_spares: physical - logical,
            spares_activated: 0,
            lost_lanes: 0,
        })
    }

    /// Feed one epoch's error observation for a physical channel.
    pub fn record(&mut self, physical: usize, bits: u64, errors: u64) {
        if let Some(ch) = self.channels.get_mut(physical) {
            let n = self.cfg.max_windows;
            ch.health
                .record(&mut self.rings[physical * n..][..n], bits, errors);
            self.watch(physical);
        }
    }

    /// Report a hard failure (loss of light / loss of lock) on a
    /// physical channel; processed at the next [`DegradeController::step`].
    pub fn mark_dead(&mut self, physical: usize) {
        if let Some(ch) = self.channels.get_mut(physical) {
            ch.pending_dead = true;
            self.watch(physical);
        }
    }

    /// Add channel `physical` to the watch set.
    fn watch(&mut self, physical: usize) {
        self.watch[physical / 64] |= 1 << (physical % 64);
    }

    /// Process one controller epoch: evaluate every watched channel's
    /// monitor in ascending channel order, fire transitions, activate
    /// spares / shed lanes for quarantined channels, and return the epoch
    /// roll-up.
    // Every fault window F17–F19 replay steps once an epoch.
    // lint: no-alloc proof=crates/link/tests/alloc_free.rs
    pub fn step(&mut self) -> EpochSummary {
        let epoch = self.epoch;
        let t0 = self.log.transitions.len();
        for w in 0..self.watch.len() {
            // A channel stays watched only while its state has work.
            for bit in set_bits(std::mem::take(&mut self.watch[w])) {
                let idx = w * 64 + bit;
                let in_service = self.map.carries_lane(idx);
                let ch = &mut self.channels[idx];
                let dwell = epoch + 1 - ch.entered;
                let dead = std::mem::take(&mut ch.pending_dead);
                match ch.state {
                    CtlState::Retired | CtlState::Quarantined => {
                        // Retired is terminal; Quarantined resolves below in
                        // the same step it was entered, so neither re-evaluates
                        // monitor state here.
                    }
                    CtlState::Spared => {
                        if dwell >= self.cfg.spared_dwell_limit {
                            self.log
                                .fire(epoch, idx, ch, CtlState::Retired, Cause::SparedAgedOut);
                        }
                    }
                    CtlState::Active => {
                        if dead {
                            self.log.fire(
                                epoch,
                                idx,
                                ch,
                                CtlState::Quarantined,
                                Cause::ExternalDead,
                            );
                        } else if in_service && ch.health.degraded(self.cfg.quarantine_ber) {
                            self.log.fire(
                                epoch,
                                idx,
                                ch,
                                CtlState::Quarantined,
                                Cause::BerAboveQuarantine,
                            );
                        } else if in_service && ch.health.degraded(self.cfg.suspect_ber) {
                            self.log.fire(
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
                            self.log.fire(epoch, idx, ch, CtlState::Quarantined, cause);
                        } else if ber < self.cfg.clear_ber {
                            ch.clean_streak += 1;
                            if ch.clean_streak >= self.cfg.clear_epochs {
                                self.log
                                    .fire(epoch, idx, ch, CtlState::Active, Cause::BerCleared);
                            }
                        } else {
                            ch.clean_streak = 0;
                            if dwell >= self.cfg.suspect_dwell_limit {
                                self.log.fire(
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
                if matches!(
                    ch.state,
                    CtlState::Suspect | CtlState::Quarantined | CtlState::Spared
                ) {
                    self.watch[w] |= 1 << bit;
                }
            }
        }
        // Resolve quarantines: activate a spare or shed the lane. Every
        // Quarantined channel was just watched above.
        if self.log.by_state[CtlState::Quarantined as usize] > 0 {
            for w in 0..self.watch.len() {
                for bit in set_bits(self.watch[w]) {
                    let idx = w * 64 + bit;
                    if self.channels[idx].state != CtlState::Quarantined {
                        continue;
                    }
                    let ch = &mut self.channels[idx];
                    match self.map.fail_channel(idx, FailureKind::Degraded) {
                        Ok(Some(lane)) => {
                            self.spares_activated += 1;
                            self.log
                                .fire(epoch, idx, ch, CtlState::Spared, Cause::SpareActivated);
                            // The spare now carries a lane: its monitor
                            // counts from the next step on.
                            self.watch(self.map.physical_for(lane));
                        }
                        Ok(None) => {
                            // Was an idle spare (or already retired): no remap
                            // happened, the channel just leaves the pool.
                            self.log
                                .fire(epoch, idx, ch, CtlState::Retired, Cause::ExternalDead);
                            self.watch[w] &= !(1 << bit);
                        }
                        Err(_no_spares) => {
                            self.lost_lanes += 1;
                            self.log.fire(
                                epoch,
                                idx,
                                ch,
                                CtlState::Retired,
                                Cause::SparesExhausted,
                            );
                            self.watch[w] &= !(1 << bit);
                        }
                    }
                }
            }
        }
        self.epoch += 1;
        EpochSummary {
            epoch,
            transitions: self.log.transitions.len() - t0,
            by_state: self.log.by_state,
            rate_fraction: self.rate_fraction(),
        }
    }

    /// True when stepping would change nothing but the epoch: no
    /// hard-dead report is pending, and every channel is `Retired` or
    /// `Active` with nothing to escalate — it carries no lane, or its
    /// monitor reads clean at both the suspect and the quarantine
    /// threshold. An idle controller that receives no observation stays
    /// idle, so [`DegradeController::skip_idle`] may stand in for any
    /// number of observation-free [`step`]s.
    ///
    /// O(watched channels): by the watch-set invariant (see
    /// [`DegradeController`]) every unwatched channel already qualifies.
    ///
    /// [`step`]: DegradeController::step
    pub fn is_idle(&self) -> bool {
        // `ber > suspect || ber > quarantine` is `ber > min(suspect,
        // quarantine)`: one monitor read per channel.
        let escalate_above = self.cfg.suspect_ber.min(self.cfg.quarantine_ber);
        self.watch.iter().enumerate().all(|(w, &word)| {
            set_bits(word).all(|bit| {
                let idx = w * 64 + bit;
                let ch = &self.channels[idx];
                !ch.pending_dead
                    && match ch.state {
                        CtlState::Retired => true,
                        CtlState::Active => {
                            !self.map.carries_lane(idx) || !ch.health.degraded(escalate_above)
                        }
                        CtlState::Suspect | CtlState::Quarantined | CtlState::Spared => false,
                    }
            })
        })
    }

    /// Advance an idle controller by `n` epochs at once: exactly what `n`
    /// observation-free [`DegradeController::step`]s do to it (bump the
    /// epoch and, for `n > 0`, evaluate the watched channels to no
    /// effect, which empties the watch set). O(1) for up to 64 channels:
    /// dwell is kept as an entry epoch, so no channel is touched. Only
    /// valid while [`DegradeController::is_idle`] holds; debug builds
    /// assert it.
    pub fn skip_idle(&mut self, n: usize) {
        debug_assert!(self.is_idle(), "skip_idle on a busy controller");
        if n > 0 {
            self.watch.fill(0);
        }
        self.epoch += n;
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
            ch.entered = 0;
            ch.clean_streak = 0;
            ch.pending_dead = false;
        }
        self.rings.fill(0);
        self.watch.fill(0);
        self.map.reset();
        self.log.transitions.clear();
        self.log.by_state = [self.channels.len(), 0, 0, 0, 0];
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
        &self.log.transitions
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
    use crate::lanes::LaneHealth;
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

    #[test]
    fn idle_tracks_pending_work() {
        let mut ctl = DegradeController::try_new(2, 4, quick_cfg()).unwrap();
        assert!(ctl.is_idle(), "a fresh controller has nothing to do");
        // A degraded idle spare is no work; a degraded lane is.
        ctl.record(3, 2000, 500);
        assert!(ctl.is_idle());
        ctl.record(0, 2000, 20);
        assert!(!ctl.is_idle());
        ctl.step();
        assert_eq!(ctl.state(0), CtlState::Suspect);
        assert!(!ctl.is_idle());
        let mut ctl = DegradeController::try_new(2, 4, quick_cfg()).unwrap();
        ctl.mark_dead(1);
        assert!(!ctl.is_idle(), "a pending dead report is work");
        ctl.step();
        assert!(!ctl.is_idle(), "a Spared channel ages");
        while ctl.state(1) != CtlState::Retired {
            ctl.step();
        }
        assert!(ctl.is_idle());
        let before = ctl.epoch();
        ctl.skip_idle(1000);
        assert_eq!(ctl.epoch(), before + 1000);
    }

    /// One packed script word (see `retired_is_terminal_and_spares_bounded`)
    /// per epoch: record, maybe kill, step.
    fn drive(ctl: &mut DegradeController, script: &[u64], physical: usize) {
        for &word in script {
            let ch = (word & 0xFF) as usize % physical;
            ctl.record(ch, 2000, (word >> 8) & 0xFF);
            if (word >> 16) & 1 == 1 {
                ctl.mark_dead(ch);
            }
            ctl.step();
        }
    }

    /// The controller as it was before the watch set: every step walks
    /// every channel and bumps its dwell counter, resolves quarantines in
    /// a second full pass and counts the states in a third, and
    /// `is_idle` reads every channel.
    #[derive(Debug, Clone)]
    struct DenseChannel {
        state: CtlState,
        health: LaneHealth,
        dwell: usize,
        clean_streak: usize,
        pending_dead: bool,
    }

    struct DenseController {
        cfg: DegradeConfig,
        map: LaneMap,
        channels: Vec<DenseChannel>,
        transitions: Vec<Transition>,
        epoch: usize,
        lost_lanes: usize,
    }

    impl DenseController {
        fn new(logical: usize, physical: usize, cfg: DegradeConfig) -> Self {
            DenseController {
                cfg,
                map: LaneMap::try_new(logical, physical).unwrap(),
                channels: (0..physical)
                    .map(|_| DenseChannel {
                        state: CtlState::Active,
                        health: LaneHealth::new(cfg.window_bits, cfg.max_windows),
                        dwell: 0,
                        clean_streak: 0,
                        pending_dead: false,
                    })
                    .collect(),
                transitions: Vec::new(),
                epoch: 0,
                lost_lanes: 0,
            }
        }

        fn record(&mut self, physical: usize, bits: u64, errors: u64) {
            self.channels[physical].health.record(bits, errors);
        }

        fn mark_dead(&mut self, physical: usize) {
            self.channels[physical].pending_dead = true;
        }

        fn fire(&mut self, epoch: usize, idx: usize, to: CtlState, cause: Cause) {
            let ch = &mut self.channels[idx];
            self.transitions.push(Transition {
                epoch,
                channel: idx,
                from: ch.state,
                to,
                cause,
            });
            ch.state = to;
            ch.dwell = 0;
            ch.clean_streak = 0;
        }

        fn step(&mut self) -> EpochSummary {
            let epoch = self.epoch;
            let t0 = self.transitions.len();
            let cfg = self.cfg;
            for idx in 0..self.channels.len() {
                let in_service = self.map.carries_lane(idx);
                let ch = &mut self.channels[idx];
                ch.dwell += 1;
                let dead = std::mem::take(&mut ch.pending_dead);
                let (dwell, state) = (ch.dwell, ch.state);
                let ber = ch.health.ber().unwrap_or(0.0);
                let above_quarantine = ch.health.degraded(cfg.quarantine_ber);
                let above_suspect = ch.health.degraded(cfg.suspect_ber);
                match state {
                    CtlState::Retired | CtlState::Quarantined => {}
                    CtlState::Spared => {
                        if dwell >= cfg.spared_dwell_limit {
                            self.fire(epoch, idx, CtlState::Retired, Cause::SparedAgedOut);
                        }
                    }
                    CtlState::Active => {
                        if dead {
                            self.fire(epoch, idx, CtlState::Quarantined, Cause::ExternalDead);
                        } else if in_service && above_quarantine {
                            self.fire(epoch, idx, CtlState::Quarantined, Cause::BerAboveQuarantine);
                        } else if in_service && above_suspect {
                            self.fire(epoch, idx, CtlState::Suspect, Cause::BerAboveSuspect);
                        }
                    }
                    CtlState::Suspect => {
                        if dead || above_quarantine {
                            let cause = if dead {
                                Cause::ExternalDead
                            } else {
                                Cause::BerAboveQuarantine
                            };
                            self.fire(epoch, idx, CtlState::Quarantined, cause);
                        } else if ber < cfg.clear_ber {
                            self.channels[idx].clean_streak += 1;
                            if self.channels[idx].clean_streak >= cfg.clear_epochs {
                                self.fire(epoch, idx, CtlState::Active, Cause::BerCleared);
                            }
                        } else {
                            self.channels[idx].clean_streak = 0;
                            if dwell >= cfg.suspect_dwell_limit {
                                self.fire(epoch, idx, CtlState::Quarantined, Cause::SuspectTimeout);
                            }
                        }
                    }
                }
            }
            for idx in 0..self.channels.len() {
                if self.channels[idx].state != CtlState::Quarantined {
                    continue;
                }
                match self.map.fail_channel(idx, FailureKind::Degraded) {
                    Ok(Some(_)) => self.fire(epoch, idx, CtlState::Spared, Cause::SpareActivated),
                    Ok(None) => self.fire(epoch, idx, CtlState::Retired, Cause::ExternalDead),
                    Err(_) => {
                        self.lost_lanes += 1;
                        self.fire(epoch, idx, CtlState::Retired, Cause::SparesExhausted);
                    }
                }
            }
            self.epoch += 1;
            let mut by_state = [0usize; 5];
            for ch in &self.channels {
                by_state[ch.state as usize] += 1;
            }
            let logical = self.map.logical_lanes();
            EpochSummary {
                epoch,
                transitions: self.transitions.len() - t0,
                by_state,
                rate_fraction: (logical - self.lost_lanes.min(logical)) as f64 / logical as f64,
            }
        }

        fn is_idle(&self) -> bool {
            let escalate_above = self.cfg.suspect_ber.min(self.cfg.quarantine_ber);
            self.channels.iter().enumerate().all(|(idx, ch)| {
                !ch.pending_dead
                    && match ch.state {
                        CtlState::Retired => true,
                        CtlState::Active => {
                            !self.map.carries_lane(idx) || !ch.health.degraded(escalate_above)
                        }
                        _ => false,
                    }
            })
        }

        fn skip_idle(&mut self, n: usize) {
            for ch in &mut self.channels {
                ch.dwell += n;
            }
            self.epoch += n;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The watch-set controller against the dense one above: the same
        /// transitions, `EpochSummary`, states and `is_idle` after every
        /// operation, on geometries up to 70 channels (past one watch
        /// word), with records and dead marks on lanes, on idle spares
        /// (which a later remap may bring into service degraded) and on
        /// channels already Retired, and idle skips of 0 to 15 epochs.
        #[test]
        fn sparse_controller_matches_dense(
            logical_raw in 1usize..64,
            extra in 0usize..7,
            wide in 0usize..2,
            suspect_dwell_limit in 1usize..6,
            clear_epochs in 1usize..4,
            spared_dwell_limit in 0usize..6,
            // Packed operation: bits 0..8 channel, 8..10 how the channel
            // is chosen (any / one of three hot channels / a spare),
            // 10..18 errors per 2000 bits (x8 with bit 18, past the bit
            // count), 19..21 clear a dead mark, bit 21 no record, bit 22
            // step afterwards, 23..25 clear an idle skip of bits 25..29
            // epochs.
            script in proptest::collection::vec(0u64..(1u64 << 29), 1..200),
        ) {
            let logical = if wide == 1 { 58 + logical_raw % 6 } else { logical_raw % 12 + 1 };
            let physical = logical + extra;
            let cfg = DegradeConfig {
                suspect_dwell_limit,
                clear_epochs,
                spared_dwell_limit,
                ..quick_cfg()
            };
            let mut sparse = DegradeController::try_new(logical, physical, cfg).unwrap();
            let mut dense = DenseController::new(logical, physical, cfg);
            for word in script {
                let c = (word & 0xFF) as usize;
                let ch = match (word >> 8) & 3 {
                    2 => [0, physical / 2, physical - 1][c % 3],
                    3 if extra > 0 => logical + c % extra,
                    _ => c % physical,
                };
                let mut errors = (word >> 10) & 0xFF;
                if (word >> 18) & 1 == 1 {
                    errors *= 8;
                }
                if (word >> 21) & 1 == 0 {
                    sparse.record(ch, 2000, errors);
                    dense.record(ch, 2000, errors);
                }
                if (word >> 19) & 3 == 0 {
                    sparse.mark_dead(ch);
                    dense.mark_dead(ch);
                }
                prop_assert_eq!(sparse.is_idle(), dense.is_idle());
                if (word >> 23) & 3 == 0 && dense.is_idle() {
                    let n = ((word >> 25) & 15) as usize;
                    sparse.skip_idle(n);
                    dense.skip_idle(n);
                    prop_assert_eq!(sparse.epoch(), dense.epoch);
                }
                if (word >> 22) & 1 == 1 {
                    prop_assert_eq!(sparse.step(), dense.step());
                    prop_assert_eq!(sparse.is_idle(), dense.is_idle());
                }
                prop_assert_eq!(sparse.transitions(), &dense.transitions[..]);
                for p in 0..physical {
                    prop_assert_eq!(sparse.state(p), dense.channels[p].state);
                }
                prop_assert_eq!(sparse.lane_map(), &dense.map);
            }
        }
    }

    proptest! {
        /// `skip_idle(n)` on an idle controller is exactly `n`
        /// observation-free steps: the same transitions, states, spare and
        /// lane counters, epoch, entry epochs and watch set (the whole
        /// `Debug` rendering), and the same behavior under whatever
        /// observations follow.
        #[test]
        fn skip_idle_matches_observation_free_steps(
            logical in 1usize..8,
            extra in 0usize..4,
            prefix in proptest::collection::vec(0u64..(1u64 << 17), 0..60),
            settle in 0usize..16,
            pending in proptest::collection::vec(0u64..(1u64 << 17), 0..3),
            n in 1usize..40,
            suffix in proptest::collection::vec(0u64..(1u64 << 17), 0..60),
        ) {
            let physical = logical + extra;
            let mut skipped =
                DegradeController::try_new(logical, physical, quick_cfg()).unwrap();
            drive(&mut skipped, &prefix, physical);
            for _ in 0..settle {
                skipped.step();
            }
            // Observations not yet stepped: the idle test must see them.
            for &word in &pending {
                let ch = (word & 0xFF) as usize % physical;
                skipped.record(ch, 2000, (word >> 8) & 0xFF);
                if (word >> 16) & 1 == 1 {
                    skipped.mark_dead(ch);
                }
            }
            let mut stepped = skipped.clone();
            if skipped.is_idle() {
                skipped.skip_idle(n);
                for _ in 0..n {
                    prop_assert_eq!(stepped.step().transitions, 0);
                }
                prop_assert!(skipped.is_idle(), "idle must be stable");
                prop_assert_eq!(format!("{skipped:?}"), format!("{stepped:?}"));
            }
            drive(&mut skipped, &suffix, physical);
            drive(&mut stepped, &suffix, physical);
            prop_assert_eq!(skipped.transitions(), stepped.transitions());
            for ch in 0..physical {
                prop_assert_eq!(skipped.state(ch), stepped.state(ch));
            }
            prop_assert_eq!(skipped.spares_activated(), stepped.spares_activated());
            prop_assert_eq!(skipped.lost_lanes(), stepped.lost_lanes());
            prop_assert_eq!(skipped.epoch(), stepped.epoch());
            prop_assert_eq!(skipped.lane_map(), stepped.lane_map());
        }

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
