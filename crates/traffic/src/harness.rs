//! The discrete-event link harness: packet workloads over the gearbox,
//! epoch by epoch, while a seeded fault campaign corrupts and kills
//! physical channels underneath and (policy permitting) a live
//! [`DegradeController`](mosaic_link::degrade::DegradeController)
//! quarantines, spares, and rate-backs-off.
//!
//! # Epoch pipeline
//!
//! Each [`LinkHarness::step`] runs one fixed-latency epoch:
//!
//! 1. the workload emits this epoch's offered frames into the send queue;
//! 2. queued frames (up to the rate-backed-off quota) are dequeued —
//!    frames past their deadline expire here, explicitly accounted;
//! 3. the TX gearbox frames/scrambles/stripes the batch
//!    ([`Gearbox::transmit_into`], allocation-free);
//! 4. the campaign's [`ChannelEffect`](mosaic_sim::faults::ChannelEffect)s
//!    are applied *deterministically* (no RNG in the loop): dead channels
//!    turn to junk; a BER elevation picks
//!    `clamp(round(min(ber, 0.5)·bits), 1, words)` evenly spaced words and
//!    flips one FNV-chosen bit in each data word among them (a marker
//!    victim is neither flipped nor counted as an error); skew jumps
//!    truncate the lane tail — so all three policies face bit-identical
//!    corruption;
//! 5. the controller ingests per-channel observations (`record` /
//!    `mark_dead`) and steps (4 and 5 are one [`FaultedLink::step`]);
//! 6. the RX gearbox deskews and scans ([`Gearbox::receive_into`]);
//! 7. the epoch's controller transitions drive the policy's remap
//!    protocol (below);
//! 8. the epoch's transmitted frames are resolved: delivered (exact
//!    integer latency), retransmit-queued, or lost with explicit
//!    accounting — never a panic, never a silent drop.
//!
//! # Hitless reconfiguration (drain / pause / replay)
//!
//! ```text
//!            spare activated
//! Running ────────────────────▶ Reconfiguring{remaining=replay_window}
//!    ▲   remap both ends now;          │ pause: no new frames launched,
//!    │   requeue the failure epoch's   │ markers keep the link aligned,
//!    │   in-flight frames as FREE      │ deadline clocks keep ticking
//!    │   replays (budget not charged)  ▼
//!    └───────────────────────── remaining == 0
//! ```
//!
//! Without hitless replay (`Policy::Controller`) the RX side remaps as
//! soon as the controller fires but the TX side lags one epoch (control
//! plane latency), so one extra epoch is transmitted on the stale map
//! and lost — and every retransmission it forces is charged against the
//! frames' budgets. `Policy::Static` never remaps at all.
//!
//! # Retransmit-budget determinism
//!
//! A frame's fate is a pure function of the offered workload, the
//! campaign, and the policy: corruption is RNG-free (step 4), queue
//! order is FIFO with reverse-order requeue of an epoch's losses, and
//! budgets/deadlines are integers. Runs are therefore bit-identical
//! across thread counts and kill/resume boundaries — the rollup merge
//! does the rest (lint R6).

use crate::rollup::TrafficRollup;
use crate::workload::{FrameSpec, Workload, WorkloadConfig};
use mosaic_link::degrade::{Cause, CtlState, DegradeConfig, Transition};
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::lanes::FailureKind;
use mosaic_link::striping::LaneWord;
use mosaic_sim::campaign::FaultedLink;
use mosaic_sim::digest::Fnv1a;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use std::collections::VecDeque;

/// Largest per-epoch transmit batch the harness supports (the payload
/// reference array lives on the stack to keep the loop allocation-free).
pub const MAX_BATCH: usize = 128;

/// Lane-map management policy under faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No controller: the lane map fixed at construction rides out the
    /// whole campaign.
    Static,
    /// Live [`DegradeController`](mosaic_link::degrade::DegradeController)
    /// sparing with a one-epoch TX remap lag (no drain/replay protocol).
    Controller,
    /// Controller plus the hitless drain/pause/replay protocol.
    ControllerHitless,
}

/// Stable lowercase tag (result tables, telemetry names).
pub fn policy_tag(p: Policy) -> &'static str {
    match p {
        Policy::Static => "static",
        Policy::Controller => "controller",
        Policy::ControllerHitless => "hitless",
    }
}

/// Full harness parameterization: link geometry, workload, campaign
/// shape, and the resilience-protocol knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Logical lanes striped over.
    pub logical: usize,
    /// Physical channels (surplus = spare pool).
    pub physical: usize,
    /// Alignment-marker period (words per lane per block).
    pub am_period: usize,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Emission horizon in epochs (the harness then drains).
    pub epochs: u64,
    /// Retransmission attempts a frame may consume before it is dropped
    /// as exhausted.
    pub retransmit_budget: u32,
    /// Hitless pause length in epochs after a remap.
    pub replay_window: u64,
    /// Per-epoch transmit quota before rate back-off (≤ [`MAX_BATCH`]).
    pub max_batch: usize,
    /// Mean fault arrivals per channel per 1000 epochs.
    pub faults_per_kilo_epoch: f64,
    /// Maximum drawn duration of non-permanent faults (epochs).
    pub max_fault_duration: usize,
    /// Probability a drawn fault is permanent.
    pub permanent_fraction: f64,
    /// Lane-map policy.
    pub policy: Policy,
    /// Controller thresholds/dwells (ignored under [`Policy::Static`]).
    pub degrade: DegradeConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            logical: 8,
            physical: 12,
            am_period: 16,
            workload: WorkloadConfig::default(),
            epochs: 400,
            retransmit_budget: 8,
            replay_window: 1,
            max_batch: 32,
            faults_per_kilo_epoch: 2.0,
            max_fault_duration: 48,
            permanent_fraction: 0.25,
            policy: Policy::ControllerHitless,
            degrade: traffic_degrade_config(),
        }
    }
}

/// The traffic-timescale controller tuning: deadlines are ~12 epochs,
/// so a channel may not dwell in Suspect for the reliability-grade 128
/// epochs — frames would expire long before the spare arrived. Short
/// windows and a 6-epoch dwell make sparing land inside the retransmit
/// budget while `clear_epochs` still lets one-epoch glitches clear
/// without spending a spare.
pub fn traffic_degrade_config() -> DegradeConfig {
    DegradeConfig {
        window_bits: 1024,
        suspect_dwell_limit: 6,
        clear_epochs: 3,
        ..DegradeConfig::default()
    }
}

impl TrafficConfig {
    /// Validate geometry and protocol knobs.
    pub fn validate(&self) -> mosaic_units::Result<()> {
        if self.max_batch == 0 || self.max_batch > MAX_BATCH {
            return Err(mosaic_units::MosaicError::invalid_config(
                "max_batch",
                format!("need 1..={MAX_BATCH}, got {}", self.max_batch),
            ));
        }
        if self.workload.flows == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "flows",
                "need at least one flow",
            ));
        }
        Ok(())
    }
}

/// One frame waiting in the send queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    spec: FrameSpec,
    attempts: u32,
}

/// One frame launched this epoch, awaiting resolution.
#[derive(Debug, Clone, Copy)]
struct Sent {
    spec: FrameSpec,
    attempts: u32,
    matched: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Running,
    Reconfiguring { remaining: u64 },
}

/// The deterministic corruption-mask source (no RNG inside the epoch
/// loop, so corruption is policy-invariant): FNV-1a over `epoch` and `ch`,
/// folded once per channel; [`flip_bit`] folds in the flip's index.
fn mask_prefix(epoch: u64, ch: usize) -> Fnv1a {
    let mut h = Fnv1a::sim();
    h.u64(epoch).u64(ch as u64);
    h
}

/// The bit flip `k` strikes: `FNV-1a(epoch, ch, k) % 64`, continued from
/// the channel's [`mask_prefix`] on a copy.
fn flip_bit(mut prefix: Fnv1a, k: u64) -> u64 {
    prefix.u64(k).finish() % 64
}

/// The live-traffic link harness (one full-duplex direction).
#[derive(Debug, Clone)]
pub struct LinkHarness {
    cfg: TrafficConfig,
    tx: Gearbox,
    rx: Gearbox,
    /// Campaign, controller (none under [`Policy::Static`]), transitions.
    link: FaultedLink,
    workload: Workload,
    epoch: u64,
    state: RunState,
    rollup: TrafficRollup,
    queue: VecDeque<Pending>,
    sent: Vec<Sent>,
    wire_base: u32,
    next_wire: u32,
    /// TX-side remaps applied one epoch late (`Policy::Controller`).
    tx_remap_now: Vec<usize>,
    tx_remap_next: Vec<usize>,
    /// Channels the controller has permanently condemned (spared away
    /// from or retired) — replayed onto rebuilt gearboxes when spare
    /// exhaustion forces a width reduction.
    condemned: Vec<usize>,
    /// Logical width currently striped (shrinks on spare exhaustion).
    live_logical: usize,
    /// Per-flow highest delivered sequence, offset by one (0 = none).
    delivered_mark: Vec<u64>,
    // Reused epoch buffers.
    emit_buf: Vec<FrameSpec>,
    arena: Vec<u8>,
    spans: Vec<(usize, usize)>,
    tx_scratch: TxScratch,
    rx_scratch: RxScratch,
    channels: Vec<Vec<LaneWord>>,
    batch: RxBatch,
}

impl LinkHarness {
    /// Build a harness for `cfg`, deriving the workload and the fault
    /// campaign from `seed`. The same seed yields the same offered load
    /// and the same campaign under every policy — that is what makes the
    /// F19 policy comparison apples-to-apples.
    pub fn try_new(cfg: TrafficConfig, seed: u64) -> mosaic_units::Result<Self> {
        let campaign = FaultCampaign::generate(
            CampaignConfig {
                channels: cfg.physical,
                epochs: cfg.epochs as usize,
                faults_per_kilo_epoch: cfg.faults_per_kilo_epoch,
                max_duration: cfg.max_fault_duration,
                permanent_fraction: cfg.permanent_fraction,
            },
            seed,
        );
        Self::try_with_campaign(cfg, seed, campaign)
    }

    /// [`LinkHarness::try_new`] under `campaign` (`cfg`'s fault fields unused).
    pub fn try_with_campaign(
        cfg: TrafficConfig,
        seed: u64,
        campaign: FaultCampaign,
    ) -> mosaic_units::Result<Self> {
        cfg.validate()?;
        let tx = Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period)?;
        let rx = Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period)?;
        let degrade = (cfg.policy != Policy::Static).then_some(cfg.degrade);
        let link = FaultedLink::try_new(cfg.logical, cfg.physical, campaign, degrade)?;
        let workload = Workload::new(cfg.workload, seed);
        let flows = cfg.workload.flows as usize;
        Ok(LinkHarness {
            cfg,
            tx,
            rx,
            link,
            workload,
            epoch: 0,
            state: RunState::Running,
            rollup: TrafficRollup {
                runs: 1,
                ..TrafficRollup::default()
            },
            queue: VecDeque::with_capacity(4 * MAX_BATCH),
            sent: Vec::with_capacity(MAX_BATCH),
            wire_base: 0,
            next_wire: 0,
            tx_remap_now: Vec::with_capacity(4),
            tx_remap_next: Vec::with_capacity(4),
            condemned: Vec::with_capacity(cfg.physical),
            live_logical: cfg.logical,
            delivered_mark: vec![0; flows],
            emit_buf: Vec::with_capacity(MAX_BATCH),
            arena: Vec::with_capacity(MAX_BATCH * 64),
            spans: Vec::with_capacity(MAX_BATCH),
            tx_scratch: TxScratch::default(),
            rx_scratch: RxScratch::default(),
            channels: Vec::with_capacity(16),
            batch: RxBatch::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> TrafficConfig {
        self.cfg
    }

    /// The campaign digest (bit-identity checks across policies).
    pub fn campaign_digest(&self) -> u64 {
        self.link.campaign().digest()
    }

    /// Every controller transition so far (none under [`Policy::Static`]).
    pub fn transitions(&self) -> &[Transition] {
        self.link.transitions()
    }

    /// Epochs processed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Frames offered but not yet delivered/expired/exhausted.
    pub fn in_flight(&self) -> u64 {
        self.queue.len() as u64
    }

    /// The exact-integer accounting so far.
    pub fn rollup(&self) -> &TrafficRollup {
        &self.rollup
    }

    /// The frame-conservation law, checkable at *any* epoch boundary:
    /// `offered == delivered + expired + exhausted + in-flight`.
    pub fn conservation_holds(&self) -> bool {
        let r = &self.rollup;
        r.delivered + r.expired + r.exhausted + self.in_flight() == r.offered
    }

    /// Transmit quota this epoch: the configured batch cap, backed off
    /// proportionally to the logical lanes still carried — the wide-and-
    /// slow graceful-degradation contract, applied to packet admission.
    fn quota(&self) -> usize {
        let logical = self.cfg.logical.max(1);
        (self.cfg.max_batch * self.live_logical / logical).max(1)
    }

    /// Spare exhaustion: shed one logical lane and re-stripe over the
    /// survivors. Both gearboxes are rebuilt at the reduced width and
    /// every previously condemned channel is replayed onto the fresh
    /// lane maps, so TX and RX stay in exact agreement. This is the
    /// cold path — it allocates, unlike the steady-state epoch loop.
    fn reduce_width(&mut self) {
        self.live_logical = self.live_logical.saturating_sub(1).max(1);
        let (Ok(mut tx), Ok(mut rx)) = (
            Gearbox::try_new(self.live_logical, self.cfg.physical, self.cfg.am_period),
            Gearbox::try_new(self.live_logical, self.cfg.physical, self.cfg.am_period),
        ) else {
            // Geometry cannot shrink further: ride the old maps; the
            // dead lane keeps failing and frames expire with the books
            // balanced.
            return;
        };
        for &ch in &self.condemned {
            // Errors mean the survivor pool is empty too — the lane
            // stays on a dead channel and the loss is measured, not
            // hidden.
            let _ = tx.fail_channel(ch, FailureKind::Degraded);
            let _ = rx.fail_channel(ch, FailureKind::Degraded);
        }
        self.tx = tx;
        self.rx = rx;
        // The fresh gearbox numbers frames from zero again.
        self.next_wire = 0;
        self.tx_remap_now.clear();
        self.tx_remap_next.clear();
    }

    /// Record a channel as permanently condemned (idempotent).
    fn condemn(&mut self, ch: usize) {
        if !self.condemned.contains(&ch) {
            self.condemned.push(ch);
        }
    }

    /// Run one epoch of the pipeline described in the module docs.
    /// Infallible by design: every failure mode is a measured outcome.
    pub fn step(&mut self) {
        let epoch = self.epoch;

        // 1. Workload emission (within the horizon).
        if epoch < self.cfg.epochs {
            self.emit_buf.clear();
            self.workload.emit_epoch(epoch, &mut self.emit_buf);
            self.rollup.offered += self.emit_buf.len() as u64;
            for i in 0..self.emit_buf.len() {
                self.queue.push_back(Pending {
                    spec: self.emit_buf[i],
                    attempts: 0,
                });
            }
        }

        // 2. Dequeue up to quota; expire overdue frames explicitly.
        self.sent.clear();
        self.arena.clear();
        self.spans.clear();
        let paused = match self.state {
            RunState::Reconfiguring { remaining } if remaining > 0 => {
                self.rollup.pause_epochs += 1;
                let left = remaining - 1;
                self.state = if left == 0 {
                    RunState::Running
                } else {
                    RunState::Reconfiguring { remaining: left }
                };
                true
            }
            _ => {
                self.state = RunState::Running;
                false
            }
        };
        if !paused {
            let quota = self.quota().min(MAX_BATCH);
            while self.sent.len() < quota {
                let Some(p) = self.queue.pop_front() else {
                    break;
                };
                if epoch > p.spec.deadline {
                    self.rollup.expired += 1;
                    self.rollup.record_loss();
                    continue;
                }
                let span = Workload::payload_into(&p.spec, &mut self.arena);
                self.spans.push(span);
                self.sent.push(Sent {
                    spec: p.spec,
                    attempts: p.attempts,
                    matched: false,
                });
            }
        }
        self.wire_base = self.next_wire;
        self.next_wire = self.next_wire.wrapping_add(self.sent.len() as u32);

        // 3. Transmit (an empty batch still carries markers/idles so the
        // link stays aligned through pauses and lulls).
        const EMPTY: &[u8] = &[];
        let mut refs: [&[u8]; MAX_BATCH] = [EMPTY; MAX_BATCH];
        for (i, &(start, len)) in self.spans.iter().enumerate() {
            refs[i] = &self.arena[start..start + len];
        }
        let n_sent = self.sent.len();
        self.tx
            .transmit_into(&refs[..n_sent], &mut self.tx_scratch, &mut self.channels);

        // 4. Apply the campaign deterministically; 5. feed and step the
        // controller (the observation is the flips counted here).
        self.link.step(|ch, eff| {
            let stream = &mut self.channels[ch];
            let words = stream.len();
            let bits = (words as u64) * 64;
            let mut errors = 0u64;
            if eff.dead {
                stream.fill(LaneWord::Data(0));
                return (bits, errors);
            }
            if eff.extra_ber > 0.0 && words > 0 {
                let flips = ((eff.extra_ber.min(0.5) * bits as f64) + 0.5) as u64;
                let flips = flips.clamp(1, words as u64);
                // Evenly spaced victims, one bit each, FNV-masked.
                let prefix = mask_prefix(epoch, ch);
                for k in 0..flips {
                    let idx = ((k * words as u64) / flips) as usize;
                    if let LaneWord::Data(w) = stream[idx] {
                        let bit = flip_bit(prefix, k);
                        stream[idx] = LaneWord::Data(w ^ (1u64 << bit));
                        errors += 1;
                    }
                }
            }
            if eff.skew_epochs > 0 && words > 0 {
                // The lane's tail arrives next epoch; the epoch-end
                // buffer flush drops it (fixed-latency pipeline).
                let cut = ((eff.skew_epochs as usize) * (self.cfg.am_period + 1)).min(words);
                stream.truncate(words - cut);
            }
            (bits, errors)
        });

        // 6. Receive. The channel-count contract is upheld by
        // construction, so a failure here is a harness bug — still
        // surfaced as accounting, never a panic.
        let rx_ok = self
            .rx
            .receive_into(&self.channels, &mut self.rx_scratch, &mut self.batch)
            .is_ok();
        if !rx_ok {
            self.batch.frames.clear();
            self.batch.deskew_error = None;
            self.batch.corrupt_frames = 0;
        }
        self.rollup.corrupt_frames += self.batch.corrupt_frames as u64;
        if self.batch.deskew_error.is_some() {
            self.rollup.deskew_epochs += 1;
        }

        // 7. The epoch's controller transitions drive the policy's remap
        // protocol.
        let mut reconfig_now = false;
        for i in 0..self.link.new_transitions().len() {
            let t = self.link.new_transitions()[i];
            match (t.to, t.cause) {
                (CtlState::Spared, Cause::SpareActivated) => {
                    self.rollup.remaps += 1;
                    self.condemn(t.channel);
                    match self.cfg.policy {
                        Policy::ControllerHitless => {
                            // Drain/pause: both ends switch together,
                            // no data launched while they do.
                            let _ = self.tx.fail_channel(t.channel, FailureKind::Degraded);
                            let _ = self.rx.fail_channel(t.channel, FailureKind::Degraded);
                            if self.cfg.replay_window > 0 {
                                self.state = RunState::Reconfiguring {
                                    remaining: self.cfg.replay_window,
                                };
                            }
                            reconfig_now = true;
                        }
                        Policy::Controller => {
                            // RX remaps now; TX hears about it one
                            // epoch later (control-plane latency).
                            let _ = self.rx.fail_channel(t.channel, FailureKind::Degraded);
                            self.tx_remap_next.push(t.channel);
                        }
                        Policy::Static => {}
                    }
                }
                (CtlState::Retired, Cause::ExternalDead) => {
                    // An idle spare died: retire it from both
                    // gearbox pools so later sparing stays in sync.
                    self.condemn(t.channel);
                    let _ = self.tx.fail_channel(t.channel, FailureKind::Degraded);
                    let _ = self.rx.fail_channel(t.channel, FailureKind::Degraded);
                }
                (CtlState::Retired, Cause::SparesExhausted) => {
                    // No spare left for this lane: shed a logical
                    // lane and re-stripe over the survivors instead
                    // of riding a dead channel forever.
                    self.rollup.lost_lanes += 1;
                    self.condemn(t.channel);
                    self.reduce_width();
                    if self.cfg.policy == Policy::ControllerHitless {
                        if self.cfg.replay_window > 0 {
                            self.state = RunState::Reconfiguring {
                                remaining: self.cfg.replay_window,
                            };
                        }
                        reconfig_now = true;
                    }
                }
                _ => {}
            }
        }

        // 8. Resolve this epoch's launches against what arrived.
        let wire_base = self.wire_base;
        for i in 0..self.batch.frames.len() {
            let seq = self.batch.frames[i].seq;
            let idx = seq.wrapping_sub(wire_base) as usize;
            if idx < self.sent.len() && !self.sent[idx].matched {
                self.sent[idx].matched = true;
                let spec = self.sent[idx].spec;
                let latency = epoch - spec.emitted;
                self.rollup
                    .record_delivery(latency, self.batch.frames[i].len);
                // Reorder bookkeeping: a delivery behind the flow's
                // high-water mark means a late retransmission overtook.
                let mark = &mut self.delivered_mark[spec.flow as usize];
                let pos = u64::from(spec.flow_seq) + 1;
                if pos < *mark {
                    self.rollup.reordered += 1;
                } else {
                    *mark = pos;
                }
            }
        }
        // Losses: free hitless replays, budgeted retransmits, or final
        // exhaustion — every unmatched frame lands in exactly one bin.
        for i in (0..self.sent.len()).rev() {
            if self.sent[i].matched {
                continue;
            }
            let s = self.sent[i];
            if reconfig_now && self.cfg.policy == Policy::ControllerHitless {
                // Replay window: the failure epoch's in-flight frames
                // requeue without touching their budgets.
                self.rollup.retried += 1;
                self.queue.push_front(Pending {
                    spec: s.spec,
                    attempts: s.attempts,
                });
            } else if s.attempts < self.cfg.retransmit_budget {
                self.rollup.retried += 1;
                self.queue.push_front(Pending {
                    spec: s.spec,
                    attempts: s.attempts + 1,
                });
            } else {
                self.rollup.exhausted += 1;
                self.rollup.record_loss();
            }
        }

        // 9. Stale-map TX remaps from the *previous* epoch fire now.
        for i in 0..self.tx_remap_now.len() {
            let ch = self.tx_remap_now[i];
            let _ = self.tx.fail_channel(ch, FailureKind::Degraded);
        }
        self.tx_remap_now.clear();
        std::mem::swap(&mut self.tx_remap_now, &mut self.tx_remap_next);

        self.epoch += 1;
    }

    /// Run the emission horizon plus the drain: steps until every
    /// offered frame is resolved. Termination is structural (deadlines
    /// expire lazily at dequeue and pauses are finite), but a hard cap
    /// backstops it: leftovers are force-expired, keeping the books
    /// balanced rather than looping or panicking.
    pub fn run_to_completion(&mut self) -> TrafficRollup {
        let cap = self.cfg.epochs
            + self.cfg.workload.deadline_epochs
            + (u64::from(self.cfg.retransmit_budget) + 2) * 8
            + 64;
        while self.epoch < cap {
            self.step();
            if self.epoch >= self.cfg.epochs && self.in_flight() == 0 {
                break;
            }
        }
        while let Some(_p) = self.queue.pop_front() {
            self.rollup.expired += 1;
            self.rollup.record_loss();
        }
        self.rollup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use proptest::prelude::*;

    fn quick_cfg(policy: Policy) -> TrafficConfig {
        TrafficConfig {
            epochs: 96,
            policy,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn clean_link_delivers_everything_at_latency_zero() {
        let mut h = LinkHarness::try_new(
            TrafficConfig {
                faults_per_kilo_epoch: 0.0,
                ..quick_cfg(Policy::Static)
            },
            11,
        )
        .unwrap();
        let r = h.run_to_completion();
        assert!(r.offered > 0);
        assert_eq!(r.delivered, r.offered);
        assert_eq!(r.expired + r.exhausted + r.retried, 0);
        assert!(r.balanced());
        assert_eq!(r.p999(), 0, "clean link must deliver same-epoch");
    }

    #[test]
    fn conservation_holds_at_every_epoch() {
        for policy in [
            Policy::Static,
            Policy::Controller,
            Policy::ControllerHitless,
        ] {
            let mut h = LinkHarness::try_new(
                TrafficConfig {
                    faults_per_kilo_epoch: 12.0,
                    ..quick_cfg(policy)
                },
                23,
            )
            .unwrap();
            for _ in 0..140 {
                h.step();
                assert!(
                    h.conservation_holds(),
                    "policy {:?} epoch {}: books unbalanced",
                    policy,
                    h.epoch()
                );
            }
        }
    }

    #[test]
    fn identical_campaign_across_policies() {
        let a = LinkHarness::try_new(quick_cfg(Policy::Static), 5).unwrap();
        let b = LinkHarness::try_new(quick_cfg(Policy::Controller), 5).unwrap();
        let c = LinkHarness::try_new(quick_cfg(Policy::ControllerHitless), 5).unwrap();
        assert_eq!(a.campaign_digest(), b.campaign_digest());
        assert_eq!(b.campaign_digest(), c.campaign_digest());
    }

    #[test]
    fn runs_are_bit_identical() {
        for policy in [Policy::Static, Policy::ControllerHitless] {
            let r1 = LinkHarness::try_new(quick_cfg(policy), 77)
                .unwrap()
                .run_to_completion();
            let r2 = LinkHarness::try_new(quick_cfg(policy), 77)
                .unwrap()
                .run_to_completion();
            assert_eq!(r1, r2);
            assert_eq!(r1.fingerprint(), r2.fingerprint());
        }
    }

    #[test]
    fn faulty_runs_finish_balanced() {
        for policy in [
            Policy::Static,
            Policy::Controller,
            Policy::ControllerHitless,
        ] {
            for seed in [1u64, 2, 3] {
                let mut h = LinkHarness::try_new(
                    TrafficConfig {
                        faults_per_kilo_epoch: 8.0,
                        ..quick_cfg(policy)
                    },
                    seed,
                )
                .unwrap();
                let r = h.run_to_completion();
                assert!(r.balanced(), "policy {policy:?} seed {seed}: {r:?}");
                assert_eq!(h.in_flight(), 0);
                assert!(r.offered > 0);
                assert_eq!(r.resolved(), r.offered, "histogram mass mismatch");
            }
        }
    }

    #[test]
    fn hitless_beats_static_under_permanent_faults() {
        // A campaign hot enough to kill channels: the controller spares
        // them; static rides the corpse.
        let cfg = TrafficConfig {
            epochs: 240,
            faults_per_kilo_epoch: 4.0,
            permanent_fraction: 0.5,
            workload: WorkloadConfig {
                kind: WorkloadKind::Mixed,
                ..WorkloadConfig::default()
            },
            ..TrafficConfig::default()
        };
        let mut worst_static = 1.0f64;
        let mut worst_hitless = 1.0f64;
        for seed in 0..4u64 {
            let s = LinkHarness::try_new(
                TrafficConfig {
                    policy: Policy::Static,
                    ..cfg
                },
                seed,
            )
            .unwrap()
            .run_to_completion();
            let h = LinkHarness::try_new(
                TrafficConfig {
                    policy: Policy::ControllerHitless,
                    ..cfg
                },
                seed,
            )
            .unwrap()
            .run_to_completion();
            assert!(s.balanced() && h.balanced());
            worst_static = worst_static.min(s.goodput());
            worst_hitless = worst_hitless.min(h.goodput());
        }
        assert!(
            worst_hitless > worst_static,
            "hitless {worst_hitless} must beat static {worst_static}"
        );
    }

    #[test]
    fn pause_epochs_only_under_hitless() {
        let cfg = TrafficConfig {
            epochs: 240,
            faults_per_kilo_epoch: 6.0,
            permanent_fraction: 0.6,
            ..TrafficConfig::default()
        };
        let c = LinkHarness::try_new(
            TrafficConfig {
                policy: Policy::Controller,
                ..cfg
            },
            3,
        )
        .unwrap()
        .run_to_completion();
        let h = LinkHarness::try_new(
            TrafficConfig {
                policy: Policy::ControllerHitless,
                ..cfg
            },
            3,
        )
        .unwrap()
        .run_to_completion();
        assert_eq!(c.pause_epochs, 0);
        if h.remaps > 0 {
            assert!(h.pause_epochs > 0);
        }
        assert_eq!(c.remaps, h.remaps, "same campaign, same spare decisions");
    }

    #[test]
    fn invalid_configs_are_errors() {
        assert!(LinkHarness::try_new(
            TrafficConfig {
                max_batch: 0,
                ..TrafficConfig::default()
            },
            1
        )
        .is_err());
        assert!(LinkHarness::try_new(
            TrafficConfig {
                max_batch: MAX_BATCH + 1,
                ..TrafficConfig::default()
            },
            1
        )
        .is_err());
        assert!(LinkHarness::try_new(
            TrafficConfig {
                logical: 0,
                ..TrafficConfig::default()
            },
            1
        )
        .is_err());
    }

    proptest! {
        /// The per-channel prefix plus one `u64(k)` per flip is the
        /// three-word FNV-1a the mask is defined by.
        #[test]
        fn hoisted_mask_prefix_matches_three_word_fnv(epoch: u64, ch in 0usize..4096, k: u64) {
            let direct = Fnv1a::sim().u64(epoch).u64(ch as u64).u64(k).finish() % 64;
            prop_assert_eq!(flip_bit(mask_prefix(epoch, ch), k), direct);
        }
    }
}
