//! Sharded, event-sourced hyperscale fleet simulation (experiment F18).
//!
//! [`failure_sim`](crate::failure_sim) answers the T2 question — tickets
//! and availability for a ~100k-link fleet — with a class-level Poisson
//! shortcut that never exercises the per-channel fault machinery. At
//! 10⁶–10⁷ links that shortcut hides exactly the effects the paper's
//! reliability claim rests on: spare-pool exhaustion, graceful lane
//! shedding, and the repair-ticket rate those produce. This module runs
//! the real thing, at scale, within bounded memory:
//!
//! * **Sharding.** The fleet is partitioned into per-class shards of at
//!   most [`HyperFleetConfig::shard_links`] links. Every shard is a pure
//!   function of `(config, seed, shard_id)`: its hard-failure stream is
//!   `substream_indexed(seed, "hyperfleet-hardfail", shard_id)` and each
//!   link's fault campaign derives from
//!   the first draw of `substream_indexed(seed, "hyperfleet-link",
//!   global_link_id)` (its label hashed once per shard through
//!   [`DetRng::substreams`], 16 links keyed per batch) — no
//!   state crosses shard boundaries, so shards run in any order on any
//!   thread count with bit-identical results.
//! * **Event sourcing.** Hot (spared) link classes replay multi-year
//!   per-channel fault histories: a [`FaultCampaign`] per link feeds a
//!   [`DegradeController`] through an [`EventQueue`], with the epoch
//!   replay confined to *fault windows* (the epochs in which the
//!   controller can possibly act) — the supervisory-group granularity
//!   and window bounds are documented in DESIGN §13.
//! * **Incremental rollups.** Each shard folds its history into a
//!   [`FleetRollup`] of exact integers — float accumulations are
//!   quantized once per shard ([`ROLLUP_QUANT`]) — so the cross-shard
//!   merge is commutative and associative and runs through the
//!   [`TrialPlan::fold`] machinery: thread-count invariance is by
//!   construction, not by tolerance.
//! * **Checkpointing.** Batches of shards fold through
//!   [`TrialPlan::fold_checkpointed`], which streams the cumulative
//!   rollup through a [`RollupStore`] (F18 persists it with
//!   [`mosaic_sim::checkpoint::FileStore`]), so a killed run resumes
//!   from the last completed batch with byte-identical final results.
//! * **Class tiers.** A class with spare groups is event-sourced;
//!   every other class runs the class-level Poisson path only — with no
//!   sparing, the superposed exponential hard-failure process *is* the
//!   exact model ([`class_tiers`]).

use crate::assignment::Assignment;
use crate::failure_sim::ClassFailureProcess;
use mosaic::compare::TechnologyKind;
use mosaic_link::degrade::{CtlState, DegradeConfig, DegradeController};
use mosaic_sim::checkpoint::{Checkpoints, ExactRollup, Field, NoStore, Store};
use mosaic_sim::digest::Fnv1a;
use mosaic_sim::event::EventQueue;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, FaultEvent, Persistence};
use mosaic_sim::fidelity::FidelityMode;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_sim::telemetry;
use mosaic_units::{BitRate, Duration, Fit, MosaicError, Result};

/// Buckets of the spare-pool occupancy histogram: bucket `i` counts
/// event-sourced links that consumed exactly `i` spares over the
/// horizon (the last bucket is `>= SPARE_BUCKETS - 1`).
pub const SPARE_BUCKETS: usize = 8;

/// Fixed-point scale for quantized rollup aggregates: per-shard float
/// sums are rounded to `1 / ROLLUP_QUANT` hour (≈ 3.4 ms) resolution at
/// the shard boundary, after which all arithmetic is exact integer
/// addition — the property that makes the shard merge commutative.
pub const ROLLUP_QUANT: f64 = (1u64 << 20) as f64;

/// Monitored bits per controller epoch (one BER window per epoch).
pub const BITS_PER_EPOCH: u64 = 4096;

/// Epochs of active-fault replay before the controller is assumed to
/// have resolved a persistent fault (quarantine via dwell limits).
const RESOLVE_CAP: usize = 16;

/// One link class in the hyperscale fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperClass {
    /// Human-readable name (`"tor-agg/Mosaic"` etc.), part of the
    /// config digest.
    pub name: String,
    /// Links of this class.
    pub links: u64,
    /// Per-link hard-failure rate (electronics, connectors — everything
    /// *not* covered by the per-channel fault campaign).
    pub link_fit: Fit,
    /// Aggregate rate per link.
    pub aggregate: BitRate,
    /// Monitored channel groups per link (0 for technologies without
    /// per-channel sparing — they run the pure Poisson path).
    pub groups: usize,
    /// Groups carrying traffic; `groups - logical_groups` is the spare
    /// pool. Must satisfy `0 < logical_groups <= groups <= 64` when
    /// `groups > 0`.
    pub logical_groups: usize,
}

impl HyperClass {
    /// Provisioned spare groups.
    pub fn spare_groups(&self) -> usize {
        self.groups.saturating_sub(self.logical_groups)
    }
}

/// Configuration of one hyperfleet simulation. A simulation is a pure
/// function of `(config, seed)`; [`HyperFleetConfig::digest`] keys the
/// checkpoint store so stale checkpoints can never resume a different
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperFleetConfig {
    /// The fleet's link classes.
    pub classes: Vec<HyperClass>,
    /// Simulated horizon in years.
    pub years: f64,
    /// Mean time to repair a failed (or rebuilt) link.
    pub mttr: Duration,
    /// Maximum links per shard — the memory bound: peak state is
    /// O(shard_links + aggregates) regardless of fleet size.
    pub shard_links: u64,
    /// Shards per checkpoint batch. Part of the config digest (a resume
    /// must replay the same batch boundaries), but *not* part of the
    /// result: rollups merge commutatively, so any batching yields the
    /// same totals.
    pub shards_per_batch: u64,
    /// Mean channel-fault arrivals per monitor group per 1000 hours.
    pub faults_per_kilo_hour: f64,
    /// Maximum duration (hours) drawn for non-permanent channel faults.
    pub max_fault_duration: usize,
    /// Fraction of channel faults that are permanent.
    pub permanent_fraction: f64,
    /// A link is rebuilt (repair ticket) once it has shed this fraction
    /// of its logical groups.
    pub rebuild_lost_fraction: f64,
}

impl HyperFleetConfig {
    /// Build a hyperfleet config from a technology assignment: Mosaic
    /// links get the 12-group / 10-logical supervisory-group channel
    /// model (DESIGN §13); every other technology has no per-channel
    /// sparing and runs the Poisson path.
    ///
    /// `_fidelity` is ignored: [`FidelityMode::Full`] is the only mode.
    /// The parameter stays so that existing callers keep compiling.
    pub fn from_assignments(
        assignments: &[Assignment],
        years: f64,
        mttr: Duration,
        _fidelity: FidelityMode,
    ) -> Self {
        let mut classes = Vec::with_capacity(assignments.len());
        for a in assignments {
            let (groups, logical) = if a.choice.kind == TechnologyKind::Mosaic {
                (12, 10)
            } else {
                (0, 0)
            };
            classes.push(HyperClass {
                name: format!("{}/{}", a.class.tier, a.choice.name),
                links: a.class.count as u64,
                link_fit: a.choice.link_fit,
                aggregate: a.choice.aggregate,
                groups,
                logical_groups: logical,
            });
        }
        HyperFleetConfig {
            classes,
            years,
            mttr,
            shard_links: 4096,
            shards_per_batch: 32,
            faults_per_kilo_hour: 0.004,
            max_fault_duration: 24,
            permanent_fraction: 0.25,
            rebuild_lost_fraction: 0.2,
        }
    }

    /// Validate every invariant the engine relies on.
    pub fn validate(&self) -> Result<()> {
        if self.classes.is_empty() {
            return Err(MosaicError::invalid_config(
                "hyperfleet_classes",
                "at least one link class is required",
            ));
        }
        for c in &self.classes {
            if c.links == 0 {
                return Err(MosaicError::invalid_config(
                    "hyperfleet_class_links",
                    format!("class {} has zero links", c.name),
                ));
            }
            if c.groups > 64 {
                return Err(MosaicError::invalid_config(
                    "hyperfleet_groups",
                    format!("class {}: groups {} > 64 (bitmask bound)", c.name, c.groups),
                ));
            }
            if (c.groups == 0) != (c.logical_groups == 0) || c.logical_groups > c.groups {
                return Err(MosaicError::invalid_config(
                    "hyperfleet_groups",
                    format!(
                        "class {}: need 0 < logical <= groups (or both zero), got {}/{}",
                        c.name, c.logical_groups, c.groups
                    ),
                ));
            }
        }
        if self.years.is_nan() || self.years <= 0.0 {
            return Err(MosaicError::invalid_config(
                "hyperfleet_years",
                "horizon must be positive",
            ));
        }
        if self.shard_links == 0 || self.shards_per_batch == 0 {
            return Err(MosaicError::invalid_config(
                "hyperfleet_sharding",
                "shard_links and shards_per_batch must be >= 1",
            ));
        }
        if self.faults_per_kilo_hour.is_nan()
            || self.faults_per_kilo_hour < 0.0
            || self.max_fault_duration == 0
        {
            return Err(MosaicError::invalid_config(
                "hyperfleet_faults",
                "fault rate must be >= 0 and max duration >= 1",
            ));
        }
        if !(0.0..=1.0).contains(&self.permanent_fraction) {
            return Err(MosaicError::invalid_config(
                "hyperfleet_faults",
                "permanent_fraction must lie in [0, 1]",
            ));
        }
        if !(self.rebuild_lost_fraction > 0.0 && self.rebuild_lost_fraction <= 1.0) {
            return Err(MosaicError::invalid_config(
                "hyperfleet_rebuild",
                "rebuild_lost_fraction must lie in (0, 1]",
            ));
        }
        Ok(())
    }

    /// Simulated horizon in hours.
    pub fn horizon_hours(&self) -> f64 {
        Duration::from_years(self.years).as_hours()
    }

    /// Total links across all classes.
    pub fn total_links(&self) -> u64 {
        self.classes.iter().map(|c| c.links).sum()
    }

    /// FNV-1a digest over the full configuration and seed — the
    /// checkpoint-store key that makes stale checkpoints unloadable. The
    /// constant `0` after `rebuild_lost_fraction` is the [`FidelityMode`]
    /// code earlier builds hashed for a full run, so checkpoints they
    /// wrote still resume.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = Fnv1a::sim();
        h.u64(seed)
            .f64(self.years)
            .f64(self.mttr.as_hours())
            .u64(self.shard_links)
            .u64(self.shards_per_batch)
            .f64(self.faults_per_kilo_hour)
            .u64(self.max_fault_duration as u64)
            .f64(self.permanent_fraction)
            .f64(self.rebuild_lost_fraction)
            .u64(0)
            .u64(self.classes.len() as u64);
        for c in &self.classes {
            h.u64(c.name.len() as u64);
            for b in c.name.bytes() {
                h.u64(u64::from(b));
            }
            h.u64(c.links)
                .f64(c.link_fit.as_fit())
                .f64(c.aggregate.as_gbps())
                .u64(c.groups as u64)
                .u64(c.logical_groups as u64);
        }
        h.finish()
    }
}

/// Which simulation path a class runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassTier {
    /// Class-level superposed-exponential hard failures only.
    Poisson,
    /// Full per-link, per-channel event-sourced history (plus the same
    /// Poisson hard-fail stream).
    EventSourced,
}

impl ClassTier {
    /// Short name for table annotations.
    pub fn name(self) -> &'static str {
        match self {
            ClassTier::Poisson => "poisson",
            ClassTier::EventSourced => "event_sourced",
        }
    }
}

/// Per-class simulation tiers for `cfg`: a class with spare groups is
/// event-sourced, every other class runs the Poisson path. Pure
/// function of the config.
pub fn class_tiers(cfg: &HyperFleetConfig) -> Vec<ClassTier> {
    cfg.classes
        .iter()
        .map(|c| {
            if c.spare_groups() > 0 {
                ClassTier::EventSourced
            } else {
                ClassTier::Poisson
            }
        })
        .collect()
}

/// The fleet-wide running aggregate: every field is an exact integer,
/// so [`FleetRollup::merge`] is commutative and associative and the
/// fold result is independent of shard order and thread count. Float
/// quantities (hours) are stored in [`ROLLUP_QUANT`] fixed point,
/// quantized once per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetRollup {
    /// Shards folded in.
    pub shards: u64,
    /// Links covered.
    pub links: u64,
    /// Links that ran the event-sourced path.
    pub event_sourced_links: u64,
    /// Repair tickets (hard failures + rebuilds).
    pub tickets: u64,
    /// Hard-failure tickets (Poisson stream, all tiers).
    pub hard_failures: u64,
    /// Rebuild tickets (spare exhaustion past the rebuild threshold).
    pub rebuilds: u64,
    /// Channel-fault events drawn by the campaigns.
    pub channel_faults: u64,
    /// Spares activated across the fleet.
    pub spares_activated: u64,
    /// Logical lanes shed after spare exhaustion.
    pub lanes_shed: u64,
    /// Event-sourced links that ever shed a lane.
    pub exhausted_links: u64,
    /// Full-outage downtime, link-hours × [`ROLLUP_QUANT`].
    pub downtime_q: u128,
    /// Degraded (shed-lane) time, lane-hours × [`ROLLUP_QUANT`].
    pub degraded_q: u128,
    /// Capacity lost to outages and shed lanes, Gb/s·h × [`ROLLUP_QUANT`].
    pub capacity_lost_q: u128,
    /// Spare-pool occupancy histogram over event-sourced links.
    pub spare_occupancy: [u64; SPARE_BUCKETS],
}

impl FleetRollup {
    /// Fold another rollup in. Exact integer addition throughout:
    /// `a.merge(b)` equals `b.merge(a)` bit for bit.
    pub fn merge(&mut self, other: &FleetRollup) {
        self.shards += other.shards;
        self.links += other.links;
        self.event_sourced_links += other.event_sourced_links;
        self.tickets += other.tickets;
        self.hard_failures += other.hard_failures;
        self.rebuilds += other.rebuilds;
        self.channel_faults += other.channel_faults;
        self.spares_activated += other.spares_activated;
        self.lanes_shed += other.lanes_shed;
        self.exhausted_links += other.exhausted_links;
        self.downtime_q += other.downtime_q;
        self.degraded_q += other.degraded_q;
        self.capacity_lost_q += other.capacity_lost_q;
        for (a, b) in self.spare_occupancy.iter_mut().zip(&other.spare_occupancy) {
            *a += b;
        }
    }

    /// Full-outage downtime in link-hours.
    pub fn downtime_link_hours(&self) -> f64 {
        dequantize(self.downtime_q)
    }

    /// Capacity lost in Gb/s·hours.
    pub fn capacity_lost_gbps_hours(&self) -> f64 {
        dequantize(self.capacity_lost_q)
    }
}

impl ExactRollup for FleetRollup {
    const SCHEMA: &'static str = "mosaic-hyperfleet-rollup/v1";

    fn merge(&mut self, other: &Self) {
        FleetRollup::merge(self, other);
    }

    fn fields(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>)) {
        visit("shards", Field::U64(&mut self.shards));
        visit("links", Field::U64(&mut self.links));
        visit(
            "event_sourced_links",
            Field::U64(&mut self.event_sourced_links),
        );
        visit("tickets", Field::U64(&mut self.tickets));
        visit("hard_failures", Field::U64(&mut self.hard_failures));
        visit("rebuilds", Field::U64(&mut self.rebuilds));
        visit("channel_faults", Field::U64(&mut self.channel_faults));
        visit("spares_activated", Field::U64(&mut self.spares_activated));
        visit("lanes_shed", Field::U64(&mut self.lanes_shed));
        visit("exhausted_links", Field::U64(&mut self.exhausted_links));
        visit("downtime_q", Field::U128(&mut self.downtime_q));
        visit("degraded_q", Field::U128(&mut self.degraded_q));
        visit("capacity_lost_q", Field::U128(&mut self.capacity_lost_q));
        visit("spare_occupancy", Field::U64s(&mut self.spare_occupancy));
    }
}

/// Quantize a non-negative float sum at a shard boundary.
fn quantize(x: f64) -> u128 {
    (x.max(0.0) * ROLLUP_QUANT).round() as u128
}

/// Back to float for reporting.
pub fn dequantize(q: u128) -> f64 {
    q as f64 / ROLLUP_QUANT
}

/// The fleet's checkpoint store: [`Store`] at [`FleetRollup`], as a
/// named trait that callers can implement directly. Every
/// `Store<FleetRollup>` ([`mosaic_sim::checkpoint::FileStore`],
/// [`NoStore`]) is one.
pub trait RollupStore {
    /// The cumulative rollup checkpointed after `batch`, if present and
    /// stamped with `digest`.
    fn load(&mut self, batch: u64, digest: u64) -> Option<FleetRollup>;
    /// Persist the cumulative rollup after `batch`.
    fn save(&mut self, batch: u64, digest: u64, rollup: &FleetRollup) -> Result<()>;
}

impl<S: Store<FleetRollup>> RollupStore for S {
    fn load(&mut self, batch: u64, digest: u64) -> Option<FleetRollup> {
        Store::load(self, batch, digest)
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &FleetRollup) -> Result<()> {
        Store::save(self, batch, digest, rollup)
    }
}

/// A [`RollupStore`] seen as the [`Store`] the checkpointed fold takes.
struct AsStore<'a>(&'a mut dyn RollupStore);

impl Store<FleetRollup> for AsStore<'_> {
    fn load(&mut self, batch: u64, digest: u64) -> Option<FleetRollup> {
        self.0.load(batch, digest)
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &FleetRollup) -> Result<()> {
        self.0.save(batch, digest, rollup)
    }
}

/// One shard: a contiguous run of links within one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardSpec {
    /// Global shard index (the hard-fail substream index).
    shard_id: u64,
    /// Index into `cfg.classes`.
    class: usize,
    /// Global id of the shard's first link (the campaign substream base).
    first_link: u64,
    /// Links in this shard.
    links: u64,
    /// Event-sourced (true) or Poisson-only (false).
    event_sourced: bool,
}

/// Deterministic shard layout: classes in config order, each split into
/// `ceil(links / shard_links)` shards; link ids are global across the
/// concatenated classes. Independent of thread count and batch size.
fn shard_specs(cfg: &HyperFleetConfig, tiers: &[ClassTier]) -> Vec<ShardSpec> {
    let mut specs = Vec::new();
    let mut shard_id = 0u64;
    let mut link_base = 0u64;
    for (ci, class) in cfg.classes.iter().enumerate() {
        let event_sourced = tiers[ci] == ClassTier::EventSourced;
        let mut first = 0u64;
        while first < class.links {
            let links = (class.links - first).min(cfg.shard_links);
            specs.push(ShardSpec {
                shard_id,
                class: ci,
                first_link: link_base + first,
                links,
                event_sourced,
            });
            shard_id += 1;
            first += links;
        }
        link_base += class.links;
    }
    specs
}

/// Hard-failure accumulator for [`drain_hard_failures`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HardFailTally {
    /// Failure tickets raised.
    pub tickets: u64,
    /// Link-hours of full outage.
    pub downtime_h: f64,
    /// Gb/s·hours lost to those outages.
    pub capacity_lost: f64,
}

/// Drain one shard's class-level Poisson hard-failure stream through a
/// pre-sized [`EventQueue`]: schedule the first failure, then walk
/// failure → repair → next failure to the horizon, accruing into
/// `tally`. Allocation-free after queue warm-up (lint rule R4): the
/// queue holds at most one pending event because repairs are accounted
/// at failure time.
// 10⁶+ links stream through the shard loops: a per-link allocation
// would dominate the run.
// lint: no-alloc proof=crates/netsim/tests/alloc_free.rs
pub fn drain_hard_failures(
    queue: &mut EventQueue<()>,
    rng: &mut DetRng,
    process: ClassFailureProcess,
    horizon_h: f64,
    mttr_h: f64,
    aggregate_gbps: f64,
    tally: &mut HardFailTally,
) {
    queue.reset();
    if let Some(t0) = process.first_failure(rng) {
        if t0 < horizon_h {
            queue.schedule(t0, ());
        }
    }
    while let Some((t, ())) = queue.pop() {
        tally.tickets += 1;
        let end = (t + mttr_h).min(horizon_h);
        tally.downtime_h += end - t;
        tally.capacity_lost += (end - t) * aggregate_gbps;
        let next = process.next_failure(t, rng);
        if next < horizon_h {
            queue.schedule(next, ());
        }
    }
}

/// What an active fault reports to its monitor group in one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observation {
    /// A hard-dead report.
    Dead,
    /// `errors` bit errors in the epoch's bits (may be zero).
    Errors(u64),
}

/// What `ev` reports in each epoch it is active: a 0.5 BER cap (a fully
/// random channel) and the error count rounded to whole bits.
fn observation(ev: &FaultEvent, bits_per_epoch: u64) -> Observation {
    let eff = ev.effect();
    if eff.dead {
        Observation::Dead
    } else if eff.extra_ber > 0.0 {
        Observation::Errors((eff.extra_ber.min(0.5) * bits_per_epoch as f64).round() as u64)
    } else {
        Observation::Errors(0)
    }
}

/// The first epoch at or after `epoch` at which a *live* event is
/// active, if any. A live event starts at or after `rebuild_floor`,
/// strikes a channel that is not Retired, and reports something: a dead
/// report or at least one bit error. Every other active event leaves an
/// idle controller idle (see [`replay_fault_window`]).
fn next_live_epoch(
    ctl: &DegradeController,
    events: &[FaultEvent],
    epoch: usize,
    rebuild_floor: usize,
    bits_per_epoch: u64,
) -> Option<usize> {
    let mut next: Option<usize> = None;
    for ev in events {
        if ev.start < rebuild_floor || ctl.state(ev.channel) == CtlState::Retired {
            continue;
        }
        let Some(e) = ev.next_active(epoch) else {
            continue;
        };
        if next.is_some_and(|n| n <= e) {
            continue;
        }
        if observation(ev, bits_per_epoch) != Observation::Errors(0) {
            next = Some(e);
        }
    }
    next
}

/// Replay controller epochs `from_epoch..=to_epoch` of one link against
/// its campaign: active faults feed errors (or hard-dead reports) to
/// their monitor groups, quiet Suspect groups receive clean bits so
/// hysteresis can clear them, and the controller steps once per epoch.
/// Events starting before `rebuild_floor` belong to hardware that has
/// since been replaced and are skipped.
///
/// Idle stretches are skipped exactly. When the controller
/// [`is_idle`](DegradeController::is_idle), an epoch without a live
/// event (see `next_live_epoch`) feeds it nothing it reads: no Suspect
/// group exists to receive clean bits, dead reports and errors land
/// only on Retired groups (which never read them again), and a
/// zero-error event only marks its group as touched. Stepping such an
/// epoch changes only the epoch (dwell is derived from it) and leaves
/// the controller idle, so the replay jumps to the next live epoch with
/// [`skip_idle`](DegradeController::skip_idle).
///
/// Allocation-free on a warmed controller (lint rule R4): the
/// per-epoch active set is a u64 bitmask (`groups <= 64`, enforced by
/// config validation).
// 10⁶+ links stream through the shard loops: a per-link allocation
// would dominate the run.
// lint: no-alloc proof=crates/netsim/tests/alloc_free.rs
pub fn replay_fault_window(
    ctl: &mut DegradeController,
    events: &[FaultEvent],
    from_epoch: usize,
    to_epoch: usize,
    rebuild_floor: usize,
    bits_per_epoch: u64,
) {
    let physical = ctl.lane_map().logical_lanes() + ctl.provisioned_spares();
    let end = to_epoch.saturating_add(1);
    let mut epoch = from_epoch;
    // Whether a Suspect group may exist: unknown on entry, then read off
    // each step's summary (an idle controller has none).
    let mut any_suspect = true;
    while epoch < end {
        if ctl.is_idle() {
            any_suspect = false;
            let resume = next_live_epoch(ctl, events, epoch, rebuild_floor, bits_per_epoch)
                .map_or(end, |e| e.min(end));
            ctl.skip_idle(resume - epoch);
            epoch = resume;
            if epoch == end {
                break;
            }
        }
        let mut touched: u64 = 0;
        for ev in events {
            if ev.start < rebuild_floor || !ev.active_at(epoch) {
                continue;
            }
            touched |= 1u64 << (ev.channel as u64 & 63);
            match observation(ev, bits_per_epoch) {
                Observation::Dead => ctl.mark_dead(ev.channel),
                Observation::Errors(0) => {}
                Observation::Errors(errors) => ctl.record(ev.channel, bits_per_epoch, errors),
            }
        }
        if any_suspect {
            for g in 0..physical {
                if touched & (1u64 << (g as u64 & 63)) != 0 {
                    continue;
                }
                if ctl.state(g) == CtlState::Suspect {
                    ctl.record(g, bits_per_epoch, 0);
                }
            }
        }
        any_suspect = ctl.step().by_state[CtlState::Suspect as usize] > 0;
        epoch += 1;
    }
}

/// The degrade policy hyperfleet runs its supervisory groups under:
/// one 4096-bit window per hourly epoch, short dwells so a fault
/// window of `RESOLVE_CAP` (16) + tail epochs always resolves.
pub fn degrade_policy() -> DegradeConfig {
    DegradeConfig {
        window_bits: BITS_PER_EPOCH,
        max_windows: 2,
        suspect_ber: 1e-4,
        clear_ber: 1e-5,
        quarantine_ber: 0.2,
        suspect_dwell_limit: 6,
        clear_epochs: 2,
        spared_dwell_limit: 4,
    }
}

/// Per-class replay constants, hoisted out of the per-link loop.
#[derive(Debug, Clone, Copy)]
struct ReplayParams {
    horizon_h: f64,
    horizon_epochs: usize,
    mttr_h: f64,
    logical: usize,
    rebuild_lanes: usize,
    tail: usize,
    aggregate_gbps: f64,
    group_gbps: f64,
}

impl ReplayParams {
    fn of(cfg: &HyperFleetConfig, class: &HyperClass) -> ReplayParams {
        let pol = degrade_policy();
        let horizon_h = cfg.horizon_hours();
        let logical = class.logical_groups;
        ReplayParams {
            horizon_h,
            horizon_epochs: horizon_h as usize,
            mttr_h: cfg.mttr.as_hours(),
            logical,
            rebuild_lanes: ((cfg.rebuild_lost_fraction * logical as f64).ceil() as usize).max(1),
            tail: pol.suspect_dwell_limit + pol.clear_epochs + 2,
            aggregate_gbps: class.aggregate.as_gbps(),
            group_gbps: class.aggregate.as_gbps() / logical.max(1) as f64,
        }
    }
}

/// Per-link discrete events: a campaign fault coming due, or a rebuilt
/// link returning to service.
#[derive(Debug, Clone, Copy)]
enum LinkEvent {
    Fault(u32),
    Rebuild,
}

/// Float accumulator for one shard; quantized once into a
/// [`FleetRollup`] when the shard completes.
#[derive(Debug, Clone, Copy, Default)]
struct ShardTally {
    tickets: u64,
    hard_failures: u64,
    rebuilds: u64,
    channel_faults: u64,
    spares_activated: u64,
    lanes_shed: u64,
    exhausted_links: u64,
    downtime_h: f64,
    degraded_lane_h: f64,
    capacity_lost: f64,
    occupancy: [u64; SPARE_BUCKETS],
}

/// Accrue shed-lane degradation from `last_t` to `t`.
fn accrue(tally: &mut ShardTally, shed: usize, group_gbps: f64, last_t: &mut f64, t: f64) {
    if t > *last_t && shed > 0 {
        let dt = t - *last_t;
        tally.degraded_lane_h += dt * shed as f64;
        tally.capacity_lost += dt * shed as f64 * group_gbps;
    }
    *last_t = t;
}

/// Replay one event-sourced link's multi-year history.
fn run_link_history(
    p: &ReplayParams,
    campaign: &FaultCampaign,
    ctl: &mut DegradeController,
    queue: &mut EventQueue<LinkEvent>,
    tally: &mut ShardTally,
) {
    queue.reset();
    ctl.reset();
    let events = campaign.events();
    for (i, ev) in events.iter().enumerate() {
        queue.schedule(ev.start as f64, LinkEvent::Fault(i as u32));
    }
    let mut done_through = 0usize; // first epoch not yet replayed
    let mut rebuild_floor = 0usize; // events starting earlier are void
    let mut rebuilding = false;
    let mut shed = 0usize; // lanes currently shed since last rebuild
    let mut last_t = 0.0f64; // shed-accrual cursor
    let mut link_spares = 0u64;
    let mut exhausted = false;
    let mut prev_spares = 0usize;
    let mut prev_lost = 0usize;
    while let Some((t, ev)) = queue.pop() {
        match ev {
            LinkEvent::Fault(i) => {
                tally.channel_faults += 1;
                if rebuilding {
                    continue; // link is out for repair; fault is moot
                }
                let fe = &events[i as usize];
                if fe.start < rebuild_floor {
                    continue; // struck hardware that has been replaced
                }
                let span = match fe.persistence {
                    Persistence::Permanent => RESOLVE_CAP,
                    _ => fe.duration.min(RESOLVE_CAP),
                };
                let from = fe.start.max(done_through);
                let to = (fe.start + span + p.tail).min(p.horizon_epochs.saturating_sub(1));
                if from > to {
                    continue; // window already covered by an earlier replay
                }
                replay_fault_window(ctl, events, from, to, rebuild_floor, BITS_PER_EPOCH);
                done_through = to + 1;
                let sp = ctl.spares_activated();
                let lost = ctl.lost_lanes();
                let dsp = (sp - prev_spares) as u64;
                let dlost = lost - prev_lost;
                prev_spares = sp;
                prev_lost = lost;
                link_spares += dsp;
                tally.spares_activated += dsp;
                if dlost > 0 {
                    exhausted = true;
                    tally.lanes_shed += dlost as u64;
                    accrue(tally, shed, p.group_gbps, &mut last_t, t);
                    shed = (shed + dlost).min(p.logical);
                    if shed >= p.rebuild_lanes {
                        tally.tickets += 1;
                        tally.rebuilds += 1;
                        let end = (t + p.mttr_h).min(p.horizon_h);
                        tally.downtime_h += end - t;
                        tally.capacity_lost += (end - t) * p.aggregate_gbps;
                        rebuilding = true;
                        if end < p.horizon_h {
                            queue.schedule(end, LinkEvent::Rebuild);
                        } else {
                            // Outage runs past the horizon: the full-rate
                            // charge above covers it, stop shed accrual.
                            shed = 0;
                            last_t = p.horizon_h;
                        }
                    }
                }
            }
            LinkEvent::Rebuild => {
                // Hardware swap: fresh controller state, full spare
                // pool; faults on the old hardware are void.
                ctl.reset();
                prev_spares = 0;
                prev_lost = 0;
                rebuild_floor = t.ceil() as usize;
                done_through = done_through.max(rebuild_floor);
                rebuilding = false;
                shed = 0;
                last_t = t;
            }
        }
    }
    if !rebuilding {
        accrue(tally, shed, p.group_gbps, &mut last_t, p.horizon_h);
    }
    tally.occupancy[(link_spares as usize).min(SPARE_BUCKETS - 1)] += 1;
    if exhausted {
        tally.exhausted_links += 1;
    }
}

/// Per-worker scratch: the reusable controller, the campaign buffer
/// every link's campaign is regenerated into, and pre-sized event
/// queues. Each grows only when a link needs more room than any before
/// it, so the steady-state shard loop does not allocate.
struct ShardScratch {
    ctl: Option<DegradeController>,
    geometry: Option<(usize, usize)>,
    campaign: FaultCampaign,
    hard_queue: EventQueue<()>,
    link_queue: EventQueue<LinkEvent>,
}

impl ShardScratch {
    fn new() -> ShardScratch {
        ShardScratch {
            ctl: None,
            geometry: None,
            campaign: FaultCampaign::default(),
            hard_queue: EventQueue::with_capacity(2),
            link_queue: EventQueue::with_capacity(64),
        }
    }
}

/// Run one shard to completion: a pure function of
/// `(config, seed, shard_id)` returning its quantized rollup.
fn run_shard(
    cfg: &HyperFleetConfig,
    spec: &ShardSpec,
    seed: u64,
    scratch: &mut ShardScratch,
) -> FleetRollup {
    let class = &cfg.classes[spec.class];
    let mut tally = ShardTally::default();
    let mut hard = HardFailTally::default();
    let mut rng = DetRng::substream_indexed(seed, "hyperfleet-hardfail", spec.shard_id);
    drain_hard_failures(
        &mut scratch.hard_queue,
        &mut rng,
        ClassFailureProcess::new(class.link_fit, spec.links),
        cfg.horizon_hours(),
        cfg.mttr.as_hours(),
        class.aggregate.as_gbps(),
        &mut hard,
    );
    tally.tickets += hard.tickets;
    tally.hard_failures += hard.tickets;
    tally.downtime_h += hard.downtime_h;
    tally.capacity_lost += hard.capacity_lost;
    let mut event_sourced_links = 0u64;
    if spec.event_sourced {
        event_sourced_links = spec.links;
        let p = ReplayParams::of(cfg, class);
        let geometry = (class.logical_groups, class.groups);
        if scratch.geometry != Some(geometry) {
            scratch.ctl = Some(
                DegradeController::try_new(geometry.0, geometry.1, degrade_policy())
                    .expect("validated geometry"),
            );
            scratch.geometry = Some(geometry);
        }
        let ctl = scratch.ctl.as_mut().expect("controller just installed");
        let camp_cfg = CampaignConfig {
            channels: class.groups,
            epochs: p.horizon_epochs,
            faults_per_kilo_epoch: cfg.faults_per_kilo_hour,
            max_duration: cfg.max_fault_duration,
            permanent_fraction: cfg.permanent_fraction,
        };
        let link_streams = DetRng::substreams(seed, "hyperfleet-link");
        let campaign = &mut scratch.campaign;
        // Each link seed is its stream's one draw: key 16 links at once.
        let mut l = 0u64;
        while l < spec.links {
            let seeds: [u64; 16] = link_streams.first_draws(spec.first_link + l);
            let take = (spec.links - l).min(16);
            for &link_seed in &seeds[..take as usize] {
                campaign.generate_into(camp_cfg, link_seed);
                if campaign.events().is_empty() {
                    tally.occupancy[0] += 1;
                    continue;
                }
                run_link_history(&p, campaign, ctl, &mut scratch.link_queue, &mut tally);
            }
            l += take;
        }
    }
    FleetRollup {
        shards: 1,
        links: spec.links,
        event_sourced_links,
        tickets: tally.tickets,
        hard_failures: tally.hard_failures,
        rebuilds: tally.rebuilds,
        channel_faults: tally.channel_faults,
        spares_activated: tally.spares_activated,
        lanes_shed: tally.lanes_shed,
        exhausted_links: tally.exhausted_links,
        downtime_q: quantize(tally.downtime_h),
        degraded_q: quantize(tally.degraded_lane_h),
        capacity_lost_q: quantize(tally.capacity_lost),
        spare_occupancy: tally.occupancy,
    }
}

/// The finished fleet report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperFleetReport {
    /// Years simulated.
    pub years: f64,
    /// Total links simulated.
    pub links: u64,
    /// The merged fleet rollup.
    pub rollup: FleetRollup,
    /// Fleet link availability (1 − full-outage link-hours / total).
    pub availability: f64,
    /// Fraction of the provisioned capacity actually delivered
    /// (accounts for outages *and* shed-lane degradation).
    pub delivered_capacity_fraction: f64,
    /// Repair tickets per 1000 links per year.
    pub tickets_per_1k_link_years: f64,
    /// Fraction of event-sourced links that ever shed a lane.
    pub spare_exhausted_fraction: f64,
}

fn finish(cfg: &HyperFleetConfig, rollup: FleetRollup) -> HyperFleetReport {
    let horizon_h = cfg.horizon_hours();
    let links = cfg.total_links();
    let link_hours = links as f64 * horizon_h;
    let capacity_hours: f64 = cfg
        .classes
        .iter()
        .map(|c| c.links as f64 * c.aggregate.as_gbps() * horizon_h)
        .sum();
    telemetry::counter_add("hyperfleet.shards", rollup.shards);
    telemetry::counter_add("hyperfleet.links", rollup.links);
    telemetry::counter_add("hyperfleet.tickets", rollup.tickets);
    telemetry::counter_add("hyperfleet.hard_failures", rollup.hard_failures);
    telemetry::counter_add("hyperfleet.rebuilds", rollup.rebuilds);
    telemetry::counter_add("hyperfleet.channel_faults", rollup.channel_faults);
    telemetry::counter_add("hyperfleet.spares_activated", rollup.spares_activated);
    telemetry::counter_add("hyperfleet.lanes_shed", rollup.lanes_shed);
    telemetry::counter_add("hyperfleet.exhausted_links", rollup.exhausted_links);
    HyperFleetReport {
        years: cfg.years,
        links,
        rollup,
        availability: 1.0 - rollup.downtime_link_hours() / link_hours,
        delivered_capacity_fraction: 1.0 - rollup.capacity_lost_gbps_hours() / capacity_hours,
        tickets_per_1k_link_years: rollup.tickets as f64 / (links as f64 / 1000.0) / cfg.years,
        spare_exhausted_fraction: if rollup.event_sourced_links > 0 {
            rollup.exhausted_links as f64 / rollup.event_sourced_links as f64
        } else {
            0.0
        },
    }
}

/// Run the full simulation with checkpointing: one
/// [`TrialPlan::fold_checkpointed`] over the shards, in batches of
/// [`HyperFleetConfig::shards_per_batch`], keyed by
/// [`HyperFleetConfig::digest`]. `stop_after_batches` limits the batches
/// executed *this invocation* (the kill/resume drill); `Ok(None)` means
/// the run stopped early and can be resumed.
pub fn simulate_with(
    cfg: &HyperFleetConfig,
    seed: u64,
    exec: &Exec,
    store: &mut dyn RollupStore,
    stop_after_batches: Option<u64>,
) -> Result<Option<HyperFleetReport>> {
    cfg.validate()?;
    let specs = shard_specs(cfg, &class_tiers(cfg));
    let rollup = TrialPlan::new()
        .trials(specs.len() as u64)
        .seed(seed)
        .label("hyperfleet")
        .fold_checkpointed(
            exec,
            Checkpoints {
                store: &mut AsStore(store),
                digest: cfg.digest(seed),
                batch_trials: cfg.shards_per_batch,
                stop_after_batches,
            },
            ShardScratch::new,
            |ctx, scratch| run_shard(cfg, &specs[ctx.trial() as usize], seed, scratch),
        )?;
    Ok(rollup.map(|r| finish(cfg, r)))
}

/// [`simulate_with`] without persistence or early stop.
pub fn simulate(cfg: &HyperFleetConfig, seed: u64, exec: &Exec) -> Result<HyperFleetReport> {
    match simulate_with(cfg, seed, exec, &mut NoStore, None)? {
        Some(report) => Ok(report),
        // Unreachable: no stop limit was set.
        None => Err(MosaicError::invalid_config(
            "hyperfleet_stop",
            "simulation stopped without a stop limit",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_units::{BitRate, Duration, Fit};

    fn tiny_cfg() -> HyperFleetConfig {
        HyperFleetConfig {
            classes: vec![
                HyperClass {
                    name: "poisson/SR".into(),
                    links: 500,
                    link_fit: Fit::new(1000.0),
                    aggregate: BitRate::from_gbps(800.0),
                    groups: 0,
                    logical_groups: 0,
                },
                HyperClass {
                    name: "hot/Mosaic".into(),
                    links: 300,
                    link_fit: Fit::new(120.0),
                    aggregate: BitRate::from_gbps(800.0),
                    groups: 12,
                    logical_groups: 10,
                },
            ],
            years: 2.0,
            mttr: Duration::from_hours(24.0),
            shard_links: 64,
            shards_per_batch: 4,
            faults_per_kilo_hour: 0.02,
            max_fault_duration: 24,
            permanent_fraction: 0.25,
            rebuild_lost_fraction: 0.2,
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = tiny_cfg();
        assert!(cfg.validate().is_ok());
        cfg.classes[1].groups = 65;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny_cfg();
        cfg.classes[1].logical_groups = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny_cfg();
        cfg.shard_links = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny_cfg();
        cfg.rebuild_lost_fraction = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn digest_distinguishes_configs_and_seeds() {
        let cfg = tiny_cfg();
        let mut other = cfg.clone();
        other.years = 3.0;
        assert_ne!(cfg.digest(1), other.digest(1));
        assert_ne!(cfg.digest(1), cfg.digest(2));
        assert_eq!(cfg.digest(1), tiny_cfg().digest(1));
    }

    #[test]
    fn digest_keeps_the_key_earlier_builds_wrote() {
        // Pinned at the value earlier builds computed for this config,
        // so F18 checkpoints they wrote still resume.
        assert_eq!(tiny_cfg().digest(1), 0xb3c6_1888_1831_9b5c);
    }

    #[test]
    fn spared_classes_are_event_sourced() {
        let cfg = tiny_cfg();
        let tiers = class_tiers(&cfg);
        assert_eq!(tiers[0], ClassTier::Poisson); // unspared: always exact
        assert_eq!(tiers[1], ClassTier::EventSourced);
    }

    #[test]
    fn rollup_merge_is_commutative() {
        let cfg = tiny_cfg();
        let tiers = class_tiers(&cfg);
        let specs = shard_specs(&cfg, &tiers);
        let mut scratch = ShardScratch::new();
        let rollups: Vec<FleetRollup> = specs
            .iter()
            .map(|s| run_shard(&cfg, s, 7, &mut scratch))
            .collect();
        let mut forward = FleetRollup::default();
        for r in &rollups {
            forward.merge(r);
        }
        let mut backward = FleetRollup::default();
        for r in rollups.iter().rev() {
            backward.merge(r);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.links, cfg.total_links());
    }

    #[test]
    fn shards_are_pure_functions_of_config_seed_shard() {
        let cfg = tiny_cfg();
        let tiers = class_tiers(&cfg);
        let specs = shard_specs(&cfg, &tiers);
        let mut s1 = ShardScratch::new();
        let mut s2 = ShardScratch::new();
        // Same shard, fresh vs reused scratch, any order: identical.
        let a = run_shard(&cfg, &specs[3], 7, &mut s1);
        let _ = run_shard(&cfg, &specs[0], 7, &mut s2);
        let b = run_shard(&cfg, &specs[3], 7, &mut s2);
        assert_eq!(a, b);
    }

    /// Link seeds keyed 16 at a time are each link's own first draw:
    /// every event-sourced shard, including shards whose first link is
    /// not a multiple of 16 and a last shard with a partial batch,
    /// replays exactly what keying `child(id)` link by link replays.
    #[test]
    fn batched_link_seeds_match_links_keyed_one_by_one() {
        let mut cfg = tiny_cfg();
        cfg.shard_links = 40;
        cfg.faults_per_kilo_hour = 0.2;
        let tiers = class_tiers(&cfg);
        let specs = shard_specs(&cfg, &tiers);
        let mut scratch = ShardScratch::new();
        let mut checked = 0;
        for spec in specs.iter().filter(|s| s.event_sourced) {
            let got = run_shard(&cfg, spec, 7, &mut scratch);
            let class = &cfg.classes[spec.class];
            let p = ReplayParams::of(&cfg, class);
            let mut ctl =
                DegradeController::try_new(class.logical_groups, class.groups, degrade_policy())
                    .unwrap();
            let camp_cfg = CampaignConfig {
                channels: class.groups,
                epochs: p.horizon_epochs,
                faults_per_kilo_epoch: cfg.faults_per_kilo_hour,
                max_duration: cfg.max_fault_duration,
                permanent_fraction: cfg.permanent_fraction,
            };
            let links = DetRng::substreams(7, "hyperfleet-link");
            let mut campaign = FaultCampaign::default();
            let mut queue = EventQueue::with_capacity(64);
            let mut want = ShardTally::default();
            for id in spec.first_link..spec.first_link + spec.links {
                campaign.generate_into(camp_cfg, links.child(id).next_u64());
                if campaign.events().is_empty() {
                    want.occupancy[0] += 1;
                    continue;
                }
                run_link_history(&p, &campaign, &mut ctl, &mut queue, &mut want);
            }
            assert_eq!(
                got.tickets - got.hard_failures,
                want.tickets,
                "shard {}",
                spec.shard_id
            );
            assert_eq!(got.rebuilds, want.rebuilds);
            assert!(
                want.channel_faults > 0,
                "shard {} drew no fault",
                spec.shard_id
            );
            assert_eq!(got.channel_faults, want.channel_faults);
            assert_eq!(got.spares_activated, want.spares_activated);
            assert_eq!(got.lanes_shed, want.lanes_shed);
            assert_eq!(got.exhausted_links, want.exhausted_links);
            assert_eq!(got.degraded_q, quantize(want.degraded_lane_h));
            assert_eq!(got.spare_occupancy, want.occupancy);
            checked += usize::from(spec.first_link % 16 != 0);
        }
        assert!(checked > 0, "no shard started off a batch edge");
    }

    #[test]
    fn simulate_is_thread_count_invariant() {
        let cfg = tiny_cfg();
        let base = simulate(&cfg, 11, &Exec::with_threads(1)).unwrap();
        for threads in [2, 8] {
            let other = simulate(&cfg, 11, &Exec::with_threads(threads)).unwrap();
            assert_eq!(base, other, "threads={threads}");
        }
        assert!(base.availability > 0.9 && base.availability <= 1.0);
        assert!(base.rollup.tickets > 0, "a 2-year fleet must raise tickets");
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let mut cfg = tiny_cfg();
        let base = simulate(&cfg, 5, &Exec::with_threads(2)).unwrap();
        cfg.shards_per_batch = 1;
        let fine = simulate(&cfg, 5, &Exec::with_threads(2)).unwrap();
        assert_eq!(base.rollup, fine.rollup);
    }

    #[test]
    fn stop_and_resume_through_a_store_is_byte_identical() {
        #[derive(Default)]
        struct MemStore(std::collections::BTreeMap<u64, (u64, FleetRollup)>);
        impl RollupStore for MemStore {
            fn load(&mut self, batch: u64, digest: u64) -> Option<FleetRollup> {
                self.0
                    .get(&batch)
                    .filter(|(d, _)| *d == digest)
                    .map(|(_, r)| *r)
            }
            fn save(&mut self, batch: u64, digest: u64, r: &FleetRollup) -> Result<()> {
                self.0.insert(batch, (digest, *r));
                Ok(())
            }
        }
        let cfg = tiny_cfg();
        let exec = Exec::with_threads(2);
        let clean = simulate(&cfg, 9, &exec).unwrap();
        let mut store = MemStore::default();
        // Killed after one batch...
        let stopped = simulate_with(&cfg, 9, &exec, &mut store, Some(1)).unwrap();
        assert!(stopped.is_none());
        assert!(!store.0.is_empty());
        // ...resumed to completion: identical to the uninterrupted run.
        let resumed = simulate_with(&cfg, 9, &exec, &mut store, None)
            .unwrap()
            .expect("resume runs to completion");
        assert_eq!(clean, resumed);
        // A digest mismatch (different seed) must ignore the checkpoints.
        let fresh = simulate_with(&cfg, 10, &exec, &mut store, None)
            .unwrap()
            .expect("fresh run completes");
        assert_ne!(clean.rollup, fresh.rollup);
    }

    #[test]
    fn checkpoints_round_trip_exactly() {
        let r = FleetRollup {
            shards: 3,
            links: 1_277_952,
            tickets: 42,
            // Above 2^53: a float-backed number field would round these.
            downtime_q: (1u128 << 77) + 12345,
            capacity_lost_q: u128::MAX / 7,
            spare_occupancy: [9, 8, 7, 6, 5, 4, 3, 2],
            ..FleetRollup::default()
        };
        let doc = mosaic_sim::checkpoint::encode(4, 0xdead_beef, &r);
        assert_eq!(mosaic_sim::checkpoint::decode(&doc, 4, 0xdead_beef), Ok(r));
        assert!(mosaic_sim::checkpoint::decode::<FleetRollup>(&doc, 3, 0xdead_beef).is_err());
    }

    #[test]
    fn poisson_tier_matches_class_process_expectation() {
        // A Poisson-only fleet's ticket count should track rate × time.
        let mut cfg = tiny_cfg();
        cfg.classes.truncate(1);
        cfg.classes[0].links = 20_000;
        cfg.years = 10.0;
        let report = simulate(&cfg, 3, &Exec::with_threads(4)).unwrap();
        let expected =
            cfg.classes[0].link_fit.per_hour() * cfg.classes[0].links as f64 * cfg.horizon_hours();
        let ratio = report.rollup.tickets as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "tickets ratio {ratio}");
        assert_eq!(report.rollup.hard_failures, report.rollup.tickets);
        assert_eq!(report.rollup.event_sourced_links, 0);
    }

    #[test]
    fn event_sourcing_produces_channel_activity() {
        let cfg = tiny_cfg();
        let report = simulate(&cfg, 13, &Exec::with_threads(2)).unwrap();
        let r = &report.rollup;
        assert_eq!(r.event_sourced_links, 300);
        assert!(r.channel_faults > 0, "campaigns must draw faults");
        assert!(r.spares_activated > 0, "faults must consume spares");
        let hist_total: u64 = r.spare_occupancy.iter().sum();
        assert_eq!(hist_total, r.event_sourced_links);
        assert!(report.delivered_capacity_fraction > 0.9);
        assert!(report.spare_exhausted_fraction < 0.5);
    }

    #[test]
    fn overlapping_ber_faults_are_separate_monitor_records() {
        // Pins hyperfleet's per-event observation: each active BER event
        // is its own monitor record, so overlapping events read as their
        // average BER, not as one combined effect (their sum). Switching
        // to combined per-channel effects moves full F18: spares used
        // 244785 -> 244800 and occupancy `0:203451 1:135001 2:54532` ->
        // `0:203443 1:135002 2:54539` — a value change for its own PR.
        use mosaic_sim::faults::FaultKind;
        let storm = FaultEvent {
            channel: 0,
            kind: FaultKind::BurstErrorStorm,
            persistence: Persistence::Transient,
            start: 0,
            duration: 4,
            severity: 1.0,
        };
        let events = [storm; 3];
        let policy = degrade_policy();
        // Each storm alone adds 0.1; three together would add 0.3.
        let one = storm.effect().extra_ber;
        let camp = FaultCampaign::try_from_events(
            CampaignConfig {
                channels: 12,
                ..CampaignConfig::default()
            },
            events.to_vec(),
        )
        .unwrap();
        let combined = camp.effect_at(0, 0).extra_ber;
        assert!(policy.suspect_ber < one && one < policy.quarantine_ber);
        assert!(combined > policy.quarantine_ber);

        let mut ctl = DegradeController::try_new(10, 12, policy).unwrap();
        replay_fault_window(&mut ctl, &events, 0, 0, 0, BITS_PER_EPOCH);
        assert_eq!(ctl.state(0), CtlState::Suspect, "average BER, not the sum");
        assert_eq!(ctl.spares_activated(), 0);
    }
}
