//! `traffic_clean` and `traffic_faults`: packet workloads through
//! `traffic::LinkHarness`, which drives the `link` gearbox once per frame
//! and the `link::degrade` controller once per channel and epoch.

use crate::cpu::Units;
use crate::trace::{Tracer, Unit};
use crate::{ratio, stats, Checks, Size, Workload};
use mosaic_bench::manifest::fnv1a;
use mosaic_link::degrade::DegradeController;
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::striping::LaneWord;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use mosaic_traffic::{
    run_seed, FrameSpec, LinkHarness, Policy, TrafficConfig, TrafficRollup, WorkloadConfig,
    WorkloadKind, MAX_BATCH,
};
use std::collections::VecDeque;

/// A set of harness runs: every configuration in `points` runs `runs`
/// times, run `r` on seed `run_seed(seed, r)` (the same seeds for every
/// configuration, as in F19).
#[derive(Debug, Clone)]
pub struct Traffic {
    points: Vec<TrafficConfig>,
    runs: u64,
    seed: u64,
    clean: bool,
}

impl Traffic {
    /// `traffic_clean`: the mixed workload over 32 flows of 32-byte base
    /// frames, no faults, hitless controller: the per-frame gearbox fast
    /// path with the link at its quota.
    pub fn clean(seed: u64, size: Size) -> Self {
        let (epochs, runs) = match size {
            Size::Full => (2000, 32),
            Size::Tiny => (60, 2),
        };
        Traffic {
            points: vec![TrafficConfig {
                workload: WorkloadConfig {
                    kind: WorkloadKind::Mixed,
                    flows: 32,
                    base_frame_bytes: 32,
                    ..WorkloadConfig::default()
                },
                epochs,
                faults_per_kilo_epoch: 0.0,
                policy: Policy::ControllerHitless,
                ..TrafficConfig::default()
            }],
            runs,
            seed,
            clean: true,
        }
    }

    /// `traffic_faults`: F19's harshest point (4 faults per kilo-epoch,
    /// 40% permanent, 400 epochs, default mix) under all three policies.
    pub fn faults(seed: u64, size: Size) -> Self {
        let (epochs, runs) = match size {
            Size::Full => (400, 54),
            Size::Tiny => (80, 2),
        };
        let points = [
            Policy::Static,
            Policy::Controller,
            Policy::ControllerHitless,
        ]
        .map(|policy| TrafficConfig {
            epochs,
            faults_per_kilo_epoch: 4.0,
            permanent_fraction: 0.4,
            policy,
            ..TrafficConfig::default()
        });
        Traffic {
            points: points.to_vec(),
            runs,
            seed,
            clean: false,
        }
    }
}

/// One run's harness, built by set-up.
pub struct Prepared {
    point: usize,
    seed: u64,
    harness: mosaic_units::Result<LinkHarness>,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunOut {
    point: usize,
    seed: u64,
    /// Epochs stepped, drain included.
    steps: u64,
    /// `None` when the harness could not be built.
    rollup: Option<TrafficRollup>,
    /// What a traced pass records besides.
    traced: Option<Traced>,
}

/// A traced run's extra records.
#[derive(Debug, Clone, Copy)]
struct Traced {
    /// Digest of the run's fault campaign.
    campaign_digest: u64,
    /// Steps timed; must be every step the run took.
    steps: u64,
}

impl Workload for Traffic {
    type Input = Vec<Prepared>;
    type Output = Vec<RunOut>;

    fn setup(&self, mut tracer: Option<&mut Tracer>) -> Vec<Prepared> {
        let mut input = Vec::with_capacity(self.points.len() * self.runs as usize);
        for (point, cfg) in self.points.iter().enumerate() {
            for r in 0..self.runs {
                let unit = run_unit(input.len());
                let seed = run_seed(self.seed, r);
                if let Some(t) = tracer.as_deref_mut() {
                    t.enter("traffic.try_new", unit);
                }
                let harness = LinkHarness::try_new(*cfg, seed);
                if let Some(t) = tracer.as_deref_mut() {
                    t.exit();
                }
                input.push(Prepared {
                    point,
                    seed,
                    harness,
                });
            }
        }
        input
    }

    /// One unit per harness run.
    fn run(
        &self,
        input: Vec<Prepared>,
        mut tracer: Option<&mut Tracer>,
        units: &mut Units,
    ) -> Vec<RunOut> {
        let mut out = Vec::with_capacity(input.len());
        for (i, p) in input.into_iter().enumerate() {
            let mut run = RunOut {
                point: p.point,
                seed: p.seed,
                steps: 0,
                rollup: None,
                traced: None,
            };
            if let Ok(mut h) = p.harness {
                run.rollup = Some(match tracer.as_deref_mut() {
                    None => h.run_to_completion(),
                    Some(t) => {
                        let campaign_digest = h.campaign_digest();
                        let (rollup, steps) = traced_run(&mut h, t, run_unit(i));
                        run.traced = Some(Traced {
                            campaign_digest,
                            steps,
                        });
                        rollup
                    }
                });
                run.steps = h.epoch();
            }
            units.mark();
            out.push(run);
        }
        out
    }

    fn check(&self, out: &Vec<RunOut>, checks: &mut Checks) -> u64 {
        let mut fingerprints = Vec::new();
        for point in 0..self.points.len() {
            let mut merged = TrafficRollup::default();
            for run in out.iter().filter(|r| r.point == point) {
                let Some(r) = run.rollup else {
                    checks.expect(false, || format!("harness for seed {} not built", run.seed));
                    continue;
                };
                checks.expect(r.balanced(), || {
                    format!("seed {}: books unbalanced: {r:?}", run.seed)
                });
                if let Some(t) = run.traced {
                    checks.expect(t.steps == run.steps, || {
                        format!(
                            "seed {}: {} of {} steps traced",
                            run.seed, t.steps, run.steps
                        )
                    });
                }
                if self.clean {
                    checks.expect(r.delivered == r.offered && r.remaps == 0, || {
                        format!("seed {}: clean link lost or remapped: {r:?}", run.seed)
                    });
                }
                merged.merge(&r);
            }
            checks.expect(merged.runs == self.runs, || {
                format!(
                    "point {point}: {} of {} runs merged",
                    merged.runs, self.runs
                )
            });
            fingerprints.extend_from_slice(&merged.fingerprint().to_le_bytes());
        }
        fnv1a(&fingerprints)
    }

    fn layers(
        &self,
        out: &Vec<RunOut>,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        let steps = tracer.durations("traffic.step");
        let step_ns: f64 = steps.iter().sum();
        let try_new = tracer.durations("traffic.try_new");
        let mut total = TrafficRollup::default();
        let mut replay = Replay::default();
        for (i, run) in out.iter().enumerate() {
            if let Some(r) = run.rollup {
                total.merge(&r);
                replay.run(&self.points[run.point], run, run_unit(i), tracer, checks);
            }
        }
        let offered = total.offered as f64;
        // The link replay launches each offered frame once on a clean
        // link, so the gearbox work of retransmissions stays in self time.
        let replayed = replay.emit_ns + replay.transmit_ns + replay.receive_ns + replay.degrade_ns;
        vec![
            ("traffic.step_ns_p50", stats::median(&steps)),
            (
                "traffic.step_ns_tail",
                stats::tail_percentile(steps.len()).map_or(0.0, |p| stats::percentile(&steps, p)),
            ),
            ("traffic.epochs", steps.len() as f64),
            ("traffic.step_ns_per_frame", ratio(step_ns, offered)),
            (
                "traffic.setup_us_per_run",
                ratio(try_new.iter().sum(), try_new.len() as f64) / 1e3,
            ),
            (
                "traffic.emit_ns_per_frame",
                ratio(replay.emit_ns, replay.emitted),
            ),
            (
                "traffic.self_ns_per_frame",
                ratio(step_ns - replayed, offered),
            ),
            (
                "traffic.useful_frac",
                ratio(
                    total.delivered as f64,
                    (total.offered + total.retried) as f64,
                ),
            ),
            ("traffic.replay_cover_frac", ratio(replayed, step_ns)),
            (
                "link.transmit_ns_per_frame",
                ratio(replay.transmit_ns, replay.sent),
            ),
            (
                "link.receive_ns_per_frame",
                ratio(replay.receive_ns, replay.sent),
            ),
            (
                "link.degrade_ns_per_epoch",
                ratio(replay.degrade_ns, replay.epochs),
            ),
            ("link.transitions", replay.transitions),
            ("link.spares_activated", total.remaps as f64),
            ("link.deskew_fail_epochs", total.deskew_epochs as f64),
            (
                "sim.campaign_generate_ns",
                ratio(replay.generate_ns, replay.campaigns),
            ),
            (
                "sim.campaign_events_per_link",
                ratio(replay.events, replay.campaigns),
            ),
        ]
    }
}

fn run_unit(i: usize) -> Unit {
    Unit {
        kind: "run",
        id: i as u64,
    }
}

/// `LinkHarness::run_to_completion` with a span around every step. It
/// keeps that method's termination rule, so the rollup is identical;
/// returns the rollup and the number of steps timed.
fn traced_run(h: &mut LinkHarness, t: &mut Tracer, unit: Unit) -> (TrafficRollup, u64) {
    let cfg = h.config();
    let cap =
        cfg.epochs + cfg.workload.deadline_epochs + (u64::from(cfg.retransmit_budget) + 2) * 8 + 64;
    t.enter("traffic.run", unit);
    while h.epoch() < cap {
        t.enter("traffic.step", unit);
        h.step();
        t.exit();
        if h.epoch() >= cfg.epochs && h.in_flight() == 0 {
            break;
        }
    }
    t.exit();
    let steps = h.epoch();
    let rollup = if h.in_flight() > 0 {
        // Only at the cap: this steps no further and force-expires the
        // leftovers, as the untraced call does.
        h.run_to_completion()
    } else {
        *h.rollup()
    };
    (rollup, steps)
}

/// Replays of one run's layers, outside the harness: the workload's
/// emission, its frames through a clean gearbox pair, and its fault
/// campaign through a degrade controller. Times in ns.
#[derive(Default)]
struct Replay {
    emit_ns: f64,
    emitted: f64,
    transmit_ns: f64,
    receive_ns: f64,
    sent: f64,
    degrade_ns: f64,
    epochs: f64,
    transitions: f64,
    generate_ns: f64,
    campaigns: f64,
    events: f64,
    // Buffers reused from run to run.
    frames: Vec<FrameSpec>,
    bounds: Vec<usize>,
    arena: Vec<u8>,
    payloads: Vec<(usize, usize)>,
    words: Vec<usize>,
}

impl Replay {
    fn run(
        &mut self,
        cfg: &TrafficConfig,
        run: &RunOut,
        unit: Unit,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        self.emit(cfg, run.seed, unit, t);
        self.link(cfg, run.steps, unit, t, checks);
        self.degrade(cfg, run, unit, t, checks);
    }

    /// Emission: `Workload::emit_epoch` and `Workload::payload_into` for
    /// every epoch of the horizon.
    fn emit(&mut self, cfg: &TrafficConfig, seed: u64, unit: Unit, t: &mut Tracer) {
        self.frames.clear();
        self.bounds.clear();
        self.arena.clear();
        self.payloads.clear();
        let mut workload = mosaic_traffic::Workload::new(cfg.workload, seed);
        t.enter("traffic.emit_replay", unit);
        for epoch in 0..cfg.epochs {
            let first = self.frames.len();
            self.bounds.push(first);
            workload.emit_epoch(epoch, &mut self.frames);
            for f in &self.frames[first..] {
                self.payloads
                    .push(mosaic_traffic::Workload::payload_into(f, &mut self.arena));
            }
        }
        self.emit_ns += t.exit() as f64;
        self.bounds.push(self.frames.len());
        self.emitted += self.frames.len() as f64;
    }

    /// The emitted frames through a clean `Gearbox` pair, dequeued as the
    /// harness dequeues them on a clean link: FIFO, up to the quota per
    /// epoch, overdue frames dropped. `transmit_into` and `receive_into`
    /// are timed call by call.
    fn link(
        &mut self,
        cfg: &TrafficConfig,
        steps: u64,
        unit: Unit,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        let (Ok(mut tx), Ok(mut rx)) = (
            Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period),
            Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period),
        ) else {
            checks.expect(false, || format!("gearbox geometry rejected: {cfg:?}"));
            return;
        };
        let mut tx_scratch = TxScratch::default();
        let mut rx_scratch = RxScratch::default();
        let mut channels: Vec<Vec<LaneWord>> = Vec::new();
        let mut batch = RxBatch::default();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut launch: Vec<usize> = Vec::with_capacity(MAX_BATCH);
        let quota = cfg.max_batch.min(MAX_BATCH);
        let (mut sent, mut received) = (0usize, 0usize);
        self.words.clear();
        t.enter("link.replay", unit);
        for epoch in 0..steps {
            if epoch < cfg.epochs {
                let e = epoch as usize;
                queue.extend(self.bounds[e]..self.bounds[e + 1]);
            }
            launch.clear();
            while launch.len() < quota {
                let Some(i) = queue.pop_front() else {
                    break;
                };
                if epoch <= self.frames[i].deadline {
                    launch.push(i);
                }
            }
            const EMPTY: &[u8] = &[];
            let mut refs: [&[u8]; MAX_BATCH] = [EMPTY; MAX_BATCH];
            for (slot, &i) in refs.iter_mut().zip(&launch) {
                let (start, len) = self.payloads[i];
                *slot = &self.arena[start..start + len];
            }
            let a = t.now_ns();
            tx.transmit_into(&refs[..launch.len()], &mut tx_scratch, &mut channels);
            let b = t.now_ns();
            let ok = rx
                .receive_into(&channels, &mut rx_scratch, &mut batch)
                .is_ok();
            let c = t.now_ns();
            self.transmit_ns += (b - a) as f64;
            self.receive_ns += (c - b) as f64;
            sent += launch.len();
            if ok {
                received += batch.frames.len();
            }
            self.words
                .push(channels.iter().map(Vec::len).max().unwrap_or(0));
        }
        t.exit();
        self.sent += sent as f64;
        checks.expect(received == sent, || {
            format!("clean gearbox replay delivered {received} of {sent} frames")
        });
    }

    /// The run's fault campaign, regenerated, through a fresh degrade
    /// controller: `FaultCampaign::effect_at` for every channel and epoch
    /// feeding `record`/`mark_dead`, then `step`, as the harness does.
    /// Bit errors are counted as the harness counts them, from the
    /// replayed stream lengths.
    fn degrade(
        &mut self,
        cfg: &TrafficConfig,
        run: &RunOut,
        unit: Unit,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        t.enter("sim.campaign_generate", unit);
        let campaign = FaultCampaign::generate(
            CampaignConfig {
                channels: cfg.physical,
                epochs: cfg.epochs as usize,
                faults_per_kilo_epoch: cfg.faults_per_kilo_epoch,
                max_duration: cfg.max_fault_duration,
                permanent_fraction: cfg.permanent_fraction,
            },
            run.seed,
        );
        self.generate_ns += t.exit() as f64;
        self.campaigns += 1.0;
        self.events += campaign.events().len() as f64;
        if let Some(traced) = run.traced {
            checks.expect(campaign.digest() == traced.campaign_digest, || {
                format!(
                    "seed {}: regenerated campaign differs from the harness's",
                    run.seed
                )
            });
        }
        let mut ctl = match cfg.policy {
            Policy::Static => None,
            Policy::Controller | Policy::ControllerHitless => {
                DegradeController::try_new(cfg.logical, cfg.physical, cfg.degrade).ok()
            }
        };
        t.enter("link.degrade_replay", unit);
        for (epoch, &words) in self.words.iter().enumerate() {
            let bits = words as u64 * 64;
            for ch in 0..cfg.physical {
                let eff = campaign.effect_at(ch, epoch);
                let errors = if !eff.dead && eff.extra_ber > 0.0 && words > 0 {
                    let flips = (eff.extra_ber.min(0.5) * bits as f64 + 0.5) as u64;
                    flips.clamp(1, words as u64)
                } else {
                    0
                };
                if let Some(c) = ctl.as_mut() {
                    if eff.dead {
                        c.mark_dead(ch);
                    }
                    c.record(ch, bits, errors);
                }
            }
            if let Some(c) = ctl.as_mut() {
                c.step();
            }
        }
        self.degrade_ns += t.exit() as f64;
        self.epochs += self.words.len() as f64;
        self.transitions += ctl.map_or(0, |c| c.transitions().len()) as f64;
    }
}
