//! `fleet`: F18's hyperscale fleet through `netsim::hyperfleet`, where
//! the time goes to `sim` fault-campaign generation and `link::degrade`
//! fault-window replays; no gearbox at all.

use crate::cpu::Units;
use crate::trace::{Tracer, Unit};
use crate::{ratio, Checks, Size, Workload};
use mosaic::compare::candidates;
use mosaic_bench::manifest::fnv1a;
use mosaic_link::degrade::DegradeController;
use mosaic_netsim::assignment::{assign, Policy};
use mosaic_netsim::hyperfleet::{
    self, degrade_policy, ClassTier, FleetRollup, HyperFleetConfig, HyperFleetReport, RollupStore,
    BITS_PER_EPOCH,
};
use mosaic_netsim::topology::ClosTopology;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, Persistence};
use mosaic_sim::fidelity::FidelityMode;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::Exec;
use mosaic_units::{BitRate, Duration};

/// Epochs of active-fault replay per window, as `hyperfleet` caps them.
const RESOLVE_CAP: usize = 16;

/// Both F18 fleets (all-optics and with Mosaic) simulated on one seed.
#[derive(Debug, Clone)]
pub struct Fleet {
    seed: u64,
    topology: ClosTopology,
    years: f64,
    /// Event-sourced links sampled by the traced replays.
    sample_links: u64,
}

impl Fleet {
    /// F18's full-mode configuration: 1,277,952 links over 3 years.
    pub fn new(seed: u64, size: Size) -> Self {
        match size {
            Size::Full => Fleet {
                seed,
                topology: ClosTopology::hyperscale(),
                years: 3.0,
                sample_links: 50_000,
            },
            Size::Tiny => Fleet {
                seed,
                topology: ClosTopology::small(),
                years: 0.5,
                sample_links: 200,
            },
        }
    }
}

/// The fleet configurations one pass simulates.
pub struct FleetInput {
    configs: Vec<(&'static str, HyperFleetConfig)>,
}

/// One pass's simulations, one per configuration.
pub struct FleetOutput {
    configs: Vec<(&'static str, HyperFleetConfig)>,
    /// `Ok(None)` would be a simulation that stopped early.
    reports: Vec<mosaic_units::Result<Option<HyperFleetReport>>>,
}

impl Workload for Fleet {
    type Input = FleetInput;
    type Output = FleetOutput;

    /// F18's configuration step: link inventory, technology assignment
    /// and the hyperfleet configuration for each policy.
    fn setup(&self, _tracer: Option<&mut Tracer>) -> FleetInput {
        let classes = self.topology.link_classes();
        let cands = candidates(BitRate::from_gbps(800.0));
        let configs = [
            ("optics", Policy::AllOptics),
            ("mosaic", Policy::WithMosaic),
        ]
        .map(|(tag, policy)| {
            let mut cfg = HyperFleetConfig::from_assignments(
                &assign(&classes, &cands, policy),
                self.years,
                Duration::from_hours(8.0),
                FidelityMode::Full,
            );
            cfg.shards_per_batch = 8;
            (tag, cfg)
        });
        FleetInput {
            configs: configs.to_vec(),
        }
    }

    /// One unit per checkpoint batch of each simulation: the simulation
    /// runs through `hyperfleet::simulate_with`, whose store marks them.
    fn run(
        &self,
        input: FleetInput,
        mut tracer: Option<&mut Tracer>,
        units: &mut Units,
    ) -> FleetOutput {
        let exec = Exec::with_threads(1);
        let mut reports = Vec::with_capacity(input.configs.len());
        for (i, (_, cfg)) in input.configs.iter().enumerate() {
            if let Some(t) = tracer.as_deref_mut() {
                t.enter("netsim.simulate", fleet_unit(i));
            }
            reports.push(hyperfleet::simulate_with(
                cfg,
                self.seed,
                &exec,
                &mut BatchMarks(units),
                None,
            ));
            if let Some(t) = tracer.as_deref_mut() {
                t.exit();
            }
        }
        FleetOutput {
            configs: input.configs,
            reports,
        }
    }

    fn check(&self, out: &FleetOutput, checks: &mut Checks) -> u64 {
        let mut bytes = Vec::new();
        for ((tag, cfg), report) in out.configs.iter().zip(&out.reports) {
            let r = match report {
                Ok(Some(r)) => r,
                Ok(None) => {
                    checks.expect(false, || format!("{tag}: simulation stopped early"));
                    continue;
                }
                Err(e) => {
                    checks.expect(false, || format!("{tag}: simulation failed: {e}"));
                    continue;
                }
            };
            let total = cfg.total_links();
            checks.expect(r.links == total && r.rollup.links == total, || {
                format!("{tag}: {} links simulated of {total}", r.rollup.links)
            });
            let occupancy: u64 = r.rollup.spare_occupancy.iter().sum();
            checks.expect(occupancy == r.rollup.event_sourced_links, || {
                format!("{tag}: spare histogram holds {occupancy} links")
            });
            let f = &r.rollup;
            for v in [
                f.shards,
                f.links,
                f.event_sourced_links,
                f.tickets,
                f.hard_failures,
                f.rebuilds,
                f.channel_faults,
                f.spares_activated,
                f.lanes_shed,
                f.exhausted_links,
            ]
            .iter()
            .chain(&f.spare_occupancy)
            {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            for q in [f.downtime_q, f.degraded_q, f.capacity_lost_q] {
                bytes.extend_from_slice(&q.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }

    fn layers(
        &self,
        out: &FleetOutput,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        let simulate_ns = tracer.total_ns("netsim.simulate");
        let mut es_links = 0u64;
        let mut spares = 0u64;
        for r in out.reports.iter().flatten().flatten() {
            es_links += r.rollup.event_sourced_links;
            spares += r.rollup.spares_activated;
        }
        let mut sample = Sample::default();
        for (i, (_, cfg)) in out.configs.iter().enumerate() {
            sample.replay(
                cfg,
                self.seed,
                self.sample_links,
                fleet_unit(i),
                tracer,
                checks,
            );
        }
        let per_link = ratio(simulate_ns, es_links as f64);
        let generate = ratio(sample.generate_ns, sample.links);
        let window = ratio(sample.replay_ns, sample.windows);
        let windows_per_link = ratio(sample.windows, sample.links);
        vec![
            ("netsim.ns_per_es_link", per_link),
            (
                "netsim.self_ns_per_es_link",
                per_link - generate - windows_per_link * window,
            ),
            ("sim.campaign_generate_ns", generate),
            (
                "sim.campaign_events_per_link",
                ratio(sample.events, sample.links),
            ),
            ("link.degrade_replay_ns_per_window", window),
            ("link.transitions", sample.transitions),
            ("link.spares_activated", spares as f64),
        ]
    }
}

/// A rollup store that keeps nothing (every simulation starts fresh, as
/// `hyperfleet::simulate` does) and ends a unit at every batch.
struct BatchMarks<'a>(&'a mut Units);

impl RollupStore for BatchMarks<'_> {
    fn load(&mut self, _batch: u64, _digest: u64) -> Option<FleetRollup> {
        None
    }

    fn save(
        &mut self,
        _batch: u64,
        _digest: u64,
        _rollup: &FleetRollup,
    ) -> mosaic_units::Result<()> {
        self.0.mark();
        Ok(())
    }
}

fn fleet_unit(i: usize) -> Unit {
    Unit {
        kind: "fleet",
        id: i as u64,
    }
}

/// Replays of a sample of event-sourced links, spread evenly over the
/// fleet: each link's campaign drawn as `hyperfleet` draws it (the
/// `"hyperfleet-link"` seed of its global link id), then its fault
/// windows through `hyperfleet::replay_fault_window` on a reset
/// controller. Windows are chosen as `hyperfleet` chooses them, except
/// that rebuilds (rare) are not modelled. Times in ns.
#[derive(Default)]
struct Sample {
    links: f64,
    events: f64,
    windows: f64,
    transitions: f64,
    generate_ns: f64,
    replay_ns: f64,
}

impl Sample {
    fn replay(
        &mut self,
        cfg: &HyperFleetConfig,
        seed: u64,
        sample: u64,
        unit: Unit,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        let tiers = hyperfleet::class_tiers(cfg);
        let mut base = 0u64;
        for (class, tier) in cfg.classes.iter().zip(tiers) {
            let first = base;
            base += class.links;
            if tier != ClassTier::EventSourced {
                continue;
            }
            let Ok(mut ctl) =
                DegradeController::try_new(class.logical_groups, class.groups, degrade_policy())
            else {
                checks.expect(false, || format!("{}: controller rejected", class.name));
                continue;
            };
            let horizon = cfg.horizon_hours() as usize;
            let camp = CampaignConfig {
                channels: class.groups,
                epochs: horizon,
                faults_per_kilo_epoch: cfg.faults_per_kilo_hour,
                max_duration: cfg.max_fault_duration,
                permanent_fraction: cfg.permanent_fraction,
            };
            let tail = degrade_policy().suspect_dwell_limit + degrade_policy().clear_epochs + 2;
            let n = sample.min(class.links);
            t.enter("fleet.sample_replay", unit);
            for k in 0..n {
                let id = first + k * class.links / n;
                let link_seed = DetRng::substream_indexed(seed, "hyperfleet-link", id).next_u64();
                let a = t.now_ns();
                let campaign = FaultCampaign::generate(camp, link_seed);
                self.generate_ns += (t.now_ns() - a) as f64;
                self.events += campaign.events().len() as f64;
                let windows = fault_windows(&campaign, tail, horizon);
                if windows.is_empty() {
                    continue;
                }
                let a = t.now_ns();
                ctl.reset();
                for &(from, to) in &windows {
                    hyperfleet::replay_fault_window(
                        &mut ctl,
                        campaign.events(),
                        from,
                        to,
                        0,
                        BITS_PER_EPOCH,
                    );
                }
                self.replay_ns += (t.now_ns() - a) as f64;
                self.windows += windows.len() as f64;
                self.transitions += ctl.transitions().len() as f64;
            }
            t.exit();
            self.links += n as f64;
        }
    }
}

/// The epoch windows `hyperfleet` replays for one link: each fault in
/// arrival order opens `[start, start + span + tail]`, clipped to the
/// horizon and to what earlier windows already covered.
fn fault_windows(campaign: &FaultCampaign, tail: usize, horizon: usize) -> Vec<(usize, usize)> {
    let mut events: Vec<_> = campaign.events().iter().collect();
    events.sort_by_key(|e| e.start);
    let mut done_through = 0usize;
    let mut windows = Vec::new();
    for e in events {
        let span = match e.persistence {
            Persistence::Permanent => RESOLVE_CAP,
            _ => e.duration.min(RESOLVE_CAP),
        };
        let from = e.start.max(done_through);
        let to = (e.start + span + tail).min(horizon.saturating_sub(1));
        if from > to {
            continue;
        }
        windows.push((from, to));
        done_through = to + 1;
    }
    windows
}
