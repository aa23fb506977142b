//! Integration tests for the hyperfleet engine: thread-count and
//! batch-size invariance of the merged rollup at F18-like scale, resume
//! equivalence through a checkpoint store killed at every batch
//! boundary, a property sweep over randomized small fleets, and the
//! idle-skipping fault-window replay against the plain per-epoch loop.

use mosaic_link::degrade::{CtlState, DegradeController};
use mosaic_netsim::hyperfleet::{
    degrade_policy, replay_fault_window, simulate, simulate_with, FleetRollup, HyperClass,
    HyperFleetConfig, RollupStore, BITS_PER_EPOCH,
};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, FaultEvent, Persistence, FAULT_KINDS};
use mosaic_sim::sweep::Exec;
use mosaic_units::{BitRate, Duration, Fit, Result};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fleet_cfg(mosaic_links: u64, optics_links: u64, years: f64) -> HyperFleetConfig {
    HyperFleetConfig {
        classes: vec![
            HyperClass {
                name: "tor-agg/Mosaic".into(),
                links: mosaic_links,
                link_fit: Fit::new(120.0),
                aggregate: BitRate::from_gbps(800.0),
                groups: 12,
                logical_groups: 10,
            },
            HyperClass {
                name: "agg-spine/optics".into(),
                links: optics_links,
                link_fit: Fit::new(1200.0),
                aggregate: BitRate::from_gbps(800.0),
                groups: 0,
                logical_groups: 0,
            },
        ],
        years,
        mttr: Duration::from_hours(8.0),
        shard_links: 256,
        shards_per_batch: 4,
        faults_per_kilo_hour: 0.05,
        max_fault_duration: 24,
        permanent_fraction: 0.25,
        rebuild_lost_fraction: 0.2,
    }
}

/// An in-memory store that records every checkpoint.
#[derive(Default)]
struct MemStore {
    saved: BTreeMap<u64, (u64, FleetRollup)>,
}

impl RollupStore for MemStore {
    fn load(&mut self, batch: u64, digest: u64) -> Option<FleetRollup> {
        self.saved
            .get(&batch)
            .filter(|(d, _)| *d == digest)
            .map(|(_, r)| *r)
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &FleetRollup) -> Result<()> {
        self.saved.insert(batch, (digest, *rollup));
        Ok(())
    }
}

#[test]
fn rollup_is_byte_identical_across_1_2_8_threads() {
    // ~6k links (12 event-sourced batches' worth) — big enough that the
    // 8-thread fold interleaves shard completions in earnest.
    let cfg = fleet_cfg(4096, 2048, 2.0);
    let base = simulate(&cfg, 505, &Exec::with_threads(1)).unwrap();
    assert!(base.rollup.channel_faults > 0, "faults must have fired");
    assert!(base.rollup.spares_activated > 0, "spares must have moved");
    for threads in [2, 8] {
        let r = simulate(&cfg, 505, &Exec::with_threads(threads)).unwrap();
        // FleetRollup is all integers: equality here is bit-exactness.
        assert_eq!(r.rollup, base.rollup, "threads={threads}");
        assert_eq!(r, base, "threads={threads}");
    }
}

#[test]
fn kill_at_every_batch_boundary_resumes_byte_identically() {
    let cfg = fleet_cfg(1024, 512, 1.5);
    let exec = Exec::with_threads(4);
    let clean = simulate(&cfg, 7, &exec).unwrap();
    let batches = (1024 / 256 + 512 / 256 + 3) / 4 + 1; // upper bound
    for stop in 1..=batches {
        let mut store = MemStore::default();
        // Run with a per-invocation batch limit until completion, as a
        // kill/restart loop would.
        let mut finished = None;
        for _ in 0..=batches {
            match simulate_with(&cfg, 7, &exec, &mut store, Some(stop as u64)).unwrap() {
                Some(report) => {
                    finished = Some(report);
                    break;
                }
                None => continue,
            }
        }
        let report = finished.expect("run must finish within the batch budget");
        assert_eq!(report, clean, "stop-after={stop}");
    }
}

#[test]
fn checkpoints_from_a_different_config_are_never_resumed() {
    let cfg_a = fleet_cfg(1024, 512, 1.5);
    let mut cfg_b = fleet_cfg(1024, 512, 1.5);
    cfg_b.faults_per_kilo_hour = 0.08;
    let exec = Exec::with_threads(2);
    let mut store = MemStore::default();
    // Partially run config A, then complete config B through the same
    // store: B must ignore A's checkpoints (digest mismatch) and match
    // a storeless run exactly.
    assert!(simulate_with(&cfg_a, 9, &exec, &mut store, Some(1))
        .unwrap()
        .is_none());
    let resumed = simulate_with(&cfg_b, 9, &exec, &mut store, None)
        .unwrap()
        .expect("no stop limit");
    let clean = simulate(&cfg_b, 9, &exec).unwrap();
    assert_eq!(resumed, clean);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariance holds over randomized small fleets, not just the
    /// hand-picked configs: any (links, rate, shard size, batch size)
    /// yields the same rollup at 1 and 4 threads and at a different
    /// batching.
    #[test]
    fn random_fleets_are_thread_and_batch_invariant(
        mosaic_links in 1u64..600,
        optics_links in 0u64..600,
        shard_links in 32u64..200,
        spb in 1u64..6,
        rate in 0.0f64..0.2,
        seed in 0u64..1000,
    ) {
        // At least one class must have links.
        let optics_links = optics_links.max(1);
        let mut cfg = fleet_cfg(mosaic_links, optics_links, 1.0);
        cfg.shard_links = shard_links;
        cfg.shards_per_batch = spb;
        cfg.faults_per_kilo_hour = rate;
        let base = simulate(&cfg, seed, &Exec::with_threads(1)).unwrap();
        let par = simulate(&cfg, seed, &Exec::with_threads(4)).unwrap();
        prop_assert_eq!(par.rollup, base.rollup);
        let mut rebatched = cfg.clone();
        rebatched.shards_per_batch = spb + 3;
        let re = simulate(&rebatched, seed, &Exec::with_threads(4)).unwrap();
        prop_assert_eq!(re.rollup, base.rollup);
    }
}

/// The fault-window replay as a plain loop over every epoch — the
/// reference the idle-skipping `replay_fault_window` must reproduce.
fn replay_every_epoch(
    ctl: &mut DegradeController,
    events: &[FaultEvent],
    from_epoch: usize,
    to_epoch: usize,
    rebuild_floor: usize,
    bits_per_epoch: u64,
) {
    let physical = ctl.lane_map().logical_lanes() + ctl.provisioned_spares();
    for epoch in from_epoch..=to_epoch {
        let mut touched: u64 = 0;
        for ev in events {
            if ev.start < rebuild_floor || !ev.active_at(epoch) {
                continue;
            }
            touched |= 1u64 << (ev.channel as u64 & 63);
            let eff = ev.effect();
            if eff.dead {
                ctl.mark_dead(ev.channel);
            } else if eff.extra_ber > 0.0 {
                let errors = (eff.extra_ber.min(0.5) * bits_per_epoch as f64).round() as u64;
                if errors > 0 {
                    ctl.record(ev.channel, bits_per_epoch, errors);
                }
            }
        }
        for g in 0..physical {
            if touched & (1u64 << (g as u64 & 63)) != 0 {
                continue;
            }
            if ctl.state(g) == CtlState::Suspect {
                ctl.record(g, bits_per_epoch, 0);
            }
        }
        ctl.step();
    }
}

/// A listed intermittent fault from one packed word: channel, kind,
/// start, duration, period, on-phase and severity.
fn intermittent(word: u64, channels: usize, epochs: usize) -> FaultEvent {
    let field = |shift: u32, modulus: u64| ((word >> shift) % modulus) as usize;
    let period = 1 + field(30, 9);
    FaultEvent {
        channel: field(0, channels as u64),
        kind: FAULT_KINDS[field(8, FAULT_KINDS.len() as u64)],
        persistence: Persistence::Intermittent {
            period,
            on: field(34, period as u64 + 1),
        },
        start: field(12, epochs as u64),
        duration: 1 + field(24, 40),
        severity: (word >> 40) as f64 / (1u64 << 24) as f64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Skipping idle epochs changes nothing: over random campaigns at
    /// high fault rates (plus listed intermittent faults), random
    /// rebuild floors, rebuilds between windows and windows that overlap
    /// or run backwards, the replay fires exactly the transitions of the
    /// per-epoch loop and leaves the same states, counters and epoch.
    #[test]
    fn idle_skipping_replay_matches_the_per_epoch_loop(
        seed in any::<u64>(),
        rate in prop_oneof![Just(2.0f64), 0.5f64..60.0],
        permanent in 0.0f64..0.6,
        spares in 1usize..4,
        floor in prop_oneof![Just(0usize), 0usize..400],
        listed in proptest::collection::vec(any::<u64>(), 0..6),
        windows in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        const EPOCHS: usize = 600;
        let logical = 10;
        let physical = logical + spares;
        let config = CampaignConfig {
            channels: physical,
            epochs: EPOCHS,
            faults_per_kilo_epoch: rate,
            max_duration: 24,
            permanent_fraction: permanent,
        };
        let mut events = FaultCampaign::generate(config, seed).events().to_vec();
        events.extend(listed.iter().map(|&w| intermittent(w, physical, EPOCHS)));
        let mut fast = DegradeController::try_new(logical, physical, degrade_policy()).unwrap();
        let mut slow = fast.clone();
        let mut floor = floor;
        for w in windows {
            let from = (w % EPOCHS as u64) as usize;
            let to = (from + ((w >> 16) % 80) as usize).min(EPOCHS - 1);
            if (w >> 32) % 4 == 0 {
                // A rebuild: fresh hardware, earlier faults void.
                fast.reset();
                slow.reset();
                floor = from;
            }
            replay_fault_window(&mut fast, &events, from, to, floor, BITS_PER_EPOCH);
            replay_every_epoch(&mut slow, &events, from, to, floor, BITS_PER_EPOCH);
            prop_assert_eq!(fast.transitions(), slow.transitions());
            prop_assert_eq!(fast.epoch(), slow.epoch());
            prop_assert_eq!(fast.spares_activated(), slow.spares_activated());
            prop_assert_eq!(fast.lost_lanes(), slow.lost_lanes());
            prop_assert_eq!(fast.lane_map(), slow.lane_map());
            for ch in 0..physical {
                prop_assert_eq!(fast.state(ch), slow.state(ch));
            }
        }
    }
}
