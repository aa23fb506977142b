//! Multi-run traffic sweeps: batched, checkpointable, thread-invariant.
//!
//! A *point* is `(TrafficConfig, seed, runs)`: `runs` independent
//! harness executions whose rollups merge into one [`TrafficRollup`].
//! Per-run seeds derive from the point seed via the `"traffic-run"`
//! substream indexed by run number — a pure function of `(seed, run)`,
//! so the same campaigns hit every policy and every thread count
//! bit-identically.
//!
//! Runs fold through [`TrialPlan::fold_checkpointed`] in batches of
//! [`RUNS_PER_BATCH`], keyed by [`point_digest`]: the same checkpoint
//! protocol as the hyperfleet (see [`mosaic_sim::checkpoint`]). The
//! store is any [`Store`] of [`TrafficRollup`] — a
//! [`FileStore`](mosaic_sim::checkpoint::FileStore) in F19, [`NoStore`]
//! for a plain run, an in-memory map in the tests.
//! `stop_after_batches` bounds the batches executed *this invocation*
//! (the kill/resume drill); `Ok(None)` means "stopped early, resume me".

use crate::harness::{LinkHarness, TrafficConfig};
use crate::rollup::TrafficRollup;
use mosaic_sim::checkpoint::{Checkpoints, NoStore, Store};
use mosaic_sim::digest::Fnv1a;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_units::{MosaicError, Result};

/// Harness runs folded per checkpoint batch.
pub const RUNS_PER_BATCH: u64 = 4;

/// FNV-1a digest over the full point configuration and seed — the
/// checkpoint-store key that makes stale checkpoints unloadable.
pub fn point_digest(cfg: &TrafficConfig, seed: u64, runs: u64) -> u64 {
    let d = &cfg.degrade;
    let kind = crate::workload::kind_tag(cfg.workload.kind);
    let mut h = Fnv1a::sim();
    h.u64(seed)
        .u64(runs)
        .u64(cfg.logical as u64)
        .u64(cfg.physical as u64)
        .u64(cfg.am_period as u64)
        .u64(cfg.epochs)
        .u64(u64::from(cfg.retransmit_budget))
        .u64(cfg.replay_window)
        .u64(cfg.max_batch as u64)
        .f64(cfg.faults_per_kilo_epoch)
        .u64(cfg.max_fault_duration as u64)
        .f64(cfg.permanent_fraction)
        .u64(match cfg.policy {
            crate::harness::Policy::Static => 1,
            crate::harness::Policy::Controller => 2,
            crate::harness::Policy::ControllerHitless => 3,
        })
        .u64(d.window_bits)
        .u64(d.max_windows as u64)
        .f64(d.suspect_ber)
        .f64(d.clear_ber)
        .f64(d.quarantine_ber)
        .u64(d.suspect_dwell_limit as u64)
        .u64(d.clear_epochs as u64)
        .u64(d.spared_dwell_limit as u64)
        .u64(u64::from(cfg.workload.flows))
        .u64(cfg.workload.deadline_epochs)
        .u64(cfg.workload.base_frame_bytes as u64)
        .u64(kind.len() as u64);
    for b in kind.bytes() {
        h.u64(u64::from(b));
    }
    h.finish()
}

/// Per-run seed: pure in `(point_seed, run)` and *policy-blind*, so the
/// three F19 policies face identical workloads and campaigns run for
/// run.
pub fn run_seed(point_seed: u64, run: u64) -> u64 {
    DetRng::substream_indexed(point_seed, "traffic-run", run).next_u64()
}

/// Execute one harness run to completion.
pub fn run_one(cfg: &TrafficConfig, point_seed: u64, run: u64) -> Result<TrafficRollup> {
    let mut h = LinkHarness::try_new(*cfg, run_seed(point_seed, run))?;
    Ok(h.run_to_completion())
}

/// Run a sweep point with checkpointing (see the module docs for the
/// batch/resume protocol). Thread-invariance rests on the exact-integer
/// [`TrafficRollup::merge`] (proof
/// `crates/traffic/tests/parallel_determinism.rs`).
pub fn run_point_with(
    cfg: &TrafficConfig,
    seed: u64,
    runs: u64,
    exec: &Exec,
    store: &mut dyn Store<TrafficRollup>,
    stop_after_batches: Option<u64>,
) -> Result<Option<TrafficRollup>> {
    cfg.validate()?;
    let rollup = TrialPlan::new()
        .trials(runs)
        .seed(seed)
        .label("traffic-point")
        .fold_checkpointed(
            exec,
            Checkpoints {
                store,
                digest: point_digest(cfg, seed, runs),
                batch_trials: RUNS_PER_BATCH,
                stop_after_batches,
            },
            || (),
            // The harness constructor validates the already validated
            // config; a failure here would be a bug, surfaced as a
            // zeroed run (runs stays short, which the check below
            // catches).
            |ctx, _scratch| run_one(cfg, seed, ctx.trial()).unwrap_or_default(),
        )?;
    match rollup {
        Some(r) if r.runs != runs => Err(MosaicError::invalid_config(
            "traffic_runs",
            format!("expected {} merged runs, got {}", runs, r.runs),
        )),
        other => Ok(other),
    }
}

/// [`run_point_with`] without persistence or early stop.
pub fn run_point(cfg: &TrafficConfig, seed: u64, runs: u64, exec: &Exec) -> Result<TrafficRollup> {
    match run_point_with(cfg, seed, runs, exec, &mut NoStore, None)? {
        Some(rollup) => Ok(rollup),
        // Unreachable: no stop limit was set.
        None => Err(MosaicError::invalid_config(
            "traffic_stop",
            "sweep stopped without a stop limit",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Policy;
    use std::collections::BTreeMap;

    fn quick_cfg() -> TrafficConfig {
        TrafficConfig {
            epochs: 64,
            faults_per_kilo_epoch: 6.0,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn run_seed_is_policy_blind_and_spread() {
        let a = run_seed(7, 0);
        let b = run_seed(7, 1);
        let c = run_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, run_seed(7, 0));
    }

    #[test]
    fn point_rollup_is_exactly_the_merge_of_runs() {
        let cfg = quick_cfg();
        let exec = Exec::with_threads(1);
        let rollup = run_point(&cfg, 3, 6, &exec).unwrap();
        let mut manual = TrafficRollup::default();
        for run in 0..6 {
            manual.merge(&run_one(&cfg, 3, run).unwrap());
        }
        assert_eq!(rollup, manual);
        assert_eq!(rollup.runs, 6);
        assert!(rollup.balanced());
    }

    #[test]
    fn digests_separate_policies_and_seeds() {
        let a = quick_cfg();
        let b = TrafficConfig {
            policy: Policy::Static,
            ..a
        };
        assert_ne!(point_digest(&a, 1, 4), point_digest(&b, 1, 4));
        assert_ne!(point_digest(&a, 1, 4), point_digest(&a, 2, 4));
        assert_ne!(point_digest(&a, 1, 4), point_digest(&a, 1, 8));
    }

    /// In-memory store for the resume drill.
    #[derive(Default)]
    struct MemStore {
        map: BTreeMap<(u64, u64), TrafficRollup>,
    }

    impl Store<TrafficRollup> for MemStore {
        fn load(&mut self, batch: u64, digest: u64) -> Option<TrafficRollup> {
            self.map.get(&(batch, digest)).copied()
        }
        fn save(&mut self, batch: u64, digest: u64, rollup: &TrafficRollup) -> Result<()> {
            self.map.insert((batch, digest), *rollup);
            Ok(())
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let cfg = quick_cfg();
        let exec = Exec::with_threads(1);
        let uninterrupted = run_point(&cfg, 9, 10, &exec).unwrap();
        let mut store = MemStore::default();
        // First invocation: one batch, then "killed".
        let early = run_point_with(&cfg, 9, 10, &exec, &mut store, Some(1)).unwrap();
        assert!(early.is_none());
        assert!(!store.map.is_empty());
        // Resume to completion.
        let resumed = run_point_with(&cfg, 9, 10, &exec, &mut store, None)
            .unwrap()
            .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert_eq!(resumed.fingerprint(), uninterrupted.fingerprint());
    }
}
