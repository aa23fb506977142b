//! Chaos tests: the sweep engine's one failure contract under injected
//! panics.
//!
//! 1. A panicking trial in any `TrialPlan` terminal — `run`, `run_with`,
//!    `sum`, `fold` and `fold_checkpointed` — surfaces as one
//!    `MosaicError::WorkerFailed` panic with a deterministic message (the
//!    smallest-index failing trial wins) at 1, 2, 4 and 8 threads, never
//!    as a process abort, and a failed fold returns no partial value.
//! 2. A checkpointed fold that fails keeps the checkpoints of the batches
//!    before the failing one and none for it; a rerun resumes from them
//!    and returns the rollup of an uninterrupted run.
//! 3. Fault-campaign generation and replay are pure functions of
//!    `(config, seed)`.

use mosaic_sim::campaign::{run_campaign, CampaignRunConfig};
use mosaic_sim::checkpoint::{Checkpoints, ExactRollup, Field, NoStore, Store};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use mosaic_sim::sweep::{Exec, TrialCtx, TrialPlan};
use mosaic_units::Result;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The panic message a plan terminal raised, as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// Run `terminal`, which must panic with the `WorkerFailed` message of
/// the trial whose panic text contains `fault`.
fn assert_worker_failed<T>(threads: usize, fault: &str, terminal: impl FnOnce() -> T) {
    let payload = catch_unwind(AssertUnwindSafe(terminal))
        .err()
        .unwrap_or_else(|| panic!("threads={threads}: a panicking trial must fail the terminal"));
    let message = panic_text(payload);
    assert!(
        message.contains("sweep worker") && message.contains(fault),
        "threads={threads}: expected the WorkerFailed of {fault:?}, got {message:?}"
    );
}

/// Panics in trials 4 and 11; the smallest index must win.
fn faulty_trial(ctx: &mut TrialCtx) -> u64 {
    match ctx.trial() {
        11 => panic!("late fault"),
        4 => panic!("early fault"),
        i => i,
    }
}

#[test]
fn run_surfaces_the_smallest_failing_trial_at_any_thread_count() {
    for threads in THREADS {
        let exec = Exec::with_threads(threads);
        assert_worker_failed(threads, "early fault", || {
            TrialPlan::new().trials(16).run(&exec, faulty_trial)
        });
    }
}

#[test]
fn run_with_surfaces_the_smallest_failing_trial_at_any_thread_count() {
    for threads in THREADS {
        let exec = Exec::with_threads(threads);
        assert_worker_failed(threads, "early fault", || {
            TrialPlan::new()
                .trials(16)
                .run_with(&exec, Vec::<u64>::new, |ctx, scratch| {
                    scratch.push(ctx.trial());
                    faulty_trial(ctx)
                })
        });
    }
}

#[test]
fn sum_surfaces_the_smallest_failing_trial_at_any_thread_count() {
    for threads in THREADS {
        let exec = Exec::with_threads(threads);
        assert_worker_failed(threads, "early fault", || {
            TrialPlan::new().trials(16).sum(&exec, faulty_trial)
        });
    }
}

#[test]
fn fold_surfaces_worker_failed_instead_of_partial_sums() {
    for threads in THREADS {
        let exec = Exec::with_threads(threads);
        assert_worker_failed(threads, "fold fault", || {
            TrialPlan::new().trials(64).fold(
                &exec,
                || (),
                || 0u64,
                |ctx, _state: &mut (), acc: &mut u64| {
                    if ctx.trial() == 30 {
                        panic!("fold fault");
                    }
                    *acc += ctx.trial();
                },
                |a, b| *a += b,
            )
        });
    }
}

/// The rollup of the checkpointed-fold tests: trial count and index sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Count {
    trials: u64,
    sum: u64,
}

impl ExactRollup for Count {
    const SCHEMA: &'static str = "chaos-count/v1";

    fn merge(&mut self, o: &Self) {
        self.trials += o.trials;
        self.sum += o.sum;
    }

    fn fields(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>)) {
        visit("trials", Field::U64(&mut self.trials));
        visit("sum", Field::U64(&mut self.sum));
    }
}

/// An in-memory store, by batch.
#[derive(Default)]
struct MemStore(BTreeMap<u64, (u64, Count)>);

impl Store<Count> for MemStore {
    fn load(&mut self, batch: u64, digest: u64) -> Option<Count> {
        self.0
            .get(&batch)
            .filter(|(d, _)| *d == digest)
            .map(|(_, r)| *r)
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &Count) -> Result<()> {
        self.0.insert(batch, (digest, *rollup));
        Ok(())
    }
}

/// 40 trials in batches of 8: trial 19 falls in batch 2 of 0..5.
const CK_TRIALS: u64 = 40;
const CK_BATCH: u64 = 8;
const CK_DIGEST: u64 = 0xc4a0;

/// Fold [`CK_TRIALS`] trials in checkpointed batches, counting the
/// trials this call executes in `ran`.
fn fold_counting(
    threads: usize,
    store: &mut dyn Store<Count>,
    ran: &AtomicU64,
    panic_at: Option<u64>,
) -> Option<Count> {
    TrialPlan::new()
        .trials(CK_TRIALS)
        .fold_checkpointed(
            &Exec::with_threads(threads),
            Checkpoints {
                store,
                digest: CK_DIGEST,
                batch_trials: CK_BATCH,
                stop_after_batches: None,
            },
            || (),
            |ctx, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if Some(ctx.trial()) == panic_at {
                    panic!("checkpointed fault");
                }
                Count {
                    trials: 1,
                    sum: ctx.trial(),
                }
            },
        )
        .unwrap()
}

#[test]
fn fold_checkpointed_fails_at_its_batch_and_resumes_from_the_ones_before() {
    let uninterrupted = fold_counting(1, &mut NoStore, &AtomicU64::new(0), None).unwrap();
    assert_eq!(uninterrupted.trials, CK_TRIALS);
    for threads in THREADS {
        let mut store = MemStore::default();
        assert_worker_failed(threads, "checkpointed fault", || {
            fold_counting(threads, &mut store, &AtomicU64::new(0), Some(19))
        });
        let saved: Vec<u64> = store.0.keys().copied().collect();
        assert_eq!(
            saved,
            [0, 1],
            "threads={threads}: checkpoints before batch 2 only"
        );
        assert_eq!(store.0[&1].1.trials, 2 * CK_BATCH);

        let ran = AtomicU64::new(0);
        let resumed = fold_counting(threads, &mut store, &ran, None);
        assert_eq!(resumed, Some(uninterrupted), "threads={threads}");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            CK_TRIALS - 2 * CK_BATCH,
            "threads={threads}: the rerun must resume after batch 1"
        );
    }
}

#[test]
fn campaign_replay_is_reproducible_and_exec_independent() {
    let cfg = CampaignRunConfig {
        campaign: CampaignConfig {
            faults_per_kilo_epoch: 4.0,
            ..CampaignConfig::default()
        },
        controller: true,
        ..CampaignRunConfig::default()
    };
    let a = run_campaign(&cfg, 42).expect("valid config");
    let b = run_campaign(&cfg, 42).expect("valid config");
    assert_eq!(
        a, b,
        "campaign replay must be a pure function of (config, seed)"
    );
}

proptest! {
    /// Fault-campaign generation is a pure function of (config, seed):
    /// regenerating yields the same digest, and the digest is stable under
    /// unrelated RNG activity in between.
    #[test]
    fn fault_campaign_digest_is_reproducible(seed: u64, channels in 1usize..32) {
        let cfg = CampaignConfig { channels, ..CampaignConfig::default() };
        let first = FaultCampaign::generate(cfg, seed).digest();
        // Unrelated stream construction must not perturb regeneration.
        let _ = FaultCampaign::generate(cfg, seed ^ 0x9e37_79b9).digest();
        let second = FaultCampaign::generate(cfg, seed).digest();
        prop_assert_eq!(first, second);
    }
}
