//! Chaos tests: the panic-tolerant sweep pipeline under injected faults.
//!
//! These are the integration-level guarantees behind the robustness PR:
//!
//! 1. An injected-panic sweep *returns* (no abort): the panic is counted
//!    in `RunStats`, the trial retries on a fresh substream, and the
//!    final values match a run where nothing panicked.
//! 2. A trial that exhausts its retry budget yields `None` plus a
//!    `TrialFailure` record — the rest of the sweep is unaffected.
//! 3. A panicking trial in a plain `TrialPlan` terminal surfaces as one
//!    `MosaicError::WorkerFailed` panic with a deterministic message (the
//!    smallest-index failing trial wins), never as a process abort, and
//!    a failed fold returns no partial value.
//! 4. Everything above is thread-count invariant, as are fault-campaign
//!    generation and replay.

use mosaic_sim::campaign::{run_campaign, CampaignRunConfig};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use mosaic_sim::sweep::{Exec, TrialPlan};
use proptest::prelude::*;
use std::panic::catch_unwind;

/// Trial values are pure functions of the trial index (no RNG), so a
/// retried trial reproduces the same value and the injected-panic run
/// must match the clean run bit-for-bit.
fn trial_value(i: u64) -> u64 {
    i.wrapping_mul(i).wrapping_add(17)
}

#[test]
fn injected_panic_sweep_matches_clean_run() {
    let exec = Exec::with_threads(4);
    let clean = TrialPlan::new()
        .trials(32)
        .seed(99)
        .label("chaos-clean")
        .retry_budget(2)
        .run_resilient(&exec, |ctx| trial_value(ctx.trial()));
    assert_eq!(clean.stats.panics, 0);
    assert_eq!(clean.stats.retries, 0);
    assert_eq!(clean.stats.failed_trials, 0);
    assert!(clean.failures.is_empty());

    // Trials 3 and 20 panic on their first attempt, succeed on retry.
    let faulty = TrialPlan::new()
        .trials(32)
        .seed(99)
        .label("chaos-faulty")
        .retry_budget(2)
        .run_resilient(&exec, |ctx| {
            let i = ctx.trial();
            if (i == 3 || i == 20) && ctx.attempt() == 0 {
                panic!("injected fault in trial {i}");
            }
            trial_value(i)
        });
    assert_eq!(
        faulty.values, clean.values,
        "retried values must match the clean run"
    );
    assert_eq!(faulty.stats.panics, 2);
    assert_eq!(faulty.stats.retries, 2);
    assert_eq!(faulty.stats.failed_trials, 0);
    assert!(faulty.failures.is_empty());
}

#[test]
fn budget_exhaustion_yields_none_without_poisoning_neighbors() {
    let exec = Exec::with_threads(3);
    // Trial 5 panics on every attempt; budget 1 → two attempts, both fail.
    let run = TrialPlan::new()
        .trials(12)
        .seed(7)
        .label("chaos-exhaust")
        .retry_budget(1)
        .run_resilient(&exec, |ctx| {
            if ctx.trial() == 5 {
                panic!("permanently broken trial");
            }
            trial_value(ctx.trial())
        });
    for (i, v) in run.values.iter().enumerate() {
        if i == 5 {
            assert!(v.is_none(), "exhausted trial must yield None");
        } else {
            assert_eq!(
                *v,
                Some(trial_value(i as u64)),
                "neighbor trials unaffected"
            );
        }
    }
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].trial, 5);
    assert_eq!(run.failures[0].attempts, 2);
    assert!(run.failures[0].message.contains("permanently broken"));
    assert_eq!(run.stats.panics, 2);
    // One retry attempt was performed (attempt 1) even though it failed.
    assert_eq!(run.stats.retries, 1);
    assert_eq!(run.stats.failed_trials, 1);
}

/// The panic message a plan terminal raised, as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

#[test]
fn worker_failed_picks_smallest_task_index_at_any_thread_count() {
    for threads in [1, 2, 4, 8] {
        let exec = Exec::with_threads(threads);
        let payload = catch_unwind(|| {
            TrialPlan::new().trials(16).run(&exec, |ctx| {
                if ctx.trial() == 11 {
                    panic!("late fault");
                }
                if ctx.trial() == 4 {
                    panic!("early fault");
                }
                ctx.trial()
            })
        })
        .expect_err("panicking trials must surface as a WorkerFailed panic");
        let message = panic_text(payload);
        assert!(
            message.contains("sweep worker") && message.contains("early fault"),
            "threads={threads}: expected the smallest-index trial's WorkerFailed, got {message:?}"
        );
    }
}

#[test]
fn fold_surfaces_worker_failed_instead_of_partial_sums() {
    for threads in [1, 2, 4, 8] {
        let exec = Exec::with_threads(threads);
        let folded = catch_unwind(|| {
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
        let payload = folded.expect_err("a fold with a panicking trial must not return a value");
        let message = panic_text(payload);
        assert!(
            message.contains("sweep worker") && message.contains("fold fault"),
            "threads={threads}: got {message:?}"
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
    /// Resilient sweeps are bit-identical across thread counts for any
    /// injected panic pattern: `mask` bit `i` makes trial `i` panic on
    /// attempt 0, and bit `i` of `hard_mask` makes it panic on every
    /// attempt (exhausting the budget). Values, failure records, and
    /// fault counters must all match between 1 and 8 threads.
    #[test]
    fn resilient_sweep_is_thread_invariant(
        seed: u64,
        n in 1u64..48,
        mask: u64,
        hard_mask: u64,
    ) {
        let run_at = |threads: usize| {
            TrialPlan::new()
                .trials(n)
                .seed(seed)
                .label("chaos-prop")
                .retry_budget(2)
                .run_resilient(&Exec::with_threads(threads), |ctx| {
                    let i = ctx.trial();
                    if (hard_mask >> (i % 64)) & 1 == 1 {
                        panic!("hard fault {i}");
                    }
                    if ctx.attempt() == 0 && (mask >> (i % 64)) & 1 == 1 {
                        panic!("soft fault {i}");
                    }
                    trial_value(i)
                })
        };
        let seq = run_at(1);
        let par = run_at(8);
        prop_assert_eq!(&seq.values, &par.values);
        prop_assert_eq!(&seq.failures, &par.failures);
        prop_assert_eq!(seq.stats.panics, par.stats.panics);
        prop_assert_eq!(seq.stats.retries, par.stats.retries);
        prop_assert_eq!(seq.stats.failed_trials, par.stats.failed_trials);
    }

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
