//! Panic-tolerant trial execution: bounded per-trial retries on fresh
//! RNG substreams.
//!
//! A trial that panics is caught, counted, and retried on the
//! `"{label}#retry{attempt}"` substream under a per-trial retry budget —
//! a pure function of the trial index, never a shared pool, so results
//! stay thread-count invariant (see DESIGN §10). The policy surface is
//! [`super::TrialPlan::run_resilient`], which runs the trials on the
//! engine's fan-out core; this module owns the outcome types and the
//! per-trial retry loop.

use super::engine::RunStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One trial that exhausted its retry budget in
/// [`super::TrialPlan::run_resilient`] without a successful attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Trial index in the fan-out.
    pub trial: u64,
    /// Attempts made (`1 + retry_budget`).
    pub attempts: u32,
    /// Panic message of the *last* attempt.
    pub message: String,
}

/// Outcome of a resilient fan-out: per-trial values (`None` where the
/// retry budget ran dry), the exhausted trials, and run statistics
/// including fault counters.
#[derive(Debug, Clone)]
pub struct ResilientRun<T> {
    /// Trial results in trial order; `None` marks an exhausted trial.
    pub values: Vec<Option<T>>,
    /// Trials that failed every attempt, in trial order.
    pub failures: Vec<TrialFailure>,
    /// Trial/fault statistics for the run (wall time left at zero — the
    /// caller owns timing).
    pub stats: RunStats,
}

/// One trial's attempts under [`retry`].
pub(crate) struct Attempts<T> {
    value: Option<T>,
    panics: u32,
    last_message: Option<String>,
}

/// The retry loop of one trial: call `attempt(0)`, `attempt(1)`, … up
/// to `attempt(retry_budget)`, catching each panic, until one returns.
/// The caller derives each attempt's stream ([`super::TrialCtx::rng`]).
pub(crate) fn retry<T>(retry_budget: u32, mut attempt: impl FnMut(u32) -> T) -> Attempts<T> {
    let mut panics = 0u32;
    let mut last_message = None;
    for a in 0..=retry_budget {
        match catch_unwind(AssertUnwindSafe(|| attempt(a))) {
            Ok(v) => {
                return Attempts {
                    value: Some(v),
                    panics,
                    last_message,
                }
            }
            Err(p) => {
                panics += 1;
                last_message = Some(super::engine::panic_message(p));
            }
        }
    }
    Attempts {
        value: None,
        panics,
        last_message,
    }
}

impl<T> ResilientRun<T> {
    /// Gather every trial's [`Attempts`], in trial order, into values,
    /// failure records and fault counters. Telemetry (the `trials.` /
    /// `par_trials.` records and the fault counters) is the caller's job.
    pub(crate) fn collect(trials: Vec<Attempts<T>>, retry_budget: u32, threads: usize) -> Self {
        let n = trials.len() as u64;
        let mut values = Vec::with_capacity(trials.len());
        let mut failures = Vec::new();
        let mut total_panics = 0u64;
        for (i, t) in trials.into_iter().enumerate() {
            total_panics += u64::from(t.panics);
            if t.value.is_none() {
                failures.push(TrialFailure {
                    trial: i as u64,
                    attempts: retry_budget + 1,
                    message: t
                        .last_message
                        .unwrap_or_else(|| "no attempt recorded".to_string()),
                });
            }
            values.push(t.value);
        }
        let failed_trials = failures.len() as u64;
        let retries = total_panics - failed_trials.min(total_panics);
        ResilientRun {
            values,
            failures,
            stats: RunStats {
                trials: n,
                wall: Duration::ZERO,
                threads,
                panics: total_panics,
                retries,
                failed_trials,
            },
        }
    }
}
