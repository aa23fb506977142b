//! Trial planning: the builder-style [`TrialPlan`] API, the one public
//! way to fan work out over an [`Exec`].
//!
//! A plan captures *what* a fan-out is — trial count, root seed, stream
//! label — separately from *how* it executes (an [`Exec`] passed to the
//! terminal method). One plan, five terminal shapes, all running on the
//! engine's one private fan-out core:
//!
//! | terminal                          | closure                             | result                   |
//! |-----------------------------------|-------------------------------------|--------------------------|
//! | [`TrialPlan::run`]                | `Fn(&mut TrialCtx) -> T`            | `Vec<T>` in trial order  |
//! | [`TrialPlan::sum`]                | `Fn(&mut TrialCtx) -> u64`          | exact `u64` total        |
//! | [`TrialPlan::run_with`]           | `Fn(&mut TrialCtx, &mut S) -> T`    | `Vec<T>`, per-worker scratch |
//! | [`TrialPlan::fold`]               | `Fn(&mut TrialCtx, &mut S, &mut A)` | commutative fold         |
//! | [`TrialPlan::fold_checkpointed`]  | `Fn(&mut TrialCtx, &mut S) -> R`    | batched, resumable [`ExactRollup`] |
//!
//! A grid of parameter points is a plan over its indices:
//! `TrialPlan::new().trials(n).run(&exec, |ctx| point(ctx.trial()))`.
//!
//! Each trial's closure receives a [`TrialCtx`]: the trial index and
//! counter-derived RNG streams ([`TrialCtx::rng`] for the plan's
//! labelled stream, [`TrialCtx::stream`] for named stream families like
//! `"rs-data"`/`"rs-noise"`) — a pure function of `(seed, label, trial)`.
//!
//! **Telemetry is label opt-in**: a plan with a label records the
//! `trials.{label}` counter and a `par_trials.{label}` stage; an
//! unlabelled plan records nothing.

use super::engine::{fan_out, Exec};
use crate::checkpoint::{Checkpoints, ExactRollup};
use crate::rng::DetRng;
use mosaic_units::{MosaicError, Result};

/// Per-trial execution context handed to [`TrialPlan`] closures.
///
/// Carries the trial index and derives counter-based RNG streams on
/// demand — a pure function of `(seed, label, trial)`, never of
/// scheduling order.
#[derive(Debug)]
pub struct TrialCtx<'p> {
    trial: u64,
    seed: u64,
    label: &'p str,
}

impl TrialCtx<'_> {
    /// Trial index in the fan-out (`0..trials`).
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// This trial's stream under the plan's label, `(seed, label,
    /// trial)`.
    pub fn rng(&self) -> DetRng {
        // lint: allow(R5) reason=forwards the plan's label; collision checking happens at the literal call sites
        DetRng::substream_indexed(self.seed, self.label, self.trial)
    }

    /// This trial's stream in a named family, for call sites that draw
    /// from several independent streams per trial (e.g. `"rs-data"` and
    /// `"rs-noise"`): `(seed, family, trial)`, the direct
    /// `substream_indexed` derivation.
    pub fn stream(&self, family: &str) -> DetRng {
        // lint: allow(R5) reason=forwards the caller's family label; collision checking happens at the literal call sites
        DetRng::substream_indexed(self.seed, family, self.trial)
    }
}

/// A declarative Monte-Carlo fan-out: trial count, root seed and stream
/// label, executed against an [`Exec`] by one of the
/// terminal methods (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialPlan<'a> {
    trials: u64,
    seed: u64,
    label: Option<&'a str>,
    /// Index of this plan's first trial: nonzero only for the per-batch
    /// plans of [`TrialPlan::fold_checkpointed`].
    first_trial: u64,
}

/// One worker's [`TrialPlan::run_with`] results, as runs of consecutive
/// trial indices. A worker claims indices in increasing order, so on one
/// thread it holds a single run and reassembly is a move: no per-trial
/// tag and no sort.
struct Runs<T>(Vec<(usize, Vec<T>)>);

impl<T> Runs<T> {
    fn push(&mut self, i: usize, value: T) {
        match self.0.last_mut() {
            Some((start, run)) if *start + run.len() == i => run.push(value),
            _ => self.0.push((i, vec![value])),
        }
    }

    /// Every run's values, in trial order.
    fn into_vec(mut self) -> Vec<T> {
        self.0.sort_unstable_by_key(|(start, _)| *start);
        let mut runs = self.0.into_iter().map(|(_, run)| run);
        let first = runs.next().unwrap_or_default();
        runs.fold(first, |mut all, run| {
            all.extend(run);
            all
        })
    }
}

/// The value of a plan terminal, or the `WorkerFailed` panic its docs
/// promise.
fn or_panic<T>(result: Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

impl<'a> TrialPlan<'a> {
    /// An empty plan: zero trials, seed 0, no label (telemetry off).
    pub fn new() -> Self {
        TrialPlan::default()
    }

    /// Set the number of independent trials.
    pub fn trials(mut self, n: u64) -> Self {
        self.trials = n;
        self
    }

    /// Set the root seed trials derive their streams from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Label the plan: names the RNG stream family *and* opts into
    /// telemetry (`trials.{label}` counter + `par_trials.{label}` stage).
    pub fn label(mut self, label: &'a str) -> Self {
        self.label = Some(label);
        self
    }

    fn stream_label(&self) -> &'a str {
        self.label.unwrap_or("")
    }

    fn record_trials(&self) {
        if let Some(label) = self.label {
            crate::telemetry::counter_add(&format!("trials.{label}"), self.trials);
        }
    }

    fn staged<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.label {
            Some(label) => crate::telemetry::stage(&format!("par_trials.{label}"), self.trials, f),
            None => f(),
        }
    }

    fn ctx(&self, trial: u64) -> TrialCtx<'a> {
        TrialCtx {
            trial: self.first_trial + trial,
            seed: self.seed,
            label: self.stream_label(),
        }
    }

    /// Every trial's result in trial order, on the fan-out core with one
    /// scratch state per worker.
    fn ordered<S, T, FS, F>(&self, exec: &Exec, make_scratch: FS, f: F) -> Result<Vec<T>>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut TrialCtx, &mut S) -> T + Sync,
    {
        fan_out(
            exec,
            self.trials as usize,
            make_scratch,
            || Runs(Vec::new()),
            |i, scratch, runs| runs.push(i, f(&mut self.ctx(i as u64), scratch)),
            |all, part| all.0.extend(part.0),
        )
        .map(Runs::into_vec)
    }

    /// Run every trial, returning results in trial order.
    ///
    /// # Panics
    /// Panics (once, with the [`mosaic_units::MosaicError::WorkerFailed`]
    /// message) if a trial closure panics: the failure of the panicking
    /// trial with the smallest index.
    pub fn run<T, F>(&self, exec: &Exec, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut TrialCtx) -> T + Sync,
    {
        self.run_with(exec, || (), |ctx, ()| f(ctx))
    }

    /// Run every trial with one reusable scratch state per worker.
    ///
    /// The state must not carry information between trials that affects
    /// results (scratch buffers are overwritten, RNGs are rebuilt per
    /// trial): which worker runs which trial depends on scheduling.
    ///
    /// # Panics
    /// As [`TrialPlan::run`]; a panicking `make_scratch` counts as
    /// trial 0.
    pub fn run_with<S, T, FS, F>(&self, exec: &Exec, make_scratch: FS, f: F) -> Vec<T>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut TrialCtx, &mut S) -> T + Sync,
    {
        self.record_trials();
        self.staged(|| or_panic(self.ordered(exec, make_scratch, f)))
    }

    /// Sum a `u64` statistic over all trials: the allocation-free form of
    /// [`TrialPlan::run`]`(..).iter().sum()`. Exact integer addition, so
    /// the total is thread-count invariant.
    ///
    /// # Panics
    /// As [`TrialPlan::run`].
    pub fn sum<F>(&self, exec: &Exec, f: F) -> u64
    where
        F: Fn(&mut TrialCtx) -> u64 + Sync,
    {
        self.fold(
            exec,
            || (),
            || 0u64,
            |ctx, _scratch, acc| *acc += f(ctx),
            |total, part| *total += part,
        )
    }

    /// Fold trials straight into an accumulator — no per-trial results —
    /// with one scratch state per worker. `make_acc` builds each worker's
    /// accumulator, and worker accumulators merge at join.
    ///
    /// **Determinism contract**: workers fold whichever trials they
    /// claim, so the fold and `merge` must be *exactly* commutative and
    /// associative — integer adds, xor, min/max. Floating-point sums do
    /// **not** qualify (rounding is order-dependent); for those, use
    /// [`TrialPlan::run`] and fold the returned vector in trial order.
    ///
    /// # Panics
    /// As [`TrialPlan::run`]; a panicking `make_scratch` or `make_acc`
    /// counts as trial 0, and a failed fold returns no partial value.
    pub fn fold<S, A, FS, FA, F, M>(
        &self,
        exec: &Exec,
        make_scratch: FS,
        make_acc: FA,
        f: F,
        merge: M,
    ) -> A
    where
        A: Send,
        FS: Fn() -> S + Sync,
        FA: Fn() -> A + Sync,
        F: Fn(&mut TrialCtx, &mut S, &mut A) + Sync,
        M: Fn(&mut A, A),
    {
        self.record_trials();
        self.staged(|| {
            or_panic(fan_out(
                exec,
                self.trials as usize,
                make_scratch,
                make_acc,
                |i, scratch, acc| f(&mut self.ctx(i as u64), scratch, acc),
                merge,
            ))
        })
    }

    /// Fold every trial's [`ExactRollup`] into one, in checkpointed
    /// batches (the protocol in [`crate::checkpoint`]): trials run in
    /// batches of `ck.batch_trials`, each batch a [`TrialPlan::fold`]
    /// under this plan's seed and label, and the cumulative rollup is
    /// saved to `ck.store` after every batch. On entry the store is
    /// scanned newest batch first and the fold resumes after the last
    /// checkpoint stamped with `ck.digest`. `Ok(None)` means
    /// `ck.stop_after_batches` batches ran and the fold stopped early;
    /// calling again with the same store finishes it, with the rollup an
    /// uninterrupted run returns.
    ///
    /// [`TrialCtx::trial`] is the global trial index, whatever the batch.
    /// The result is bit-identical at every thread count, batch size and
    /// kill/resume schedule because [`ExactRollup::merge`] is exact.
    ///
    /// # Errors
    /// `batch_trials == 0`, or a store that cannot save.
    ///
    /// # Panics
    /// As [`TrialPlan::run`].
    pub fn fold_checkpointed<R, S, FS, F>(
        &self,
        exec: &Exec,
        ck: Checkpoints<'_, R>,
        make_scratch: FS,
        f: F,
    ) -> Result<Option<R>>
    where
        R: ExactRollup,
        FS: Fn() -> S + Sync,
        F: Fn(&mut TrialCtx, &mut S) -> R + Sync,
    {
        if ck.batch_trials == 0 {
            return Err(MosaicError::invalid_config(
                "checkpoint_batch",
                "batch_trials must be >= 1",
            ));
        }
        let batches = self.trials.div_ceil(ck.batch_trials);
        let mut cumulative = R::default();
        let mut start = 0u64;
        for b in (0..batches).rev() {
            if let Some(r) = ck.store.load(b, ck.digest) {
                cumulative = r;
                start = b + 1;
                break;
            }
        }
        for (executed, b) in (start..batches).enumerate() {
            if ck
                .stop_after_batches
                .is_some_and(|limit| executed as u64 >= limit)
            {
                return Ok(None);
            }
            let first_trial = b * ck.batch_trials;
            let batch = TrialPlan {
                trials: ck.batch_trials.min(self.trials - first_trial),
                first_trial,
                ..*self
            };
            let part = batch.fold(
                exec,
                &make_scratch,
                R::default,
                |ctx, scratch, acc| acc.merge(&f(ctx, scratch)),
                |total, other| total.merge(&other),
            );
            cumulative.merge(&part);
            ck.store.save(b, ck.digest, &cumulative)?;
        }
        Ok(Some(cumulative))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_run_preserves_order() {
        let exec = Exec::with_threads(4);
        let out = TrialPlan::new()
            .trials(100)
            .run(&exec, |ctx| ctx.trial() * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn runs_hold_in_order_results_as_one_run_and_reassemble_any_split() {
        let mut seq = Runs(Vec::new());
        for i in 0..5 {
            seq.push(i, i * 10);
        }
        assert_eq!(seq.0.len(), 1, "one worker in index order: one run");
        assert_eq!(seq.into_vec(), vec![0, 10, 20, 30, 40]);
        // Two workers' increasing claims, merged as the core merges them.
        let (mut a, mut b) = (Runs(Vec::new()), Runs(Vec::new()));
        for i in [0, 1, 4] {
            a.push(i, i * 10);
        }
        for i in [2, 3, 5] {
            b.push(i, i * 10);
        }
        a.0.extend(b.0);
        assert_eq!(a.into_vec(), vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn plan_streams_are_per_trial_and_match_direct_derivation() {
        let _collector = crate::telemetry::test_guard::shared();
        let exec = Exec::with_threads(4);
        let draws = TrialPlan::new()
            .trials(16)
            .seed(9)
            .label("t")
            .run(&exec, |ctx| ctx.rng().next_u64());
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), draws.len());
        let direct = DetRng::substream_indexed(9, "t", 3).next_u64();
        assert_eq!(draws[3], direct);
    }

    #[test]
    fn plan_stream_families_match_direct_derivation() {
        let exec = Exec::with_threads(2);
        let draws = TrialPlan::new().trials(8).seed(21).run(&exec, |ctx| {
            (
                ctx.stream("rs-data").next_u64(),
                ctx.stream("rs-noise").next_u64(),
            )
        });
        assert_eq!(
            draws[5].0,
            DetRng::substream_indexed(21, "rs-data", 5).next_u64()
        );
        assert_eq!(
            draws[5].1,
            DetRng::substream_indexed(21, "rs-noise", 5).next_u64()
        );
    }

    #[test]
    fn plan_sum_matches_plan_run() {
        let _collector = crate::telemetry::test_guard::shared();
        let seq: u64 = TrialPlan::new()
            .trials(40)
            .seed(7)
            .label("sum-t")
            .run(&Exec::with_threads(1), |ctx| ctx.rng().next_u64() >> 40)
            .iter()
            .sum();
        for threads in [1, 4, 9] {
            let summed = TrialPlan::new()
                .trials(40)
                .seed(7)
                .label("sum-t")
                .sum(&Exec::with_threads(threads), |ctx| {
                    ctx.rng().next_u64() >> 40
                });
            assert_eq!(seq, summed, "threads={threads}");
        }
    }

    #[test]
    fn plan_run_with_matches_run() {
        let plain = TrialPlan::new()
            .trials(97)
            .run(&Exec::with_threads(1), |ctx| {
                ctx.trial().wrapping_mul(2654435761)
            });
        for threads in [1, 3, 8] {
            let with = TrialPlan::new().trials(97).run_with(
                &Exec::with_threads(threads),
                Vec::<u64>::new,
                |ctx, buf| {
                    buf.clear();
                    buf.push(ctx.trial().wrapping_mul(2654435761));
                    buf[0]
                },
            );
            assert_eq!(plain, with, "threads={threads}");
        }
    }

    #[test]
    fn plan_telemetry_is_label_opt_in() {
        let _collector = crate::telemetry::test_guard::exclusive();
        let exec = Exec::with_threads(2);
        let label = "sched-telemetry-probe";
        let key = format!("trials.{label}");
        let before = crate::telemetry::snapshot()
            .counters
            .get(&key)
            .copied()
            .unwrap_or(0);
        TrialPlan::new()
            .trials(13)
            .seed(1)
            .label(label)
            .run(&exec, |ctx| ctx.trial());
        let after = crate::telemetry::snapshot()
            .counters
            .get(&key)
            .copied()
            .unwrap_or(0);
        assert_eq!(after - before, 13, "labelled plan must bump trials.{label}");

        // Unlabelled plans record nothing.
        let counters_before = crate::telemetry::snapshot().counters;
        TrialPlan::new().trials(5).run(&exec, |ctx| ctx.trial());
        let counters_after = crate::telemetry::snapshot().counters;
        assert_eq!(counters_before, counters_after);
    }
}
