//! Deterministic parallel sweep engine.
//!
//! Split into three layers:
//!
//! - [`engine`] — the [`Exec`] worker pool: scoped threads, atomic
//!   self-scheduling, fallible `try_*` task execution, commutative
//!   folds, chunk helpers, and [`RunStats`].
//! - [`resilience`] — panic-tolerant retries: [`TrialFailure`],
//!   [`ResilientRun`], and the bounded per-trial retry loop.
//! - [`scheduler`] — the [`TrialPlan`] builder API (trials, seed, label,
//!   retry budget, fidelity hint) with its [`TrialCtx`] per-trial
//!   context.
//!
//! Everything re-exports here, so `sim::sweep::Exec` and friends keep
//! their historic paths.
//!
//! # Determinism contract
//!
//! Results are a pure function of `(config, seed)`: trial RNG streams
//! are counter-derived (`DetRng::substream_indexed`), work is claimed
//! from an atomic counter but reassembled in task order, and integer
//! statistics are summed exactly — so any `MOSAIC_THREADS` value
//! produces bit-identical output (DESIGN §4, §10).

pub mod engine;
pub mod resilience;
pub mod scheduler;

pub use engine::{chunk_count, chunk_len, measured, measured_as, Exec, RunStats, THREADS_ENV};
pub use resilience::{ResilientRun, TrialFailure};
pub use scheduler::{FidelityHint, TrialCtx, TrialPlan};
