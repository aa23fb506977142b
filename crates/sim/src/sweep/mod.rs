//! Deterministic parallel sweep engine.
//!
//! Split into two layers:
//!
//! - [`engine`] — the [`Exec`] thread-count handle and the one private
//!   fan-out core (scoped workers, atomic self-scheduling, per-worker
//!   state and accumulator merged at join, `WorkerFailed` on a panic),
//!   plus chunk helpers and [`RunStats`].
//! - [`scheduler`] — the [`TrialPlan`] builder API (trials, seed, label)
//!   with its [`TrialCtx`] per-trial context: the only public way to run
//!   work in parallel.
//!
//! Everything re-exports here, so `sim::sweep::Exec` and friends keep
//! their historic paths.
//!
//! # Determinism contract
//!
//! Results are a pure function of `(config, seed)`: trial RNG streams
//! are counter-derived (`DetRng::substream_indexed`), work is claimed
//! from an atomic counter but reassembled in trial order, and integer
//! statistics are summed exactly — so any `MOSAIC_THREADS` value
//! produces bit-identical output (DESIGN §4, §10).
//!
//! # Failure contract
//!
//! A trial that panics fails its whole terminal: the terminal panics
//! once with the `WorkerFailed` message of the panicking trial with the
//! smallest index, whatever the thread count. Nothing is retried.

pub mod engine;
pub mod scheduler;

pub use engine::{chunk_count, chunk_len, Exec, RunStats, THREADS_ENV};
pub use scheduler::{TrialCtx, TrialPlan};
