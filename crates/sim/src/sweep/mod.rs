//! Deterministic parallel sweep engine.
//!
//! Split into three layers:
//!
//! - [`engine`] — the [`Exec`] thread-count handle and the one private
//!   fan-out core (scoped workers, atomic self-scheduling, per-worker
//!   state and accumulator merged at join, `WorkerFailed` on a panic),
//!   plus chunk helpers and [`RunStats`].
//! - [`resilience`] — panic-tolerant retries: [`TrialFailure`],
//!   [`ResilientRun`], and the bounded per-trial retry loop.
//! - [`scheduler`] — the [`TrialPlan`] builder API (trials, seed, label,
//!   retry budget) with its [`TrialCtx`] per-trial context: the only
//!   public way to run work in parallel.
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

pub mod engine;
pub mod resilience;
pub mod scheduler;

pub use engine::{chunk_count, chunk_len, Exec, RunStats, THREADS_ENV};
pub use resilience::{ResilientRun, TrialFailure};
pub use scheduler::{TrialCtx, TrialPlan};
