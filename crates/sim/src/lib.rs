//! Deterministic simulation substrate for the Mosaic reproduction.
//!
//! This crate replaces the paper's physical testbed runs with seeded,
//! reproducible Monte-Carlo simulation:
//!
//! * [`rng`] — a ChaCha-based deterministic RNG with named substreams, so
//!   every experiment is exactly reproducible from one seed and adding a
//!   new consumer never perturbs existing streams;
//! * [`event`] — a minimal discrete-event queue (time-ordered, stable for
//!   simultaneous events) used by the reliability and network simulations;
//! * [`inject`] — bit-exact error injection: geometric skip sampling makes
//!   BER-1e-6 streams as cheap as BER-1e-2 streams;
//! * [`montecarlo`] — Gaussian-threshold receiver simulation (validates
//!   the analytic Q-factor BER model) and coded-channel runs (validates
//!   the analytic post-FEC math);
//! * [`faults`] — the one fault language: the cross-layer taxonomy and
//!   [`faults::FaultCampaign`], seeded or listed event by event;
//! * [`checkpoint`] — checkpointed exact folds: the [`checkpoint::ExactRollup`]
//!   contract, batch stores, and the kill/resume protocol behind
//!   `TrialPlan::fold_checkpointed`;
//! * [`digest`] — FNV-1a 64, the one stable digest every fingerprint,
//!   checkpoint key and label hash uses;
//! * [`campaign`] — [`campaign::FaultedLink`], the stepped link-under-faults
//!   core F17 and F19 share, and F17's replay with and without a controller;
//! * [`fidelity`] — [`fidelity::FidelityMode`], whose one variant is
//!   the full trial budget every figure runs at;
//! * [`link_sim`] — the end-to-end frame-level link simulation driving the
//!   real gearbox + FEC code paths;
//! * [`sweep`] — the deterministic parallel execution engine: Monte-Carlo
//!   fan-out whose output is bit-identical whether it runs on 1 thread or
//!   32 (`MOSAIC_THREADS` selects; counter-based seed splitting makes the
//!   per-task streams scheduling-independent);
//! * [`telemetry`] — the run-metrics layer (counters, series, per-stage
//!   wall/CPU timers) whose metric values are thread-count invariant by
//!   construction;
//! * [`json`] — a dependency-free JSON writer/parser with deterministic
//!   output, backing the run manifests in `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod digest;
pub mod event;
pub mod faults;
pub mod fidelity;
pub mod inject;
pub mod json;
pub mod link_sim;
pub mod montecarlo;
pub mod rng;
pub mod sweep;
pub mod telemetry;

pub use campaign::{run_campaign, CampaignOutcome, CampaignRunConfig};
pub use event::EventQueue;
pub use faults::{CampaignConfig, FaultCampaign};
pub use inject::BitErrorInjector;
pub use json::Json;
pub use link_sim::{simulate_link, LinkSimConfig, LinkSimReport};
pub use rng::DetRng;
pub use sweep::{Exec, RunStats, TrialPlan};
