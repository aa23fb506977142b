//! The Mosaic reproduction's benchmark: four fixed-size workloads, the
//! end-to-end metrics a user of the simulator sees, and a traced run that
//! splits the time across the layers (crates) it passes through.
//!
//! Every workload is a closed-loop batch run on one worker thread. A run
//! repeats *passes* over the workload's fixed input until its time budget
//! is spent; each pass re-does the set-up (timed as `setup_s`) and the
//! measured phase (timed unit by unit into `cpu_s`), and its outputs are
//! checked. Times are host times; simulated statistics are checked for
//! identity through the output digest, never timed. See `README.md` for
//! the catalogue.

// The one exception is the foreign call behind `cpu::now_ns`.
#![deny(unsafe_code)]

pub mod cpu;
pub mod figures;
pub mod fleet;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod traffic;

use std::path::PathBuf;
use trace::Tracer;

/// Seed used when `--seed` is not given; the golden digests are taken
/// at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["traffic_clean", "traffic_faults", "fleet", "figures_full"];

/// Input size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few milliseconds of the same work, for the smoke tests.
    Tiny,
}

/// Output checks of one run: each one counts toward `attempted`, each
/// one that fails toward `failed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; record `what` if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// The input one pass consumes.
    type Input;
    /// What one pass produces.
    type Output;

    /// Build one pass's input from the seed (timed as set-up). With a
    /// tracer, spans are recorded around the program calls it makes.
    fn setup(&self, tracer: Option<&mut Tracer>) -> Self::Input;

    /// The measured phase, calling `units.mark()` at the end of each unit
    /// of work; every pass must be cut into the same units. With a
    /// tracer, spans are recorded around the program calls it makes; the
    /// outputs must not change.
    fn run(
        &self,
        input: Self::Input,
        tracer: Option<&mut Tracer>,
        units: &mut cpu::Units,
    ) -> Self::Output;

    /// Check one pass's outputs and return their digest.
    fn check(&self, output: &Self::Output, checks: &mut Checks) -> u64;

    /// Per-layer metrics of a traced pass: read from its spans, plus
    /// replays of the layers the pass went through (extra work, run
    /// after the pass and timed on their own).
    fn layers(
        &self,
        output: &Self::Output,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)>;
}

/// Root of the repository the benchmark was built in.
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

/// Scratch space of the benchmark (ignored by git): figure working
/// directories and trace files.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
